"""Fused dense spans against the per-step path, on drawn scenarios.

The fused kernel sizes each phase run ahead of the engine's stop -- the
single-core instruction budget, the dual-core measured duration, the
settle flip -- and accounts the run once.  Its claim is bit-identity
with the per-step path (the private ``repro.sim.engine._FUSE_DENSE_SPANS``
seam switched off): every result field equal under ``==``.  The hand-
picked grids in ``test_step_kernel.py`` and
``tests/multicore/test_kernel.py`` fix the stops; here hypothesis draws
settle times, budgets and durations that end anywhere inside a phase
run, over SPEC and short-phase workloads and the none, Hyb and hopping
managers.
"""

from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtm import DvsPolicy, FetchGatingPolicy, HybPolicy, NoDtmPolicy
from repro.multicore import CoreHopper, MultiCoreEngine
from repro.multicore.batch import dual_core_steady_state
from repro.sim import EngineConfig, SimulationEngine
from repro.sim import engine as engine_module
from repro.workloads import build_benchmark
from tests.conftest import short_phase_workload

_BENCHMARKS = ("gzip", "gcc", "crafty", "mesa")
_POLICIES = {
    "none": NoDtmPolicy,
    "Hyb": HybPolicy,
    "FG": FetchGatingPolicy,
    "DVS": DvsPolicy,
}
_PAIRS = (("crafty", "mesa"), ("crafty", "gcc"), ("gzip", "eon"))
_MANAGERS = ("none", "Hyb/core", "hopping", "hop+Hyb")


def _both_paths(run):
    """``run()`` fused and per-step, as field dicts."""
    fused = asdict(run())
    previous = engine_module._FUSE_DENSE_SPANS
    engine_module._FUSE_DENSE_SPANS = False
    try:
        anchor = asdict(run())
    finally:
        engine_module._FUSE_DENSE_SPANS = previous
    return fused, anchor


def _workload(name, short):
    return short_phase_workload(name) if short else build_benchmark(name)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(_BENCHMARKS),
    short=st.booleans(),
    policy=st.sampled_from(sorted(_POLICIES)),
    budget=st.integers(200_000, 8_000_000),
    settle_s=st.floats(0.0, 2.0e-4),
    fast_forward=st.booleans(),
    seed=st.integers(0, 3),
)
def test_single_core(name, short, policy, budget, settle_s, fast_forward, seed):
    workload = _workload(name, short)
    initial = SimulationEngine(workload).compute_initial_temperatures()

    def run():
        engine = SimulationEngine(
            workload,
            policy=_POLICIES[policy](),
            config=EngineConfig(fast_forward=fast_forward),
            seed=seed,
        )
        return engine.run(budget, initial=initial, settle_time_s=settle_s)

    fused, anchor = _both_paths(run)
    for field in anchor:
        assert fused[field] == anchor[field], field


@settings(max_examples=50, deadline=None)
@given(
    pair=st.sampled_from(_PAIRS),
    short=st.booleans(),
    manager=st.sampled_from(_MANAGERS),
    duration_s=st.floats(5.0e-5, 2.0e-3),
    settle_s=st.floats(0.0, 4.0e-4),
    seed=st.integers(0, 3),
)
def test_dual_core(pair, short, manager, duration_s, settle_s, seed):
    initial = dual_core_steady_state(pair)

    def run():
        engine = MultiCoreEngine(
            [_workload(name, short) for name in pair],
            policies=(
                [HybPolicy(), HybPolicy()] if "Hyb" in manager else None
            ),
            hopper=CoreHopper() if manager.startswith("hop") else None,
            seed=seed,
        )
        return engine.run(
            duration_s, initial=initial, settle_time_s=settle_s
        )

    fused, anchor = _both_paths(run)
    for field in anchor:
        assert fused[field] == anchor[field], field
