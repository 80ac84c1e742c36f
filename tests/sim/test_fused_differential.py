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

A fused run tests the health of a phase run's states once, after
stepping it, and re-steps the run from a failed row.  Two properties
force unhealthy rows: one corrupts the propagator product of a drawn
step, which backward Euler then recovers; the other heats one block
through a monkeypatched dynamic power from a drawn phase run on, so
that the state runs away at a step its drawn heat decides.  Both paths
must make the same recoveries, from the same states at the same clock,
and end in the same result or the same error.
"""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtm import DvsPolicy, FetchGatingPolicy, HybPolicy, NoDtmPolicy
from repro.errors import NumericalError
from repro.floorplan.alpha21364 import build_alpha21364_floorplan
from repro.multicore import CoreHopper, MultiCoreEngine
from repro.multicore.batch import dual_core_steady_state
from repro.power.model import PowerModel
from repro.sensors.array import SensorArray
from repro.sim import EngineConfig, SimulationEngine
from repro.sim import engine as engine_module
from repro.thermal import ExponentialSolver
from repro.thermal.hotspot import HotSpotModel
from repro.thermal.solver import OperatorBank
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


def _recording_recoveries(patch):
    """Record every backward-Euler recovery: the solver clock, the
    pre-step state and, when it succeeds, the recovered state and the
    fallback flag."""
    recoveries = []
    recover = ExponentialSolver._recover

    def recording(solver, power_w, dt, steps):
        entry = [solver.time_s, solver._out.copy()]
        recoveries.append(entry)
        recover(solver, power_w, dt, steps)
        entry += [solver._temps.copy(), solver.fallback_active]

    patch.setattr(ExponentialSolver, "_recover", recording)
    return recoveries


def _outcome(run, fused, patch_more):
    """``run()`` on one path: ``(recoveries, result fields or error
    text)``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "_FUSE_DENSE_SPANS", fused)
        recoveries = _recording_recoveries(patch)
        patch_more(patch)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                outcome = asdict(run())
        except NumericalError as exc:
            outcome = str(exc)
    return recoveries, outcome


def _assert_same(fused, anchor):
    (got, got_end), (want, want_end) = fused, anchor
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a[0] == b[0]
        assert len(a) == len(b)
        for x, y in zip(a[1:3], b[1:3]):
            assert x.tobytes() == y.tobytes()
        assert a[3:] == b[3:]
    assert got_end == want_end


def _corrupt_once(at_call, value, calls):
    """A patch of :meth:`OperatorBank.propagator` whose ``A_d`` writes
    ``value`` into node 0 of its ``at_call``-th product (0-based, over
    every step on either path): exactly one unhealthy step, whose
    pre-step state and power are healthy."""

    class Corrupting(np.ndarray):
        def dot(self, b, out=None):
            product = np.ndarray.dot(self, b, out)
            if calls[0] == at_call:
                product[0] = value
            calls[0] += 1
            return product

    propagator = OperatorBank.propagator

    def corrupting(bank, dt):
        a_d, b_d = propagator(bank, dt)
        return a_d.view(Corrupting), b_d

    def patch_more(patch):
        calls[0] = 0
        patch.setattr(OperatorBank, "propagator", corrupting)

    return patch_more


@settings(max_examples=40, deadline=None)
@given(
    dual=st.booleans(),
    short=st.booleans(),
    at_call=st.integers(0, 160),
    value=st.sampled_from([np.nan, np.inf, -np.inf, 2.0e4]),
    seed=st.integers(0, 3),
)
def test_unhealthy_row_recovers_identically(dual, short, at_call, value, seed):
    if dual:
        pair = ("crafty", "gcc")
        initial = dual_core_steady_state(pair)

        def run():
            engine = MultiCoreEngine(
                [_workload(name, short) for name in pair],
                policies=[HybPolicy(), HybPolicy()],
                seed=seed,
            )
            return engine.run(1.5e-3, initial=initial, settle_time_s=1e-4)

    else:
        workload = _workload("gzip", short)
        initial = SimulationEngine(workload).compute_initial_temperatures()

        def run():
            engine = SimulationEngine(
                workload,
                policy=HybPolicy(),
                config=EngineConfig(fast_forward=False),
                seed=seed,
            )
            return engine.run(3_000_000, initial=initial, settle_time_s=1e-4)

    calls = [0]
    fused = _outcome(run, True, _corrupt_once(at_call, value, calls))
    fused_calls = calls[0]
    anchor = _outcome(run, False, _corrupt_once(at_call, value, calls))
    _assert_same(fused, anchor)
    # The corrupted step was taken (and recovered) on both paths.
    assert fused_calls > at_call and calls[0] > at_call
    assert len(anchor[0]) == 1 and anchor[0][0][3]


_HOT_CYCLES = 900_000


@pytest.fixture(scope="module")
def hot_substrate():
    floorplan = build_alpha21364_floorplan()
    hotspot, power = HotSpotModel(floorplan), PowerModel(floorplan)
    tech = power.technology
    dt = _HOT_CYCLES / tech.frequency_nominal
    # The block whose exact one-step response leads backward Euler's
    # most, and the activity whose exact step lands on the divergence
    # limit from cold (as in TestUnhealthyMidSpan).
    bank = hotspot.network.operator_bank
    _, b_d = bank.propagator(dt)
    m_inv, _ = bank.factorisation(dt)
    n = len(power.block_names)
    block = int(np.argmax([b_d[j, j] / m_inv[j, j] for j in range(n)]))
    unit = np.zeros(n)
    unit[block] = 1.0
    args = (tech.vdd_nominal, tech.frequency_nominal)
    per_activity_w = (
        power.dynamic_vector_w(unit, *args)[block]
        - power.dynamic_vector_w(np.zeros(n), *args)[block]
    )
    target = 1.0e4 / np.sqrt(b_d[block, block] * m_inv[block, block])
    return floorplan, hotspot, power, block, target / per_activity_w


@settings(max_examples=30, deadline=None)
@given(
    short=st.booleans(),
    hot_from=st.integers(1, 3),
    heat=st.floats(0.02, 1.2),
    cycles=st.sampled_from([10_000, 100_000, _HOT_CYCLES]),
)
def test_runaway_fails_identically(hot_substrate, short, hot_from, heat, cycles):
    """From the ``hot_from``-th distinct activity vector on (a drawn
    phase run), one block runs ``heat`` times the activity whose exact
    900k-cycle step lands on the divergence limit; where the state
    runs away inside that run depends on the heat and the step."""
    floorplan, hotspot, power, block, activity = hot_substrate
    workload = _workload("gzip", short)
    engine_args = dict(
        policy=NoDtmPolicy(),
        floorplan=floorplan,
        power_model=power,
        hotspot=hotspot,
        config=EngineConfig(thermal_step_cycles=cycles, fast_forward=False),
    )
    initial = SimulationEngine(
        workload, **engine_args
    ).compute_initial_temperatures()

    def run():
        engine = SimulationEngine(
            workload,
            sensors=SensorArray(floorplan, seed=0, sampling_rate_hz=100.0),
            **engine_args,
        )
        return engine.run(20_000_000, initial=initial)

    def heated_power(patch):
        seen = []

        def heated(acts):
            key = acts.tobytes()
            if key not in seen:
                seen.append(key)
            if seen.index(key) < hot_from:
                return acts
            acts = np.array(acts)
            acts[block] = activity * heat
            return acts

        total = power.block_powers_vector
        dynamic = power.dynamic_vector_w
        patch.setattr(
            power, "block_powers_vector",
            lambda acts, *a, **k: total(heated(acts), *a, **k),
        )
        patch.setattr(
            power, "dynamic_vector_w",
            lambda acts, *a, **k: dynamic(heated(acts), *a, **k),
        )

    _assert_same(
        _outcome(run, True, heated_power), _outcome(run, False, heated_power)
    )
