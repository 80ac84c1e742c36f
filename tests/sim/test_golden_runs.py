"""Golden outputs of the engines' one execution pipeline.

Every scenario below is run on the default path (compiled workload
trace, vector power, fused dense spans, event-driven strides where
enabled) and compared with ``golden_runs.json``: integer, boolean and
string fields exactly, floats within ``rel=1e-9`` (room for BLAS
summation order on another machine, nothing more).

The scenarios cover single-core runs under every kind of actuation
(none, fetch gating, multi-level DVS with stall sub-steps, the hybrids),
one run on the backward-Euler test oracle
(:func:`tests.conftest.backward_euler`), a sensor fault plan, a recorded
trace, the whole SPEC suite, and one dual-core run with an eager core
hopper.

Regenerate the fixture only for a deliberate physics change::

    PYTHONPATH=src python -m tests.sim.test_golden_runs
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.core.policies import make_policy
from repro.dtm import DvsPolicy, FetchGatingPolicy, NoDtmPolicy
from repro.dtm.dvs import DvsConfig
from repro.dtm.thresholds import ThermalThresholds
from repro.multicore import CoreHopper, HoppingConfig, MultiCoreEngine
from repro.sensors.faults import SensorFault
from repro.sim import EngineConfig, SimulationEngine
from repro.sim.faults import FaultPlan
from repro.workloads import build_benchmark
from repro.workloads.spec import SPEC_BENCHMARK_NAMES
from tests.conftest import backward_euler

FIXTURE = Path(__file__).with_name("golden_runs.json")

REL_TOL = 1e-9


def _single(bench, policy, *, seed, instructions, settle_time_s, **config):
    """A single-core scenario; ``run(**overrides)`` layers extra
    EngineConfig fields over the scenario's own."""

    def run(**overrides) -> dict:
        engine = SimulationEngine(
            build_benchmark(bench),
            policy=policy(),
            config=EngineConfig(**{**config, **overrides}),
            seed=seed,
        )
        init = engine.compute_initial_temperatures()
        result = engine.run(
            instructions, initial=init, settle_time_s=settle_time_s
        )
        out = result.to_json_dict()
        if result.trace is not None:
            out["trace"] = [asdict(point) for point in result.trace]
        return out

    return run


def _dual_core(**overrides) -> dict:
    thresholds = ThermalThresholds(
        emergency_c=200.0, practical_limit_c=150.0, trigger_c=40.0
    )
    engine = MultiCoreEngine(
        [build_benchmark("crafty"), build_benchmark("mesa")],
        policies=[make_policy("Hyb"), make_policy("Hyb")],
        hopper=CoreHopper(
            HoppingConfig(neighbour_margin_c=0.0, min_interval_s=1.0e-4),
            thresholds=thresholds,
        ),
        config=EngineConfig(**overrides),
        seed=7,
    )
    init = engine.compute_initial_temperatures()
    return engine.run(2.0e-3, initial=init, settle_time_s=0.5e-3).to_json_dict()


def _dense_gcc(policy, settle_time_s=2.0e-4, **config):
    # Dense stepping throughout: every step's power and thermal update
    # is computed, none is jumped in closed form.
    return _single(
        "gcc", policy, seed=3, instructions=3_000_000,
        settle_time_s=settle_time_s, fast_forward=False, **config,
    )


def _suite_run(bench, policy="Hyb", **config):
    return _single(
        bench, lambda: make_policy(policy), seed=5, instructions=1_000_000,
        settle_time_s=2.0e-4, **config,
    )


def _on_backward_euler(run):
    def oracle() -> dict:
        with backward_euler():
            return run()

    return oracle


SCENARIOS: Dict[str, Callable[..., dict]] = {
    "gcc-none-dense": _dense_gcc(NoDtmPolicy),
    "gcc-fg-dense": _dense_gcc(FetchGatingPolicy),
    # Measured from t = 0 so the multi-level controller's switches (and
    # their stall sub-steps) fall inside the measured window.
    "gcc-dvs5-stall-dense": _dense_gcc(
        lambda: DvsPolicy(DvsConfig(level_count=5)),
        settle_time_s=0.0, dvs_mode="stall",
    ),
    **{f"{name}-hyb": _suite_run(name) for name in SPEC_BENCHMARK_NAMES},
    "gzip-dvs-be": _on_backward_euler(
        _suite_run("gzip", "DVS", fast_forward=False)
    ),
    "gzip-dvs-expm": _suite_run("gzip", "DVS"),
    "gzip-hyb-dropout": _suite_run(
        "gzip",
        fault_plan=FaultPlan(sensor_faults=(SensorFault.dropout("FPMul"),)),
    ),
    "gzip-hyb-trace": _suite_run("gzip", record_trace=True),
    "crafty+mesa-hyb-hop": _dual_core,
}


def _assert_matches(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert got == pytest.approx(want, rel=REL_TOL), where
    else:
        assert type(got) is type(want) and got == want, where


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_scenario(golden):
    assert golden.keys() == SCENARIOS.keys()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_matches_golden(golden, name):
    _assert_matches(SCENARIOS[name](), golden[name], name)


if __name__ == "__main__":
    golden = {name: run() for name, run in SCENARIOS.items()}
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(SCENARIOS)} scenarios to {FIXTURE}")
