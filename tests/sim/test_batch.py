"""The batch sweep runner."""

import json
import warnings
from functools import partial

import pytest

from repro.dtm import FetchGatingPolicy
from repro.errors import SimulationError
from repro.sim import EngineConfig, RunSpec, run_many, run_one
from repro.sim.batch import (
    _WARMUP_CACHE,
    reset_stats,
    stats,
    steady_state_for,
)
from repro.workloads import build_benchmark

FAST_N = 1_500_000

RESULT_FIELDS = (
    "benchmark",
    "policy",
    "instructions",
    "elapsed_s",
    "cycles",
    "violations",
    "max_true_temp_c",
    "hottest_block",
    "time_above_trigger_s",
    "dvs_switches",
    "stall_time_s",
    "mean_power_w",
)


def _specs():
    return [
        RunSpec(
            workload=name,
            policy=policy,
            instructions=FAST_N,
            settle_time_s=1.0e-4,
            seed=seed,
        )
        for seed, (name, policy) in enumerate(
            [
                ("gzip", "none"),
                ("gcc", "FG"),
                ("mesa", "DVS"),
                ("gzip", partial(FetchGatingPolicy)),
            ]
        )
    ]


def _as_json(results):
    return [json.dumps(r.to_json_dict(), sort_keys=True) for r in results]


def _as_tuples(results):
    return [
        tuple(getattr(r, field) for field in RESULT_FIELDS) for r in results
    ]


class TestLockstepDefault:
    """Resolution of run_many's lockstep execution mode."""

    def _clean(self, n=2):
        return [
            RunSpec(
                workload="gzip",
                policy="FG",
                instructions=FAST_N,
                seed=s,
            )
            for s in range(n)
        ]

    def test_auto_on_for_homogeneous_multi_run_sweeps(self):
        from repro.sim.batch import _resolve_lockstep

        assert _resolve_lockstep(self._clean(2), None) is True

    def test_auto_off_for_single_run(self):
        from repro.sim.batch import _resolve_lockstep

        assert _resolve_lockstep(self._clean(1), None) is False

    def test_auto_off_for_specs_needing_per_run_supervision(self):
        from repro.sim.faults import FaultPlan
        from repro.sim.batch import _resolve_lockstep

        faulty = self._clean(1) + [
            RunSpec(
                workload="gzip",
                policy="FG",
                instructions=FAST_N,
                seed=9,
                engine_config=EngineConfig(
                    fault_plan=FaultPlan(crash_worker=True)
                ),
            )
        ]
        assert _resolve_lockstep(faulty, None) is False
        guarded = self._clean(1) + [
            RunSpec(
                workload="gzip",
                policy="FG",
                instructions=FAST_N,
                seed=9,
                engine_config=EngineConfig(raise_on_violation=True),
            )
        ]
        assert _resolve_lockstep(guarded, None) is False
        traced = self._clean(1) + [
            RunSpec(
                workload="gzip",
                policy="FG",
                instructions=FAST_N,
                seed=9,
                engine_config=EngineConfig(record_trace=True),
            )
        ]
        assert _resolve_lockstep(traced, None) is False
        heterogeneous = self._clean(1) + [object()]
        assert _resolve_lockstep(heterogeneous, None) is False

    def test_explicit_argument_beats_auto(self):
        from repro.sim.batch import _resolve_lockstep

        assert _resolve_lockstep(self._clean(2), False) is False
        assert _resolve_lockstep(self._clean(1), True) is True


class TestRunMany:
    # These tests pin the per-run scheduling invariance of the classic
    # serial/pool paths, so they opt out of the lockstep sweep default
    # (tests/sim/test_lockstep.py pins lockstep's bit-identity).
    def test_parallel_matches_serial_exactly(self):
        # Compared as JSON text, so a field whose type changes on the
        # way back from a worker (int -> float) fails too.
        serial = run_many(_specs(), processes=1, lockstep=False)
        parallel = run_many(_specs(), processes=4, lockstep=False)
        assert _as_json(serial) == _as_json(parallel)

    def test_lockstep_matches_serial_as_json(self):
        serial = run_many(_specs(), processes=1, lockstep=False)
        lockstep = run_many(_specs(), processes=1, lockstep=True)
        pooled = run_many(_specs(), processes=2, lockstep=True)
        assert _as_json(lockstep) == _as_json(serial)
        assert _as_json(pooled) == _as_json(serial)

    def test_results_preserve_spec_order(self):
        results = run_many(_specs(), processes=4)
        assert [r.benchmark for r in results] == ["gzip", "gcc", "mesa", "gzip"]
        assert [r.policy for r in results] == ["none", "FG", "DVS", "FG"]

    def test_deterministic_across_repeats(self):
        first = run_many(_specs(), processes=2, lockstep=False)
        second = run_many(_specs(), processes=3, lockstep=False)
        assert _as_tuples(first) == _as_tuples(second)

    def test_empty_batch(self):
        assert run_many([], processes=4) == []

    def test_unpicklable_policy_falls_back_to_serial(self):
        spec = RunSpec(
            workload="gzip",
            policy=lambda: FetchGatingPolicy(),
            instructions=FAST_N,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = run_many([spec], processes=2)
        assert any("picklable" in str(w.message) for w in caught)
        assert results[0].policy == "FG"

    def test_stats_accumulate(self):
        reset_stats()
        results = run_many(_specs()[:2], processes=1)
        snapshot = stats()
        assert snapshot.runs == 2
        expected_steps = sum(
            r.cycles / EngineConfig().thermal_step_cycles for r in results
        )
        assert snapshot.thermal_steps == pytest.approx(expected_steps)
        assert snapshot.wall_s > 0.0
        assert snapshot.steps_per_second > 0.0


class TestRunSpec:
    def test_rejects_bad_budget(self):
        with pytest.raises(SimulationError):
            RunSpec(workload="gzip", instructions=0)

    def test_rejects_negative_settle(self):
        with pytest.raises(SimulationError):
            RunSpec(workload="gzip", settle_time_s=-1.0)

    def test_workload_object_and_name_agree(self):
        workload = build_benchmark("gzip")
        by_name = run_one(
            RunSpec(workload="gzip", policy="none", instructions=FAST_N)
        )
        by_object = run_one(
            RunSpec(workload=workload, policy="none", instructions=FAST_N)
        )
        assert _as_tuples([by_name]) == _as_tuples([by_object])

    def test_dvs_mode_shorthand(self):
        spec = RunSpec(workload="gzip", dvs_mode="ideal")
        assert spec.config.dvs_mode == "ideal"
        explicit = RunSpec(
            workload="gzip",
            dvs_mode="ideal",
            engine_config=EngineConfig(dvs_mode="stall"),
        )
        assert explicit.config.dvs_mode == "stall"


class TestWarmupCache:
    def test_steady_state_cached_per_workload(self):
        _WARMUP_CACHE.clear()
        first = steady_state_for("gzip")
        assert "gzip" in _WARMUP_CACHE
        second = steady_state_for("gzip")
        assert first is not second  # callers get copies
        assert (first == second).all()

    def test_explicit_initial_bypasses_cache(self):
        init = steady_state_for("gzip")
        _WARMUP_CACHE.clear()
        run_one(
            RunSpec(
                workload="gzip",
                policy="none",
                instructions=FAST_N,
                initial=init,
            )
        )
        assert "gzip" not in _WARMUP_CACHE
