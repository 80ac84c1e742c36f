"""The batch sweep runner."""

import json
import warnings
from functools import partial

import pytest

from repro.dtm import FetchGatingPolicy
from repro.errors import SimulationError
from repro.sim import EngineConfig, RunSpec, run_many, run_one
from repro.sim.batch import _WARMUP_CACHE, steady_state_for
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


def _lockstep_batches(monkeypatch):
    """Seeds of every lockstep engine's batch built from now on."""
    from repro.sim.lockstep import LockstepEngine

    built = []
    original = LockstepEngine.__init__

    def recording(self, specs, on_finish=None):
        built.append([spec.seed for spec in specs])
        original(self, specs, on_finish)

    monkeypatch.setattr(LockstepEngine, "__init__", recording)
    return built


class TestLockstepDefault:
    """Which specs share a lockstep batch, and how batches form."""

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

    @staticmethod
    def _with_config(seed, **config):
        return RunSpec(
            workload="gzip",
            policy="FG",
            instructions=FAST_N,
            seed=seed,
            engine_config=EngineConfig(**config),
        )

    @staticmethod
    def _plan(specs, parts=1):
        from repro.sim.batch import _plan_batches
        from repro.sim.supervisor import _SpecState

        items = [
            (index, _SpecState(spec=spec, digest=str(index)))
            for index, spec in enumerate(specs)
        ]
        return [
            [index for index, _ in batch]
            for batch in _plan_batches(items, parts)
        ]

    def test_auto_on_for_homogeneous_multi_run_sweeps(self):
        assert self._plan(self._clean(2)) == [[0, 1]]

    def test_auto_off_for_single_run(self, monkeypatch):
        built = _lockstep_batches(monkeypatch)
        (spec,) = self._clean(1)
        assert self._plan([spec]) == [[0]]
        (result,) = run_many([spec])
        assert built == []
        assert result.to_json_dict() == run_one(spec).to_json_dict()

    def test_auto_off_for_specs_needing_per_run_supervision(
        self, monkeypatch
    ):
        from repro.sim.batch import lockstep_eligible
        from repro.sim.faults import FaultPlan

        (clean,) = self._clean(1)
        assert lockstep_eligible(clean)
        faulty = self._with_config(9, fault_plan=FaultPlan(crash_worker=True))
        guarded = self._with_config(9, raise_on_violation=True)
        traced = self._with_config(9, record_trace=True)
        for spec in (faulty, guarded, traced, object()):
            assert not lockstep_eligible(spec)
            assert self._plan([clean, spec]) == [[0], [1]]

        built = _lockstep_batches(monkeypatch)
        run_many([traced, self._with_config(10, record_trace=True)])
        assert built == []

    def test_mixed_serial_sweep_forms_one_lockstep_batch(self, monkeypatch):
        clean = self._clean(3)
        traced = self._with_config(9, record_trace=True)
        specs = [clean[0], traced, clean[1], clean[2]]
        assert self._plan(specs) == [[0, 2, 3], [1]]
        built = _lockstep_batches(monkeypatch)
        results = run_many(specs)
        assert built == [[0, 1, 2]]
        assert _as_json(results) == _as_json([run_one(s) for s in specs])

    def test_pool_forms_one_chunk_per_process(self):
        clean = self._clean(3)
        traced = self._with_config(9, record_trace=True)
        # Three eligible specs over two workers: a lockstep batch of
        # two and a batch of one; the traced spec runs alone.
        assert self._plan(clean + [traced], parts=2) == [[0, 1], [2], [3]]


class TestRunMany:
    # The per-run reference is run_one itself; tests/sim/test_lockstep.py
    # pins lockstep's bit-identity in depth.
    def test_parallel_matches_serial_exactly(self):
        # Compared as JSON text, so a field whose type changes on the
        # way back from a worker (int -> float) fails too.  Four
        # eligible specs over four workers run one by one.
        serial = [run_one(spec) for spec in _specs()]
        parallel = run_many(_specs(), processes=4)
        assert _as_json(serial) == _as_json(parallel)

    def test_lockstep_matches_serial_as_json(self):
        serial = [run_one(spec) for spec in _specs()]
        lockstep = run_many(_specs(), processes=1)
        pooled = run_many(_specs(), processes=2)
        assert _as_json(lockstep) == _as_json(serial)
        assert _as_json(pooled) == _as_json(serial)

    def test_results_preserve_spec_order(self):
        results = run_many(_specs(), processes=4)
        assert [r.benchmark for r in results] == ["gzip", "gcc", "mesa", "gzip"]
        assert [r.policy for r in results] == ["none", "FG", "DVS", "FG"]

    def test_deterministic_across_repeats(self):
        first = run_many(_specs(), processes=2)
        second = run_many(_specs(), processes=3)
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
