"""Lockstep batched execution versus the serial runner.

``run_many`` advances a sweep's eligible runs together in lockstep,
servicing compatible thermal-step requests with one batched call per
group.  Per-run physics is untouched and every batched row is computed
exactly as a lone step would be, so each run's result must equal
:func:`~repro.sim.batch.run_one` bit for bit, whatever else shares its
batch.
"""

import numpy as np
import pytest

from repro.dtm.none import NoDtmPolicy
from repro.sim.batch import RunSpec, run_many, run_one
from repro.sim.config import EngineConfig
from repro.sim.lockstep import run_lockstep


def _specs():
    # Three policies x two seeds on one workload: the runs share the
    # thermal substrate and step length, so lockstep actually batches
    # them (DVS runs drift to other step lengths and regroup on the fly).
    return [
        RunSpec(
            workload="gcc",
            policy=policy,
            instructions=1_000_000,
            settle_time_s=1.0e-4,
            seed=seed,
        )
        for policy in ("none", "FG", "DVS")
        for seed in (0, 1)
    ]


def _assert_equivalent(result, reference):
    assert result.to_json_dict() == reference.to_json_dict()


@pytest.fixture(scope="module")
def serial_results():
    # The whole suite compares lockstep against per-run execution.
    return [run_one(spec) for spec in _specs()]


class TestLockstepEquivalence:
    def test_matches_serial_runner(self, serial_results):
        lockstep = run_many(_specs())
        assert len(lockstep) == len(serial_results)
        for batched, serial in zip(lockstep, serial_results):
            _assert_equivalent(batched, serial)

    def test_run_lockstep_direct_entry_point(self, serial_results):
        for batched, serial in zip(run_lockstep(_specs()), serial_results):
            _assert_equivalent(batched, serial)

    def test_single_spec_batch(self, serial_results):
        (result,) = run_lockstep(_specs()[:1])
        _assert_equivalent(result, serial_results[0])

    def test_empty_batch(self):
        assert run_lockstep([]) == []

    def test_explicit_initial_is_respected(self):
        spec = _specs()[0]
        (reference,) = run_many([spec])
        from repro.sim.batch import steady_state_for

        initial = steady_state_for(spec.workload)
        pinned = RunSpec(
            workload=spec.workload,
            policy=spec.policy,
            instructions=spec.instructions,
            settle_time_s=spec.settle_time_s,
            seed=spec.seed,
            initial=np.asarray(initial),
        )
        (result,) = run_lockstep([pinned])
        _assert_equivalent(result, reference)


class _FailingPolicy(NoDtmPolicy):
    """Raises at its third sensor sample, mid-run."""

    def __init__(self):
        super().__init__()
        self._samples = 0

    def update_hottest(self, hottest, time_s, dt_s):
        self._samples += 1
        if self._samples == 3:
            raise RuntimeError("policy failed mid-run")
        return super().update_hottest(hottest, time_s, dt_s)


class TestGeneratorCleanup:
    def test_failure_closes_all_live_generators(self, monkeypatch):
        # One run failing mid-sweep must close every other run's
        # suspended iter_run generator, not leave it to be finalised at
        # some arbitrary garbage collection.
        from repro.sim.engine import SimulationEngine

        captured = []
        original = SimulationEngine.iter_run

        def capturing(self, *args, **kwargs):
            generator = original(self, *args, **kwargs)
            captured.append(generator)
            return generator

        monkeypatch.setattr(SimulationEngine, "iter_run", capturing)

        poisoned = RunSpec(
            workload="gcc",
            policy=_FailingPolicy,
            instructions=1_000_000,
            seed=1,
        )
        healthy = [
            RunSpec(
                workload="gcc",
                policy="none",
                instructions=1_000_000,
                seed=seed,
            )
            for seed in (0, 2)
        ]
        with pytest.raises(RuntimeError, match="policy failed mid-run"):
            run_lockstep([healthy[0], poisoned, healthy[1]])
        assert len(captured) == 3
        assert all(gen.gi_frame is None for gen in captured)


class TestRaiseOnViolationFallback:
    def test_falls_back_to_serial_runner(self, monkeypatch):
        # An emergency must abort only its own run, so specs with
        # raise_on_violation are routed through run_one even inside a
        # lockstep batch.
        import repro.sim.batch as batch

        routed = []
        original = batch.run_one

        def counting(spec):
            routed.append(spec)
            return original(spec)

        monkeypatch.setattr(batch, "run_one", counting)
        guarded = RunSpec(
            workload="mesa",
            policy="none",
            instructions=200_000,
            # mesa's unmanaged steady state sits below the emergency
            # threshold, so the guarded run completes instead of raising.
            engine_config=EngineConfig(raise_on_violation=True),
        )
        plain = RunSpec(
            workload="gcc", policy="FG", instructions=200_000
        )
        results = run_lockstep([plain, guarded, plain])
        assert routed == [guarded]
        assert all(r is not None for r in results)
        (reference,) = run_many([guarded])
        _assert_equivalent(results[1], reference)


class TestFinishCallback:
    def test_fires_once_per_run_as_it_finishes(self):
        # Runs of different lengths finish in length order, each
        # reported with the result the batch returns; a run delegated to
        # run_one (raise_on_violation) is reported too.
        specs = [
            RunSpec(workload="gcc", policy="FG", instructions=600_000),
            RunSpec(workload="gcc", policy="FG", instructions=20_000),
            # mesa's unmanaged steady state stays below the emergency
            # threshold, so the guarded run completes.
            RunSpec(
                workload="mesa",
                policy="none",
                instructions=200_000,
                engine_config=EngineConfig(raise_on_violation=True),
            ),
        ]
        finished = []
        results = run_lockstep(
            specs, lambda index, result: finished.append((index, result))
        )
        assert sorted(index for index, _ in finished) == [0, 1, 2]
        assert [index for index, _ in finished if index != 2] == [1, 0]
        for index, result in finished:
            assert result is results[index]


def _stride_specs():
    # Runs that reject stride attempts for three different reasons, with
    # different instruction budgets so the batch shrinks while the
    # survivors are still striding.
    from functools import partial

    from repro.dtm.fetch_gating import (
        FixedFetchGatingPolicy,
        duty_cycle_to_gating_fraction,
    )

    def fixed(duty):
        return partial(
            FixedFetchGatingPolicy, duty_cycle_to_gating_fraction(duty)
        )

    stall = EngineConfig(dvs_mode="stall")
    rows = [
        ("art", "none", None, 20_000_000),
        ("art", fixed(10.0), stall, 14_000_000),
        ("gcc", fixed(5.0), stall, 20_000_000),
        ("gzip", "FG", stall, 9_000_000),
        ("bzip2", "PI-Hyb", stall, 20_000_000),
        ("eon", fixed(1.5), stall, 16_000_000),
    ]
    return [
        RunSpec(
            workload=workload,
            policy=policy,
            instructions=instructions,
            settle_time_s=2.0e-3,
            engine_config=config,
        )
        for workload, policy, config, instructions in rows
    ]


def _counters(specs, lockstep, prefix):
    """Registry counters under ``prefix`` that running ``specs`` with
    observability on added."""
    from repro.obs import metrics as obs_metrics

    previous = obs_metrics.set_enabled(True)
    try:
        before = obs_metrics.REGISTRY.counter_values()
        if lockstep:
            run_many(specs)
        else:
            for spec in specs:
                run_one(spec)
        after = obs_metrics.REGISTRY.counter_values()
    finally:
        obs_metrics.set_enabled(previous)
    return {
        name: after[name] - before.get(name, 0.0)
        for name in after
        if name.startswith(prefix)
    }


class TestStrideCounters:
    def test_lockstep_counts_equal_the_serial_sum(self):
        from repro.sim.stride import REJECT_REASONS

        serial = _counters(_stride_specs(), False, "engine.ff_")
        batched = _counters(_stride_specs(), True, "engine.ff_")
        assert batched == serial
        reasons = {
            reason: serial["engine.ff_rejected." + reason]
            for reason in REJECT_REASONS
        }
        assert serial["engine.ff_spans_rejected"] == sum(reasons.values())
        assert serial["engine.ff_spans_taken"] > 0
        assert sum(1 for count in reasons.values() if count) >= 3


class TestExactness:
    def test_stride_mix_matches_run_one(self):
        # DVS step lengths, three stride reject reasons and mixed
        # budgets: lockstep must still reproduce each run alone.
        specs = _stride_specs()
        for batched, spec in zip(run_lockstep(specs), specs):
            _assert_equivalent(batched, run_one(spec))

    def test_result_does_not_depend_on_batch(self):
        specs = _stride_specs()
        full = [r.to_json_dict() for r in run_lockstep(specs)]
        reversed_ = [r.to_json_dict() for r in run_lockstep(specs[::-1])]
        assert reversed_[::-1] == full
        subset = [r.to_json_dict() for r in run_lockstep(specs[1::2])]
        assert subset == full[1::2]


class TestRoundCounters:
    def test_same_length_runs_stay_in_phase(self):
        # Nine same-budget runs over one substrate: every run resumes as
        # soon as its stride is served, so a round holds most live runs.
        from repro.workloads.spec import build_spec_suite

        specs = [
            RunSpec(
                workload=workload.name,
                policy="FG",
                instructions=1_000_000,
                settle_time_s=2.0e-3,
                engine_config=EngineConfig(dvs_mode="stall"),
            )
            for workload in build_spec_suite()
        ]
        assert len(specs) == 9
        counts = _counters(specs, True, "engine.lockstep.")
        assert counts["engine.lockstep.stride_rounds"] > 0
        rounds = counts["engine.lockstep.rounds"]
        assert counts["engine.lockstep.rows"] / rounds > 6
