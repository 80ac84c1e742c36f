"""The fault-tolerant sweep supervisor behind ``run_many``."""

import json
from dataclasses import replace
from functools import partial

import pytest

from repro.dtm import FetchGatingPolicy
from repro.dtm.base import DtmPolicy
from repro.errors import InjectedFaultError, SimulationError
from repro.sensors.faults import SensorFault
from repro.sim import (
    EngineConfig,
    FaultPlan,
    RunFailure,
    RunSpec,
    load_journal,
    run_many,
    spec_digest,
)
from repro.sim.supervisor import (
    SweepJournal,
    SweepSupervisor,
    listen_outcomes,
    policy_token,
    strip_transient_faults,
)

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


def _spec(seed=0, benchmark="gzip", policy="FG", plan=None):
    config = EngineConfig(fault_plan=plan) if plan is not None else None
    return RunSpec(
        workload=benchmark,
        policy=policy,
        instructions=FAST_N,
        settle_time_s=1.0e-4,
        seed=seed,
        engine_config=config,
    )


def _as_tuple(result):
    return tuple(getattr(result, field) for field in RESULT_FIELDS)


class _Interrupted(BaseException):
    """Stands in for an interrupt (``repro batch``'s SIGTERM exception,
    Ctrl-C) that arrives while a run executes."""


class _InterruptingPolicy(DtmPolicy):
    """Interrupts the run at its first sensor sample."""

    name = "interrupting"

    def update(self, readings, time_s, dt_s):
        raise _Interrupted()

    def reset(self):
        pass


class TestSpecDigest:
    def test_stable_for_equal_specs(self):
        assert spec_digest(_spec()) == spec_digest(_spec())

    def test_sensitive_to_seed_policy_and_config(self):
        base = spec_digest(_spec())
        assert spec_digest(_spec(seed=1)) != base
        assert spec_digest(_spec(policy="DVS")) != base
        assert (
            spec_digest(_spec(plan=FaultPlan(crash_worker=True))) != base
        )

    def test_unaffected_by_warmup_precomputation_order(self):
        # The digest must be computed from the original spec; pinning
        # the initial vector afterwards changes identity, which is why
        # run_many digests before its warmup pass.
        from repro.sim.batch import steady_state_for

        original = _spec()
        pinned = replace(
            original, initial=steady_state_for(original.workload)
        )
        assert spec_digest(original) != spec_digest(pinned)


class TestPolicyToken:
    def test_string_policy(self):
        assert policy_token("Hyb") == "Hyb"

    def test_partial_policy_includes_arguments(self):
        token = policy_token(partial(FetchGatingPolicy))
        assert "FetchGatingPolicy" in token
        assert policy_token(
            partial(FetchGatingPolicy)
        ) == policy_token(partial(FetchGatingPolicy))

    def test_callable_policy(self):
        assert "FetchGatingPolicy" in policy_token(FetchGatingPolicy)


class TestStripTransientFaults:
    def test_noop_without_plan(self):
        spec = _spec()
        assert strip_transient_faults(spec) is spec

    def test_strips_harness_faults(self):
        spec = _spec(plan=FaultPlan(crash_worker=True))
        stripped = strip_transient_faults(spec)
        assert stripped.engine_config.fault_plan is None

    def test_keeps_sensor_faults(self):
        plan = FaultPlan(
            crash_worker=True,
            sensor_faults=(SensorFault.stuck("IntReg", 40.0),),
        )
        stripped = strip_transient_faults(_spec(plan=plan))
        surviving = stripped.engine_config.fault_plan
        assert surviving is not None
        assert not surviving.has_transient_faults
        assert surviving.sensor_faults == plan.sensor_faults


class TestSupervisorValidation:
    def test_rejects_bad_timeout(self):
        with pytest.raises(SimulationError):
            SweepSupervisor(timeout_s=0.0)

    def test_rejects_negative_retries(self):
        with pytest.raises(SimulationError):
            SweepSupervisor(retries=-1)

    def test_backoff_is_deterministic_and_bounded(self):
        a = SweepSupervisor(retries=3, backoff_s=0.1, backoff_max_s=1.0)
        b = SweepSupervisor(retries=3, backoff_s=0.1, backoff_max_s=1.0)
        for attempt in (1, 2, 3, 8):
            delay = a._backoff_delay("digest", attempt)
            assert delay == b._backoff_delay("digest", attempt)
            assert delay <= 1.0 * 1.25


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        result = run_many([_spec()])[0]
        journal = SweepJournal(path)
        journal.record("abc123", 0, result)
        journal.close()
        loaded = load_journal(path)
        assert set(loaded) == {"abc123"}
        assert _as_tuple(loaded["abc123"]) == _as_tuple(result)

    def test_missing_file_is_empty(self, tmp_path):
        assert load_journal(tmp_path / "never-written.jsonl") == {}

    def test_torn_tail_line_is_skipped(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        result = run_many([_spec()])[0]
        journal = SweepJournal(path)
        journal.record("good", 0, result)
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"digest": "torn", "result": {"benchm')
        assert set(load_journal(path)) == {"good"}


class TestSerialSupervision:
    def test_injected_crash_raises_without_supervision(self):
        specs = [_spec(), _spec(seed=1, plan=FaultPlan(crash_worker=True))]
        with pytest.raises(InjectedFaultError):
            run_many(specs)

    def test_retry_heals_crash_bit_identically(self):
        faulty = [
            _spec(),
            _spec(seed=1, plan=FaultPlan(crash_worker=True)),
        ]
        clean = [_spec(), _spec(seed=1)]
        # Faulty specs run per-run (fault plans opt out of the lockstep
        # default); the bit-identity reference must be per-run too.
        healed = run_many(faulty, retries=1)
        reference = run_many(clean, lockstep=False)
        assert [_as_tuple(r) for r in healed] == [
            _as_tuple(r) for r in reference
        ]

    def test_retry_heals_solver_corruption(self):
        faulty = [_spec(seed=2, plan=FaultPlan(corrupt_power_at_step=4))]
        healed = run_many(faulty, retries=1, backoff_s=0.0)
        reference = run_many([_spec(seed=2)])
        assert _as_tuple(healed[0]) == _as_tuple(reference[0])

    def test_partial_results_record_structured_failure(self):
        specs = [
            _spec(),
            _spec(seed=1, plan=FaultPlan(crash_worker=True)),
        ]
        # Sensor-fault-free crash plan with no retries cannot heal:
        # the failure must land as a record, not kill the sweep.
        outcomes = run_many(specs, partial_results=True)
        assert not isinstance(outcomes[0], RunFailure)
        failure = outcomes[1]
        assert isinstance(failure, RunFailure)
        assert failure.failed
        assert failure.index == 1
        assert failure.benchmark == "gzip"
        assert failure.error_type == "InjectedFaultError"
        assert failure.attempts == 1

    def test_exhausted_retries_reraise_original_error(self):
        # A persistent failure (all-dropout sensors survive stripping)
        # must surface the typed error after the retry budget is spent.
        from repro.errors import SensorFaultError
        from repro.floorplan.alpha21364 import build_alpha21364_floorplan

        names = build_alpha21364_floorplan().block_names
        plan = FaultPlan(
            sensor_faults=tuple(SensorFault.dropout(n) for n in names)
        )
        with pytest.raises(SensorFaultError):
            run_many([_spec(plan=plan)], retries=1, backoff_s=0.0)


class TestJournalAndResume:
    def test_journal_written_as_runs_finish(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        specs = [_spec(), _spec(seed=1)]
        results = run_many(specs, journal=str(path))
        entries = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert sorted(e["index"] for e in entries) == [0, 1]
        assert {e["digest"] for e in entries} == {
            spec_digest(s) for s in specs
        }
        loaded = load_journal(path)
        assert _as_tuple(loaded[spec_digest(specs[0])]) == _as_tuple(
            results[0]
        )

    def test_resume_skips_completed_specs(self, tmp_path, monkeypatch):
        path = tmp_path / "sweep.jsonl"
        specs = [_spec(), _spec(seed=1)]
        first = run_many(specs, journal=str(path))

        import repro.sim.batch as batch

        def exploding_run_one(spec):
            raise AssertionError("resume re-executed a finished spec")

        monkeypatch.setattr(batch, "run_one", exploding_run_one)
        resumed = run_many(specs, resume=str(path))
        assert [_as_tuple(r) for r in resumed] == [
            _as_tuple(r) for r in first
        ]

    def test_resume_runs_only_unfinished_specs(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        specs = [_spec(), _spec(seed=1), _spec(seed=2)]
        # Pin the per-run path: this test counts run_one invocations,
        # which the lockstep default would bypass.
        complete = run_many(specs, journal=str(path), lockstep=False)

        # Simulate a sweep killed after two finishes: drop the journal's
        # last line, then resume.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")

        import repro.sim.batch as batch

        calls = []
        original = batch.run_one

        def counting_run_one(spec):
            calls.append(spec.seed)
            return original(spec)

        try:
            batch.run_one = counting_run_one
            resumed = run_many(specs, resume=str(path), lockstep=False)
        finally:
            batch.run_one = original
        assert len(calls) == 1
        assert [_as_tuple(r) for r in resumed] == [
            _as_tuple(r) for r in complete
        ]
        # The resumed finish was appended, completing the journal.
        assert len(load_journal(path)) == 3


class TestPoolSupervision:
    def test_worker_crash_heals_without_charging_retries(self):
        # The dead worker poisons the pool; every unfinished spec is
        # resubmitted to a fresh one with transients stripped, so even
        # retries=0 produces the fault-free sweep.
        faulty = [
            _spec(seed=s) if s != 1
            else _spec(seed=1, plan=FaultPlan(crash_worker=True))
            for s in range(4)
        ]
        clean = [_spec(seed=s) for s in range(4)]
        healed = run_many(faulty, processes=2, timeout_s=60.0)
        reference = run_many(clean, lockstep=False)
        assert [_as_tuple(r) for r in healed] == [
            _as_tuple(r) for r in reference
        ]

    def test_pool_breakage_during_submit_loop_drops_no_spec(
        self, monkeypatch
    ):
        # A fast-crashing spec can break a warm pool while the submit
        # loop is still running; the failed submit's spec and everything
        # not yet submitted must ride along to the rebuilt pool.
        from concurrent.futures.process import BrokenProcessPool

        import repro.sim.batch as batch

        real_get_pool = batch._get_pool
        armed = {"flag": True}

        class _BreaksMidSubmit:
            def __init__(self, pool):
                self._pool = pool
                self._submitted = 0

            def submit(self, *args, **kwargs):
                if armed["flag"] and self._submitted == 2:
                    armed["flag"] = False
                    raise BrokenProcessPool("worker died mid-submit")
                self._submitted += 1
                return self._pool.submit(*args, **kwargs)

        def flaky_get_pool(processes):
            pool = real_get_pool(processes)
            return _BreaksMidSubmit(pool) if armed["flag"] else pool

        monkeypatch.setattr(batch, "_get_pool", flaky_get_pool)
        specs = [_spec(seed=s) for s in range(4)]
        # Pin the classic pool path: the mid-submit breakage being
        # exercised lives in run_pool, not the lockstep-chunk runner.
        healed = run_many(specs, processes=2, timeout_s=60.0, lockstep=False)
        reference = run_many(
            [_spec(seed=s) for s in range(4)], lockstep=False
        )
        assert [_as_tuple(r) for r in healed] == [
            _as_tuple(r) for r in reference
        ]

    def test_overdue_run_times_out_to_failure(self):
        specs = [
            _spec(),
            _spec(seed=1, plan=FaultPlan(delay_s=15.0)),
        ]
        outcomes = run_many(
            specs, processes=2, timeout_s=1.0, partial_results=True
        )
        assert not isinstance(outcomes[0], RunFailure)
        failure = outcomes[1]
        assert isinstance(failure, RunFailure)
        assert failure.error_type == "RunTimeoutError"

    def test_overdue_run_retries_after_pool_rebuild(self):
        specs = [
            _spec(),
            _spec(seed=1, plan=FaultPlan(delay_s=15.0)),
        ]
        healed = run_many(
            specs, processes=2, timeout_s=1.0, retries=1, backoff_s=0.0
        )
        reference = run_many([_spec(), _spec(seed=1)], lockstep=False)
        assert [_as_tuple(r) for r in healed] == [
            _as_tuple(r) for r in reference
        ]


class TestLockstepSupervision:
    def test_lockstep_serial_heals_mid_batch_failure(self):
        # A failed batch falls back to per-spec serial execution, whose
        # numbers are the run_one numbers (lockstep reproduces them bit
        # for bit), so that is the fault-free reference.
        faulty = [
            _spec(),
            _spec(seed=1, plan=FaultPlan(crash_worker=True)),
            _spec(seed=2),
        ]
        clean = [_spec(), _spec(seed=1), _spec(seed=2)]
        healed = run_many(faulty, lockstep=True, retries=1, backoff_s=0.0)
        reference = run_many(clean, lockstep=False)
        assert [_as_tuple(r) for r in healed] == [
            _as_tuple(r) for r in reference
        ]

    def test_lockstep_pool_heals_worker_crash(self):
        # Only the chunk containing the crash falls back to per-spec
        # execution; every healed outcome must be bit-identical to the
        # fault-free run, which is the same under both execution modes.
        faulty = [
            _spec(seed=s) if s != 2
            else _spec(seed=2, plan=FaultPlan(crash_worker=True))
            for s in range(4)
        ]
        clean = [_spec(seed=s) for s in range(4)]
        healed = run_many(
            faulty, processes=2, lockstep=True, retries=1, backoff_s=0.0
        )
        lockstep_ref = run_many(clean, lockstep=True)
        serial_ref = run_many(clean, lockstep=False)
        for got, a, b in zip(healed, lockstep_ref, serial_ref):
            assert _as_tuple(got) == _as_tuple(a) == _as_tuple(b)

    def test_serial_lockstep_journals_each_run_as_it_finishes(
        self, tmp_path, monkeypatch
    ):
        # A short run finishes, then another run fails mid-batch: the
        # finished run is journalled before the batch ends, and the
        # fallback re-runs only the runs that have no outcome yet.
        import repro.sim.batch as batch
        import repro.sim.lockstep as lockstep

        path = tmp_path / "sweep.jsonl"
        short = replace(
            _spec(policy="none"), instructions=20_000, settle_time_s=0.0
        )
        failing = _spec(seed=1, plan=FaultPlan(corrupt_power_at_step=5))
        unfinished = _spec(seed=2)
        specs = [short, failing, unfinished]
        digests = [spec_digest(spec) for spec in specs]

        journal_at_failure = []
        real_run_lockstep = lockstep.run_lockstep

        def watched_run_lockstep(specs, on_finish=None, counters=None):
            try:
                return real_run_lockstep(specs, on_finish, counters)
            except Exception:
                journal_at_failure.append(set(load_journal(path)))
                raise

        calls = []
        real_run_one = batch.run_one

        def counting_run_one(spec):
            calls.append(spec.seed)
            return real_run_one(spec)

        monkeypatch.setattr(lockstep, "run_lockstep", watched_run_lockstep)
        monkeypatch.setattr(batch, "run_one", counting_run_one)
        outcomes = run_many(
            specs, lockstep=True, partial_results=True, journal=str(path)
        )

        assert journal_at_failure == [{digests[0]}]
        assert calls == [1, 2]
        assert isinstance(outcomes[1], RunFailure)
        assert outcomes[1].error_type == "NumericalError"
        journalled = [
            json.loads(line)["digest"]
            for line in path.read_text().splitlines()
        ]
        assert sorted(journalled) == sorted([digests[0], digests[2]])
        reference = run_many([short, unfinished], lockstep=False)
        assert [outcomes[0].to_json_dict(), outcomes[2].to_json_dict()] == [
            r.to_json_dict() for r in reference
        ]


    def test_listen_outcomes_reports_each_run_once_recorded(self, tmp_path):
        # The short run is reported first, after it is journalled and
        # while the batch still runs; the failure is reported as its
        # RunFailure; a sweep outside the block reports nothing.
        path = tmp_path / "sweep.jsonl"
        short = replace(
            _spec(policy="none"), instructions=20_000, settle_time_s=0.0
        )
        failing = _spec(seed=1, plan=FaultPlan(corrupt_power_at_step=5))
        specs = [_spec(seed=2), failing, short]
        reported = []

        def listener(index, outcome):
            reported.append((index, outcome, set(load_journal(path))))

        with listen_outcomes(listener):
            outcomes = run_many(
                specs, lockstep=True, partial_results=True, journal=str(path)
            )
        run_many([short], lockstep=False)

        assert sorted(index for index, _, _ in reported) == [0, 1, 2]
        assert reported[0][0] == 2
        for index, outcome, journalled in reported:
            assert outcome is outcomes[index]
            if index == 1:
                assert isinstance(outcome, RunFailure)
            else:
                assert spec_digest(specs[index]) in journalled


class TestInterruptsPassThrough:
    """A :class:`BaseException` raised inside a run is an interrupt, not
    a run failure: no failure record and no retry, even with
    ``partial_results`` and a retry budget."""

    SUPERVISED = dict(partial_results=True, retries=1, backoff_s=0.0)

    def _specs(self):
        return [_spec(), replace(_spec(seed=1), policy=_InterruptingPolicy)]

    def _count_run_one(self, monkeypatch):
        import repro.sim.batch as batch

        calls = []
        real_run_one = batch.run_one

        def counting_run_one(spec):
            calls.append(spec.seed)
            return real_run_one(spec)

        monkeypatch.setattr(batch, "run_one", counting_run_one)
        return calls

    def test_run_serial(self, monkeypatch):
        calls = self._count_run_one(monkeypatch)
        with pytest.raises(_Interrupted):
            run_many(self._specs(), lockstep=False, **self.SUPERVISED)
        assert calls == [0, 1]

    def test_run_lockstep_serial(self, monkeypatch):
        calls = self._count_run_one(monkeypatch)
        with pytest.raises(_Interrupted):
            run_many(self._specs(), lockstep=True, **self.SUPERVISED)
        assert calls == []

    def test_lockstep_pool_dispatch(self, monkeypatch):
        import repro.sim.batch as batch

        class _InterruptedPool:
            def submit(self, *args, **kwargs):
                raise _Interrupted()

        monkeypatch.setattr(
            batch, "_get_pool", lambda processes: _InterruptedPool()
        )
        with pytest.raises(_Interrupted):
            run_many(
                self._specs(), processes=2, lockstep=True, **self.SUPERVISED
            )
