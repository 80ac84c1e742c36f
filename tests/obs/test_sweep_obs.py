"""Observability through real sweeps: reports, bit-identity, logging.

These are the integration-level guarantees of the obs layer:

* a sweep with ``REPRO_OBS=1`` produces a :class:`SweepReport` whose
  counters are identical whether the sweep ran serially, across a
  process pool, or in lockstep chunks;
* enabling observability changes *nothing* about the physics -- run
  results are bit-identical with obs on or off;
* when the supervisor abandons its pool, the reason survives into the
  report metadata and each serial-fallback failure's notes;
* ``logging_setup`` routes library diagnostics through standard
  handlers.
"""

import io
import logging

import pytest

import repro.obs as obs
from repro.errors import SimulationError
from repro.multicore.batch import DualCoreRunSpec
from repro.sim import RunFailure, RunSpec, run_many
from repro.sim.batch import last_sweep_report, run_one

FAST_N = 1_500_000


def _spec(seed=0, benchmark="gzip", policy="FG"):
    return RunSpec(
        workload=benchmark,
        policy=policy,
        instructions=FAST_N,
        settle_time_s=1.0e-4,
        seed=seed,
    )


def _exploding_policy():
    raise SimulationError("injected policy failure")


class TestSweepReport:
    def test_serial_sweep_produces_report(self, obs_on):
        specs = [_spec(seed=s) for s in range(2)]
        # Per-run path: lockstep sweeps spill one chunk record per
        # batch rather than one record per run.
        run_many(specs, lockstep=False)
        report = last_sweep_report()
        assert report is not None
        assert report.meta["n_runs"] == 2
        assert report.counters["engine.runs"] == 2.0
        assert report.counters["engine.trigger_crossings"] >= 0.0
        assert "dtm.duty_cycle" in report.counters
        run_ids = {run["run_id"] for run in report.runs}
        assert len(run_ids) == 2
        for run in report.runs:
            assert run["wall_seconds"] > 0.0
            assert "spans" not in run
            assert "engine.trigger_crossings" in run["metrics"]
            assert "dtm.duty_cycle" in run["metrics"]

    def test_pool_and_lockstep_counters_match_serial(self, obs_on):
        specs = [_spec(seed=s) for s in range(3)]
        run_many(specs, lockstep=False)
        serial = last_sweep_report()

        run_many(specs, processes=2, lockstep=False)
        pooled = last_sweep_report()

        run_many(specs, processes=2, lockstep=True)
        lockstep = last_sweep_report()

        engine_keys = [
            key for key in serial.counters
            if key.startswith(("engine.", "dtm.", "thermal."))
        ]
        assert engine_keys
        for key in engine_keys:
            assert pooled.counters.get(key) == pytest.approx(
                serial.counters[key]
            ), key
            assert lockstep.counters.get(key) == pytest.approx(
                serial.counters[key]
            ), key
        # Pool workers contributed their spill records.
        assert len(pooled.runs) == 3

    def test_disabled_sweep_produces_no_report(self, obs_dir):
        run_many([_spec()])
        assert last_sweep_report() is None

    def test_report_export_round_trip(self, obs_on, tmp_path):
        run_many([_spec()])
        report = last_sweep_report()
        loaded = type(report).load(report.save(tmp_path / "report.jsonl"))
        assert loaded.counters == report.counters
        assert "repro_engine_runs 1" in loaded.prometheus_text()
        assert "engine.runs" in loaded.render()


class TestBitIdentity:
    def test_results_identical_with_obs_on_and_off(self, obs_dir):
        spec = _spec(policy="Hyb")
        obs.set_enabled(False)
        baseline = run_one(spec)
        obs.set_enabled(True)
        observed = run_one(spec)
        assert observed == baseline

    def test_dual_core_run_identical_with_obs_on_and_off(self, obs_dir):
        spec = DualCoreRunSpec(
            ("crafty", "mesa"),
            policies=("Hyb", "Hyb"),
            duration_s=1.0e-3,
            settle_time_s=2.0e-4,
        )
        self._assert_sweep_identical([spec])

    def test_lockstep_sweep_identical_with_obs_on_and_off(self, obs_dir):
        specs = [_spec(policy="Hyb"), _spec(seed=1, benchmark="gcc")]
        self._assert_sweep_identical(specs, lockstep=True)

    @staticmethod
    def _assert_sweep_identical(specs, **kwargs):
        obs.set_enabled(False)
        baseline = [r.to_json_dict() for r in run_many(specs, **kwargs)]
        obs.set_enabled(True)
        observed = [r.to_json_dict() for r in run_many(specs, **kwargs)]
        assert observed == baseline
        report = last_sweep_report()
        assert report.runs
        for run in report.runs:
            assert run["wall_seconds"] > 0.0
            assert "spans" not in run

    def test_trigger_crossings_populated_either_way(self, obs_dir):
        spec = _spec(benchmark="gzip", policy="none")
        result = run_one(spec)
        assert result.trigger_crossings >= 1
        assert result.summary()["trigger_crossings"] == float(
            result.trigger_crossings
        )


class TestDegradationReason:
    def test_reason_reaches_failures_and_report(self, obs_on, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        import repro.sim.batch as batch

        class _AlwaysBroken:
            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("worker died at fork")

        monkeypatch.setattr(
            batch, "_get_pool", lambda processes: _AlwaysBroken()
        )
        specs = [_spec(), RunSpec(
            workload="gzip",
            policy=_exploding_policy,
            instructions=FAST_N,
            settle_time_s=1.0e-4,
            seed=1,
        )]
        with pytest.warns(RuntimeWarning, match="degrading"):
            outcomes = run_many(
                specs, processes=2, partial_results=True
            )

        failures = [o for o in outcomes if isinstance(o, RunFailure)]
        assert len(failures) == 1
        (failure,) = failures
        assert failure.error_type == "SimulationError"
        assert failure.notes
        assert "pool degraded to serial" in failure.notes[0]
        assert "BrokenProcessPool" in failure.notes[0]
        assert "; ".join(failure.notes) in failure.to_json_dict()["notes"]

        report = last_sweep_report()
        assert "BrokenProcessPool" in report.meta["degradation_reason"]
        assert report.counters["sweep.serial_degradations"] == 1.0
        assert report.counters["sweep.pool_rebuilds"] >= 1.0
        assert report.counters["sweep.run_failures"] == 1.0
        # The healthy spec still completed serially and reported in.
        assert report.meta["n_runs"] == 1
        assert report.meta["n_failures"] == 1


class TestLoggingBridge:
    def test_library_warnings_reach_the_stream(self, obs_dir):
        buffer = io.StringIO()
        logger = obs.logging_setup(stream=buffer)
        try:
            logging.getLogger("repro.faults").warning("probe %d", 17)
            assert "WARNING repro.faults: probe 17" in buffer.getvalue()
        finally:
            for handler in list(logger.handlers):
                logger.removeHandler(handler)

    def test_reconfiguring_does_not_duplicate_output(self, obs_dir):
        first = io.StringIO()
        second = io.StringIO()
        obs.logging_setup(stream=first)
        logger = obs.logging_setup(stream=second)
        try:
            logging.getLogger("repro.sweep").warning("only once")
            assert "only once" not in first.getvalue()
            assert second.getvalue().count("only once") == 1
        finally:
            for handler in list(logger.handlers):
                logger.removeHandler(handler)
