"""Run records, worker spill records, and one record per run on every
sweep path."""

import json
import os
import re
import threading
from pathlib import Path

import pytest

from repro.obs import heartbeat, metrics, spill


class TestRunRecord:
    def test_record_shape(self, obs_on):
        record = heartbeat.begin(
            "digest-1", "gzip", "Hyb", 100.0, run_id="run-1", seed=3
        )
        record.add_metrics({"engine.trigger_crossings": 2.0})
        record.add_metrics({"engine.trigger_crossings": 1.0})
        record.add_metrics({"dtm.engagements": 4.0})
        finished = heartbeat.finish(record)
        assert finished["kind"] == "run"
        assert finished["run_id"] == "run-1"
        assert finished["digest"] == "digest-1"
        assert finished["benchmark"] == "gzip"
        assert finished["seed"] == 3
        assert finished["pid"] == os.getpid()
        assert finished["metrics"] == {
            "engine.trigger_crossings": 3.0,
            "dtm.engagements": 4.0,
        }
        assert finished["wall_seconds"] > 0.0
        assert "spans" not in finished
        assert "error" not in finished

    def test_error_is_attached(self, obs_on):
        record = heartbeat.begin("run-err", "gzip", "Hyb", 1.0)
        finished = heartbeat.finish(record, error="SimulationError: boom")
        assert finished["error"] == "SimulationError: boom"

    def test_open_record_stamps_run_id(self, obs_on):
        from repro.obs import events

        record = heartbeat.begin("k", "gzip", "Hyb", 1.0, run_id="ctx-run")
        inner = heartbeat.begin("k2", "gzip", "Hyb", 1.0, run_id="inner")
        nested = events.emit("probe.nested")
        heartbeat.release(inner)
        emitted = events.emit("probe.event")
        heartbeat.finish(record)
        assert nested["run_id"] == "inner"
        assert emitted["run_id"] == "ctx-run"
        assert heartbeat.active() is None
        assert "run_id" not in events.emit("probe.after")

    def test_record_open_on_another_thread_does_not_stamp(self, obs_on):
        from repro.obs import events

        opened, done = threading.Event(), threading.Event()

        def executor():
            record = heartbeat.begin("k", "gzip", "Hyb", 1.0, run_id="other")
            opened.set()
            done.wait(timeout=30.0)
            heartbeat.finish(record)

        worker = threading.Thread(target=executor)
        worker.start()
        try:
            assert opened.wait(timeout=30.0)
            assert heartbeat.active() is None
            assert "run_id" not in events.emit("probe.loop")
        finally:
            done.set()
            worker.join(timeout=30.0)
        assert not worker.is_alive()

    def test_finish_without_begin_is_empty(self, obs_on):
        assert heartbeat.finish(None) == {}

    def test_finished_record_is_spilled(self, obs_on):
        token = spill.begin_collection()
        spill.mark_parent()
        heartbeat.finish(heartbeat.begin("k", "gzip", "Hyb", 1.0))
        assert [r["digest"] for r in spill.collect(token)] == ["k"]


class TestSlotDirectory:
    def test_publish_creates_missing_obs_dir(self, obs_dir, monkeypatch):
        fresh = obs_dir / "not" / "yet"
        monkeypatch.setenv(metrics.OBS_DIR_ENV, str(fresh))
        previous = heartbeat.set_enabled(True)
        interval = heartbeat.set_publish_interval(0.0)
        try:
            record = heartbeat.begin("k", "gzip", "Hyb", 100.0)
            record.publish(40.0, 0.1, 3, 81.0, False)
            slot = fresh / f"hb-{os.getpid()}.slot"
            assert [r["done"] for r in heartbeat._read_slot(slot)] == [40.0]
            heartbeat.finish(record)
        finally:
            heartbeat.set_enabled(previous)
            heartbeat.set_publish_interval(interval)


class TestEnvironmentSurface:
    def test_src_reads_only_the_two_obs_names(self):
        src = Path(__file__).resolve().parents[2] / "src"
        names = set()
        for path in src.rglob("*.py"):
            names.update(re.findall(r"REPRO_[A-Z0-9_]+", path.read_text()))
        assert names == {"REPRO_OBS", "REPRO_OBS_DIR"}


FAST_N = 1_000_000


def _sweep_specs():
    from repro.sim import RunSpec

    return [
        RunSpec(
            workload=benchmark,
            policy="FG",
            instructions=FAST_N,
            settle_time_s=1.0e-4,
            seed=seed,
        )
        for seed, benchmark in enumerate(("gzip", "gcc", "gzip"))
    ]


class TestOneRecordPerRun:
    @pytest.mark.parametrize("processes", [None, 2])
    def test_lockstep_sweep_has_one_record_per_spec(self, obs_on, processes):
        from repro.sim import run_many
        from repro.sim.batch import last_sweep_report
        from repro.sim.supervisor import spec_digest

        specs = _sweep_specs()
        per_run = {}
        for spec in specs:
            # A one-spec sweep runs its spec alone.
            run_many([spec])
            per_run.update(
                (run["digest"], run) for run in last_sweep_report().runs
            )
        # Serially one lockstep batch of three; over two workers a
        # lockstep batch of two and a batch of one.
        run_many(specs, processes=processes)
        report = last_sweep_report()

        assert report.meta["lockstep"] is True
        assert report.meta["n_runs"] == len(specs)
        digests = [spec_digest(spec) for spec in specs]
        assert sorted(run["digest"] for run in report.runs) == sorted(digests)
        for run in report.runs:
            reference = per_run[run["digest"]]
            assert run["run_id"] == reference["run_id"]
            assert run["metrics"] == reference["metrics"]
        for name in (
            "engine.lockstep.rounds",
            "engine.lockstep.rows",
            "engine.lockstep.stride_rounds",
        ):
            assert report.counters[name] > 0.0, name


class TestSpill:
    def test_parent_records_stay_in_memory(self, obs_on):
        token = spill.begin_collection()
        spill.record({"kind": "run", "run_id": "a"})
        assert not spill.spill_path().exists()
        assert spill.collect(token) == [{"kind": "run", "run_id": "a"}]

    def test_worker_records_spill_to_disk(self, obs_on):
        token = spill.begin_collection()
        # A forked child would stop matching the parent pid; simulate by
        # not marking this process as parent.
        spill.reset()
        spill.record({"kind": "run", "run_id": "w"})
        assert spill.spill_path().exists()
        assert spill.collect(token) == [{"kind": "run", "run_id": "w"}]

    def test_collection_token_excludes_earlier_sweeps(self, obs_on):
        spill.reset()
        spill.record({"kind": "run", "run_id": "old"})
        token = spill.begin_collection()
        spill.record({"kind": "run", "run_id": "new"})
        collected = spill.collect(token)
        assert [r["run_id"] for r in collected] == ["new"]

    def test_torn_tail_line_is_skipped(self, obs_on):
        spill.reset()
        token = spill.begin_collection()
        path = spill.spill_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "run", "run_id": "ok"}) + "\n")
            handle.write('{"kind": "run", "run_id": "to')
        collected = spill.collect(token)
        assert [r["run_id"] for r in collected] == ["ok"]

    def test_disabled_record_is_noop(self, obs_dir):
        token = spill.begin_collection()
        spill.record({"kind": "run", "run_id": "quiet"})
        assert spill.collect(token) == []
