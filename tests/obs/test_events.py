"""Structured event logging and its schema validator."""

import json
import os

from repro.multicore import HoppingConfig
from repro.multicore.batch import DualCoreRunSpec
from repro.obs import events, heartbeat
from repro.obs.events import emit, validate_events_file, validate_record
from repro.sim.batch import run_one


def _read_events(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestEmit:
    def test_disabled_emit_writes_no_log(self, obs_dir):
        assert emit("quiet.event", detail=1)["detail"] == 1
        assert not list(obs_dir.glob("events-*.jsonl"))

    def test_emit_carries_required_fields(self, obs_on):
        record = emit("engine.test", detail=7)
        assert record["event"] == "engine.test"
        assert record["pid"] == os.getpid()
        assert record["detail"] == 7
        (on_disk,) = _read_events(events.events_path())
        assert on_disk == json.loads(json.dumps(record))

    def test_open_run_record_stamps_run_id(self, obs_on):
        outer = heartbeat.begin("k1", "gzip", "Hyb", 1.0, run_id="r1")
        emit("inner.event")
        inner = heartbeat.begin("k2", "gzip", "Hyb", 1.0, run_id="r2")
        emit("nested.event")
        heartbeat.release(inner)
        emit("restored.event")
        heartbeat.release(outer)
        emit("outside.event")
        records = {r["event"]: r for r in _read_events(events.events_path())}
        assert records["inner.event"]["run_id"] == "r1"
        assert records["nested.event"]["run_id"] == "r2"
        assert records["restored.event"]["run_id"] == "r1"
        assert "run_id" not in records["outside.event"]

    def test_events_append_across_emits(self, obs_on):
        emit("first.event")
        emit("second.event")
        assert len(_read_events(events.events_path())) == 2


class TestSchema:
    def test_valid_record_has_no_errors(self, obs_on):
        record = emit("sweep.retry", attempt=1, benchmark="gzip")
        assert validate_record(record) == []

    def test_missing_required_fields_reported(self):
        errors = validate_record({"event": "x.y"})
        assert any("ts" in e for e in errors)
        assert any("pid" in e for e in errors)

    def test_bad_event_name_rejected(self):
        record = {"event": "Bad Name!", "ts": 1.0, "pid": 1}
        assert any("bad event name" in e for e in validate_record(record))

    def test_non_scalar_value_rejected(self):
        record = {"event": "a.b", "ts": 1.0, "pid": 1, "blob": [1, 2]}
        assert any("JSON scalar" in e for e in validate_record(record))

    def test_non_object_rejected(self):
        assert validate_record([1, 2]) == ["record is not a JSON object"]

    def test_validate_file_counts_and_flags(self, obs_on, tmp_path):
        emit("ok.event")
        emit("ok.other")
        path = events.events_path()
        count, errors = validate_events_file(path)
        assert (count, errors) == (2, [])

        torn = tmp_path / "torn.jsonl"
        torn.write_text('{"event": "a.b", "ts": 1.0, "pid": 1}\n{"tru')
        count, errors = validate_events_file(torn)
        assert count == 1
        assert len(errors) == 1 and "unparsable" in errors[0]

    def test_a9_hop_run_log_validates(self, obs_on):
        spec = DualCoreRunSpec(
            ("crafty", "mesa"),
            duration_s=2.0e-3,
            settle_time_s=1.0e-3,
            hopping=HoppingConfig(),
        )
        assert run_one(spec).swaps > 0
        path = events.events_path()
        names = [r["event"] for r in _read_events(path)]
        assert "engine.multicore.swap" in names
        count, errors = validate_events_file(path)
        assert count == len(names)
        assert errors == []


class TestLockstepLifecycleEvents:
    def test_each_run_logs_its_own_start_and_complete(self, obs_on):
        # A serial sweep of three eligible specs runs as one lockstep
        # batch; the log holds each run's own lifecycle events, stamped
        # with that run's id, and no batch-level ones.
        from repro.sim import RunSpec, run_many

        specs = [
            RunSpec(workload=benchmark, policy="FG", instructions=1_500_000,
                    settle_time_s=1.0e-4, seed=seed)
            for seed, benchmark in enumerate(("gzip", "gcc", "mesa"))
        ]
        run_many(specs)
        records = _read_events(events.events_path())
        for name in ("engine.run.start", "engine.run.complete"):
            run_ids = [r.get("run_id") for r in records if r["event"] == name]
            assert len(run_ids) == 3, name
            assert None not in run_ids, name
            assert len(set(run_ids)) == 3, name
        assert validate_events_file(events.events_path())[1] == []
