"""Run contexts and worker spill records."""

import json
import os

from repro.obs import runctx, spill


class TestRunContext:
    def test_record_shape(self, obs_on):
        runctx.begin("run-1", benchmark="gzip", policy="Hyb", seed=3)
        runctx.add_metric("engine.trigger_crossings", 2.0)
        runctx.add_metric("engine.trigger_crossings", 1.0)
        runctx.add_metrics({"dtm.engagements": 4.0})
        record = runctx.end()
        assert record["kind"] == "run"
        assert record["run_id"] == "run-1"
        assert record["benchmark"] == "gzip"
        assert record["pid"] == os.getpid()
        assert record["metrics"] == {
            "engine.trigger_crossings": 3.0,
            "dtm.engagements": 4.0,
        }
        assert record["wall_seconds"] > 0.0
        assert "spans" not in record
        assert "error" not in record

    def test_error_is_attached(self, obs_on):
        runctx.begin("run-err", benchmark="gzip")
        record = runctx.end(error="SimulationError: boom")
        assert record["error"] == "SimulationError: boom"

    def test_run_id_lands_in_event_context(self, obs_on):
        from repro.obs import events

        runctx.begin("ctx-run")
        record = events.emit("probe.event")
        runctx.end()
        assert record["run_id"] == "ctx-run"
        assert runctx.current() is None

    def test_end_without_begin_is_empty(self, obs_on):
        assert runctx.end() == {}


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
