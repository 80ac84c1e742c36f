"""Regression pack for the broad-``except`` audit.

Three sites used to swallow ``Exception`` blindly, each with a
different failure mode:

* ``batch._first_unpicklable`` reclassified *any* error raised while
  probing a spec -- including a bug in a ``__reduce__`` hook -- as
  "unpicklable, run serially";
* ``supervisor.load_journal`` treated *any* error during journal
  replay -- including a bug in result reconstruction -- as a torn
  line, silently emptying the resume set;
* the pooled lockstep path degraded the whole sweep to per-spec
  execution without logging, counting or emitting anything.

The first two are now narrowed to the exceptions malformed data can
actually raise; the third keeps its broad catch (rebuilding the pool is
the right call) but goes through the supervisor's pool rebuild, which
logs, counts and emits.  These tests pin each behaviour.
"""

import json
import logging

import pytest

from repro.multicore import MultiCoreEngine, MultiCoreResult
from repro.sim import RunSpec, load_journal, run_many, run_one
from repro.sim.batch import _first_unpicklable
from repro.sim.results import RunResult
from repro.sim.supervisor import SweepJournal
from repro.workloads import build_benchmark

FAST_N = 1_500_000

RESULT_FIELDS = (
    "benchmark",
    "policy",
    "instructions",
    "elapsed_s",
    "violations",
    "max_true_temp_c",
    "mean_power_w",
)


def _spec(seed=0):
    return RunSpec(
        workload="gzip",
        policy="FG",
        instructions=FAST_N,
        settle_time_s=1.0e-4,
        seed=seed,
    )


def _as_tuple(result):
    return tuple(getattr(result, field) for field in RESULT_FIELDS)


class TestFirstUnpicklable:
    def test_reports_first_unpicklable_index(self):
        local = lambda: None  # noqa: E731 - deliberately unpicklable
        assert _first_unpicklable([_spec(), local]) == 1
        assert _first_unpicklable([_spec(), _spec(seed=1)]) is None

    def test_buggy_reduce_propagates(self):
        # A spec whose __reduce__ raises is a real defect, not an
        # unpicklable value; it must surface, not silently force the
        # whole sweep onto the serial path.
        class ExplodingReduce:
            def __reduce__(self):
                raise RuntimeError("boom in __reduce__")

        with pytest.raises(RuntimeError, match="boom in __reduce__"):
            _first_unpicklable([_spec(), ExplodingReduce()])


class TestLoadJournal:
    def test_multicore_entries_rebuild_the_right_class(self, tmp_path):
        pair = [build_benchmark("crafty"), build_benchmark("mesa")]
        result = MultiCoreEngine(pair).run(0.3e-3)
        path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(path)
        journal.record("mc-digest", 0, result)
        journal.close()
        entry = json.loads(path.read_text().splitlines()[0])
        assert entry["kind"] == "multicore"
        loaded = load_journal(path)
        assert set(loaded) == {"mc-digest"}
        restored = loaded["mc-digest"]
        assert isinstance(restored, MultiCoreResult)
        assert restored.to_json_dict() == result.to_json_dict()

    def test_malformed_payload_is_still_skipped(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text(
            json.dumps({"digest": "x", "index": 0, "result": {"nope": 1}})
            + "\n"
        )
        assert load_journal(path) == {}

    def test_reconstruction_bug_propagates(self, tmp_path, monkeypatch):
        # The journal line is perfectly well-formed; the failure is a
        # bug in the reconstructor.  That must not be mistaken for a
        # torn line (which would silently re-run every completed spec).
        path = tmp_path / "sweep.jsonl"
        path.write_text(
            json.dumps({"digest": "d", "index": 0, "result": {}}) + "\n"
        )

        def boom(cls, payload):
            raise RuntimeError("reconstruction bug")

        monkeypatch.setattr(
            RunResult, "from_json_dict", classmethod(boom)
        )
        with pytest.raises(RuntimeError, match="reconstruction bug"):
            load_journal(path)


class TestLockstepPoolDegradation:
    def test_keyboard_interrupt_propagates(self, monkeypatch):
        import repro.sim.batch as batch

        def interrupted(processes):
            raise KeyboardInterrupt

        monkeypatch.setattr(batch, "_get_pool", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_many(
                [_spec(), _spec(seed=1)],
                processes=2,
                timeout_s=60.0,
            )

    def test_pool_construction_failure_degrades_loudly(
        self, monkeypatch, caplog
    ):
        # An ordinary pool-construction failure rebuilds the pool and
        # re-runs the sweep as batches of one -- with a warning and a
        # telemetry count, never silently.
        import repro.sim.batch as batch

        real_get_pool = batch._get_pool
        armed = {"flag": True}

        def flaky_get_pool(processes):
            if armed["flag"]:
                armed["flag"] = False
                raise RuntimeError("no pool for you")
            return real_get_pool(processes)

        monkeypatch.setattr(batch, "_get_pool", flaky_get_pool)
        specs = [_spec(), _spec(seed=1), _spec(seed=2)]
        with caplog.at_level(logging.WARNING, logger="repro.sweep"):
            healed = run_many(specs, processes=2, timeout_s=60.0)
        reference = [run_one(spec) for spec in specs]
        assert [_as_tuple(r) for r in healed] == [
            _as_tuple(r) for r in reference
        ]
        assert any(
            "pool start failed (RuntimeError)" in record.message
            for record in caplog.records
        )
