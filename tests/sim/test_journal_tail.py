"""Torn-tail tolerance of ``load_journal``.

A sweep killed mid-append (SIGKILL, power loss, disk full) leaves at
most one incomplete line at the end of its journal.  Resume must skip
that tail loudly -- a warning plus a structured observability event --
and never let it poison the completed prefix.  These tests pin the
behaviours that failed on the seed: no warning/event was emitted for a
torn tail, and a tail sheared inside a multi-byte UTF-8 sequence made
``load_journal`` raise ``UnicodeDecodeError`` instead of resuming.
"""

from __future__ import annotations

import json

import pytest

import repro.obs as obs
from repro.sim import RunSpec, load_journal, run_many
from repro.sim.supervisor import SweepJournal, result_from_journal_entry


@pytest.fixture(scope="module")
def journal_entry():
    """One completed run, as (digest, result)."""
    spec = RunSpec("gzip", "FG", instructions=1_500_000)
    return "good0", run_many([spec])[0]


def _write_journal(path, entry, tail: bytes) -> None:
    digest, result = entry
    journal = SweepJournal(path)
    journal.record(digest, 0, result)
    journal.close()
    with open(path, "ab") as handle:
        handle.write(tail)


class TestTornTail:
    def test_truncated_json_tail_warns(self, tmp_path, journal_entry):
        path = tmp_path / "sweep.jsonl"
        _write_journal(path, journal_entry, b'{"digest": "torn", "resu')
        with pytest.warns(RuntimeWarning, match="torn trailing line"):
            completed = load_journal(path)
        assert set(completed) == {"good0"}

    def test_tail_sheared_inside_utf8_sequence(self, tmp_path, journal_entry):
        # A crash can land between the bytes of one UTF-8 code point;
        # the resulting tail is not even decodable text.  On the seed
        # this raised UnicodeDecodeError and failed the whole resume.
        path = tmp_path / "sweep.jsonl"
        torn = '{"digest": "é-torn"'.encode("utf-8")[:-2]
        _write_journal(path, journal_entry, torn)
        with pytest.warns(RuntimeWarning, match="torn trailing line"):
            completed = load_journal(path)
        assert set(completed) == {"good0"}

    def test_torn_tail_emits_structured_event(
        self, tmp_path, journal_entry, monkeypatch
    ):
        obs_dir = tmp_path / "obs"
        monkeypatch.setenv(obs.OBS_DIR_ENV, str(obs_dir))
        obs.reset_for_testing()
        previous = obs.set_enabled(True)
        try:
            path = tmp_path / "sweep.jsonl"
            _write_journal(path, journal_entry, b'{"digest": "to')
            with pytest.warns(RuntimeWarning):
                load_journal(path)
            events = []
            for event_file in obs_dir.glob("events-*.jsonl"):
                with open(event_file, encoding="utf-8") as handle:
                    events.extend(json.loads(line) for line in handle if line.strip())
            torn = [e for e in events if e["event"] == "journal.torn_tail"]
            assert len(torn) == 1
            assert torn[0]["path"] == str(path)
            assert torn[0]["line"] == 2
            assert obs.REGISTRY.counter("journal.torn_tail_skips").value == 1
        finally:
            obs.set_enabled(previous)
            obs.reset_for_testing()

    def test_midfile_corruption_flagged_separately(
        self, tmp_path, journal_entry
    ):
        digest, result = journal_entry
        path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(path)
        journal.record(digest, 0, result)
        journal.close()
        content = path.read_bytes()
        # Corrupt a *middle* line: good, garbage, good.
        path.write_bytes(b'{"not": "a journal entry"}\n' + content)
        with pytest.warns(RuntimeWarning, match="malformed"):
            completed = load_journal(path)
        assert set(completed) == {digest}

    def test_resume_reexecutes_only_the_torn_run(self, tmp_path):
        specs = [RunSpec("gzip", "FG", instructions=1_500_000, seed=s) for s in (0, 1)]
        path = tmp_path / "sweep.jsonl"
        reference = run_many(specs, journal=str(path))
        # Tear the second entry in half, as a kill mid-append would.
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + lines[1][: len(lines[1]) // 2])
        with pytest.warns(RuntimeWarning, match="torn trailing line"):
            resumed = run_many(specs, resume=str(path))
        assert [r.to_json_dict() for r in resumed] == [
            r.to_json_dict() for r in reference
        ]
        # The re-executed finish was appended; the journal is whole again.
        assert len(load_journal(path)) == 2


class TestEntryRebuild:
    def test_rebuild_matches_journal_round_trip(self, tmp_path, journal_entry):
        digest, result = journal_entry
        path = tmp_path / "sweep.jsonl"
        _write_journal(path, journal_entry, b"")
        with open(path, encoding="utf-8") as handle:
            entry = json.loads(handle.readline())
        rebuilt = result_from_journal_entry(entry)
        assert rebuilt.to_json_dict() == result.to_json_dict()

    def test_malformed_entry_raises(self):
        with pytest.raises((KeyError, TypeError)):
            result_from_journal_entry({"digest": "x"})
        with pytest.raises(TypeError):
            result_from_journal_entry({"result": {"benchmark": "gzip"}})
