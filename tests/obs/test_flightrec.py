"""The crash flight recorder: ring bounds, dumps, signal/crash hooks."""

import json
import os
import signal
import sys
from pathlib import Path

import pytest

from repro.obs import events, flightrec, metrics


@pytest.fixture
def flight_on(obs_dir):
    flightrec.reset()
    yield
    flightrec.reset()


class TestRing:
    def test_note_appends_records(self, flight_on):
        flightrec.note("test.alpha", value=1)
        flightrec.note("test.beta")
        records = flightrec.snapshot()
        assert [r["event"] for r in records] == ["test.alpha", "test.beta"]
        assert records[0]["value"] == 1
        assert records[0]["pid"] == os.getpid()
        assert records[0]["ts"] > 0

    def test_ring_is_bounded(self, flight_on):
        for i in range(flightrec.RING_LEN + 100):
            flightrec.note("test.fill", i=i)
        records = flightrec.snapshot()
        assert len(records) == flightrec.RING_LEN
        # Oldest evicted, newest kept.
        assert records[-1]["i"] == flightrec.RING_LEN + 99
        assert records[0]["i"] == 100

    def test_emit_mirrors_into_ring_exactly_once(self, flight_on):
        metrics.set_enabled(True)
        try:
            events.emit("test.mirrored", value=7)
        finally:
            metrics.set_enabled(False)
        mirrored = [
            r for r in flightrec.snapshot() if r["event"] == "test.mirrored"
        ]
        assert len(mirrored) == 1
        assert mirrored[0]["value"] == 7


class TestDump:
    def test_dump_writes_valid_jsonl(self, flight_on, tmp_path):
        flightrec.note("test.one", x=1)
        flightrec.note("test.two", weird=float("nan"))
        path = flightrec.dump(tmp_path / "flight.jsonl", reason="unit")
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["event"] == "flight.dump"
        assert records[0]["reason"] == "unit"
        assert records[0]["records"] == 2
        assert [r["event"] for r in records[1:]] == ["test.one", "test.two"]

    def test_dump_default_dir_honours_env(
        self, flight_on, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(metrics.OBS_DIR_ENV, str(tmp_path / "dumps"))
        flightrec.note("test.dir")
        path = flightrec.dump(reason="env")
        assert path.parent == tmp_path / "dumps"
        assert path.name.startswith(f"flight-{os.getpid()}-")

    def test_dump_dir_defaults_to_working_directory(self, monkeypatch):
        # Never the obs temp dir, which is removed at interpreter exit.
        monkeypatch.delenv(metrics.OBS_DIR_ENV, raising=False)
        assert flightrec.dump_dir() == Path(".")

    def test_sigusr2_dumps(self, flight_on, tmp_path, monkeypatch):
        monkeypatch.setenv(metrics.OBS_DIR_ENV, str(tmp_path))
        flightrec.note("test.signal")
        flightrec.install()
        try:
            os.kill(os.getpid(), signal.SIGUSR2)
            dumps = list(tmp_path.glob("flight-*.jsonl"))
            assert len(dumps) == 1
            events_seen = [
                json.loads(line)["event"]
                for line in dumps[0].read_text().splitlines()
            ]
            assert "test.signal" in events_seen
        finally:
            flightrec.uninstall()

    def test_crash_hook_dumps_and_chains(
        self, flight_on, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(metrics.OBS_DIR_ENV, str(tmp_path))
        chained = []
        previous_hook = sys.excepthook
        sys.excepthook = lambda *exc: chained.append(exc)
        try:
            flightrec.install(sigusr2=False)
            try:
                raise ValueError("boom")
            except ValueError:
                sys.excepthook(*sys.exc_info())
            finally:
                flightrec.uninstall()
        finally:
            sys.excepthook = previous_hook
        assert len(chained) == 1  # previous hook still ran
        dumps = list(tmp_path.glob("flight-*.jsonl"))
        assert len(dumps) == 1
        records = [
            json.loads(line) for line in dumps[0].read_text().splitlines()
        ]
        assert records[0]["reason"] == "crash"
        crash = [r for r in records if r["event"] == "flight.crash"]
        assert crash and "ValueError: boom" in crash[0]["error"]

    def test_install_is_idempotent_and_uninstall_restores(self, flight_on):
        hook_before = sys.excepthook
        flightrec.install(sigusr2=False)
        flightrec.install(sigusr2=False)  # second call: no re-chain
        assert sys.excepthook is not hook_before
        flightrec.uninstall()
        assert sys.excepthook is hook_before


class TestEngineEvents:
    def test_engine_lifecycle_lands_in_ring_with_obs_off(self, flight_on):
        from repro.sim.batch import RunSpec, run_one

        assert not metrics.enabled()
        run_one(RunSpec("gzip", "none", instructions=1_000))
        names = [r["event"] for r in flightrec.snapshot()]
        assert "engine.run.start" in names
        assert "engine.run.complete" in names
