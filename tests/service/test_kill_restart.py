"""Crash drills against real processes.

The in-thread suite (test_server.py) pins scheduling and protocol
behaviour; these tests pin the *survival* story end to end, with real
``python -m repro`` subprocesses, real runs and real signals:

* SIGTERM to ``repro serve`` drains gracefully and exits 0;
* SIGKILL to ``repro serve`` loses nothing that was journalled -- a
  restarted server rebuilds its cache from the journal and replays
  completed runs bit-identically, re-executing only unfinished specs;
* SIGTERM to ``repro batch`` flushes a loadable journal and exits 143,
  and a resume completes the sweep bit-identically.

Budgets are small (1.5M instructions) so each drill stays in seconds.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.core.evaluation import DEFAULT_SETTLE_TIME_S
from repro.service.client import ServiceClient
from repro.sim import RunSpec, load_journal, run_many
from repro.sim.supervisor import spec_digest

REPO_ROOT = Path(__file__).resolve().parents[2]
INSTRUCTIONS = 1_500_000
# The fused step kernel retires ~2G instructions per wall-clock second,
# so "kill it mid-run" tests need budgets in the billions to make the
# in-flight window seconds wide instead of milliseconds.
SLOW_INSTRUCTIONS = 10_000_000_000
BATCH_INSTRUCTIONS = 2_000_000_000


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def wire(seed=0, benchmark="gzip", policy="FG"):
    return {
        "benchmark": benchmark,
        "policy": policy,
        "instructions": INSTRUCTIONS,
        "seed": seed,
    }


def start_server(tmp_path, cache_dir):
    sock = tmp_path / "svc.sock"
    if sock.exists():
        sock.unlink()  # a SIGKILLed server cannot clean up its socket
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--socket", str(sock), "--cache-dir", str(cache_dir)],
        env=_env(), cwd=str(tmp_path),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                f"server died on startup:\n{proc.stdout.read()}"
            )
        try:
            with ServiceClient(str(sock), timeout=5.0) as client:
                client.ping()
            return proc, str(sock)
        except OSError:
            time.sleep(0.05)
    proc.kill()
    raise AssertionError("server never started listening")


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=30.0)
    if proc.stdout is not None:
        proc.stdout.close()


class TestServeSignals:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        proc, sock = start_server(tmp_path, tmp_path / "cache")
        try:
            with ServiceClient(sock) as client:
                outcome = client.submit([wire(seed=0)], timeout_s=120.0)
            assert outcome[0].ok
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30.0) == 0
            # The drain flushed the journal: the completed run is there.
            journal = tmp_path / "cache" / "journal.jsonl"
            assert len(load_journal(journal)) == 1
        finally:
            stop(proc)

    def test_sigkill_then_restart_replays_from_journal(self, tmp_path):
        cache_dir = tmp_path / "cache"
        proc, sock = start_server(tmp_path, cache_dir)
        try:
            with ServiceClient(sock) as client:
                before = client.submit([wire(seed=0)], timeout_s=120.0)
            assert before[0].ok and not before[0].cached
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30.0)
        finally:
            stop(proc)
        # Simulate losing the cache but not the journal: recovery must
        # come from the journal, which is the durable store.
        for entry in (cache_dir / "results").glob("*.json"):
            entry.unlink()

        reborn, sock = start_server(tmp_path, cache_dir)
        try:
            with ServiceClient(sock) as client:
                after = client.submit(
                    [wire(seed=0), wire(seed=1)], timeout_s=240.0
                )
                status = client.status()
            # The journalled run replays as a cache hit, bit-identical;
            # only the never-run spec executed.
            assert after[0].cached
            assert after[0].digest == before[0].digest
            assert (after[0].result.to_json_dict()
                    == before[0].result.to_json_dict())
            assert after[1].ok and not after[1].cached
            assert status["jobs_done"] == 1
        finally:
            stop(reborn)

    def test_sigkill_mid_flight_reexecutes_on_restart(self, tmp_path):
        cache_dir = tmp_path / "cache"
        proc, sock = start_server(tmp_path, cache_dir)
        slow = wire(seed=2)
        slow["instructions"] = SLOW_INSTRUCTIONS
        submit_error = []

        def doomed_submit():
            try:
                with ServiceClient(sock, timeout=120.0) as client:
                    client.submit([slow], timeout_s=120.0)
            except Exception as exc:  # noqa: BLE001 - expected to die
                submit_error.append(exc)

        thread = threading.Thread(target=doomed_submit)
        try:
            thread.start()
            deadline = time.monotonic() + 60.0
            with ServiceClient(sock, timeout=5.0) as status_client:
                while time.monotonic() < deadline:
                    if status_client.status()["running"] is not None:
                        break
                else:
                    raise AssertionError("job never started running")
            proc.send_signal(signal.SIGKILL)  # mid-run, no warning
            proc.wait(timeout=30.0)
        finally:
            thread.join(timeout=30.0)
            stop(proc)
        assert submit_error, "client should see the server vanish"

        reborn, sock = start_server(tmp_path, cache_dir)
        try:
            with ServiceClient(sock, timeout=120.0) as client:
                outcome = client.submit([slow], timeout_s=240.0)
            # The killed run was never journalled, so it re-executes --
            # and succeeds, because nothing was corrupted.
            assert outcome[0].ok and not outcome[0].cached
        finally:
            stop(reborn)


class TestBatchSigterm:
    # On the default (lockstep) path the runs advance together; none
    # finishes well before FG and CG, so a SIGTERM sent on the first
    # journal record lands while the other two are still running.
    POLICIES = ("none", "FG", "CG")

    def _terminate_after_first_record(self, tmp_path, env, *flags):
        """Start ``repro batch`` with a journal, SIGTERM it once the
        first finished run is journalled; return (exit code, output,
        journal path)."""
        journal = tmp_path / "sweep.jsonl"
        argv = [
            sys.executable, "-m", "repro", "batch",
            "--benchmarks", "gzip", "--policies", *self.POLICIES,
            "--instructions", str(BATCH_INSTRUCTIONS),
            "--journal", str(journal), *flags,
        ]
        proc = subprocess.Popen(
            argv, env=env, cwd=str(tmp_path),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if journal.exists() and journal.stat().st_size > 0:
                    break
                if proc.poll() is not None:
                    raise AssertionError(
                        f"batch exited early:\n{proc.stdout.read()}"
                    )
                time.sleep(0.02)
            else:
                raise AssertionError("journal never received a record")
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=60.0)
            output = proc.stdout.read()
        finally:
            stop(proc)
        return code, output, journal

    def test_sigterm_flushes_journal_and_resume_completes(self, tmp_path):
        # A three-run sweep (gzip x [none, FG, CG]) of a few seconds,
        # SIGTERMed once the first finish is journalled: the process
        # must exit 143 with a valid journal, and a --resume must
        # complete the sweep bit-identically to an uninterrupted one.
        env = _env()
        code, output, journal = self._terminate_after_first_record(
            tmp_path, env
        )
        assert code == 143, output
        assert "resume" in output  # the hint names the journal

        # The journal is valid and holds only completed runs; the
        # SIGTERM interrupted the sweep before it finished.
        completed = load_journal(journal)
        assert 1 <= len(completed) < len(self.POLICIES)

        # Resume finishes the sweep; together the runs are bit-identical
        # to an uninterrupted reference sweep.
        resumed = subprocess.run(
            [sys.executable, "-m", "repro", "batch",
             "--benchmarks", "gzip", "--policies", *self.POLICIES,
             "--instructions", str(BATCH_INSTRUCTIONS),
             "--resume", str(journal)],
            env=env, cwd=str(tmp_path),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=240.0,
        )
        assert resumed.returncode == 0, resumed.stdout
        final = load_journal(journal)
        assert len(final) == len(self.POLICIES)

        specs = [
            RunSpec("gzip", policy, instructions=BATCH_INSTRUCTIONS,
                    settle_time_s=DEFAULT_SETTLE_TIME_S)
            for policy in self.POLICIES
        ]
        digests = [spec_digest(spec) for spec in specs]
        assert set(final) == set(digests)
        reference = run_many(specs, lockstep=False)
        for digest, result in zip(digests, reference):
            assert (final[digest].to_json_dict()
                    == result.to_json_dict())

    def test_sigterm_is_not_a_run_failure_under_supervision(self, tmp_path):
        # With --partial and a retry budget, the interrupted run must
        # not be recorded as a failure or retried: the sweep still stops
        # with 143 and journals only the runs that had finished.
        code, output, journal = self._terminate_after_first_record(
            tmp_path, _env(), "--partial", "--retries", "1"
        )
        assert code == 143, output
        completed = load_journal(journal)
        assert 1 <= len(completed) < len(self.POLICIES)
