"""Server behaviour: dedup, caching, fairness, shedding, drain, and
failure isolation.

Every test runs a real :class:`SweepService` event loop on a background
thread over a Unix socket; only execution is stubbed (the ``runner``
seam), so what is under test is exactly what production runs: the
protocol readers, the scheduler, the admission controller and the
fan-out of results.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import threading
import time
import urllib.request
from dataclasses import replace
from pathlib import Path

import pytest

import repro.sim.batch as sim_batch
from repro.obs import metrics as obs_metrics
from repro.service import protocol
from repro.service.cache import ResultCache
from repro.service.client import (
    ServiceBusyError,
    ServiceClient,
    ServiceError,
)
from repro.sim import EngineConfig, FaultPlan, load_journal, run_one
from repro.sim.supervisor import RunFailure
from tests.service.conftest import synthetic_result


def fast_runner(spec):
    return synthetic_result(spec.workload_name, spec.policy, spec.seed)


class GatedRunner:
    """Blocks every execution until :meth:`release`; records call order."""

    def __init__(self):
        self.gate = threading.Event()
        self.calls = []

    def __call__(self, spec):
        self.calls.append((spec.workload_name, spec.policy, spec.seed))
        if not self.gate.wait(timeout=30.0):
            raise TimeoutError("test gate never released")
        return synthetic_result(spec.workload_name, spec.policy, spec.seed)

    def release(self):
        self.gate.set()


def wire(seed=0, benchmark="gzip", policy="FG"):
    return {
        "benchmark": benchmark,
        "policy": policy,
        "instructions": 1_000_000,
        "seed": seed,
    }


def connect(server) -> socket.socket:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30.0)
    sock.connect(server.service.config.socket_path)
    return sock


def submit_raw(sock, specs):
    """Send a submit and return only the acceptance frame; result
    frames stay queued on the socket for later reads."""
    protocol.send_frame(sock, {"op": "submit", "specs": specs})
    return protocol.recv_frame(sock)


def read_results(sock, n):
    frames = []
    while len(frames) < n:
        frame = protocol.recv_frame(sock)
        assert frame is not None, "connection closed awaiting results"
        if frame.get("op") == "result":
            frames.append(frame)
    return frames


def wait_for(predicate, timeout=20.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


class TestHappyPath:
    def test_ping_and_status(self, service_factory):
        server = service_factory(fast_runner)
        with ServiceClient(server.service.config.socket_path) as client:
            assert client.ping()["version"] == protocol.PROTOCOL_VERSION
            status = client.status()
        assert status["draining"] is False
        assert status["queue_depth"] == 0
        assert status["clients"] == 1
        assert status["cache"]["entries"] == 0

    def test_submit_then_cached_replay(self, service_factory):
        calls = []

        def counting_runner(spec):
            calls.append(spec.seed)
            return fast_runner(spec)

        server = service_factory(counting_runner)
        address = server.service.config.socket_path
        with ServiceClient(address) as client:
            first = client.submit([wire(seed=1)], timeout_s=30.0)
        assert len(first) == 1 and first[0].ok and not first[0].cached
        with ServiceClient(address) as client:
            second = client.submit([wire(seed=1)], timeout_s=30.0)
        assert second[0].ok and second[0].cached
        assert second[0].digest == first[0].digest
        # The cache replays bit-identically; nothing re-executed.
        assert second[0].result.to_json_dict() == first[0].result.to_json_dict()
        assert calls == [1]

    def test_restart_recovers_cache(self, service_factory, tmp_path):
        calls = []

        def counting_runner(spec):
            calls.append(spec.seed)
            return fast_runner(spec)

        cache_dir = str(tmp_path / "shared-cache")
        server = service_factory(counting_runner, cache_dir=cache_dir)
        with ServiceClient(server.service.config.socket_path) as client:
            client.submit([wire(seed=5)], timeout_s=30.0)
        assert server.stop() == 0
        # A new server over the same cache directory serves the result
        # without ever invoking the runner again.
        reborn = service_factory(counting_runner, cache_dir=cache_dir)
        with ServiceClient(reborn.service.config.socket_path) as client:
            replay = client.submit([wire(seed=5)], timeout_s=30.0)
        assert replay[0].cached
        assert calls == [5]

    def test_in_submission_duplicates_resolve_once(self, service_factory):
        server = service_factory(fast_runner)
        with ServiceClient(server.service.config.socket_path) as client:
            outcomes = client.submit(
                [wire(seed=7), wire(seed=7)], timeout_s=30.0
            )
        assert len(outcomes) == 2
        assert outcomes[0].digest == outcomes[1].digest
        assert all(o.ok for o in outcomes)


class TestDedupAndFairness:
    def test_concurrent_identical_specs_join_one_job(self, service_factory):
        runner = GatedRunner()
        server = service_factory(runner)
        a, b = connect(server), connect(server)
        try:
            accept_a = submit_raw(a, [wire(seed=3)])
            assert accept_a["ok"] and accept_a["new_jobs"] == 1
            wait_for(lambda: server.service._running,
                     what="job to start")
            accept_b = submit_raw(b, [wire(seed=3)])
            assert accept_b["ok"] and accept_b["new_jobs"] == 0
            wait_for(lambda: server.service.dedup_joins == 1,
                     what="dedup join")
            runner.release()
            result_a = read_results(a, 1)[0]
            result_b = read_results(b, 1)[0]
        finally:
            a.close()
            b.close()
        assert result_a["ok"] and result_b["ok"]
        assert result_a["digest"] == result_b["digest"]
        assert result_a["result"] == result_b["result"]
        assert len(runner.calls) == 1  # executed exactly once

    def test_round_robin_across_clients(self, service_factory):
        runner = GatedRunner()
        server = service_factory(runner)
        a, b = connect(server), connect(server)
        try:
            # a0 occupies the executor; a1/a2 queue behind it for
            # client A, b0 for client B.
            assert submit_raw(a, [wire(seed=0)])["ok"]
            wait_for(lambda: server.service._running,
                     what="first job to start")
            assert submit_raw(a, [wire(seed=1), wire(seed=2)])["ok"]
            assert submit_raw(b, [wire(seed=100)])["ok"]
            wait_for(lambda: server.service._queued_total == 3,
                     what="three queued jobs")
            runner.release()
            read_results(a, 3)
            read_results(b, 1)
        finally:
            a.close()
            b.close()
        # Fairness: B's single job is interleaved after one of A's, not
        # starved behind A's whole queue.
        assert [seed for _, _, seed in runner.calls] == [0, 1, 100, 2]


class TestLoadShedding:
    def test_overflow_is_shed_with_busy(self, service_factory):
        runner = GatedRunner()
        server = service_factory(runner, max_queue=1)
        address = server.service.config.socket_path
        a = connect(server)
        try:
            assert submit_raw(a, [wire(seed=0)])["ok"]
            wait_for(lambda: server.service._running,
                     what="first job to start")
            assert submit_raw(a, [wire(seed=1)])["ok"]  # fills the queue
            with ServiceClient(address) as client:
                with pytest.raises(ServiceBusyError, match="queue full"):
                    client.submit([wire(seed=2)], timeout_s=30.0)
                # Atomicity: a two-spec batch needing two slots is shed
                # whole, even though zero slots remain for either.
                with pytest.raises(ServiceBusyError):
                    client.submit([wire(seed=3), wire(seed=4)],
                                  timeout_s=30.0)
                status = client.status()
            assert status["shed"] == 2
            assert status["queue_depth"] == 1  # nothing was admitted
            runner.release()
            read_results(a, 2)
        finally:
            a.close()
        # Shedding is not a ban: the same spec resubmits fine later.
        with ServiceClient(address) as client:
            outcome = client.submit([wire(seed=2)], timeout_s=30.0)
        assert outcome[0].ok

    def test_duplicates_and_cache_hits_cost_no_admission(
        self, service_factory
    ):
        runner = GatedRunner()
        runner.release()  # run through immediately
        server = service_factory(runner, max_queue=1)
        address = server.service.config.socket_path
        with ServiceClient(address) as client:
            client.submit([wire(seed=0)], timeout_s=30.0)
            # All cached or duplicate: admissible even at max_queue=1.
            outcomes = client.submit(
                [wire(seed=0), wire(seed=0), wire(seed=0)], timeout_s=30.0
            )
        assert all(o.cached for o in outcomes)


class TestFailureIsolation:
    def test_malformed_spec_rejects_batch_atomically(self, service_factory):
        server = service_factory(fast_runner)
        with ServiceClient(server.service.config.socket_path) as client:
            with pytest.raises(ServiceError, match="unknown benchmark"):
                client.submit(
                    [wire(seed=0), {"benchmark": "nope"}], timeout_s=30.0
                )
            # Nothing was admitted and the connection still works.
            status = client.status()
            assert status["queue_depth"] == 0
            assert client.submit([wire(seed=0)], timeout_s=30.0)[0].ok

    def test_empty_submission_rejected(self, service_factory):
        server = service_factory(fast_runner)
        with ServiceClient(server.service.config.socket_path) as client:
            with pytest.raises(ServiceError, match="non-empty"):
                client.submit([], timeout_s=30.0)

    def test_unknown_op_answered_not_fatal(self, service_factory):
        server = service_factory(fast_runner)
        sock = connect(server)
        try:
            protocol.send_frame(sock, {"op": "explode"})
            reply = protocol.recv_frame(sock)
            assert reply["ok"] is False and "unknown op" in reply["error"]
            protocol.send_frame(sock, {"op": "ping"})
            assert protocol.recv_frame(sock)["ok"]
        finally:
            sock.close()

    def test_garbage_frame_poisons_only_its_connection(
        self, service_factory
    ):
        server = service_factory(fast_runner)
        bystander = ServiceClient(server.service.config.socket_path)
        evil = connect(server)
        try:
            payload = b"this is not json!!"
            evil.sendall(struct.pack(">I", len(payload)) + payload)
            reply = protocol.recv_frame(evil)
            assert reply["ok"] is False
            # The server hangs up on the offender...
            assert protocol.recv_frame(evil) is None
            # ...while the bystander and the event loop are untouched.
            assert bystander.ping()["ok"]
            assert bystander.status()["protocol_errors"] == 1
            assert bystander.submit([wire()], timeout_s=30.0)[0].ok
        finally:
            evil.close()
            bystander.close()

    def test_oversized_frame_refused(self, service_factory):
        server = service_factory(fast_runner, max_frame_bytes=256)
        sock = connect(server)
        try:
            big = {"op": "submit", "specs": [wire(seed=s) for s in range(50)]}
            protocol.send_frame(sock, big)
            reply = protocol.recv_frame(sock)
            assert reply["ok"] is False and "byte limit" in reply["error"]
        finally:
            sock.close()
        # Server still alive for well-behaved clients.
        with ServiceClient(server.service.config.socket_path) as client:
            assert client.ping()["ok"]

    def test_failed_run_answered_but_never_cached(self, service_factory):
        attempts = []

        def flaky_runner(spec):
            attempts.append(spec.seed)
            if len(attempts) == 1:
                return RunFailure(
                    index=0, digest="x", benchmark=spec.workload_name,
                    policy=spec.policy, error_type="SimulationError",
                    message="injected fault", attempts=1,
                )
            return fast_runner(spec)

        server = service_factory(flaky_runner)
        address = server.service.config.socket_path
        with ServiceClient(address) as client:
            failed = client.submit([wire(seed=9)], timeout_s=30.0)
            assert not failed[0].ok
            assert "injected fault" in failed[0].error
            # The failure was not cached: resubmission re-executes and
            # succeeds once the fault clears.
            retried = client.submit([wire(seed=9)], timeout_s=30.0)
            assert retried[0].ok and not retried[0].cached
            status = client.status()
        assert attempts == [9, 9]
        assert status["jobs_failed"] == 1
        assert status["jobs_done"] == 1
        assert status["cache"]["entries"] == 1

    def test_crashing_runner_answered_not_fatal(self, service_factory):
        def crashing_runner(spec):
            raise RuntimeError("runner blew up")

        server = service_factory(crashing_runner)
        with ServiceClient(server.service.config.socket_path) as client:
            outcome = client.submit([wire(seed=4)], timeout_s=30.0)
            assert not outcome[0].ok
            assert "runner blew up" in outcome[0].error
            assert client.ping()["ok"]  # loop survived


class TestDisconnect:
    def test_disconnect_cancels_queued_but_not_running(
        self, service_factory
    ):
        runner = GatedRunner()
        server = service_factory(runner)
        address = server.service.config.socket_path
        doomed = connect(server)
        # s1 runs (gated), s2 queues; then the client vanishes.
        assert submit_raw(doomed, [wire(seed=1)])["ok"]
        wait_for(lambda: server.service._running,
                 what="first job to start")
        assert submit_raw(doomed, [wire(seed=2)])["ok"]
        wait_for(lambda: server.service._queued_total == 1,
                 what="second job to queue")
        doomed.close()
        wait_for(lambda: server.service.cancelled == 1,
                 what="queued job cancellation")
        # The running job was NOT cancelled; it completes and is cached
        # for whoever asks next.
        runner.release()
        wait_for(lambda: server.service.jobs_done == 1,
                 what="running job completion")
        with ServiceClient(address) as client:
            outcome = client.submit([wire(seed=1)], timeout_s=30.0)
            assert outcome[0].cached
            status = client.status()
        assert status["cancelled"] == 1
        assert status["queue_depth"] == 0
        assert [seed for _, _, seed in runner.calls] == [1]

    def test_shared_job_survives_one_waiter_leaving(self, service_factory):
        runner = GatedRunner()
        server = service_factory(runner)
        a, b = connect(server), connect(server)
        try:
            assert submit_raw(a, [wire(seed=1)])["ok"]
            wait_for(lambda: server.service._running,
                     what="job to start")
            assert submit_raw(a, [wire(seed=2)])["ok"]   # queued
            assert submit_raw(b, [wire(seed=2)])["ok"]   # joins the queued job
            wait_for(lambda: server.service.dedup_joins == 1,
                     what="dedup join")
            a.close()  # A leaves; B still waits on the shared job
            wait_for(lambda: server.service.status()["clients"] == 1,
                     what="disconnect processing")
            assert server.service.cancelled == 0
            runner.release()
            result = read_results(b, 1)[0]
            assert result["ok"]
        finally:
            b.close()


class TestGracefulDrain:
    def test_drain_finishes_running_and_refuses_queued(
        self, service_factory
    ):
        runner = GatedRunner()
        server = service_factory(runner)
        address = server.service.config.socket_path
        sock = connect(server)
        try:
            accept_run = submit_raw(sock, [wire(seed=1)])  # running
            assert accept_run["ok"]
            wait_for(lambda: server.service._running,
                     what="job to start")
            accept_queued = submit_raw(sock, [wire(seed=2)])  # queued
            assert accept_queued["ok"]
            wait_for(lambda: server.service._queued_total == 1,
                     what="queued job")
            # Connect *before* the drain: afterwards the listener is
            # closed, so existing connections are the only way in.
            with ServiceClient(address) as late:
                late.drain()
                # Submissions on surviving connections are refused
                # immediately while draining.
                with pytest.raises(ServiceBusyError, match="draining"):
                    late.submit([wire(seed=3)], timeout_s=30.0)
            runner.release()
            frames = read_results(sock, 2)
        finally:
            sock.close()
        by_digest = {f["digest"]: f for f in frames}
        # The in-flight run finished and was answered...
        assert by_digest[accept_run["digests"][0]]["ok"]
        # ...the queued run was refused, loudly.
        refused = by_digest[accept_queued["digests"][0]]
        assert refused["ok"] is False
        assert "draining" in refused["error"]
        assert server.stop() == 0
        assert server.service.drain_seconds is not None
        assert [seed for _, _, seed in runner.calls] == [1]

    def test_stale_socket_file_is_reclaimed(self, service_factory, tmp_path):
        # A SIGKILLed server cannot unlink its socket; a restart must
        # reclaim the stale file instead of refusing to bind.
        stale = tmp_path / "stale.sock"
        stale.touch()
        server = service_factory(fast_runner, socket_path=str(stale))
        with ServiceClient(str(stale)) as client:
            assert client.ping()["ok"]

    def test_live_socket_is_not_stolen(self, service_factory, tmp_path):
        from repro.errors import SimulationError
        from repro.service.server import ServerThread, ServiceConfig

        server = service_factory(fast_runner)
        path = server.service.config.socket_path
        rival = ServerThread(ServiceConfig(
            cache_dir=str(tmp_path / "rival-cache"),
            socket_path=path,
            runner=fast_runner,
        ))
        with pytest.raises(SimulationError, match="live server"):
            rival.start(timeout=10.0)
        # The incumbent is untouched.
        with ServiceClient(path) as client:
            assert client.ping()["ok"]

    def test_idle_drain_exits_promptly(self, service_factory):
        server = service_factory(fast_runner)
        assert server.stop(timeout=30.0) == 0

    def test_second_drain_is_idempotent(self, service_factory):
        server = service_factory(fast_runner)
        with ServiceClient(server.service.config.socket_path) as client:
            client.drain()
        server.service.request_drain_threadsafe()  # second request: no-op
        assert server.stop() == 0


class GatedRunMany:
    """Stands in for ``run_many`` on the server's default path: records
    each call's seeds and options, holds it until :meth:`release`, then
    runs the real sweep (so results and the journal are real)."""

    def __init__(self, real):
        self.real = real
        self.gate = threading.Event()
        self.calls = []

    def __call__(self, specs, **options):
        self.calls.append(([spec.seed for spec in specs], options))
        if not self.gate.wait(timeout=30.0):
            raise TimeoutError("test gate never released")
        return self.real(specs, **options)

    def release(self):
        self.gate.set()


@pytest.fixture
def gated_run_many(monkeypatch):
    fake = GatedRunMany(sim_batch.run_many)
    monkeypatch.setattr(sim_batch, "run_many", fake)
    yield fake
    fake.release()


def result_frames_by_index(sock, n):
    return {frame["index"]: frame for frame in read_results(sock, n)}


class TestBatching:
    """Queued cold misses run together through one lockstep ``run_many``
    call; each job is answered when its own run ends."""

    def test_lone_job_takes_the_per_run_call(
        self, service_factory, gated_run_many, monkeypatch
    ):
        from repro.sim.lockstep import LockstepEngine

        built = []
        monkeypatch.setattr(
            LockstepEngine, "__init__",
            lambda self, *args, **kwargs: built.append(args),
        )
        gated_run_many.release()
        server = service_factory(None)
        with ServiceClient(server.service.config.socket_path) as client:
            (outcome,) = client.submit([wire(seed=4)], timeout_s=30.0)
        assert outcome.ok and not outcome.cached
        assert built == []
        assert gated_run_many.calls == [([4], {
            "processes": None,
            "timeout_s": None,
            "retries": 0,
            "backoff_s": 0.1,
            "backoff_max_s": 30.0,
            "partial_results": True,
            "journal": str(server.service.journal_path),
        })]

    def test_two_clients_form_one_round_robin_batch(
        self, service_factory, gated_run_many
    ):
        server = service_factory(None)
        a, b = connect(server), connect(server)
        try:
            assert submit_raw(a, [wire(seed=0)])["ok"]
            wait_for(lambda: len(gated_run_many.calls) == 1,
                     what="first batch to start")
            assert submit_raw(a, [wire(seed=1), wire(seed=2)])["ok"]
            assert submit_raw(b, [wire(seed=100)])["ok"]
            wait_for(lambda: server.service._queued_total == 3,
                     what="three queued jobs")
            gated_run_many.release()
            frames = read_results(a, 3) + read_results(b, 1)
        finally:
            a.close()
            b.close()
        assert all(frame["ok"] for frame in frames)
        seeds = [call[0] for call in gated_run_many.calls]
        assert seeds == [[0], [1, 100, 2]]

    def test_short_job_answered_before_long_batch_mate_ends(
        self, service_factory
    ):
        server = service_factory(None)
        long_wire = dict(wire(seed=1), instructions=60_000_000)
        short_wire = dict(wire(seed=2), instructions=1_000_000)
        sock = connect(server)
        try:
            accept = submit_raw(sock, [long_wire, short_wire])
            assert accept["ok"] and accept["new_jobs"] == 2
            frames = read_results(sock, 2)
        finally:
            sock.close()
        # Answered at batch end the frames would come in spec order;
        # the short run's frame comes first because it is sent the
        # moment that run ends.
        assert [frame["index"] for frame in frames] == [1, 0]
        assert all(frame["ok"] for frame in frames)

    def test_batched_results_equal_run_one(self, service_factory):
        server = service_factory(None)
        wires = [
            dict(wire(seed=3, benchmark="gzip", policy="Hyb"),
                 instructions=3_000_000),
            dict(wire(seed=4, benchmark="mesa", policy="FG"),
                 instructions=2_000_000),
            dict(wire(seed=5, benchmark="art", policy="DVS"),
                 instructions=4_000_000),
        ]
        sock = connect(server)
        try:
            assert submit_raw(sock, wires)["new_jobs"] == 3
            frames = result_frames_by_index(sock, 3)
        finally:
            sock.close()
        for index, wire_spec in enumerate(wires):
            alone = run_one(protocol.spec_from_wire(wire_spec))
            assert frames[index]["ok"]
            assert frames[index]["result"] == alone.to_json_dict()

    def test_dedup_join_onto_running_batch_member(
        self, service_factory, gated_run_many
    ):
        server = service_factory(None)
        a, b = connect(server), connect(server)
        try:
            assert submit_raw(a, [wire(seed=1), wire(seed=2)])["ok"]
            wait_for(lambda: len(server.service._running) == 2,
                     what="batch of two to start")
            accept = submit_raw(b, [wire(seed=2)])
            assert accept["ok"] and accept["new_jobs"] == 0
            wait_for(lambda: server.service.dedup_joins == 1,
                     what="dedup join")
            gated_run_many.release()
            frames_a = result_frames_by_index(a, 2)
            (frame_b,) = read_results(b, 1)
        finally:
            a.close()
            b.close()
        assert [call[0] for call in gated_run_many.calls] == [[1, 2]]
        assert frame_b["ok"] and not frame_b["cached"]
        assert frame_b["digest"] == frames_a[1]["digest"]
        assert frame_b["result"] == frames_a[1]["result"]

    def test_failing_spec_fails_only_its_own_job(
        self, service_factory, monkeypatch
    ):
        real_spec_from_wire = protocol.spec_from_wire

        def faulty_for_seed_7(wire_spec):
            spec = real_spec_from_wire(wire_spec)
            if spec.seed != 7:
                return spec
            return replace(spec, engine_config=EngineConfig(
                dvs_mode=spec.dvs_mode,
                fault_plan=FaultPlan(seeds=(7,), crash_worker=True),
            ))

        monkeypatch.setattr(protocol, "spec_from_wire", faulty_for_seed_7)
        server = service_factory(None)
        sock = connect(server)
        try:
            accept = submit_raw(sock, [wire(seed=1), wire(seed=7),
                                       wire(seed=2)])
            assert accept["new_jobs"] == 3
            frames = result_frames_by_index(sock, 3)
        finally:
            sock.close()
        assert frames[0]["ok"] and frames[2]["ok"]
        assert frames[1]["ok"] is False
        assert "InjectedFaultError" in frames[1]["error"]
        digests = accept["digests"]
        assert digests[0] in server.service.cache
        assert digests[2] in server.service.cache
        assert digests[1] not in server.service.cache
        assert server.service.jobs_failed == 1
        assert server.service.jobs_done == 2

    def test_drain_finishes_and_journals_the_batch_in_flight(
        self, service_factory, gated_run_many
    ):
        server = service_factory(None)
        address = server.service.config.socket_path
        sock = connect(server)
        try:
            batch = submit_raw(sock, [wire(seed=1), wire(seed=2)])
            wait_for(lambda: len(server.service._running) == 2,
                     what="batch of two to start")
            queued = submit_raw(sock, [wire(seed=3)])
            wait_for(lambda: server.service._queued_total == 1,
                     what="queued job")
            with ServiceClient(address) as late:
                late.drain()
            gated_run_many.release()
            frames = {f["digest"]: f for f in read_results(sock, 3)}
        finally:
            sock.close()
        assert server.stop() == 0
        for digest in batch["digests"]:
            assert frames[digest]["ok"]
        refused = frames[queued["digests"][0]]
        assert refused["ok"] is False and "draining" in refused["error"]
        journalled = load_journal(server.service.journal_path)
        assert set(journalled) == set(batch["digests"])
        assert [call[0] for call in gated_run_many.calls] == [[1, 2]]


class TestGaugeRefreshCost:
    def test_request_path_never_lists_the_cache(
        self, service_factory, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "big-cache"
        results = cache_dir / "results"
        results.mkdir(parents=True)
        entry = json.dumps(
            {"digest": "seeded", "result": synthetic_result().to_json_dict()},
            sort_keys=True,
        )
        for i in range(2000):
            (results / f"{i:064x}.json").write_text(entry)
        server = service_factory(
            fast_runner, cache_dir=str(cache_dir), http="127.0.0.1:0"
        )
        root = str(results)
        listings = []

        def counted(name, original):
            def wrapper(self, *args, **kwargs):
                if str(self).startswith(root):
                    listings.append(name)
                return original(self, *args, **kwargs)
            return wrapper

        def counted_os(name, original):
            def wrapper(path=".", *args, **kwargs):
                if str(path).startswith(root):
                    listings.append(name)
                return original(path, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            ResultCache, "__len__", counted("len", ResultCache.__len__)
        )
        for name in ("glob", "rglob", "iterdir"):
            monkeypatch.setattr(Path, name, counted(name, getattr(Path, name)))
        for name in ("listdir", "scandir"):
            monkeypatch.setattr(os, name, counted_os(name, getattr(os, name)))

        with ServiceClient(server.service.config.socket_path) as client:
            (cold,) = client.submit([wire(seed=1)], timeout_s=30.0)
            (warm,) = client.submit([wire(seed=1)], timeout_s=30.0)
        url = f"http://{server.service.http_address}/metrics"
        with urllib.request.urlopen(url, timeout=5.0) as response:
            text = response.read().decode()
        assert listings == []
        assert cold.ok and not cold.cached and warm.cached

        # The gauge reads what it always has: hits / (hits + misses).
        monkeypatch.undo()
        stats = server.service.cache.stats()
        assert stats["entries"] == 2001
        expected = stats["hits"] / (stats["hits"] + stats["misses"])
        assert expected == 0.5
        scraped = [
            float(line.split()[1]) for line in text.splitlines()
            if line.startswith("repro_service_cache_hit_rate ")
        ]
        assert scraped == [expected]
        gauge = obs_metrics.REGISTRY.gauge("service.cache_hit_rate")
        assert gauge.value == expected
