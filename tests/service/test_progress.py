"""Live progress through the service: the ``status``/``jobs`` verbs,
streamed ``progress`` frames, the HTTP facade, and drain readiness.

The runner seam stands in for the engine and publishes heartbeats by
hand, keyed by the job digest exactly as ``run_one``'s bracket does --
so these tests pin the relay contract (engine slot -> service entry ->
wire) without paying for a simulation.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import heartbeat
from repro.service.client import ServiceClient, ServiceError
from repro.sim.batch import RunSpec
from repro.sim.supervisor import spec_digest
from tests.service.conftest import synthetic_result


@pytest.fixture(autouse=True)
def _fast_heartbeats():
    """Unthrottled, clean heartbeat state around every test here."""
    interval = heartbeat.set_publish_interval(0.0)
    heartbeat.reset()
    yield
    heartbeat.set_publish_interval(interval)
    heartbeat.reset()


def publishing_runner(samples=4, gap_s=0.05, release=None, published=None):
    """A runner that heartbeats ``samples`` times, then resolves.

    ``release`` (an Event) gates completion so a test can hold a job
    in flight while it probes the server from outside; ``published``
    (an Event) is set once every heartbeat has been published, so a
    test can wait for the final progress before polling it.
    """

    def run(spec):
        publisher = heartbeat.begin(
            spec_digest(spec), spec.workload_name, spec.policy, 100.0
        )
        try:
            for i in range(1, samples + 1):
                if publisher is not None:
                    publisher.publish(
                        i * 100.0 / samples, i * 0.1, i * 1000, 80.0, False
                    )
                time.sleep(gap_s)
            if published is not None:
                published.set()
            if release is not None:
                assert release.wait(timeout=30.0)
        finally:
            heartbeat.finish(publisher)
        return synthetic_result(spec.workload_name, spec.policy)

    return run


def submit_in_background(address, specs):
    """Submit on a worker thread; returns (thread, outcomes-list)."""
    outcomes = []

    def work():
        with ServiceClient(address, timeout=60.0) as client:
            outcomes.extend(client.submit(specs, timeout_s=60.0))

    thread = threading.Thread(target=work, daemon=True)
    thread.start()
    return thread, outcomes


def _status_or_none(client, digest):
    """Poll-friendly status: None while the submission is still in
    flight to the server (the background submitter races the poller)."""
    try:
        return client.status(digest)
    except ServiceError as err:
        if "unknown job" in str(err):
            return None
        raise


def _get(address, path):
    url = f"http://{address}{path}"
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestStatusVerb:
    def test_per_job_progress_is_monotonic(self, service_factory):
        server = service_factory(publishing_runner(samples=5, gap_s=0.1))
        spec = RunSpec("gzip", "Hyb", instructions=1_000_000)
        digest = spec_digest(spec)
        thread, outcomes = submit_in_background(
            server.service.config.socket_path, [spec]
        )
        percents = []
        with ServiceClient(server.service.config.socket_path) as client:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                entry = _status_or_none(client, digest)
                if entry is not None:
                    if entry.get("percent") is not None:
                        percents.append(entry["percent"])
                    if entry["state"] in ("done", "failed"):
                        break
                time.sleep(0.04)
        thread.join(timeout=30.0)
        assert outcomes and outcomes[0].ok
        assert percents == sorted(percents)  # never regresses
        assert len(set(percents)) >= 2  # actually moved mid-run
        assert percents[-1] == 100.0

    def test_running_entry_carries_heartbeat_fields(self, service_factory):
        release = threading.Event()
        published = threading.Event()
        server = service_factory(
            publishing_runner(
                samples=2, gap_s=0.01, release=release, published=published
            )
        )
        spec = RunSpec("art", "FG", instructions=1_000_000)
        digest = spec_digest(spec)
        thread, _ = submit_in_background(
            server.service.config.socket_path, [spec]
        )
        try:
            # The slot registers with steps 0 before the first publish;
            # poll only once the runner's heartbeats are all out.
            assert published.wait(timeout=30.0)
            with ServiceClient(server.service.config.socket_path) as client:
                deadline = time.monotonic() + 30.0
                entry = None
                while time.monotonic() < deadline:
                    entry = _status_or_none(client, digest)
                    if (
                        entry is not None
                        and entry["state"] == "running"
                        and "progress" in entry
                    ):
                        break
                    time.sleep(0.02)
                assert entry is not None and entry["state"] == "running"
                progress = entry["progress"]
                assert progress["total"] == 100.0
                assert progress["dtm_state"] in ("nominal", "engaged")
                assert progress["steps"] >= 1000
        finally:
            release.set()
        thread.join(timeout=30.0)

    def test_unknown_digest_errors(self, service_factory):
        server = service_factory(publishing_runner(samples=1))
        from repro.service.client import ServiceError

        with ServiceClient(server.service.config.socket_path) as client:
            with pytest.raises(ServiceError):
                client.status("0" * 64)

    def test_finished_job_resolves_from_history(self, service_factory):
        server = service_factory(publishing_runner(samples=1, gap_s=0.0))
        spec = RunSpec("gzip", "none", instructions=1_000_000)
        digest = spec_digest(spec)
        with ServiceClient(server.service.config.socket_path) as client:
            outcomes = client.submit([spec], timeout_s=60.0)
            assert outcomes[0].ok
            entry = client.status(digest)
        assert entry["state"] == "done"
        assert entry["percent"] == 100.0


class TestJobsVerb:
    def test_lists_running_then_finished(self, service_factory):
        server = service_factory(publishing_runner(samples=2, gap_s=0.0))
        specs = [
            RunSpec("gzip", "none", instructions=1_000_000, seed=s)
            for s in (1, 2)
        ]
        with ServiceClient(server.service.config.socket_path) as client:
            outcomes = client.submit(specs, timeout_s=60.0)
            assert all(o.ok for o in outcomes)
            jobs = client.jobs()
        digests = {spec_digest(spec) for spec in specs}
        seen = {job["digest"] for job in jobs}
        assert digests <= seen
        for job in jobs:
            if job["digest"] in digests:
                assert job["state"] == "done"
                assert job["percent"] == 100.0


class TestWatch:
    def test_progress_frames_stream_to_watchers(self, service_factory):
        server = service_factory(
            publishing_runner(samples=6, gap_s=0.1),
            progress_interval_s=0.05,
        )
        spec = RunSpec("gzip", "Hyb", instructions=1_000_000)
        frames = []
        with ServiceClient(
            server.service.config.socket_path, timeout=60.0
        ) as client:
            client.on_progress = frames.append
            assert client.watch(True) is True
            outcomes = client.submit([spec], timeout_s=60.0)
        assert outcomes[0].ok
        assert frames, "no progress frames reached the watcher"
        for frame in frames:
            assert frame["op"] == "progress"
            assert isinstance(frame["jobs"], list)
        digests = {
            job["digest"] for frame in frames for job in frame["jobs"]
        }
        assert spec_digest(spec) in digests

    def test_watch_off_stops_frames(self, service_factory):
        server = service_factory(publishing_runner(samples=1, gap_s=0.0))
        with ServiceClient(server.service.config.socket_path) as client:
            assert client.watch(True) is True
            assert client.watch(False) is False


class TestHttpFacade:
    def test_jobs_and_metrics_mid_run(self, service_factory):
        release = threading.Event()
        server = service_factory(
            publishing_runner(samples=3, gap_s=0.01, release=release),
            http="127.0.0.1:0",
        )
        address = server.service.http_address
        assert address is not None
        spec = RunSpec("gzip", "Hyb", instructions=1_000_000)
        digest = spec_digest(spec)
        thread, _ = submit_in_background(
            server.service.config.socket_path, [spec]
        )
        try:
            deadline = time.monotonic() + 30.0
            entry = None
            while time.monotonic() < deadline:
                status, entry = _get(address, f"/jobs/{digest}")
                if status == 200 and entry["state"] == "running":
                    break
                time.sleep(0.02)
            assert entry is not None and entry["state"] == "running"

            status, payload = _get(address, "/jobs")
            assert status == 200
            assert digest in {job["digest"] for job in payload["jobs"]}

            status, payload = _get(address, "/healthz")
            assert status == 200 and payload["ok"] is True

            url = f"http://{address}/metrics"
            with urllib.request.urlopen(url, timeout=5.0) as response:
                text = response.read().decode()
            assert "repro_service_inflight_jobs 1" in text
            assert "repro_service_queue_depth" in text
            assert "repro_service_cache_hit_rate" in text
        finally:
            release.set()
        thread.join(timeout=30.0)

    def test_job_miss_is_404(self, service_factory):
        server = service_factory(
            publishing_runner(samples=1), http="127.0.0.1:0"
        )
        status, payload = _get(server.service.http_address, "/jobs/feedbeef")
        assert status == 404
        assert "feedbeef" in payload["error"]

    def test_readyz_flips_503_during_drain_with_inflight_job(
        self, service_factory
    ):
        release = threading.Event()
        server = service_factory(
            publishing_runner(samples=1, gap_s=0.0, release=release),
            http="127.0.0.1:0",
        )
        address = server.service.http_address
        spec = RunSpec("gzip", "none", instructions=1_000_000)
        digest = spec_digest(spec)
        thread, outcomes = submit_in_background(
            server.service.config.socket_path, [spec]
        )
        try:
            status, _ = _get(address, "/readyz")
            assert status == 200

            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                code, entry = _get(address, f"/jobs/{digest}")
                if code == 200 and entry["state"] == "running":
                    break
                time.sleep(0.02)
            with ServiceClient(server.service.config.socket_path) as client:
                client.drain()
            status, payload = _get(address, "/readyz")
            assert status == 503
            assert payload["ready"] is False
            assert payload["draining"] is True
        finally:
            release.set()
        thread.join(timeout=30.0)
        assert outcomes and outcomes[0].ok
