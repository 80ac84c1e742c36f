"""The HTTP facade: every endpoint against fake providers.

``ObsHttpd`` takes provider callables, so these tests stand up a real
server on an ephemeral port with stub providers and assert the routing,
status codes and content types without any service running behind it.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import flightrec
from repro.obs.events import emit
from repro.obs.httpd import PROMETHEUS_CONTENT_TYPE, ObsHttpd


def _get(address, path):
    """GET http://<address><path> -> (status, content_type, body_bytes)."""
    url = f"http://{address}{path}"
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return (
                response.status,
                response.headers.get("Content-Type"),
                response.read(),
            )
    except urllib.error.HTTPError as err:
        return err.code, err.headers.get("Content-Type"), err.read()


@pytest.fixture
def facade():
    """A running facade with deterministic fake providers."""
    state = {"ready": True, "detail": {"draining": False}}
    jobs = [
        {"digest": "abc123", "state": "running", "percent": 40.0},
        {"digest": "def456", "state": "queued", "percent": None},
    ]
    by_digest = {job["digest"]: job for job in jobs}
    httpd = ObsHttpd(
        "127.0.0.1",
        0,
        metrics_provider=lambda: "# HELP x x\nx 1.0\n",
        health_provider=lambda: {"ok": True, "pid": 42},
        ready_provider=lambda: (state["ready"], dict(state["detail"])),
        jobs_provider=lambda: list(jobs),
        job_provider=by_digest.get,
        flight_provider=lambda: [{"event": "test.a"}, {"event": "test.b"}],
    )
    address = httpd.start()
    try:
        yield address, state
    finally:
        httpd.stop()


class TestEndpoints:
    def test_metrics_passthrough_and_content_type(self, facade):
        address, _ = facade
        status, ctype, body = _get(address, "/metrics")
        assert status == 200
        assert ctype == PROMETHEUS_CONTENT_TYPE
        assert body == b"# HELP x x\nx 1.0\n"

    def test_healthz(self, facade):
        address, _ = facade
        status, ctype, body = _get(address, "/healthz")
        assert status == 200
        assert ctype == "application/json"
        assert json.loads(body) == {"ok": True, "pid": 42}

    def test_readyz_flips_with_provider(self, facade):
        address, state = facade
        status, _, body = _get(address, "/readyz")
        assert status == 200
        assert json.loads(body)["ready"] is True

        state["ready"] = False
        state["detail"] = {"draining": True}
        status, _, body = _get(address, "/readyz")
        assert status == 503
        payload = json.loads(body)
        assert payload["ready"] is False
        assert payload["draining"] is True

    def test_jobs_list(self, facade):
        address, _ = facade
        status, _, body = _get(address, "/jobs")
        assert status == 200
        payload = json.loads(body)
        assert [j["digest"] for j in payload["jobs"]] == ["abc123", "def456"]

    def test_job_by_digest_and_miss(self, facade):
        address, _ = facade
        status, _, body = _get(address, "/jobs/abc123")
        assert status == 200
        assert json.loads(body)["percent"] == 40.0

        status, _, body = _get(address, "/jobs/nope")
        assert status == 404
        assert "nope" in json.loads(body)["error"]

    def test_flight_is_ndjson(self, facade):
        address, _ = facade
        status, ctype, body = _get(address, "/flight")
        assert status == 200
        assert ctype == "application/x-ndjson"
        records = [json.loads(line) for line in body.splitlines()]
        assert [r["event"] for r in records] == ["test.a", "test.b"]

    def test_unknown_route_404(self, facade):
        address, _ = facade
        status, _, _ = _get(address, "/nope")
        assert status == 404

    def test_trailing_slash_and_query_are_tolerated(self, facade):
        address, _ = facade
        status, _, _ = _get(address, "/healthz/?probe=1")
        assert status == 200

    def test_write_verbs_rejected(self, facade):
        address, _ = facade
        request = urllib.request.Request(
            f"http://{address}/metrics", data=b"x", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5.0)
        assert excinfo.value.code == 405


class TestLifecycle:
    def test_ephemeral_port_and_stop(self):
        httpd = ObsHttpd("127.0.0.1", 0)
        address = httpd.start()
        host, port = address.rsplit(":", 1)
        assert host == "127.0.0.1"
        assert int(port) > 0
        assert httpd.address == address
        httpd.stop()
        with pytest.raises(OSError):
            urllib.request.urlopen(f"http://{address}/healthz", timeout=1.0)

    def test_default_flight_provider_reads_ring(self, obs_dir):
        flightrec.reset()
        httpd = ObsHttpd("127.0.0.1", 0)
        address = httpd.start()
        try:
            emit("test.live")
            _, _, body = _get(address, "/flight")
            events = [json.loads(l)["event"] for l in body.splitlines()]
            assert "test.live" in events
        finally:
            httpd.stop()
            flightrec.reset()
