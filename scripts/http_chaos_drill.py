#!/usr/bin/env python
"""CI chaos drill for the live observability plane.

Boots a real ``python -m repro serve --http 127.0.0.1:0`` subprocess,
submits a slow sweep, and asserts mid-flight:

* ``/healthz`` and ``/metrics`` answer 200 (with the continuously
  refreshed service gauges present);
* ``/jobs`` lists the running job and ``/jobs/<digest>`` reports a
  monotonically increasing percent-complete fed by the engine's
  heartbeats;
* SIGUSR2 dumps the flight-recorder ring to ``REPRO_OBS_DIR`` as
  JSONL that passes the event schema, carrying the recent service
  events and the engine's ``run.start`` stamped with its ``run_id``;
* after a ``drain`` request with the job still in flight, ``/readyz``
  flips to 503 with ``draining: true``;
* the drain then completes normally: the submission resolves, the
  server exits 0.

Run from the repo root: ``python scripts/http_chaos_drill.py``.  The
flight dump directory (default ``flight-ci``) is left behind for CI to
upload as an artifact.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOCK = "http-chaos.sock"
CACHE = "http-chaos-cache"
FLIGHT_DIR = Path(os.environ.get("REPRO_OBS_DIR", "flight-ci"))
# Wide enough to probe/drain mid-run on a CI box (a few seconds).
SLOW = {"benchmark": "art", "policy": "FG", "instructions": 4_000_000_000}


def get(address: str, path: str, timeout: float = 5.0):
    """GET the facade; returns (status, body-bytes)."""
    try:
        with urllib.request.urlopen(
            f"http://{address}{path}", timeout=timeout
        ) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs import validate_events_file
    from repro.service import protocol
    from repro.service.client import ServiceClient
    from repro.sim.supervisor import spec_digest

    env = dict(os.environ)
    env["REPRO_OBS_DIR"] = str(FLIGHT_DIR)
    env.setdefault("PYTHONPATH", str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--socket", SOCK, "--cache-dir", CACHE,
         "--http", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    http_address = None
    try:
        # The serve CLI prints both addresses, flushed, at startup.
        deadline = time.monotonic() + 60.0
        while http_address is None:
            assert time.monotonic() < deadline, "no http address printed"
            assert proc.poll() is None, "server died on startup"
            line = proc.stdout.readline()
            print(f"  server: {line.rstrip()}")
            if line.startswith("observability http on "):
                http_address = line.split()[-1]

        status, _ = get(http_address, "/healthz")
        assert status == 200, f"/healthz pre-run: {status}"
        status, _ = get(http_address, "/readyz")
        assert status == 200, f"/readyz pre-run: {status}"

        # Build the spec exactly as the server will, so digests agree.
        digest = spec_digest(protocol.spec_from_wire(SLOW))
        outcomes = []

        def submit():
            with ServiceClient(SOCK, timeout=300.0) as client:
                outcomes.extend(client.submit([SLOW], timeout_s=300.0))

        worker = threading.Thread(target=submit, daemon=True)
        worker.start()

        # Mid-sweep scrapes: running job visible, percent climbing.
        percents = []
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            status, body = get(http_address, f"/jobs/{digest}")
            if status == 200:
                entry = json.loads(body)
                if entry["state"] == "running" and entry.get("percent"):
                    percents.append(float(entry["percent"]))
                if len(percents) >= 3 and len(set(percents)) >= 2:
                    break
            time.sleep(0.1)
        assert len(percents) >= 3, f"no live progress observed: {percents}"
        assert percents == sorted(percents), f"regressed: {percents}"
        assert percents[-1] < 100.0, "probe never caught the job mid-run"
        print(f"  live percents: {[round(p, 1) for p in percents]}")

        status, body = get(http_address, "/jobs")
        assert status == 200
        assert digest in {j["digest"] for j in json.loads(body)["jobs"]}

        status, body = get(http_address, "/metrics")
        assert status == 200
        text = body.decode()
        for needed in ("repro_service_inflight_jobs 1",
                       "repro_service_queue_depth",
                       "repro_service_cache_hit_rate"):
            assert needed in text, f"missing {needed!r} in /metrics"

        # Flight dump on SIGUSR2, mid-run.
        proc.send_signal(signal.SIGUSR2)
        deadline = time.monotonic() + 30.0
        dumps = []
        while not dumps and time.monotonic() < deadline:
            dumps = sorted(FLIGHT_DIR.glob("flight-*.jsonl"))
            time.sleep(0.1)
        assert dumps, "SIGUSR2 produced no flight dump"
        records = [
            json.loads(line)
            for line in dumps[0].read_text().splitlines()
        ]
        assert records[0]["event"] == "flight.dump"
        assert records[0]["reason"] == "sigusr2"
        events_seen = {r["event"] for r in records}
        assert "service.run_start" in events_seen, sorted(events_seen)
        _, errors = validate_events_file(dumps[0])
        assert not errors, errors[:5]
        assert any(
            r["event"] == "engine.run.start" and r.get("run_id")
            for r in records
        ), "flight dump has no engine.run.start carrying a run_id"
        print(f"  flight dump: {dumps[0]} ({len(records)} records)")

        # Drain with the job still in flight: readiness must flip 503.
        with ServiceClient(SOCK, timeout=30.0) as client:
            client.drain()
        status, body = get(http_address, "/readyz")
        assert status == 503, f"/readyz during drain: {status}"
        payload = json.loads(body)
        assert payload["ready"] is False and payload["draining"] is True

        worker.join(timeout=300.0)
        assert not worker.is_alive(), "submission never resolved"
        assert outcomes and outcomes[0].ok, outcomes

        code = proc.wait(timeout=120.0)
        assert code == 0, f"server exited {code} after drain"
        proc = None
        print("http chaos drill: live progress, mid-sweep scrapes, "
              "SIGUSR2 flight dump and drain readiness all held")
        return 0
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30.0)


if __name__ == "__main__":
    sys.exit(main())
