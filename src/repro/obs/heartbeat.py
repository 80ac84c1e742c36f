"""The run record: identity, live progress and metrics of one run.

Each engine execution inside a sweep (one spec) gets one record, opened
by :func:`begin` and closed by :func:`finish`.  The record carries:

* identity -- the spec digest (``key``), ``run_id``, benchmark, policy,
  seed and the run's progress total;
* live progress -- done/total, simulated time, executed steps, peak
  temperature and DTM state, which the sweep parent and the service can
  read *while the run executes*, including across the process-pool
  boundary;
* the engine's metrics, added once at the end of the run;
* ``wall_seconds``, measured from :func:`begin` to :func:`finish`.

With observability on, :func:`finish` writes the finished record
through :mod:`repro.obs.spill`, so it reaches the sweep report even
from a pool worker.

Design constraints, in order:

1. **The off path must cost one pointer compare.**  The engine captures
   :func:`active` once per run; when no record is open it holds
   ``None`` and the per-sensor-sample hook is a single ``is not None``
   branch.  :func:`begin` with observability and live progress both off
   returns ``None`` without allocating (asserted by
   ``tests/obs/test_overhead.py``).
2. **Readers must never block writers.**  Cross-process relay uses a
   per-process slot file (``<obs_dir>/hb-<pid>.slot``) written with a
   seqlock: the writer flips a sequence word odd, rewrites the payload,
   flips it even.  A reader that observes an odd or changing sequence
   (or a torn JSON payload) simply retries or skips -- no locks, no
   fsync, one small ``pwrite`` per publish.
3. **Publishes are wall-clock throttled** (every 0.25 s at most), so
   even a pathological sensor cadence costs a bounded number of writes
   per second.

The slot file rides the spill channel's directory
(:func:`~repro.obs.metrics.obs_dir`): pool workers inherit the path
over fork exactly like spill files, and the parent's :func:`snapshot`
merges its own in-memory records with every ``hb-*.slot`` present,
freshest timestamp winning.

Live progress follows ``REPRO_OBS``; the sweep service also switches it
on for its own lifetime (:func:`set_enabled`), which is where live
progress has a consumer when observability is off.
"""

from __future__ import annotations

import json
import os
import struct
import time
from typing import Dict, List, Optional

from repro.obs import events, metrics, spill

PUBLISH_INTERVAL_S = 0.25
"""Minimum wall-clock seconds between slot publishes of one run."""

# Live progress with observability off: the service's (and tests')
# switch.  With observability on, progress is always live.
_LIVE = False
_INTERVAL_S = PUBLISH_INTERVAL_S

# Open-record stack (nested begin/release pairs -- the lockstep driver
# interleaves many runs, each registered around its generator's first
# advance), the in-flight progress of this process, and a bounded table
# of recently finished runs so late status queries still resolve.
_STACK: List["_Publisher"] = []
_INFLIGHT: Dict[str, Dict[str, object]] = {}
_DONE: Dict[str, Dict[str, object]] = {}
_DONE_LIMIT = 256

# Slot-file seqlock: 8-byte little-endian sequence + 4-byte payload
# length, padded to a 16-byte header; payload is a JSON array of the
# process's in-flight records.  Even sequence = payload valid.
_HEADER = struct.Struct("<QI")
_HEADER_SIZE = 16
_SLOT_RECORD_CAP = 32

_SLOT_FD: Optional[int] = None
_SLOT_KEY: Optional[tuple] = None
_SLOT_SEQ = 0


def enabled() -> bool:
    """True when runs open records: observability or live progress on."""
    return _LIVE or metrics.enabled()


def set_enabled(on: bool) -> bool:
    """Set the live-progress switch; returns its previous value."""
    global _LIVE
    previous = _LIVE
    _LIVE = bool(on)
    return previous


def set_publish_interval(seconds: float) -> float:
    """Set the minimum wall seconds between publishes; returns the
    previous value.  Tests set 0.0 to make every publish land."""
    global _INTERVAL_S
    previous = _INTERVAL_S
    _INTERVAL_S = max(0.0, float(seconds))
    return previous


def _progress(publisher: "_Publisher", **fields) -> Dict[str, object]:
    record: Dict[str, object] = {
        "key": publisher.key,
        "benchmark": publisher.benchmark,
        "policy": publisher.policy,
        "state": "running",
        "done": 0.0,
        "total": publisher.total,
        "time_s": 0.0,
        "steps": 0,
        "peak_temp_c": 0.0,
        "dtm_state": "nominal",
    }
    record.update(fields)
    record["ts"] = time.time()
    record["pid"] = os.getpid()
    return record


class _Publisher:
    """The record of one run.

    Bound to the run's digest key at :func:`begin`.  The engine calls
    :meth:`publish` from its sensor-sample branch with plain loop
    locals -- the record owns throttling, progress shaping and the slot
    write -- and :meth:`add_metrics` once at the end of the run."""

    __slots__ = (
        "key", "run_id", "benchmark", "policy", "seed", "total",
        "metrics", "interval_s", "_next", "_t0", "_saved_context",
    )

    def __init__(
        self,
        key: str,
        run_id: str,
        benchmark: str,
        policy: str,
        seed: Optional[int],
        total: float,
    ):
        self.key = key
        self.run_id = run_id
        self.benchmark = benchmark
        self.policy = policy
        self.seed = seed
        self.total = float(total)
        self.metrics: Dict[str, float] = {}
        self.interval_s = _INTERVAL_S
        self._next = 0.0
        self._t0 = time.perf_counter()
        self._saved_context = events.push_context(run_id=run_id)

    def publish(
        self,
        done: float,
        time_s: float,
        steps: int,
        peak_temp_c: float,
        engaged: bool,
    ) -> None:
        """Publish one progress sample (wall-clock throttled)."""
        now = time.monotonic()
        if now < self._next:
            return
        self._next = now + self.interval_s
        _INFLIGHT[self.key] = _progress(
            self,
            done=float(done),
            time_s=float(time_s),
            steps=int(steps),
            peak_temp_c=float(peak_temp_c),
            dtm_state="engaged" if engaged else "nominal",
        )
        _write_slot()

    def add_metrics(self, values: Dict[str, float]) -> None:
        """Add numeric metrics to the record (repeated names sum)."""
        table = self.metrics
        for name, value in values.items():
            table[name] = table.get(name, 0.0) + value


def begin(
    key: str,
    benchmark: str,
    policy: str,
    total: float,
    run_id: Optional[str] = None,
    seed: Optional[int] = None,
) -> Optional[_Publisher]:
    """Open a run's record (``None`` when obs and live progress are off).

    Pushes the record onto the open stack -- so the engine's
    ``iter_run``, which knows nothing about specs or digests, picks it
    up via :func:`active` when its generator body first runs -- and its
    ``run_id`` (default: ``key``) into the event context until
    :func:`release`."""
    if not enabled():
        return None
    publisher = _Publisher(
        key, key if run_id is None else run_id, benchmark, policy, seed, total
    )
    _STACK.append(publisher)
    _INFLIGHT[key] = _progress(publisher)
    _write_slot()
    return publisher


def active() -> Optional[_Publisher]:
    """The innermost open record, or ``None``.

    Allocation-free either way -- this is the engine's once-per-run
    capture point."""
    if _STACK:
        return _STACK[-1]
    return None


def release(publisher: Optional[_Publisher]) -> None:
    """Pop the record off the open stack without finishing it.

    The lockstep driver releases after a generator's first advance so
    the *next* run's generator captures its own record; the run itself
    stays in flight until :func:`finish`."""
    if publisher is not None and publisher in _STACK:
        _STACK.remove(publisher)
        events.pop_context(publisher._saved_context)


def finish(
    publisher: Optional[_Publisher], error: Optional[str] = None
) -> Dict[str, object]:
    """Close a run's record and return it (``{}`` without one, or with
    observability off).

    The live done-table and the slot get the final state.  With
    observability on, the record -- identity, ``wall_seconds`` (also
    observed into the ``run.wall_seconds`` histogram), the engine's
    ``metrics`` and ``error`` when the run failed -- is returned, and a
    run that finished goes through :func:`repro.obs.spill.record`.  A
    failed run reaches the sweep report as the supervisor's failure
    record instead, so ``n_runs`` counts finished runs only."""
    if publisher is None:
        return {}
    release(publisher)
    wall = time.perf_counter() - publisher._t0
    progress = _INFLIGHT.pop(publisher.key, None) or _progress(publisher)
    progress["state"] = "failed" if error else "done"
    if error:
        progress["error"] = error
    elif publisher.total > 0.0:
        progress["done"] = publisher.total
    progress["ts"] = time.time()
    _DONE[publisher.key] = progress
    while len(_DONE) > _DONE_LIMIT:
        _DONE.pop(next(iter(_DONE)))
    _write_slot()
    if not metrics.enabled():
        return {}
    metrics.REGISTRY.histogram("run.wall_seconds").observe(wall)
    record: Dict[str, object] = {
        "kind": "run",
        "run_id": publisher.run_id,
        "pid": os.getpid(),
        "wall_seconds": wall,
        "benchmark": publisher.benchmark,
        "policy": publisher.policy,
        "seed": publisher.seed,
        "digest": publisher.key,
        "metrics": dict(publisher.metrics),
    }
    if error is None:
        spill.record(record)
    else:
        record["error"] = error
    return record


def percent(record: Dict[str, object]) -> float:
    """Percent complete for one heartbeat record (clamped to 100)."""
    total = float(record.get("total") or 0.0)
    if total <= 0.0:
        return 100.0 if record.get("state") in ("done", "failed") else 0.0
    return min(100.0, 100.0 * float(record.get("done") or 0.0) / total)


def snapshot() -> Dict[str, Dict[str, object]]:
    """Merged progress view: local records plus every slot file.

    Returns ``{key: record}`` with a computed ``percent`` field; when a
    key appears in several sources (a worker's slot file and a stale
    parent record, say) the freshest ``ts`` wins."""
    merged: Dict[str, Dict[str, object]] = {}

    def _offer(record: Dict[str, object]) -> None:
        key = record.get("key")
        if not isinstance(key, str):
            return
        held = merged.get(key)
        if held is None or float(record.get("ts") or 0.0) >= float(
            held.get("ts") or 0.0
        ):
            merged[key] = record

    try:
        slot_files = sorted(metrics.obs_dir().glob("hb-*.slot"))
    except OSError:  # pragma: no cover - obs dir raced away
        slot_files = []
    for path in slot_files:
        for record in _read_slot(path):
            _offer(record)
    for record in _DONE.values():
        _offer(record)
    for record in _INFLIGHT.values():
        _offer(record)
    out: Dict[str, Dict[str, object]] = {}
    for key, record in merged.items():
        record = dict(record)
        record["percent"] = percent(record)
        out[key] = record
    return out


def _slot_fd() -> int:
    """This process's slot-file descriptor, reopened after fork."""
    global _SLOT_FD, _SLOT_KEY
    path = metrics.obs_dir() / f"hb-{os.getpid()}.slot"
    key = (os.getpid(), str(path))
    if _SLOT_FD is None or _SLOT_KEY != key:
        path.parent.mkdir(parents=True, exist_ok=True)
        if _SLOT_FD is not None and _SLOT_KEY is not None and (
            _SLOT_KEY[0] == os.getpid()
        ):
            try:
                os.close(_SLOT_FD)
            except OSError:  # pragma: no cover - already closed
                pass
        _SLOT_FD = os.open(str(path), os.O_CREAT | os.O_RDWR, 0o644)
        _SLOT_KEY = key
    return _SLOT_FD


def _write_slot() -> None:
    """Seqlock write of this process's in-flight records.

    Best-effort: a slot write must never take down the run publishing
    it, so filesystem errors are swallowed."""
    global _SLOT_SEQ
    try:
        fd = _slot_fd()
        records = list(_INFLIGHT.values())
        if len(records) > _SLOT_RECORD_CAP:
            records.sort(key=lambda rec: float(rec.get("ts") or 0.0))
            records = records[-_SLOT_RECORD_CAP:]
        payload = json.dumps(records, sort_keys=True).encode("utf-8")
        _SLOT_SEQ += 1  # odd: write in progress
        os.pwrite(fd, _HEADER.pack(_SLOT_SEQ, 0), 0)
        os.pwrite(fd, payload, _HEADER_SIZE)
        _SLOT_SEQ += 1  # even: payload valid
        os.pwrite(fd, _HEADER.pack(_SLOT_SEQ, len(payload)), 0)
    except OSError:  # pragma: no cover - disk full / dir removed
        pass


def _read_slot(path) -> List[Dict[str, object]]:
    """Read one slot file; torn or in-progress writes yield ``[]``."""
    for _ in range(3):
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return []
        if len(data) < _HEADER_SIZE:
            return []
        seq, length = _HEADER.unpack_from(data, 0)
        if seq % 2 or len(data) < _HEADER_SIZE + length:
            continue  # writer mid-flight; retry
        try:
            records = json.loads(
                data[_HEADER_SIZE:_HEADER_SIZE + length].decode("utf-8")
            )
        except (ValueError, UnicodeDecodeError):
            continue  # torn payload the sequence check missed
        if isinstance(records, list):
            return [rec for rec in records if isinstance(rec, dict)]
        return []
    return []


def reset() -> None:
    """Clear all heartbeat state (test isolation).

    Leaves the live-progress switch alone, mirroring the rest of the
    obs layer's reset discipline."""
    global _SLOT_FD, _SLOT_KEY, _SLOT_SEQ, _INTERVAL_S
    while _STACK:
        release(_STACK[-1])
    _INFLIGHT.clear()
    _DONE.clear()
    if _SLOT_FD is not None:
        try:
            os.close(_SLOT_FD)
        except OSError:  # pragma: no cover - already closed
            pass
    _SLOT_FD = None
    _SLOT_KEY = None
    _SLOT_SEQ = 0
    _INTERVAL_S = PUBLISH_INTERVAL_S
