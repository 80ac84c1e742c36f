"""The sweep service: a crash-tolerant asyncio job server.

``python -m repro serve`` wraps the existing hard parts of the batch
layer -- spec digests, the JSONL journal with resume, the
fault-tolerant supervisor -- in a long-running server that many
clients can hammer concurrently:

* **dedup by content**: every spec is identified by
  :func:`~repro.sim.supervisor.spec_digest`; an identical spec is
  answered from the content-addressed :class:`ResultCache` without
  recomputation, across clients and across server restarts;
* **bounded admission**: the queue holds at most ``max_queue`` jobs;
  a submission that would overflow it is refused with an explicit
  ``busy`` reply (load shedding) rather than accepted into unbounded
  memory;
* **fair scheduling**: queued jobs are drained round-robin across
  clients, so one client dumping a thousand specs cannot starve
  another's single run;
* **batched, supervised execution**: when the executor frees up it
  takes the next job plus up to :data:`MAX_BATCH_JOBS` - 1 more queued
  ones, in round-robin order, and runs them through one
  :func:`~repro.sim.batch.run_many` call -- a lone job per run, two or
  more in lockstep (bit-identical to running each alone) -- so retries,
  timeouts, pool rebuild and serial degradation all compose unchanged;
  each job is journalled, cached and answered the moment its own run
  ends, not when the batch does;
* **graceful drain**: SIGTERM stops admission, lets the batch in flight
  finish, flushes the journal, then exits 0; queued-but-unstarted jobs
  are refused back to their waiters;
* **crash recovery**: SIGKILL loses nothing that was journalled -- on
  restart the journal backfills the cache and only unfinished specs
  re-execute when resubmitted.

The failure matrix (who can misbehave, what happens) is documented in
docs/SERVICE.md and pinned by ``tests/service/``.
"""

from __future__ import annotations

import asyncio
import os
import socket
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs import events as obs_events
from repro.obs import export as obs_export
from repro.obs import flightrec as obs_flightrec
from repro.obs import heartbeat as obs_heartbeat
from repro.obs import metrics as obs_metrics
from repro.obs.httpd import ObsHttpd
from repro.service import protocol
from repro.service.cache import ResultCache
from repro.sim.supervisor import RunFailure, listen_outcomes, spec_digest

DEFAULT_MAX_QUEUE = 256
"""Default bound on the admission queue, across all clients."""

MAX_BATCH_JOBS = 8
"""Most queued jobs one executor pass runs together (in lockstep).

Sixteen cold 20M-instruction specs submitted at once are all answered
~26 % sooner at 8 than one at a time, with the lowest mean latency of
1, 4, 8 and 16 (16 finishes sooner still but answers later on average);
the figures are in docs/SERVICE.md §3."""


@dataclass
class ServiceConfig:
    """Everything one server instance needs, by value.

    Exactly one of ``socket_path`` (Unix domain socket) or
    ``host``/``port`` (TCP; port 0 binds an ephemeral port) selects the
    listener.  The supervisor knobs (``retries``/``backoff_s``/
    ``backoff_max_s``/``timeout_s``/``processes``) are passed through
    to :func:`~repro.sim.batch.run_many` for every job.  ``runner`` is
    a test seam: a callable ``spec -> outcome`` replacing the default
    supervised execution.
    """

    cache_dir: str
    socket_path: Optional[str] = None
    host: str = "127.0.0.1"
    port: int = 0
    max_queue: int = DEFAULT_MAX_QUEUE
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    processes: Optional[int] = None
    retries: int = 0
    backoff_s: float = 0.1
    backoff_max_s: float = 30.0
    timeout_s: Optional[float] = None
    runner: Optional[Callable] = None
    # ``HOST:PORT`` mounting the read-only HTTP facade (port 0 binds
    # ephemeral); None leaves it off.
    http: Optional[str] = None
    # Cadence of the monitor loop: gauge refresh + progress frames to
    # watching clients.
    progress_interval_s: float = 0.5

    def __post_init__(self) -> None:
        if self.max_queue <= 0:
            raise SimulationError("max_queue must be > 0")
        if self.max_frame_bytes <= 0:
            raise SimulationError("max_frame_bytes must be > 0")
        if self.progress_interval_s <= 0.0:
            raise SimulationError("progress_interval_s must be > 0")
        if self.http is not None:
            _parse_hostport(self.http)  # fail at config time, not serve


def _parse_hostport(value: str) -> Tuple[str, int]:
    host, sep, port = str(value).rpartition(":")
    if not sep or not host:
        raise SimulationError(
            f"--http wants HOST:PORT, got {value!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise SimulationError(
            f"--http wants a numeric port, got {value!r}"
        ) from None


@dataclass
class _Job:
    """One admitted spec awaiting (or undergoing) execution."""

    digest: str
    spec: object
    owner: int  # client id whose round-robin queue holds it
    waiters: List[Tuple["_Connection", int]] = field(default_factory=list)
    state: str = "queued"  # queued -> running -> done
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None


class _Connection:
    """One client connection with a serialised outbound frame stream."""

    def __init__(self, cid: int, writer: asyncio.StreamWriter):
        self.id = cid
        self.writer = writer
        self.open = True
        self.watching = False  # subscribed to streamed progress frames
        self._send_lock = asyncio.Lock()

    async def send(self, obj: Dict[str, object]) -> None:
        """Send one frame; a dead peer marks the connection closed
        instead of raising into the caller (job completion must never
        die because one waiter vanished)."""
        if not self.open:
            return
        try:
            async with self._send_lock:
                await protocol.write_frame(self.writer, obj)
        except (ConnectionError, OSError, RuntimeError):
            self.open = False


class SweepService:
    """The server.  One instance, one listener, one executor lane.

    The lane runs one batch at a time: up to :data:`MAX_BATCH_JOBS`
    queued jobs advanced together in one ``run_many`` call (which may
    itself fan out over a process pool per ``processes``), each answered
    as soon as its run ends.  Admission, scheduling and result fan-out
    all live on the event loop, so a misbehaving client can be failed
    individually without touching anyone else.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        root = Path(config.cache_dir)
        self.cache = ResultCache(root / "results")
        self.journal_path = root / "journal.jsonl"
        self.ready = threading.Event()
        self.address: Optional[str] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Dict[int, _Connection] = {}
        self._handler_tasks: set = set()
        self._next_client_id = 0
        # Scheduling state: per-client FIFO queues drained round-robin.
        self._queues: "OrderedDict[int, Deque[_Job]]" = OrderedDict()
        self._rr: Deque[int] = deque()
        self._jobs: Dict[str, _Job] = {}
        self._queued_total = 0
        # The batch in flight: its jobs not yet answered, in batch order.
        self._running: List[_Job] = []
        self._wake = asyncio.Event()
        self._draining = False
        self._drain_began: Optional[float] = None
        self.drain_seconds: Optional[float] = None
        self._started = time.monotonic()
        # Recently finished jobs (state/error/timing) so late status
        # queries and /jobs still resolve after the result frame went
        # out; bounded like the heartbeat done-table.
        self._finished: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self._finished_limit = 128
        # The mounted HTTP facade (None unless config.http is set).
        self._httpd: Optional[ObsHttpd] = None
        self.http_address: Optional[str] = None
        self._monitor_task: Optional[asyncio.Task] = None
        # Robustness counters, maintained unconditionally so STATUS
        # works with observability off; mirrored into repro.obs when on.
        self.jobs_done = 0
        self.jobs_failed = 0
        self.shed = 0
        self.cancelled = 0
        self.dedup_joins = 0
        self.protocol_errors = 0

    # --- counters -----------------------------------------------------------

    def _count(self, name: str) -> None:
        obs_metrics.inc(f"service.{name}")

    def _event(self, name: str, **fields) -> None:
        """Emit a structured event, or -- with obs off -- note it into
        the flight recorder directly.  ``emit`` mirrors its record into
        the ring itself when enabled, so exactly one ring entry lands
        either way; service state transitions are precisely what a
        post-mortem of a wedged server needs."""
        if obs_events.emit(name, **fields) is None:
            obs_flightrec.note(name, **fields)

    def refresh_gauges(self) -> None:
        """Publish the service gauges from current state.

        Unconditional (not gated on the obs flag) and called both on
        state transitions and from the monitor loop, so a ``/metrics``
        scrape between jobs sees live queue depth, in-flight count and
        cache hit-rate rather than values frozen at the last
        transition.  A handful of dict operations: it runs several
        times per job, so it must never touch the cache directory."""
        registry = obs_metrics.REGISTRY
        registry.gauge(
            "service.queue_depth",
            help="jobs admitted but not yet running",
        ).set(float(self._queued_total))
        registry.gauge(
            "service.inflight_jobs",
            help="jobs currently executing (the batch in flight)",
        ).set(float(len(self._running)))
        hits = self.cache.hits
        lookups = hits + self.cache.misses
        registry.gauge(
            "service.cache_hit_rate",
            help="cache hits / lookups since start (0 before any lookup)",
        ).set(hits / lookups if lookups else 0.0)
        registry.gauge(
            "service.clients",
            help="currently connected clients",
        ).set(float(len(self._connections)))
        registry.gauge(
            "service.draining",
            help="1 while a graceful drain is in progress",
        ).set(1.0 if self._draining else 0.0)

    # --- lifecycle ----------------------------------------------------------

    async def run(self) -> int:
        """Serve until drained; returns the process exit code (0)."""
        self._loop = asyncio.get_running_loop()
        Path(self.config.cache_dir).mkdir(parents=True, exist_ok=True)
        recovered = self.cache.absorb_journal(self.journal_path)
        # Live progress is the whole point of running behind a service,
        # so it is on for the service's lifetime and restored on exit,
        # leaving an embedding process (tests, a notebook) as it was.
        live_prev = obs_heartbeat.set_enabled(True)
        if self.config.socket_path:
            self._server = await self._listen_unix(self.config.socket_path)
            self.address = f"unix:{self.config.socket_path}"
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=self.config.host,
                port=self.config.port,
            )
            bound = self._server.sockets[0].getsockname()
            self.address = f"{bound[0]}:{bound[1]}"
        self._event(
            "service.start",
            address=self.address,
            cache_entries=len(self.cache),
            recovered_from_journal=recovered,
            max_queue=self.config.max_queue,
        )
        if self.config.http is not None:
            host, port = _parse_hostport(self.config.http)
            self._httpd = ObsHttpd(
                host,
                port,
                metrics_provider=self._metrics_text,
                health_provider=self._health,
                ready_provider=self.readiness,
                jobs_provider=self.jobs,
                job_provider=self.job_status,
            )
            self.http_address = self._httpd.start()
            self._event("service.http_start", http=self.http_address)
        self.refresh_gauges()
        self._monitor_task = asyncio.ensure_future(self._monitor_loop())
        self.ready.set()
        try:
            await self._executor_loop()
        finally:
            obs_heartbeat.set_enabled(live_prev)
            if self._monitor_task is not None:
                self._monitor_task.cancel()
                try:
                    await self._monitor_task
                except asyncio.CancelledError:
                    pass
            if self._httpd is not None:
                self._httpd.stop()
            self._server.close()
            await self._server.wait_closed()
            for conn in list(self._connections.values()):
                conn.open = False
                try:
                    conn.writer.close()
                except Exception:  # pragma: no cover - defensive
                    pass
            # Closed transports feed EOF to their readers; wait for the
            # handler tasks to notice and unwind instead of letting the
            # loop teardown cancel them mid-read.
            if self._handler_tasks:
                await asyncio.wait(self._handler_tasks, timeout=5.0)
            if self._drain_began is not None:
                self.drain_seconds = time.monotonic() - self._drain_began
                if obs_metrics.enabled():
                    obs_metrics.REGISTRY.gauge(
                        "service.drain_seconds",
                        help="duration of the last graceful drain",
                    ).set(self.drain_seconds)
                self._event(
                    "service.drain_complete",
                    drain_seconds=self.drain_seconds,
                    jobs_done=self.jobs_done,
                )
        return 0

    async def _listen_unix(self, path: str) -> asyncio.AbstractServer:
        """Bind the Unix socket, reclaiming a stale file if needed.

        A SIGKILLed predecessor cannot unlink its socket file, and
        restart-into-the-same-rendezvous is a core part of the crash
        recovery story.  If nothing answers on the path, the file is a
        corpse: remove it and bind.  If something *does* answer, refuse
        loudly -- two live servers sharing a cache directory would race
        the journal.  The probe must happen *before* binding, because
        ``asyncio.start_unix_server`` silently removes an existing
        socket file, live server or not.
        """
        if os.path.exists(path):
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            probe.settimeout(1.0)
            try:
                probe.connect(path)
            except OSError:
                os.unlink(path)  # stale socket (or junk file): reclaim
            else:
                raise SimulationError(
                    f"socket {path} already has a live server"
                )
            finally:
                probe.close()
        return await asyncio.start_unix_server(
            self._handle_client, path=path
        )

    def begin_drain(self) -> None:
        """Stop admitting work and exit once the batch in flight ends.

        Safe to call from a signal handler registered on the loop; for
        cross-thread use go through :meth:`request_drain_threadsafe`.
        Idempotent -- a second SIGTERM during a drain changes nothing.
        """
        if self._draining:
            return
        self._draining = True
        self._drain_began = time.monotonic()
        self._event(
            "service.drain_begin",
            queued=self._queued_total,
            running=self._running[0].digest if self._running else None,
        )
        if self._server is not None:
            self._server.close()
        self._wake.set()

    def request_drain_threadsafe(self) -> None:
        """Trigger :meth:`begin_drain` from any thread.  A no-op once
        the loop is gone -- draining a drained server is not an error."""
        if self._loop is None:
            return
        try:
            self._loop.call_soon_threadsafe(self.begin_drain)
        except RuntimeError:  # loop already closed
            pass

    # --- connection handling ------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._next_client_id += 1
        conn = _Connection(self._next_client_id, writer)
        self._connections[conn.id] = conn
        task = asyncio.current_task()
        self._handler_tasks.add(task)
        self._event("service.client_connect", client=conn.id)
        try:
            while True:
                try:
                    request = await protocol.read_frame(
                        reader, self.config.max_frame_bytes
                    )
                except protocol.ProtocolError as exc:
                    # Oversized or malformed: answer, count, and close
                    # *this* connection only.  The event loop, the
                    # executor and every other client are untouched.
                    self.protocol_errors += 1
                    self._count("protocol_errors")
                    self._event(
                        "service.protocol_error",
                        client=conn.id,
                        error_type=type(exc).__name__,
                    )
                    await conn.send({"ok": False, "error": str(exc)})
                    break
                if request is None:
                    break
                await self._dispatch(conn, request)
        finally:
            conn.open = False
            self._connections.pop(conn.id, None)
            self._handler_tasks.discard(task)
            await self._cancel_queued_for(conn)
            self._event("service.client_disconnect", client=conn.id)
            try:
                writer.close()
            except Exception:  # pragma: no cover - defensive
                pass

    async def _dispatch(
        self, conn: _Connection, request: Dict[str, object]
    ) -> None:
        op = request.get("op")
        if op == "ping":
            await conn.send(
                {"ok": True, "op": "ping",
                 "version": protocol.PROTOCOL_VERSION}
            )
        elif op == "status":
            digest = request.get("digest")
            if digest is not None:
                entry = self.job_status(str(digest))
                if entry is None:
                    await conn.send(
                        {"ok": False, "op": "status",
                         "digest": str(digest),
                         "error": f"unknown job {digest!r}"}
                    )
                else:
                    await conn.send(
                        {"ok": True, "op": "status",
                         "digest": str(digest), "job": entry}
                    )
            else:
                await conn.send(
                    {"ok": True, "op": "status", "status": self.status()}
                )
        elif op == "jobs":
            await conn.send({"ok": True, "op": "jobs", "jobs": self.jobs()})
        elif op == "watch":
            conn.watching = bool(request.get("on", True))
            await conn.send(
                {"ok": True, "op": "watch", "watching": conn.watching}
            )
        elif op == "drain":
            self.begin_drain()
            await conn.send({"ok": True, "op": "drain", "draining": True})
        elif op == "submit":
            await self._handle_submit(conn, request)
        else:
            # Unknown verbs are survivable: answer and keep serving.
            await conn.send(
                {"ok": False, "op": str(op), "error": f"unknown op {op!r}"}
            )

    # --- submission ---------------------------------------------------------

    async def _handle_submit(
        self, conn: _Connection, request: Dict[str, object]
    ) -> None:
        wire_specs = request.get("specs")
        if not isinstance(wire_specs, list) or not wire_specs:
            await conn.send(
                {"ok": False, "op": "submit",
                 "error": "'specs' must be a non-empty list"}
            )
            return
        if self._draining:
            await conn.send(
                {"ok": False, "op": "submit", "draining": True,
                 "error": "server is draining; resubmit after restart"}
            )
            return
        # Validate the whole submission before admitting any of it: a
        # malformed spec rejects the batch atomically, so the client
        # never has to reason about partially admitted sweeps.
        try:
            specs = [protocol.spec_from_wire(wire) for wire in wire_specs]
        except protocol.SpecError as exc:
            await conn.send(
                {"ok": False, "op": "submit", "error": str(exc)}
            )
            return
        digests = [spec_digest(spec) for spec in specs]

        # Admission control *before* side effects: count how many new
        # jobs this submission creates (in-submission duplicates and
        # in-flight digests join existing jobs; cached digests cost
        # nothing) and shed the whole batch if they do not fit.
        new_digests = []
        seen = set()
        for digest in digests:
            if digest in seen or digest in self._jobs:
                continue
            if digest in self.cache:
                continue
            seen.add(digest)
            new_digests.append(digest)
        if self._queued_total + len(new_digests) > self.config.max_queue:
            self.shed += 1
            self._count("shed")
            self._event(
                "service.busy_shed",
                client=conn.id,
                queued=self._queued_total,
                refused=len(new_digests),
            )
            await conn.send(
                {"ok": False, "op": "submit", "busy": True,
                 "error": (
                     f"admission queue full "
                     f"({self._queued_total}/{self.config.max_queue}); "
                     f"retry later"
                 )}
            )
            return

        await conn.send(
            {"ok": True, "op": "submit", "accepted": len(specs),
             "digests": digests, "new_jobs": len(new_digests)}
        )
        self._event(
            "service.submit",
            client=conn.id,
            n_specs=len(specs),
            new_jobs=len(new_digests),
        )
        for index, (spec, digest) in enumerate(zip(specs, digests)):
            job = self._jobs.get(digest)
            if job is not None:
                job.waiters.append((conn, index))
                self.dedup_joins += 1
                self._count("dedup_joins")
                continue
            cached = self.cache.get(digest)
            if cached is not None:
                self._count("cache_hits")
                self._event("service.cache_hit", digest=digest)
                await conn.send(self._result_frame(index, digest, cached,
                                                   cached_hit=True))
                continue
            self._count("cache_misses")
            self._enqueue(_Job(digest=digest, spec=spec, owner=conn.id,
                               waiters=[(conn, index)]))
        self._wake.set()

    def _result_frame(
        self, index: int, digest: str, result, cached_hit: bool
    ) -> Dict[str, object]:
        frame: Dict[str, object] = {
            "ok": True,
            "op": "result",
            "index": index,
            "digest": digest,
            "cached": cached_hit,
            "result": result.to_json_dict(),
        }
        kind = getattr(result, "journal_kind", None)
        if kind is not None:
            frame["kind"] = kind
        return frame

    # --- scheduling ---------------------------------------------------------

    def _enqueue(self, job: _Job) -> None:
        self._jobs[job.digest] = job
        queue = self._queues.get(job.owner)
        if queue is None:
            queue = self._queues[job.owner] = deque()
            self._rr.append(job.owner)
        queue.append(job)
        self._queued_total += 1
        self.refresh_gauges()

    def _pop_next_job(self) -> Optional[_Job]:
        """Next job under per-client round-robin: take the head of the
        front client's queue, then move that client to the back."""
        if not self._rr:
            return None
        cid = self._rr[0]
        queue = self._queues[cid]
        job = queue.popleft()
        if queue:
            self._rr.rotate(-1)
        else:
            self._rr.popleft()
            del self._queues[cid]
        self._queued_total -= 1
        self.refresh_gauges()
        return job

    def _remove_queued(self, job: _Job) -> None:
        queue = self._queues.get(job.owner)
        if queue is None:  # pragma: no cover - bookkeeping invariant
            return
        queue.remove(job)
        if not queue:
            self._rr.remove(job.owner)
            del self._queues[job.owner]
        self._queued_total -= 1
        self.refresh_gauges()

    async def _cancel_queued_for(self, conn: _Connection) -> None:
        """Client gone: cancel its *queued* jobs.  A running job always
        completes (the result is cached for whoever asks next), and a
        queued job another client also waits on survives -- only this
        client's interest is withdrawn."""
        for digest, job in list(self._jobs.items()):
            before = len(job.waiters)
            job.waiters = [
                (c, i) for c, i in job.waiters if c is not conn
            ]
            if len(job.waiters) == before or job.state != "queued":
                continue
            if job.waiters:
                continue
            self._remove_queued(job)
            del self._jobs[digest]
            self.cancelled += 1
            self._count("cancelled")
            self._event(
                "service.job_cancelled", digest=digest, client=conn.id
            )

    async def _next_batch(self) -> List[_Job]:
        """The next jobs to run together: up to :data:`MAX_BATCH_JOBS`,
        in round-robin order.  Empty once draining."""
        while True:
            if self._draining:
                await self._refuse_queued()
                return []
            batch: List[_Job] = []
            while self._rr and len(batch) < MAX_BATCH_JOBS:
                batch.append(self._pop_next_job())
            if batch:
                return batch
            self._wake.clear()
            # Re-check under the cleared event: an enqueue or drain
            # racing the clear sets it again and we fall through.
            if self._draining or self._rr:
                continue
            await self._wake.wait()

    async def _refuse_queued(self) -> None:
        """Drain semantics for queued-but-unstarted jobs: tell every
        waiter explicitly instead of going dark."""
        while True:
            job = self._pop_next_job()
            if job is None:
                return
            del self._jobs[job.digest]
            self.cancelled += 1
            self._record_finished(job, "refused", error="server draining")
            for conn, index in job.waiters:
                await conn.send(
                    {"ok": False, "op": "result", "index": index,
                     "digest": job.digest, "cached": False,
                     "error": "server draining before this job started; "
                              "resubmit after restart"}
                )

    # --- execution ----------------------------------------------------------

    async def _executor_loop(self) -> None:
        while True:
            batch = await self._next_batch()
            if not batch:
                return
            started = time.time()
            for job in batch:
                job.state = "running"
                job.started_at = started
                self._event(
                    "service.run_start",
                    digest=job.digest,
                    benchmark=job.spec.workload_name,
                )
            self._running = list(batch)
            self.refresh_gauges()
            finishing: Dict[int, asyncio.Future] = {}

            def announce(position: int, outcome) -> None:
                if position not in finishing:
                    finishing[position] = asyncio.ensure_future(
                        self._finish_job(batch[position], outcome)
                    )

            def answer(position: int, outcome) -> None:
                # Called on the executor thread as each run ends.
                self._loop.call_soon_threadsafe(announce, position, outcome)

            try:
                outcomes = await self._loop.run_in_executor(
                    None, self._execute, [job.spec for job in batch], answer
                )
            except BaseException as exc:  # noqa: BLE001 - runner seam
                outcomes = [exc] * len(batch)
            for position, outcome in enumerate(outcomes):
                announce(position, outcome)
            await asyncio.gather(*finishing.values())

    def _execute(self, specs, answer) -> list:
        """Blocking execution of one batch (runs on a worker thread).

        Returns one outcome per spec; ``answer(position, outcome)`` is
        called as each run's outcome is recorded, so a short job need
        not wait for a long one in the same batch.  A batch of one runs
        per-run, exactly as a lone job always has; two or more run in
        lockstep, where each result still equals ``run_one``'s."""
        if self.config.runner is not None:
            outcomes = []
            for position, spec in enumerate(specs):
                try:
                    outcome = self.config.runner(spec)
                except BaseException as exc:  # noqa: BLE001 - runner seam
                    outcome = exc
                answer(position, outcome)
                outcomes.append(outcome)
            return outcomes
        from repro.sim.batch import run_many

        with listen_outcomes(answer):
            return run_many(
                specs,
                processes=self.config.processes,
                lockstep=len(specs) > 1,
                timeout_s=self.config.timeout_s,
                retries=self.config.retries,
                backoff_s=self.config.backoff_s,
                backoff_max_s=self.config.backoff_max_s,
                partial_results=True,
                journal=str(self.journal_path),
            )

    async def _finish_job(self, job: _Job, outcome) -> None:
        del self._jobs[job.digest]
        self._running.remove(job)
        job.state = "done"
        if isinstance(outcome, RunFailure):
            error = f"{outcome.error_type}: {outcome.message}"
        elif isinstance(outcome, BaseException):
            error = f"{type(outcome).__name__}: {outcome}"
        else:
            error = None
        self._record_finished(
            job, "failed" if error is not None else "done", error=error
        )
        self.refresh_gauges()
        if error is not None:
            # Failures are answered but never cached: a resubmission
            # after the fault clears must re-execute, not replay the
            # failure.
            self.jobs_failed += 1
            self._count("jobs_failed")
            self._event(
                "service.job_failed", digest=job.digest, error=error
            )
            for conn, index in job.waiters:
                await conn.send(
                    {"ok": False, "op": "result", "index": index,
                     "digest": job.digest, "cached": False, "error": error}
                )
            return
        self.cache.put(job.digest, outcome)
        self.jobs_done += 1
        self._count("jobs_done")
        self._event("service.job_done", digest=job.digest)
        for conn, index in job.waiters:
            await conn.send(
                self._result_frame(index, job.digest, outcome,
                                   cached_hit=False)
            )

    def _record_finished(
        self, job: _Job, state: str, error: Optional[str] = None
    ) -> None:
        entry: Dict[str, object] = {
            "digest": job.digest,
            "state": state,
            "benchmark": str(getattr(job.spec, "workload_name", "?")),
            "policy": str(getattr(job.spec, "policy", "?")),
            "submitted_at": job.submitted_at,
            "started_at": job.started_at,
            "finished_at": time.time(),
            "percent": 100.0 if state == "done" else None,
        }
        if error is not None:
            entry["error"] = error
        self._finished[job.digest] = entry
        self._finished.move_to_end(job.digest)
        while len(self._finished) > self._finished_limit:
            self._finished.popitem(last=False)

    # --- status -------------------------------------------------------------

    def status(self) -> Dict[str, object]:
        """The ``/healthz``-style liveness snapshot the STATUS verb
        returns."""
        return {
            "pid": os.getpid(),
            "address": self.address,
            "uptime_s": time.monotonic() - self._started,
            "draining": self._draining,
            "queue_depth": self._queued_total,
            "running": self._running[0].digest if self._running else None,
            "clients": len(self._connections),
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "cancelled": self.cancelled,
            "shed": self.shed,
            "dedup_joins": self.dedup_joins,
            "protocol_errors": self.protocol_errors,
            "cache": self.cache.stats(),
            "journal": str(self.journal_path),
            "http": self.http_address,
            "version": protocol.PROTOCOL_VERSION,
        }

    def jobs(self) -> List[Dict[str, object]]:
        """Every queued/running job plus the recently finished tail.

        Running (and queued) entries are merged with the heartbeat
        snapshot by digest, so a mid-run entry carries live
        ``percent`` / ``time_s`` / ``peak_temp_c`` / ``dtm_state``
        fields.  This is the payload behind ``/jobs``, the ``jobs``
        verb and the streamed ``progress`` frames."""
        progress = obs_heartbeat.snapshot()
        out = [self._job_entry(job, progress) for job in self._jobs.values()]
        out.extend(dict(entry) for entry in reversed(self._finished.values()))
        return out

    def job_status(self, digest: str) -> Optional[Dict[str, object]]:
        """One job's status by digest, or ``None`` when unknown.

        Resolution order: live jobs (queued/running, with heartbeat
        progress), recently finished, then the result cache (a job may
        be long gone from memory yet still answerable)."""
        job = self._jobs.get(digest)
        if job is not None:
            return self._job_entry(job, obs_heartbeat.snapshot())
        entry = self._finished.get(digest)
        if entry is not None:
            return dict(entry)
        if digest in self.cache:
            return {"digest": digest, "state": "done", "cached": True,
                    "percent": 100.0}
        return None

    def _job_entry(
        self, job: _Job, progress: Dict[str, Dict[str, object]]
    ) -> Dict[str, object]:
        entry: Dict[str, object] = {
            "digest": job.digest,
            "state": job.state,
            "benchmark": str(getattr(job.spec, "workload_name", "?")),
            "policy": str(getattr(job.spec, "policy", "?")),
            "waiters": len(job.waiters),
            "submitted_at": job.submitted_at,
            "started_at": job.started_at,
            "percent": 0.0,
        }
        record = progress.get(job.digest)
        if record is not None and job.state == "running":
            entry["percent"] = record.get("percent")
            entry["progress"] = {
                key: record.get(key)
                for key in (
                    "done", "total", "time_s", "steps",
                    "peak_temp_c", "dtm_state", "ts",
                )
            }
        return entry

    def readiness(self) -> Tuple[bool, Dict[str, object]]:
        """``/readyz`` provider: can this server admit a submission now?

        False (HTTP 503) while draining or while the admission queue is
        full (shedding) -- the two states in which a submit would be
        refused."""
        shedding = self._queued_total >= self.config.max_queue
        ready = self.ready.is_set() and not self._draining and not shedding
        return ready, {
            "draining": self._draining,
            "shedding": shedding,
            "queue_depth": self._queued_total,
            "max_queue": self.config.max_queue,
        }

    def _health(self) -> Dict[str, object]:
        """``/healthz`` provider: alive if we can answer at all."""
        return {
            "ok": True,
            "pid": os.getpid(),
            "uptime_s": time.monotonic() - self._started,
            "draining": self._draining,
        }

    def _metrics_text(self) -> str:
        """``/metrics`` provider: refresh the service gauges, then
        render whatever the registry holds."""
        self.refresh_gauges()
        return obs_export.prometheus_text()

    async def _monitor_loop(self) -> None:
        """Continuous publication: gauges every interval, plus one
        ``progress`` frame to each watching client while work is in
        flight.  Cancelled (not joined) at shutdown."""
        while True:
            await asyncio.sleep(self.config.progress_interval_s)
            self.refresh_gauges()
            if not self._running and not self._queued_total:
                continue
            watchers = [
                conn for conn in self._connections.values()
                if conn.watching and conn.open
            ]
            if not watchers:
                continue
            frame = {
                "ok": True,
                "op": "progress",
                "ts": time.time(),
                "jobs": self.jobs(),
            }
            for conn in watchers:
                await conn.send(frame)


class ServerThread:
    """A :class:`SweepService` on a background thread's event loop.

    The embedding used by the test suite (and available to library
    callers): start, talk to it over its socket from the calling
    thread, then :meth:`stop` for a graceful drain.
    """

    def __init__(self, config: ServiceConfig):
        self.service = SweepService(config)
        self.exit_code: Optional[int] = None
        self.error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )

    def _run(self) -> None:
        try:
            self.exit_code = asyncio.run(self.service.run())
        except BaseException as exc:  # noqa: BLE001 - surfaced by start()
            self.error = exc

    def start(self, timeout: float = 30.0) -> "ServerThread":
        self._thread.start()
        deadline = time.monotonic() + timeout
        while not self.service.ready.wait(0.05):
            if not self._thread.is_alive():
                if self.error is not None:
                    raise self.error
                raise SimulationError("service thread died during startup")
            if time.monotonic() > deadline:
                raise SimulationError("service failed to start listening")
        return self

    def stop(self, timeout: float = 60.0) -> Optional[int]:
        """Graceful drain; returns the exit code (None on join timeout)."""
        self.service.request_drain_threadsafe()
        self._thread.join(timeout)
        return self.exit_code

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
