"""Fault-tolerant sweep supervision.

:func:`repro.sim.batch.run_many` delegates its execution to the
machinery here whenever a sweep must survive imperfect conditions:
crashed workers, wedged runs, corrupted solves.  The contract mirrors
the paper's own: the *plant* (a run) may misbehave, but the *supervisor*
must keep the sweep inside its envelope --

* **bounded retries** with exponential backoff and deterministic jitter
  (seeded from the spec digest, so a re-run of the same sweep backs off
  identically);
* **per-run wall-clock timeouts** on the pool path; an overdue run's
  worker may be wedged, so the pool is rebuilt (terminating the stuck
  worker) and every unfinished spec is resubmitted;
* **BrokenProcessPool recovery**: a dead worker poisons every in-flight
  future, so unfinished specs are resubmitted to a fresh pool without
  being charged an attempt -- only the spec whose own execution raised
  consumes retry budget;
* **graceful degradation** to serial execution after
  :data:`MAX_POOL_FAILURES` pool rebuilds in one sweep;
* **partial results**: instead of the first bad spec killing the whole
  figure, failures become structured :class:`RunFailure` records in the
  result list;
* a **JSONL journal** of spec digests -> results enabling checkpoint /
  resume of interrupted sweeps.

Determinism is the invariant throughout: every run is seeded from its
spec alone, so a retried, resubmitted or resumed run is bit-identical
to the run an undisturbed sweep would have produced.  Injected
*transient* faults (:mod:`repro.sim.faults`) are stripped from a spec
before it is retried, which is exactly what makes that invariant
testable under chaos.
"""

from __future__ import annotations

import heapq
import json
import logging
import random
import time
import warnings
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from functools import partial
from hashlib import sha256
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import RunTimeoutError, SimulationError
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.sim.results import RunResult

_LOGGER = logging.getLogger("repro.sweep")

MAX_POOL_FAILURES = 3
"""Pool rebuilds tolerated in one sweep before degrading to serial."""

BACKOFF_JITTER_FRACTION = 0.25
"""Jitter added on top of each backoff delay, as a fraction of it."""


# --- spec identity ----------------------------------------------------------


def _callable_token(fn) -> str:
    module = getattr(fn, "__module__", "?")
    qualname = getattr(fn, "__qualname__", repr(fn))
    return f"{module}.{qualname}"


def policy_token(policy) -> str:
    """A stable textual identity for a spec's policy field.

    Strings are themselves; factories are named by module-qualified
    name (with bound arguments for :func:`functools.partial`).  Two
    distinct lambdas share a token -- journalled resume should use
    named factories, as the pickling rules already require.
    """
    if isinstance(policy, str):
        return policy
    if isinstance(policy, partial):
        keywords = tuple(sorted(policy.keywords.items()))
        return (
            f"partial({_callable_token(policy.func)}, "
            f"args={policy.args!r}, kwargs={keywords!r})"
        )
    return _callable_token(policy)


def spec_digest(spec) -> str:
    """Content hash identifying one run for journalling and resume.

    Computed from everything that determines the run's physics:
    workload name, policy identity, budget, settle window, engine
    configuration (including any fault plan), seed, and the initial
    temperature vector when pinned.  Compute it from the *original*
    spec -- before warmup precomputation fills ``initial`` -- so serial
    and pooled sweeps agree on identity.
    """
    if spec.initial is None:
        initial_token = None
    else:
        array = np.ascontiguousarray(spec.initial, dtype=float)
        initial_token = sha256(array.tobytes()).hexdigest()
    custom = getattr(spec, "digest_payload", None)
    if custom is not None:
        # Non-single-core specs (e.g. the dual-core
        # :class:`~repro.multicore.batch.DualCoreRunSpec`) describe
        # their own physics-determining fields; the initial-vector
        # token stays appended here so the fill-before-dispatch rule
        # above applies uniformly.
        payload = tuple(custom()) + (initial_token,)
    else:
        payload = (
            spec.workload_name,
            policy_token(spec.policy),
            spec.instructions,
            spec.settle_time_s,
            repr(spec.config),
            spec.seed,
            initial_token,
        )
    return sha256(repr(payload).encode("utf-8")).hexdigest()[:20]


def strip_transient_faults(spec):
    """``spec`` with one-shot harness faults disarmed (for retries)."""
    config = spec.engine_config
    if config is None:
        return spec
    plan = config.fault_plan
    if plan is None or not plan.has_transient_faults:
        return spec
    return replace(
        spec,
        engine_config=replace(config, fault_plan=plan.transient_cleared()),
    )


# --- outcomes ---------------------------------------------------------------


@dataclass(frozen=True)
class RunFailure:
    """Structured record of a run the supervisor gave up on.

    Appears in :func:`~repro.sim.batch.run_many` output (in spec order)
    when ``partial_results=True``; carries enough identity to re-run
    the spec and enough diagnostics to explain the failure.
    """

    index: int
    digest: str
    benchmark: str
    policy: str
    error_type: str
    message: str
    attempts: int
    # Supervision context the failure happened under -- e.g. why the
    # pool had been abandoned when this spec was given up on serially.
    notes: Tuple[str, ...] = ()

    @property
    def failed(self) -> bool:
        """Always true; lets callers filter mixed result lists."""
        return True

    def to_json_dict(self) -> Dict[str, object]:
        """Scalar fields for report/journal serialisation."""
        return {
            "index": self.index,
            "digest": self.digest,
            "benchmark": self.benchmark,
            "policy": self.policy,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "notes": "; ".join(self.notes),
        }


Outcome = Union[RunResult, RunFailure]


@dataclass
class _SpecState:
    """Mutable per-spec bookkeeping while the sweep is in flight."""

    spec: object
    digest: str
    attempts: int = 0


# --- journal ----------------------------------------------------------------


class SweepJournal:
    """Append-only JSONL checkpoint: one completed run per line.

    Each line is ``{"digest": ..., "index": ..., "result": {...}}``.
    Lines are flushed as they are written, so a sweep killed mid-flight
    loses at most the run it was writing; :func:`load_journal` skips a
    torn final line.
    """

    def __init__(self, path):
        self._path = str(path)
        self._handle = None

    @property
    def path(self) -> str:
        """The journal file's path."""
        return self._path

    def record(self, digest: str, index: int, result) -> None:
        """Append one completed run and flush.

        Results that are not single-core :class:`RunResult` instances
        declare a ``journal_kind`` tag (e.g. ``"multicore"``) so
        :func:`load_journal` knows which class to rebuild.
        """
        if self._handle is None:
            self._handle = open(self._path, "a", encoding="utf-8")
            # Appending after a crash may land on a torn final line that
            # never got its newline; starting mid-line would merge this
            # record into the torn one and corrupt *both*.  tell() on an
            # append handle is the current end of file.
            if self._handle.tell() > 0:
                with open(self._path, "rb") as tail:
                    tail.seek(-1, 2)
                    if tail.read(1) != b"\n":
                        self._handle.write("\n")
        entry = {
            "digest": digest,
            "index": index,
            "result": result.to_json_dict(),
        }
        kind = getattr(result, "journal_kind", None)
        if kind is not None:
            entry["kind"] = kind
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the underlying file handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def result_from_journal_entry(entry: Dict[str, object]):
    """Rebuild the result object one parsed journal entry describes.

    Entries are the mappings :meth:`SweepJournal.record` writes: the
    ``result`` payload plus an optional ``kind`` tag naming the result
    class (``"multicore"`` for
    :class:`~repro.multicore.engine.MultiCoreResult`; absent for the
    single-core :class:`~repro.sim.results.RunResult`).  Shared by
    :func:`load_journal` and the service result cache
    (:mod:`repro.service.cache`), so both rebuild identically.
    Malformed payloads raise (``KeyError``/``TypeError``/``ValueError``/
    :class:`~repro.errors.SimulationError`); callers decide whether
    that is fatal.
    """
    payload = entry["result"]
    if entry.get("kind") == "multicore":
        from repro.multicore.engine import MultiCoreResult

        return MultiCoreResult.from_json_dict(payload)
    return RunResult.from_json_dict(payload)


#: Exceptions malformed journal data can legitimately raise while being
#: parsed and rebuilt.  Anything else is a real bug and propagates.
_JOURNAL_ENTRY_ERRORS = (
    json.JSONDecodeError,
    KeyError,
    TypeError,
    ValueError,
    SimulationError,
)


def load_journal(path) -> Dict[str, object]:
    """Completed runs recorded in a journal, keyed by spec digest.

    A missing file is an empty journal (a resume of a sweep that never
    started).  The file is read as bytes and decoded line by line, so a
    crash mid-append cannot poison the whole resume: a torn tail --
    truncated JSON, or even a line sheared inside a multi-byte UTF-8
    sequence -- is *skipped with a warning* and a structured
    ``journal.torn_tail`` observability event instead of failing the
    resume.  A malformed line that is **not** the tail means real
    corruption (an append landed after the tear), which is likewise
    skipped but flagged as ``journal.malformed_line`` so it is never
    silent.  The skip is scoped to the exceptions malformed data can
    actually raise, so a genuine bug in result reconstruction (or an
    interrupt landing mid-parse) propagates instead of silently
    emptying the resume set.
    """
    completed: Dict[str, object] = {}
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return completed
    with handle:
        raw = handle.read()
    lines = [
        (lineno, line)
        for lineno, line in enumerate(raw.split(b"\n"), start=1)
        if line.strip()
    ]
    for position, (lineno, line) in enumerate(lines):
        try:
            entry = json.loads(line.decode("utf-8"))
            digest = str(entry["digest"])
            completed[digest] = result_from_journal_entry(entry)
        except (UnicodeDecodeError,) + _JOURNAL_ENTRY_ERRORS as exc:
            torn_tail = position == len(lines) - 1
            kind = "torn_tail" if torn_tail else "malformed_line"
            warnings.warn(
                f"sweep journal {path}: skipping "
                f"{'torn trailing' if torn_tail else 'malformed'} line "
                f"{lineno} ({type(exc).__name__}); "
                f"{'the run it described will be re-executed on resume' if torn_tail else 'mid-file corruption -- inspect the journal'}",
                RuntimeWarning,
                stacklevel=2,
            )
            obs_events.emit(
                f"journal.{kind}",
                path=str(path),
                line=lineno,
                error_type=type(exc).__name__,
            )
            obs_metrics.inc(f"journal.{kind}_skips")
            continue
    return completed


# --- supervisor -------------------------------------------------------------


class _PoolRebuild(Exception):
    """Internal signal: the pool must be rebuilt; carries the specs that
    still need execution and the reason the pool was condemned."""

    def __init__(
        self,
        unfinished: List[Tuple[int, _SpecState]],
        reason: str = "unknown",
    ):
        super().__init__(f"{len(unfinished)} specs unfinished ({reason})")
        self.unfinished = unfinished
        self.reason = reason


class SweepSupervisor:
    """Executes a list of (index, state) items under a fault policy.

    One instance supervises one :func:`~repro.sim.batch.run_many` call.
    Outcomes land in the caller-owned ``outcomes`` list at each item's
    index: a :class:`~repro.sim.results.RunResult` on success, a
    :class:`RunFailure` when retries are exhausted and
    ``partial_results`` is set; without ``partial_results`` the original
    exception propagates, matching the unsupervised contract.
    """

    def __init__(
        self,
        *,
        timeout_s: Optional[float] = None,
        retries: int = 0,
        backoff_s: float = 0.1,
        backoff_max_s: float = 30.0,
        partial_results: bool = False,
        journal: Optional[SweepJournal] = None,
    ):
        if timeout_s is not None and timeout_s <= 0.0:
            raise SimulationError("per-run timeout must be > 0")
        if retries < 0:
            raise SimulationError("retry budget must be >= 0")
        if backoff_s < 0.0 or backoff_max_s < 0.0:
            raise SimulationError("backoff must be >= 0")
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self.partial_results = partial_results
        self.journal = journal
        self._backoff_seq = 0
        # Sweep-level telemetry the caller folds into its SweepReport.
        # Maintained unconditionally (plain dict increments); the
        # structured events alongside are obs-gated.
        self.telemetry: Dict[str, float] = {}
        # Why the pool was abandoned, once it has been ("" until then).
        # Carried into serial-fallback RunFailure notes and the sweep
        # report's metadata.
        self.degradation_reason: str = ""

    def _count(self, name: str, amount: float = 1.0) -> None:
        self.telemetry[name] = self.telemetry.get(name, 0.0) + amount
        obs_metrics.inc(name, amount)

    @property
    def inert(self) -> bool:
        """True when no failure-handling semantics were requested, so
        legacy raise-on-first-error behavior must be preserved."""
        return (
            self.retries == 0
            and not self.partial_results
            and self.timeout_s is None
        )

    # --- shared plumbing ---------------------------------------------------

    def _backoff_delay(self, digest: str, attempt: int) -> float:
        if self.backoff_s <= 0.0:
            return 0.0
        delay = min(self.backoff_max_s, self.backoff_s * 2.0 ** (attempt - 1))
        # Deterministic jitter: the same sweep re-run backs off the same
        # way, which keeps chaos experiments reproducible.
        rng = random.Random(f"{digest}:{attempt}")
        return delay * (1.0 + BACKOFF_JITTER_FRACTION * rng.random())

    def _record(self, outcomes, index: int, state: _SpecState, result) -> None:
        outcomes[index] = result
        if self.journal is not None:
            self.journal.record(state.digest, index, result)

    def _fail(self, outcomes, index: int, state: _SpecState, exc) -> None:
        self._count("sweep.run_failures")
        obs_events.emit(
            "sweep.run_failed",
            index=index,
            digest=state.digest,
            benchmark=state.spec.workload_name,
            error_type=type(exc).__name__,
            attempts=state.attempts,
        )
        if not self.partial_results:
            raise exc
        spec = state.spec
        notes: Tuple[str, ...] = ()
        if self.degradation_reason:
            notes = (f"pool degraded to serial: {self.degradation_reason}",)
        outcomes[index] = RunFailure(
            index=index,
            digest=state.digest,
            benchmark=spec.workload_name,
            policy=policy_token(spec.policy),
            error_type=type(exc).__name__,
            message=str(exc),
            attempts=state.attempts,
            notes=notes,
        )

    def _charge_attempt(self, state: _SpecState) -> bool:
        """Consume one attempt; True when the spec may be retried."""
        state.attempts += 1
        if state.attempts > self.retries:
            return False
        state.spec = strip_transient_faults(state.spec)
        self._count("sweep.retries")
        obs_events.emit(
            "sweep.retry",
            digest=state.digest,
            benchmark=state.spec.workload_name,
            attempt=state.attempts,
        )
        return True

    # --- serial path -------------------------------------------------------

    def run_serial(self, items, outcomes) -> None:
        """Execute items in this process, with retries and backoff.

        Wall-clock timeouts are not enforced serially: a run executing
        in this very interpreter cannot be preempted safely.  The pool
        path enforces them.
        """
        from repro.sim.batch import run_one

        for index, state in items:
            while True:
                try:
                    result = run_one(state.spec)
                except Exception as exc:
                    if not self._charge_attempt(state):
                        self._fail(outcomes, index, state, exc)
                        break
                    time.sleep(
                        self._backoff_delay(state.digest, state.attempts)
                    )
                else:
                    self._record(outcomes, index, state, result)
                    break

    # --- pool path ---------------------------------------------------------

    def run_pool(self, items, outcomes, processes: int) -> None:
        """Execute items across the worker pool with full supervision."""
        import repro.sim.batch as batch

        queue: List[Tuple[int, _SpecState]] = list(items)
        pool_failures = 0
        failure_reasons: List[str] = []
        while queue:
            if pool_failures >= MAX_POOL_FAILURES:
                # The reason the pool was abandoned used to be dropped
                # here; record it so partial results and the sweep
                # report can explain the degradation.
                reason = (
                    f"{pool_failures} pool failures: "
                    + "; ".join(failure_reasons)
                )
                self.degradation_reason = reason
                self._count("sweep.serial_degradations")
                obs_events.emit(
                    "sweep.serial_degradation",
                    pool_failures=pool_failures,
                    remaining_runs=len(queue),
                    reason=reason,
                )
                _LOGGER.warning(
                    "degrading %d remaining runs to serial execution (%s)",
                    len(queue),
                    reason,
                )
                warnings.warn(
                    f"process pool failed {pool_failures} times "
                    f"({'; '.join(failure_reasons)}); degrading the "
                    f"remaining {len(queue)} runs to serial execution",
                    RuntimeWarning,
                    stacklevel=3,
                )
                self.run_serial(queue, outcomes)
                return
            try:
                self._pool_generation(batch, queue, outcomes, processes)
                return
            except _PoolRebuild as signal:
                pool_failures += 1
                failure_reasons.append(signal.reason)
                self._count("sweep.pool_rebuilds")
                obs_events.emit(
                    "sweep.pool_rebuild",
                    generation=pool_failures,
                    unfinished_runs=len(signal.unfinished),
                    reason=signal.reason,
                )
                _LOGGER.warning(
                    "rebuilding worker pool (generation %d): %s",
                    pool_failures,
                    signal.reason,
                )
                batch._shutdown_pool()
                queue = signal.unfinished

    def _pool_generation(self, batch, queue, outcomes, processes) -> None:
        """Drive one pool lifetime; raises :class:`_PoolRebuild` with the
        unfinished specs when the pool must be replaced (worker death or
        a wedged, overdue run)."""
        pool = batch._get_pool(processes)
        inflight: Dict[object, Tuple[int, _SpecState]] = {}
        deadlines: Dict[object, float] = {}
        delayed: List[Tuple[float, int, int, _SpecState]] = []  # heap

        def submit(index: int, state: _SpecState) -> None:
            future = pool.submit(batch.run_one, state.spec)
            inflight[future] = (index, state)
            if self.timeout_s is not None:
                deadlines[future] = time.monotonic() + self.timeout_s

        def unfinished_after_breakage(extra=()):
            # Everything still owed: the trigger specs (``extra``, retry
            # budget already handled by the caller), every other
            # in-flight spec (innocent -- not charged), and anything
            # sitting in the backoff queue.  Transient faults are
            # stripped across the board: a fault that just killed a
            # pool must not kill its replacement.
            unfinished = list(extra)
            unfinished.extend(inflight.values())
            unfinished.extend((i, s) for _, _, i, s in delayed)
            for _, state in unfinished:
                state.spec = strip_transient_faults(state.spec)
            return unfinished

        # A worker can die while this loop is still submitting (a warm
        # pool starts executing immediately), breaking the pool mid-loop;
        # the failed submit's spec and everything not yet submitted must
        # ride along to the rebuilt pool, not be dropped.
        for position, (index, state) in enumerate(queue):
            try:
                submit(index, state)
            except Exception as exc:
                raise _PoolRebuild(
                    unfinished_after_breakage(queue[position:]),
                    reason=f"submission failed ({type(exc).__name__})",
                ) from None

        while inflight or delayed:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, _, index, state = heapq.heappop(delayed)
                try:
                    submit(index, state)
                except Exception as exc:
                    raise _PoolRebuild(
                        unfinished_after_breakage([(index, state)]),
                        reason=(
                            f"retry submission failed "
                            f"({type(exc).__name__})"
                        ),
                    ) from None
            if not inflight:
                if delayed:
                    time.sleep(max(0.0, delayed[0][0] - time.monotonic()))
                continue

            wait_s = None
            if deadlines:
                wait_s = max(0.0, min(deadlines.values()) - now)
            if delayed:
                next_ready = max(0.0, delayed[0][0] - now)
                wait_s = (
                    next_ready if wait_s is None else min(wait_s, next_ready)
                )
            done, _ = futures_wait(
                set(inflight), timeout=wait_s, return_when=FIRST_COMPLETED
            )

            broken_items: List[Tuple[int, _SpecState]] = []
            for future in done:
                index, state = inflight.pop(future)
                deadlines.pop(future, None)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    # The pool is poisoned; this future's spec is not
                    # necessarily the one whose worker died, so nobody
                    # is charged an attempt.
                    broken_items.append((index, state))
                except Exception as exc:
                    if not self._charge_attempt(state):
                        self._fail(outcomes, index, state, exc)
                    else:
                        ready = time.monotonic() + self._backoff_delay(
                            state.digest, state.attempts
                        )
                        self._backoff_seq += 1
                        heapq.heappush(
                            delayed,
                            (ready, self._backoff_seq, index, state),
                        )
                else:
                    self._record(outcomes, index, state, result)
            if broken_items:
                raise _PoolRebuild(
                    unfinished_after_breakage(broken_items),
                    reason="worker process died (BrokenProcessPool)",
                )

            # Overdue runs: the worker may be wedged beyond reclaim, so
            # the whole pool is rebuilt (terminating its workers) and
            # only the overdue specs are charged an attempt.
            now = time.monotonic()
            overdue = [f for f, ddl in deadlines.items() if ddl <= now]
            if overdue:
                retry: List[Tuple[int, _SpecState]] = []
                for future in overdue:
                    index, state = inflight.pop(future)
                    deadlines.pop(future, None)
                    future.cancel()
                    self._count("sweep.timeouts")
                    obs_events.emit(
                        "sweep.run_timeout",
                        index=index,
                        benchmark=state.spec.workload_name,
                        budget_s=self.timeout_s,
                    )
                    exc = RunTimeoutError(
                        f"run #{index} ({state.spec.workload_name}) "
                        f"exceeded its {self.timeout_s:g} s budget"
                    )
                    if not self._charge_attempt(state):
                        self._fail(outcomes, index, state, exc)
                    else:
                        retry.append((index, state))
                raise _PoolRebuild(
                    unfinished_after_breakage(retry),
                    reason=(
                        f"{len(overdue)} overdue run(s) exceeded the "
                        f"{self.timeout_s:g} s budget (worker possibly "
                        f"wedged)"
                    ),
                )

    # --- lockstep paths ----------------------------------------------------

    def run_lockstep_serial(self, items, outcomes) -> None:
        """Advance items in lockstep, recording (and journalling) each
        run the moment it finishes; on failure, fall back to supervised
        per-spec serial execution of the runs that have no outcome yet
        (a mid-batch failure must cost the sweep one batch, not the
        whole figure)."""
        from repro.sim.lockstep import run_lockstep

        def finished(position: int, result) -> None:
            index, state = items[position]
            self._record(outcomes, index, state, result)

        try:
            run_lockstep([state.spec for _, state in items], finished)
        except Exception as exc:
            if self.inert:
                raise
            unfinished = [
                (index, state)
                for index, state in items
                if outcomes[index] is None
            ]
            self._count("sweep.lockstep_fallbacks")
            obs_events.emit(
                "sweep.lockstep_fallback",
                scope="serial",
                runs=len(unfinished),
                error_type=type(exc).__name__,
            )
            _LOGGER.warning(
                "lockstep batch of %d runs failed (%s); re-running its "
                "%d unfinished runs with per-spec supervision",
                len(items),
                type(exc).__name__,
                len(unfinished),
            )
            self.run_serial(unfinished, outcomes)

    def run_lockstep_pool(self, items, outcomes, processes: int) -> None:
        """Fan lockstep chunks over the pool; chunks that fail for any
        reason (spec error, worker death, overdue deadline) fall back to
        supervised per-spec pool execution.  A chunk's runs are recorded
        (and journalled) together when the chunk returns."""
        import repro.sim.batch as batch
        from repro.sim.lockstep import run_lockstep

        chunks = batch._chunk_evenly(items, processes)
        fallback: List[Tuple[int, _SpecState]] = []
        pool_broken = False
        try:
            pool = batch._get_pool(processes)
            futures = {
                pool.submit(
                    run_lockstep, [state.spec for _, state in chunk]
                ): chunk
                for chunk in chunks
            }
        except Exception as exc:
            # Any pool construction/submission failure must degrade the
            # sweep, not kill it -- but never silently: the whole batch
            # re-running serially is a major mode change.  (Keyboard
            # interrupts, SystemExit and the CLI's SIGTERM exception derive
            # from BaseException and propagate past this handler; a
            # regression test pins that.)
            _LOGGER.warning(
                "lockstep pool construction failed (%s: %s); falling "
                "back to supervised per-spec execution for all %d runs",
                type(exc).__name__,
                exc,
                len(items),
            )
            self._count("sweep.pool_submit_failures")
            obs_events.emit(
                "sweep.pool_submit_failed",
                error_type=type(exc).__name__,
                runs=len(items),
            )
            pool_broken = True
            futures = {}
            fallback = list(items)

        deadline = None
        if self.timeout_s is not None and futures:
            # A chunk runs its specs back to back, so its budget is the
            # per-run budget times the chunk size.
            deadline = time.monotonic() + self.timeout_s * max(
                len(chunk) for chunk in futures.values()
            )
        pending = set(futures)
        while pending:
            wait_s = None
            if deadline is not None:
                wait_s = max(0.0, deadline - time.monotonic())
            done, pending = futures_wait(
                pending, timeout=wait_s, return_when=FIRST_COMPLETED
            )
            if not done:  # every remaining chunk is overdue
                for future in pending:
                    future.cancel()
                    fallback.extend(futures[future])
                pool_broken = True
                break
            for future in done:
                chunk = futures[future]
                try:
                    results = future.result()
                except Exception as exc:
                    if isinstance(exc, BrokenProcessPool):
                        pool_broken = True
                    elif self.inert:
                        raise
                    fallback.extend(chunk)
                else:
                    for (index, state), result in zip(chunk, results):
                        self._record(outcomes, index, state, result)

        if pool_broken:
            batch._shutdown_pool()
            for _, state in fallback:
                state.spec = strip_transient_faults(state.spec)
        if fallback:
            if self.inert and not pool_broken:
                raise SimulationError(
                    "lockstep chunks failed without supervision enabled"
                )  # pragma: no cover - unreachable (inert re-raises above)
            self._count("sweep.lockstep_fallbacks")
            obs_events.emit(
                "sweep.lockstep_fallback",
                scope="pool",
                runs=len(fallback),
                pool_broken=pool_broken,
            )
            self.run_pool(fallback, outcomes, processes)
