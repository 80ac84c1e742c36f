"""Fault-tolerant sweep supervision.

:func:`repro.sim.batch.run_many` hands every sweep to the machinery
here as a list of *batches* -- a lockstep batch of runs advanced
together, or a batch of one -- through one in-process loop
(:meth:`SweepSupervisor.run_serial`) and one pool loop
(:meth:`SweepSupervisor.run_pool`), so a sweep survives imperfect
conditions: crashed workers, wedged runs, corrupted solves.  The
contract mirrors the paper's own: the *plant* (a run) may misbehave,
but the *supervisor* must keep the sweep inside its envelope --

* **bounded retries** with exponential backoff and deterministic jitter
  (seeded from the spec digest, so a re-run of the same sweep backs off
  identically);
* **per-run wall-clock timeouts** on the pool path (a batch gets the
  budget times its size); an overdue batch's worker may be wedged, so
  the pool is rebuilt (terminating the stuck worker) and every
  unfinished spec is resubmitted;
* **lockstep fallback**: a lockstep batch that fails or runs overdue
  re-runs its unfinished specs as batches of one, uncharged;
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

import contextvars
import heapq
import json
import logging
import random
import time
import warnings
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from hashlib import sha256
from typing import Callable, Dict, List, Optional, Tuple, Union

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


# One batch of a sweep: (index, state) items run together in lockstep,
# or alone when it holds one.
_Batch = List[Tuple[int, _SpecState]]


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


# The callback :func:`listen_outcomes` installs for this thread's sweeps.
_OUTCOME_LISTENER = contextvars.ContextVar(
    "repro_sweep_outcome_listener", default=None
)


@contextmanager
def listen_outcomes(callback: Callable[[int, object], None]):
    """Report each run's outcome as soon as it is recorded.

    Inside the block, every :func:`~repro.sim.batch.run_many` call made
    from this thread calls ``callback(index, outcome)`` once per spec it
    executes -- a result right after it is journalled, or a
    :class:`RunFailure` under ``partial_results`` -- in finishing order,
    before the sweep returns.  ``index`` is the spec's position in the
    ``run_many`` argument.  A pooled lockstep batch reports its runs
    together, when the batch returns, as it journals them.
    """
    token = _OUTCOME_LISTENER.set(callback)
    try:
        yield
    finally:
        _OUTCOME_LISTENER.reset(token)


class _PoolRebuild(Exception):
    """Internal signal: the pool must be rebuilt; carries the specs that
    still need execution, as batches of one, and the reason the pool was
    condemned."""

    def __init__(
        self,
        unfinished: List[_Batch],
        reason: str = "unknown",
    ):
        super().__init__(f"{len(unfinished)} specs unfinished ({reason})")
        self.unfinished = unfinished
        self.reason = reason


class SweepSupervisor:
    """Executes a sweep's batches -- lists of (index, state) items --
    under a fault policy.

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
        self._on_outcome = _OUTCOME_LISTENER.get()
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
        self._tally({name: amount})
        obs_metrics.inc(name, amount)

    def _tally(self, counters: Dict[str, float]) -> None:
        """Add counters to the sweep telemetry only (a lockstep batch's
        round counters, which its engine already put in the registry
        of the process that ran it)."""
        for name, value in counters.items():
            self.telemetry[name] = self.telemetry.get(name, 0.0) + value

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
        if self._on_outcome is not None:
            self._on_outcome(index, result)

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
        if self._on_outcome is not None:
            self._on_outcome(index, outcomes[index])

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

    def _fall_back(self, items, scope: str, error_type: str) -> None:
        """Note a lockstep batch whose ``items`` re-run as batches of one."""
        self._count("sweep.lockstep_fallbacks")
        obs_events.emit(
            "sweep.lockstep_fallback",
            scope=scope,
            runs=len(items),
            error_type=error_type,
        )
        _LOGGER.warning(
            "lockstep batch failed (%s); re-running its %d unfinished "
            "runs one by one",
            error_type,
            len(items),
        )

    # --- in-process loop ---------------------------------------------------

    def run_serial(self, batches, outcomes) -> None:
        """Execute batches in this process, recording (and journalling)
        each run the moment it finishes.

        A batch of one runs :func:`~repro.sim.batch.run_one` with
        retries and backoff.  A larger batch runs in lockstep; when it
        raises, its runs that have no outcome yet re-run as batches of
        one without being charged an attempt (a mid-batch failure must
        cost the sweep one batch, not the whole figure), unless the
        sweep is inert, which re-raises.  Wall-clock timeouts are not
        enforced here: a run executing in this very interpreter cannot
        be preempted safely.  The pool loop enforces them.
        """
        for items in batches:
            if len(items) > 1:
                items = self._run_lockstep(items, outcomes)
            for index, state in items:
                self._run_alone(index, state, outcomes)

    def _run_lockstep(self, items, outcomes) -> _Batch:
        """Run a larger batch in lockstep; returns the runs left without
        an outcome when it fails (none when it completes).  The batch's
        round counters join the sweep telemetry either way."""
        from repro.sim.lockstep import run_lockstep

        def finished(position: int, result) -> None:
            index, state = items[position]
            self._record(outcomes, index, state, result)

        rounds: Dict[str, float] = {}
        try:
            run_lockstep([state.spec for _, state in items], finished, rounds)
        except Exception as exc:
            if self.inert:
                raise
            unfinished = [
                (index, state)
                for index, state in items
                if outcomes[index] is None
            ]
            self._fall_back(unfinished, "serial", type(exc).__name__)
            return unfinished
        finally:
            self._tally(rounds)
        return []

    def _run_alone(self, index: int, state: _SpecState, outcomes) -> None:
        """Run one spec to a result or a failure, with retries."""
        from repro.sim import batch

        while True:
            try:
                result = batch.run_one(state.spec)
            except Exception as exc:
                if not self._charge_attempt(state):
                    self._fail(outcomes, index, state, exc)
                    return
                time.sleep(self._backoff_delay(state.digest, state.attempts))
            else:
                self._record(outcomes, index, state, result)
                return

    # --- pool loop ---------------------------------------------------------

    def run_pool(self, batches, outcomes, processes: int) -> None:
        """Execute batches across the worker pool with full supervision."""
        import repro.sim.batch as batch

        queue: List[_Batch] = list(batches)
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
        unfinished specs, as batches of one, when the pool must be
        replaced (a failed submission, worker death or an overdue,
        possibly wedged batch).

        Every batch is one :func:`~repro.sim.lockstep.run_chunk` task
        whose deadline is the per-run budget times its size.  A larger
        batch that fails or runs overdue re-runs as batches of one
        without charging an attempt; a batch of one is charged.
        """
        from repro.sim.lockstep import run_chunk

        inflight: Dict[object, _Batch] = {}
        deadlines: Dict[object, float] = {}
        delayed: List[Tuple[float, int, _Batch]] = []

        def submit(items) -> None:
            future = pool.submit(run_chunk, [state.spec for _, state in items])
            inflight[future] = items
            if self.timeout_s is not None:
                deadlines[future] = time.monotonic() + self.timeout_s * len(
                    items
                )

        def later(items, delay_s: float) -> None:
            self._backoff_seq += 1
            heapq.heappush(
                delayed, (time.monotonic() + delay_s, self._backoff_seq, items)
            )

        def unfinished_after_breakage(extra=()):
            # Everything still owed, as batches of one: the trigger
            # batches (``extra``, retry budget already handled by the
            # caller), every other in-flight batch (innocent -- not
            # charged), and anything sitting in the backoff queue.
            # Transient faults are stripped across the board: a fault
            # that just killed a pool must not kill its replacement.
            owed = list(extra) + list(inflight.values())
            owed.extend(items for _, _, items in delayed)
            unfinished = []
            for items in owed:
                for index, state in items:
                    state.spec = strip_transient_faults(state.spec)
                    unfinished.append([(index, state)])
            return unfinished

        try:
            pool = batch._get_pool(processes)
        except Exception as exc:
            raise _PoolRebuild(
                unfinished_after_breakage(queue),
                reason=f"pool start failed ({type(exc).__name__})",
            ) from None
        # Every batch is submitted from the ready queue.  A worker can
        # die while submissions are still going on (a warm pool starts
        # executing immediately); the failed batch and everything not
        # yet submitted must ride along to the rebuilt pool, not be
        # dropped.
        for items in queue:
            later(items, 0.0)

        while inflight or delayed:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, _, items = heapq.heappop(delayed)
                try:
                    submit(items)
                except Exception as exc:
                    raise _PoolRebuild(
                        unfinished_after_breakage([items]),
                        reason=f"submission failed ({type(exc).__name__})",
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

            broken: List[_Batch] = []
            for future in done:
                items = inflight.pop(future)
                deadlines.pop(future, None)
                try:
                    results, rounds = future.result()
                except BrokenProcessPool:
                    # The pool is poisoned; this future's batch is not
                    # necessarily the one whose worker died, so nobody
                    # is charged an attempt.
                    broken.append(items)
                except Exception as exc:
                    if len(items) > 1:
                        if self.inert:
                            raise
                        self._fall_back(items, "pool", type(exc).__name__)
                        for item in items:
                            later([item], 0.0)
                        continue
                    index, state = items[0]
                    if not self._charge_attempt(state):
                        self._fail(outcomes, index, state, exc)
                    else:
                        later(
                            items,
                            self._backoff_delay(state.digest, state.attempts),
                        )
                else:
                    self._tally(rounds)
                    for (index, state), result in zip(items, results):
                        self._record(outcomes, index, state, result)
            if broken:
                raise _PoolRebuild(
                    unfinished_after_breakage(broken),
                    reason="worker process died (BrokenProcessPool)",
                )

            # Overdue batches: the worker may be wedged beyond reclaim,
            # so the whole pool is rebuilt (terminating its workers);
            # only an overdue batch of one is charged an attempt.
            now = time.monotonic()
            overdue = [f for f, ddl in deadlines.items() if ddl <= now]
            if overdue:
                retry: List[_Batch] = []
                for future in overdue:
                    items = inflight.pop(future)
                    deadlines.pop(future, None)
                    future.cancel()
                    if len(items) > 1:
                        self._fall_back(items, "pool", "RunTimeoutError")
                        retry.append(items)
                        continue
                    index, state = items[0]
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
                        retry.append(items)
                raise _PoolRebuild(
                    unfinished_after_breakage(retry),
                    reason=(
                        f"{len(overdue)} overdue batch(es) exceeded the "
                        f"{self.timeout_s:g} s per-run budget (worker "
                        f"possibly wedged)"
                    ),
                )
