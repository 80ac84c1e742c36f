"""Batch execution of simulation runs.

Sweeps (figure reproductions, duty-cycle crossovers, suite evaluations)
are embarrassingly parallel: every run is one workload under one policy
with its own seed.  This module gives them a common runner:

* :class:`RunSpec` -- a frozen, picklable description of one run;
* :func:`run_many` -- executes a list of specs, serially or across a
  :class:`~concurrent.futures.ProcessPoolExecutor`, preserving spec order
  and producing results identical to the serial path (each run is seeded
  from its spec alone, so scheduling cannot perturb it);
* a per-process steady-state warmup cache, so the expensive no-DTM
  fixed-point solve happens once per workload rather than once per run.

Throughput accounting (:func:`stats` / :func:`reset_stats`) lets
benchmarks report thermal steps per second for whole sweeps.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.obs import events as obs_events
from repro.obs import heartbeat as obs_heartbeat
from repro.obs import metrics as obs_metrics
from repro.obs import spill as obs_spill
from repro.obs.report import SweepReport
from repro.sim.config import EngineConfig
from repro.sim.faults import fire_prerun_faults
from repro.sim.results import RunResult
from repro.sim.supervisor import (
    Outcome,
    RunFailure,
    SweepJournal,
    SweepSupervisor,
    _SpecState,
    load_journal,
    policy_token,
    spec_digest,
)
from repro.workloads.workload import Workload

DEFAULT_INSTRUCTIONS = 20_000_000


@dataclass(frozen=True, eq=False)
class RunSpec:
    """One simulation run, described by value.

    Everything needed to reproduce the run is in the spec -- workload,
    policy, budget, engine configuration and seed -- so a spec can be
    shipped to a worker process and executed there with a result
    identical to running it in-process.

    Parameters
    ----------
    workload:
        A :class:`~repro.workloads.workload.Workload`, or a SPEC
        benchmark name (resolved with
        :func:`~repro.workloads.spec.build_benchmark`).
    policy:
        A technique name for :func:`~repro.core.policies.make_policy`,
        or a zero-argument factory returning a fresh
        :class:`~repro.dtm.base.DtmPolicy`.  Factories must be picklable
        for multi-process execution -- use :func:`functools.partial`
        around a top-level class or function, not a lambda.
    instructions:
        Measured commit budget.
    settle_time_s:
        Unmeasured lead-in with the policy active.
    dvs_mode:
        Shorthand for ``EngineConfig(dvs_mode=...)``; ignored when
        ``engine_config`` is given.
    engine_config:
        Full engine configuration override.
    seed:
        Sensor-noise seed; each run is seeded from its spec alone.
    initial:
        Node temperature vector to start from.  When omitted, the
        workload's no-DTM steady state is computed (and cached per
        process, keyed by the workload's name under the default
        floorplan/package/technology substrate).
    """

    workload: Union[str, Workload]
    policy: Union[str, Callable] = "none"
    instructions: int = DEFAULT_INSTRUCTIONS
    settle_time_s: float = 0.0
    dvs_mode: str = "stall"
    engine_config: Optional[EngineConfig] = None
    seed: int = 0
    initial: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.instructions <= 0:
            raise SimulationError("instruction budget must be > 0")
        if self.settle_time_s < 0.0:
            raise SimulationError("settle time must be >= 0")

    @property
    def config(self) -> EngineConfig:
        """The effective engine configuration."""
        if self.engine_config is not None:
            return self.engine_config
        return EngineConfig(dvs_mode=self.dvs_mode)

    @property
    def workload_name(self) -> str:
        """The workload's name without building it."""
        if isinstance(self.workload, str):
            return self.workload
        return self.workload.name


@dataclass
class BatchStats:
    """Aggregate throughput over :func:`run_many` calls since the last
    :func:`reset_stats`."""

    runs: int = 0
    thermal_steps: float = 0.0
    wall_s: float = 0.0

    @property
    def steps_per_second(self) -> float:
        """Measured thermal steps per wall-clock second."""
        return self.thermal_steps / self.wall_s if self.wall_s > 0.0 else 0.0


_TOTALS = BatchStats()

# Per-process steady-state cache: workload name -> node temperature
# vector.  Valid for the default substrate only (RunSpec carries no
# floorplan/package/technology overrides); specs with an explicit
# ``initial`` bypass it.
_WARMUP_CACHE: Dict[str, np.ndarray] = {}

# Per-process default substrate (floorplan, thermal model, power model),
# shared across every engine this module builds: all three are read-only
# after construction, and re-assembling the thermal network is the
# dominant per-run fixed cost in short sweeps.
_SUBSTRATE: Optional[tuple] = None


def _default_substrate() -> tuple:
    global _SUBSTRATE
    if _SUBSTRATE is None:
        from repro.floorplan.alpha21364 import build_alpha21364_floorplan
        from repro.power.model import PowerModel
        from repro.thermal.hotspot import HotSpotModel

        floorplan = build_alpha21364_floorplan()
        _SUBSTRATE = (
            floorplan,
            HotSpotModel(floorplan),
            PowerModel(floorplan),
        )
    return _SUBSTRATE

# The worker pool persists across run_many calls: a sweep issues one
# batch per policy configuration, and paying pool start-up per batch
# would dominate short sweeps.
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_SIZE = 0
_POOL_OBS: Tuple[bool, bool, str] = (False, False, "")


def _obs_pool_key() -> Tuple[bool, bool, str]:
    # Workers fork with the parent's observability state frozen at fork
    # time; a pool created with obs off (or spilling into a different
    # directory) would silently drop every worker's run records, and a
    # pool created with live progress off would never publish progress
    # slots.  The directory matters whenever either channel writes into
    # it (spill files with obs on, hb-*.slot files with progress on).
    if not obs_heartbeat.enabled():
        return (False, False, "")
    return (obs_metrics.enabled(), True, str(obs_metrics.obs_dir()))


def _get_pool(processes: int) -> ProcessPoolExecutor:
    global _POOL, _POOL_SIZE, _POOL_OBS
    obs_key = _obs_pool_key()
    if _POOL is not None and (
        _POOL_SIZE != processes
        or _POOL_OBS != obs_key
        or getattr(_POOL, "_broken", False)
    ):
        # Never hand out a pool observed broken: a dead worker poisons
        # every future submitted to it.  Rebuild instead.  A pool whose
        # workers forked under a different observability state is
        # rebuilt for the same reason: it would lose telemetry.
        _shutdown_pool()
    if _POOL is None:
        _POOL = ProcessPoolExecutor(max_workers=processes)
        _POOL_SIZE = processes
        _POOL_OBS = obs_key
    return _POOL


# Fork-context workers inherit this module's exit hooks; they must
# never run the parent's pool teardown (shutting down the forked
# executor copy deadlocks on locks that were held at fork time and
# wedges the child, which in turn hangs the parent's exit join).
_OWNER_PID = os.getpid()


def _shutdown_pool() -> None:
    """Tear the pool down without ever waiting on a wedged worker.

    The worker list is captured *before* ``shutdown()``: the executor's
    management thread empties ``_processes`` as soon as shutdown begins,
    so capturing afterwards would terminate nothing.  ``shutdown(
    wait=False, cancel_futures=True)`` stops new work, and any worker
    still alive afterwards (stuck in a run that will never finish, or
    mid-crash) is terminated outright -- a hung child must not be able
    to hang a rebuild or interpreter exit.
    """
    global _POOL
    pool, _POOL = _POOL, None
    if pool is None or os.getpid() != _OWNER_PID:
        return
    workers = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass
    for worker in workers:
        try:
            worker.terminate()
        except Exception:  # pragma: no cover - defensive
            pass


def _register_shutdown_hooks() -> None:
    # concurrent.futures joins its management threads from a
    # threading-shutdown callback, which runs *before* regular atexit
    # handlers -- so a plain atexit hook fires too late to stop a wedged
    # worker from hanging interpreter exit.  Threading-shutdown
    # callbacks run LIFO and concurrent.futures registered its join at
    # import time, so registering here (after that import) runs our
    # teardown first.  The atexit fallback keeps older interpreters
    # covered; _shutdown_pool is idempotent, so both may fire.
    try:
        threading._register_atexit(_shutdown_pool)
    except Exception:  # pragma: no cover - interpreter-dependent
        pass
    atexit.register(_shutdown_pool)


_register_shutdown_hooks()


def reset_stats() -> None:
    """Zero the batch throughput counters."""
    global _TOTALS
    _TOTALS = BatchStats()


def stats() -> BatchStats:
    """A snapshot of the batch throughput counters."""
    return replace(_TOTALS)


def _resolve_workload(spec: RunSpec) -> Workload:
    if isinstance(spec.workload, str):
        from repro.workloads.spec import build_benchmark

        return build_benchmark(spec.workload)
    return spec.workload


def _build_policy(spec: RunSpec):
    if isinstance(spec.policy, str):
        from repro.core.policies import make_policy

        return make_policy(spec.policy)
    return spec.policy()


def steady_state_for(workload: Union[str, Workload]) -> np.ndarray:
    """No-DTM steady-state node temperatures under the default substrate,
    cached per process (a copy is returned)."""
    name = workload if isinstance(workload, str) else workload.name
    cached = _WARMUP_CACHE.get(name)
    if cached is None:
        from repro.sim.engine import SimulationEngine

        if isinstance(workload, str):
            from repro.workloads.spec import build_benchmark

            workload = build_benchmark(workload)
        floorplan, hotspot, power_model = _default_substrate()
        engine = SimulationEngine(
            workload,
            floorplan=floorplan,
            hotspot=hotspot,
            power_model=power_model,
        )
        cached = engine.compute_initial_temperatures()
        _WARMUP_CACHE[name] = cached
    return cached.copy()


def _begin_record(spec):
    """Open the run record of ``spec`` (``None`` when obs and live
    progress are off).

    Keyed by the supervisor's spec digest (warmup vectors are filled in
    before dispatch, so ours is stripped to match the identity the
    supervisor journals under), so service jobs, journal entries and
    run records agree on identity; the total is the spec's own progress
    denominator (instruction budget for single-core runs, simulated
    duration for dual-core ones)."""
    if not obs_heartbeat.enabled():
        return None
    digest = spec_digest(replace(spec, initial=None))
    benchmark = str(spec.workload_name)
    policy = policy_token(spec.policy)
    total = getattr(spec, "instructions", None)
    if total is None:
        total = spec.duration_s
    return obs_heartbeat.begin(
        digest,
        benchmark,
        policy,
        float(total),
        run_id=f"{benchmark}.{policy}.s{spec.seed}.{digest[:8]}",
        seed=spec.seed,
    )


def run_one(spec) -> RunResult:
    """Execute one spec in this process.

    Specs other than the single-core :class:`RunSpec` (e.g.
    :class:`~repro.multicore.batch.DualCoreRunSpec`) provide their own
    ``run_in_process`` and are dispatched to it, so every sweep path --
    serial, pooled, lockstep-delegated, retried -- funnels through this
    one entry point.  The run record brackets the whole dispatch: the
    engine (any of the three implementations) picks it up from the open
    stack when its step loop starts, and :func:`~repro.obs.heartbeat.
    finish` spills it with observability on -- to this process's spill
    file in a pool worker, to the parent's in-memory list otherwise.
    """
    record = _begin_record(spec)
    if record is None:
        return _run_one_impl(spec)
    try:
        result = _run_one_impl(spec)
    except BaseException as exc:
        obs_heartbeat.finish(record, error=f"{type(exc).__name__}: {exc}")
        raise
    obs_heartbeat.finish(record)
    return result


def sweep_progress() -> Dict[str, Dict[str, object]]:
    """Live per-run progress of in-flight (and recent) runs.

    A merged :func:`repro.obs.heartbeat.snapshot`: records published by
    this process plus every pool worker's slot file, keyed by spec
    digest, each carrying a computed ``percent``.  Empty unless live
    progress is on (``REPRO_OBS=1``, or a running sweep service)."""
    return obs_heartbeat.snapshot()


def _run_one_impl(spec) -> RunResult:
    runner = getattr(spec, "run_in_process", None)
    if runner is not None:
        return runner()
    from repro.sim.engine import SimulationEngine

    fire_prerun_faults(spec.config.fault_plan, spec.seed)
    workload = _resolve_workload(spec)
    initial = spec.initial
    if initial is None:
        initial = steady_state_for(workload)
    floorplan, hotspot, power_model = _default_substrate()
    engine = SimulationEngine(
        workload,
        policy=_build_policy(spec),
        floorplan=floorplan,
        hotspot=hotspot,
        power_model=power_model,
        config=spec.config,
        seed=spec.seed,
    )
    return engine.run(
        spec.instructions,
        initial=np.array(initial, dtype=float, copy=True),
        settle_time_s=spec.settle_time_s,
    )


def _precompute_warmups(specs: Sequence[RunSpec]) -> List[RunSpec]:
    """Fill in ``initial`` for every spec that lacks one.

    The steady-state solve is the per-run fixed cost; computing each
    distinct workload's warmup once in the parent keeps worker processes
    from repeating it and keeps results independent of how specs are
    distributed over the pool.
    """
    filled: List[RunSpec] = []
    for spec in specs:
        if spec.initial is None:
            filled.append(replace(spec, initial=steady_state_for(spec.workload)))
        else:
            filled.append(spec)
    return filled


def _chunk_evenly(specs: Sequence[RunSpec], parts: int) -> List[List[RunSpec]]:
    """Split ``specs`` into at most ``parts`` contiguous, near-equal,
    non-empty chunks (order preserved, so flattening chunk results
    restores spec order)."""
    parts = min(parts, len(specs))
    base, extra = divmod(len(specs), parts)
    chunks: List[List[RunSpec]] = []
    start = 0
    for i in range(parts):
        stop = start + base + (1 if i < extra else 0)
        chunks.append(list(specs[start:stop]))
        start = stop
    return chunks


def _resolve_lockstep(specs: Sequence, lockstep: Optional[bool]) -> bool:
    """Decide whether a sweep runs in lockstep.

    Explicit argument wins; otherwise lockstep is on automatically for
    multi-run sweeps of plain :class:`RunSpec` instances with none of
    the features that want per-run supervision (fault plans,
    ``raise_on_violation``, trace recording).  Heterogeneous batches
    (dual-core specs, mixed spec types) stay on the per-run path.
    """
    if lockstep is not None:
        return bool(lockstep)
    if len(specs) < 2:
        return False
    for spec in specs:
        if not isinstance(spec, RunSpec):
            return False
        config = spec.config
        if (
            config.raise_on_violation
            or config.record_trace
            or config.fault_plan is not None
        ):
            return False
    return True


def run_many(
    specs: Sequence[RunSpec],
    processes: Optional[int] = None,
    lockstep: Optional[bool] = None,
    *,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_s: float = 0.1,
    backoff_max_s: float = 30.0,
    partial_results: bool = False,
    journal: Optional[str] = None,
    resume: Optional[str] = None,
) -> List[Outcome]:
    """Execute ``specs`` and return their results in spec order.

    Parameters
    ----------
    specs:
        The runs to execute.
    processes:
        ``None`` or ``1`` -- run serially in this process.  ``N > 1`` --
        fan out over a process pool of ``N`` workers.  Results are
        identical either way: warmups are precomputed in the parent and
        every run is seeded from its spec, so the schedule cannot leak
        into the physics.  Specs that fail to pickle (e.g. a lambda
        policy factory) trigger a warning and a serial fallback.
    lockstep:
        Advance the batch's runs together, servicing their thermal
        steps with one batched call per step group and proving their
        stride attempts together (see :mod:`repro.sim.lockstep`).
        Composes with ``processes``: each worker receives one contiguous
        chunk of specs and runs it in lockstep.  Results are
        bit-identical to ``run_one``.  ``None`` (default) turns lockstep
        on automatically for sweeps of two or more plain
        :class:`RunSpec` runs without fault plans, ``raise_on_violation``
        or trace recording; heterogeneous batches fall back to per-run
        execution.  Pass ``False`` to force the per-run path.
    timeout_s:
        Per-run wall-clock budget, enforced on the pool path (an
        overdue run's worker may be wedged, so the pool is rebuilt and
        unfinished specs are resubmitted).  Serial runs cannot be
        preempted and ignore it.
    retries:
        Attempts allowed *beyond* the first for each failing run, with
        exponential backoff (``backoff_s`` doubling up to
        ``backoff_max_s``, plus deterministic jitter seeded from the
        spec digest).  Because every run is seeded from its spec, a
        retried run that succeeds is bit-identical to an undisturbed
        one.  Injected transient faults (:mod:`repro.sim.faults`) are
        stripped before a retry.
    partial_results:
        Instead of raising on the first failed spec, keep going and
        return a structured :class:`~repro.sim.supervisor.RunFailure`
        in that spec's position.
    journal:
        Path of a JSONL sweep journal; every completed run is appended
        (spec digest -> result) as it finishes, so an interrupted sweep
        can be resumed.  A pooled lockstep sweep journals a worker's
        runs when its whole chunk returns.
    resume:
        Path of a journal from an interrupted sweep: specs whose digest
        already has a recorded result are *not* re-executed, and new
        completions are appended to the same file (unless ``journal``
        names a different one).

    Returns
    -------
    list
        One outcome per spec, in spec order: :class:`RunResult`, or
        :class:`~repro.sim.supervisor.RunFailure` for specs given up on
        when ``partial_results`` is set.
    """
    specs = list(specs)
    if not specs:
        return []
    lockstep = _resolve_lockstep(specs, lockstep)
    started = time.perf_counter()
    obs_on = obs_metrics.enabled()
    # The last report always describes the *latest* sweep: a sweep run
    # with observability off must not leave a predecessor's report
    # behind masquerading as its own.
    global _LAST_REPORT
    _LAST_REPORT = None
    spill_token = obs_spill.begin_collection() if obs_on else None
    if obs_on:
        obs_events.emit(
            "sweep.start",
            n_specs=len(specs),
            processes=processes if processes else 1,
            lockstep=bool(lockstep),
        )

    journal_path = journal if journal is not None else resume
    completed = load_journal(resume) if resume is not None else {}

    # Digest before warmup precomputation: serial and pooled sweeps must
    # agree on each spec's identity.
    outcomes: List[Optional[Outcome]] = [None] * len(specs)
    items: List = []
    for index, spec in enumerate(specs):
        digest = spec_digest(spec)
        if digest in completed:
            outcomes[index] = completed[digest]
        else:
            items.append((index, _SpecState(spec=spec, digest=digest)))

    supervisor = SweepSupervisor(
        timeout_s=timeout_s,
        retries=retries,
        backoff_s=backoff_s,
        backoff_max_s=backoff_max_s,
        partial_results=partial_results,
        journal=SweepJournal(journal_path) if journal_path else None,
    )
    try:
        if items:
            parallel = processes is not None and processes > 1
            if parallel:
                for _, state in items:
                    if state.spec.initial is not None:
                        continue
                    if isinstance(state.spec, RunSpec):
                        state.spec = replace(
                            state.spec,
                            initial=steady_state_for(state.spec.workload),
                        )
                    else:
                        warmed = getattr(
                            state.spec, "precompute_warmup", None
                        )
                        if warmed is not None:
                            state.spec = warmed()
                unpicklable = _first_unpicklable(
                    [state.spec for _, state in items]
                )
                if unpicklable is not None:
                    warnings.warn(
                        f"spec #{unpicklable} is not picklable (lambda "
                        f"policy factory? use functools.partial); running "
                        f"the batch serially",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    parallel = False
            if parallel and lockstep:
                supervisor.run_lockstep_pool(items, outcomes, processes)
            elif parallel:
                supervisor.run_pool(items, outcomes, processes)
            elif lockstep:
                supervisor.run_lockstep_serial(items, outcomes)
            else:
                supervisor.run_serial(items, outcomes)
    finally:
        if supervisor.journal is not None:
            supervisor.journal.close()

    missing = [i for i, outcome in enumerate(outcomes) if outcome is None]
    if missing:  # pragma: no cover - supervisor invariant violation
        raise SimulationError(
            f"sweep supervision lost specs {missing}: every spec must "
            f"end as a result, a failure record, or a raised error"
        )

    wall = time.perf_counter() - started
    _TOTALS.runs += len(outcomes)
    _TOTALS.wall_s += wall
    for spec, outcome in zip(specs, outcomes):
        if isinstance(outcome, RunResult):
            _TOTALS.thermal_steps += (
                outcome.cycles / spec.config.thermal_step_cycles
            )

    if obs_on:
        # Merge the per-run records every executing process spilled
        # (workers via their spill files, this process in memory) with
        # the supervisor's sweep-level telemetry.  Report counters come
        # only from those two sources -- never from merging worker
        # registries -- so serial and pooled sweeps count identically.
        failures = [
            outcome.to_json_dict()
            for outcome in outcomes
            if isinstance(outcome, RunFailure)
        ]
        meta: Dict[str, object] = {
            "processes": processes if processes else 1,
            "lockstep": bool(lockstep),
            "n_specs": len(specs),
            "wall_seconds": wall,
        }
        if supervisor.degradation_reason:
            meta["degradation_reason"] = supervisor.degradation_reason
        _LAST_REPORT = SweepReport.build(
            obs_spill.collect(spill_token),
            failures=failures,
            meta=meta,
            sweep_counters=supervisor.telemetry,
        )
        # The merged records now live in the report; drop the spill
        # files so they cannot accumulate across sweeps.
        obs_spill.discard_merged()
        obs_events.emit(
            "sweep.complete",
            n_specs=len(specs),
            n_failures=len(failures),
            wall_seconds=wall,
        )
    return outcomes


_LAST_REPORT: Optional[SweepReport] = None


def last_sweep_report() -> Optional[SweepReport]:
    """The :class:`~repro.obs.report.SweepReport` of the most recent
    :func:`run_many` call executed with observability enabled, or
    ``None``."""
    return _LAST_REPORT


def _first_unpicklable(specs: Sequence[RunSpec]) -> Optional[int]:
    """Index of the first spec :mod:`pickle` rejects, else ``None``.

    Only the exceptions pickle raises for genuinely unpicklable values
    are treated as "use the serial path": a spec whose ``__reduce__``
    (or a buggy policy factory attribute) raises something else is a
    real defect and propagates, rather than being silently reclassified
    as a serial-fallback condition.
    """
    for i, spec in enumerate(specs):
        try:
            pickle.dumps(spec)
        except (pickle.PicklingError, TypeError, AttributeError, ValueError):
            return i
    return None
