"""Lockstep batched execution of many simulation runs in one process.

The process-pool path in :mod:`repro.sim.batch` parallelises *across*
runs; this module instead advances many runs *together* in a single
process.  Every run is the engine's :meth:`~repro.sim.engine.
SimulationEngine.iter_run` generator, which suspends at each thermal
step and asks the driver to advance its solver.  The
:class:`LockstepEngine` collects the pending requests of all live runs
and yields them as one *round* (a mapping of index -> request); the
contract driver (:func:`~repro.sim.contract.service_round`) groups the
compatible ones (same shared network, same dt) and
services each group with one batched call to
:func:`~repro.thermal.solver.step_lockstep`; odd time steps and the
last survivors of a draining batch are serviced individually.  Before
each round, the runs waiting on an event-driven stride attempt are
yielded as stride-only sub-rounds, whose proofs the driver batches
(:func:`~repro.sim.stride.serve_strides`); every run resumes as soon
as its attempt is served, so its next request joins the same round.
Each stride verdict and each batched step row is computed exactly as
for the run alone, and per-run physics is untouched -- sensing,
policy, power and accounting all run inside the generators -- so
lockstep results are bit-identical to :func:`~repro.sim.batch.run_one`
whichever runs share a batch.

Because runs under DVS change their cycle time independently, grouping
is re-derived every round from the requests actually pending: runs
drift apart in simulated time but still batch whenever their current
step lengths coincide (the common case -- most policies hold the
nominal frequency for long stretches).

Specs with ``raise_on_violation``, and specs that are not single-core
:class:`~repro.sim.batch.RunSpec` instances (e.g. dual-core specs,
whose engines own private thermal networks and cannot share a step
group), fall back to the serial runner: an emergency must abort only
its own run, not the whole batch.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.obs import heartbeat as obs_heartbeat
from repro.obs import metrics as obs_metrics
from repro.sim.contract import SimEngine, drive
from repro.sim.results import RunResult
from repro.sim.stride import StrideTask


class LockstepEngine(SimEngine):
    """Advances a batch of specs together under the engine contract.

    :meth:`iter_run` yields *rounds* -- mappings of spec index to the
    request that run is suspended on -- and expects a mapping of
    replies back; a round made only of stride requests comes first
    whenever some run is waiting on one.  The batch's result (a list of
    :class:`~repro.sim.results.RunResult` in spec order) is the
    generator's return value.

    ``on_finish``, when given, is called as ``on_finish(index, result)``
    the moment each run ends, in finishing order, so a supervisor can
    record (and journal) it before the batch is over.

    Each run gets its own record (:mod:`repro.obs.heartbeat`), as under
    :func:`~repro.sim.batch.run_one`.  The round counters describe the
    batch, not a run: with observability on, :attr:`counters` holds
    ``engine.lockstep.rounds``, ``.rows`` and ``.stride_rounds`` of the
    last :meth:`iter_run` (empty with it off), and they also go to the
    registry.

    The engine holds no state between runs beyond the spec list and
    those counters (per-run engines, solvers and sensor arrays are
    built fresh inside every :meth:`iter_run`), so :meth:`reset` only
    discards a partially driven :meth:`build`/:meth:`step` session.
    """

    def __init__(
        self,
        specs,
        on_finish: Optional[Callable[[int, RunResult], None]] = None,
    ):
        self._specs = list(specs)
        self._on_finish = on_finish
        self.counters: Dict[str, float] = {}

    @property
    def specs(self) -> list:
        """The batch's specs, in result order."""
        return list(self._specs)

    def reset(self) -> None:
        if self._active is not None:
            self._active.close()
        self._active = None
        self._pending_reply = None

    def run(self, budget=None, initial=None, settle_time_s: float = 0.0):
        """Execute the batch and return results in spec order."""
        return drive(self.iter_run(budget, initial, settle_time_s))

    def iter_run(self, budget=None, initial=None, settle_time_s: float = 0.0):
        """Generator form of :meth:`run`.

        ``budget``/``initial``/``settle_time_s`` are unused: every spec
        carries its own.  They remain in the signature so the lockstep
        engine satisfies the :class:`~repro.sim.contract.SimEngine`
        contract verbatim.
        """
        from repro.sim.batch import (
            _begin_record,
            _build_policy,
            _default_substrate,
            _resolve_workload,
            run_one,
            steady_state_for,
        )
        from repro.sim.batch import RunSpec
        from repro.sim.engine import SimulationEngine
        from repro.sim.faults import fire_prerun_faults

        specs = self._specs
        on_finish = self._on_finish
        results: List[Optional[RunResult]] = [None] * len(specs)
        generators: Dict[int, object] = {}
        pending: Dict[int, tuple] = {}
        # Records of the interleaved runs.  Each one is opened just
        # before its generator's creation-advance (the engine captures
        # the open record when its body first runs) and released right
        # after, so concurrent runs each hold their own; finish happens
        # when the run completes or in the finally below on an aborted
        # batch.
        records: Dict[int, object] = {}
        obs_on = obs_metrics.enabled()
        self.counters = {}
        error: Optional[str] = None
        self._emit("run.start", 0.0, runs=len(specs))

        # Runs whose pending request is a stride attempt.
        strides: Dict[int, tuple] = {}
        # Execution-path counts of the batch.
        rounds = stride_rounds = rows = 0

        def advance(index, reply):
            """Resume one run; note a stride request, finish a run."""
            try:
                request = generators[index].send(reply)
            except StopIteration as stop:
                results[index] = stop.value
                pending.pop(index, None)
                del generators[index]
                obs_heartbeat.finish(records.pop(index, None))
                if on_finish is not None:
                    on_finish(index, stop.value)
                return
            pending[index] = request
            if isinstance(request[1], StrideTask):
                strides[index] = request

        floorplan, hotspot, power_model = _default_substrate()
        try:
            for index, spec in enumerate(specs):
                if not isinstance(spec, RunSpec) or spec.config.raise_on_violation:
                    # Engines with private thermal networks gain nothing
                    # from step grouping, and raise_on_violation must
                    # abort one run, not the round -- both take the
                    # one-spec path.
                    results[index] = run_one(spec)
                    if on_finish is not None:
                        on_finish(index, results[index])
                    continue
                fire_prerun_faults(spec.config.fault_plan, spec.seed)
                workload = _resolve_workload(spec)
                initial_vec = spec.initial
                if initial_vec is None:
                    initial_vec = steady_state_for(workload)
                engine = SimulationEngine(
                    workload,
                    policy=_build_policy(spec),
                    floorplan=floorplan,
                    hotspot=hotspot,
                    power_model=power_model,
                    config=spec.config,
                    seed=spec.seed,
                )
                generator = engine.iter_run(
                    spec.instructions,
                    initial=np.array(initial_vec, dtype=float, copy=True),
                    settle_time_s=spec.settle_time_s,
                )
                generators[index] = generator
                record = _begin_record(spec)
                if record is not None:
                    records[index] = record
                advance(index, None)
                obs_heartbeat.release(record)

            while pending:
                # Stride attempts are proven first, in sub-rounds of
                # their own; every run resumes as soon as its attempt is
                # served (jumped or not), so its next request joins this
                # round and the runs stay in phase.
                while strides:
                    batch = dict(strides)
                    strides.clear()
                    replies = yield batch
                    for index in sorted(replies):
                        advance(index, replies[index])
                    if obs_on:
                        stride_rounds += 1
                if not pending:
                    break
                if obs_on:
                    rounds += 1
                    rows += len(pending)
                replies = yield dict(pending)
                for index in sorted(replies):
                    advance(index, replies[index])
        except BaseException as exc:
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            # One run failing (or the driver itself raising) must not
            # leak the other runs' suspended generators: close them all
            # so their engines unwind now, not at a garbage collection
            # of unknowable timing.  On clean completion the dict is
            # already empty.
            for generator in generators.values():
                try:
                    generator.close()
                except Exception:  # pragma: no cover - defensive
                    pass
            generators.clear()
            pending.clear()
            for record in records.values():
                obs_heartbeat.finish(record, error=error or "aborted")
            records.clear()
            if obs_on:
                self.counters = {
                    "engine.lockstep.rounds": float(rounds),
                    "engine.lockstep.stride_rounds": float(stride_rounds),
                    "engine.lockstep.rows": float(rows),
                }
                for name, value in self.counters.items():
                    obs_metrics.REGISTRY.counter(name).inc(value)
        self._emit("run.complete", 0.0, runs=len(specs))
        return results


def run_lockstep(
    specs,
    on_finish: Optional[Callable[[int, RunResult], None]] = None,
    counters: Optional[Dict[str, float]] = None,
) -> List[RunResult]:
    """Execute ``specs`` in lockstep and return results in spec order.

    Bit-identical to ``[run_one(s) for s in specs]`` (see module
    docstring); the wins are shared per-step overhead and batched
    stride proofs and dense steps across the batch.  ``on_finish`` is
    :class:`LockstepEngine`'s per-run completion callback; ``counters``,
    when given, receives the batch's :attr:`LockstepEngine.counters`,
    also when the batch fails.
    """
    engine = LockstepEngine(specs, on_finish)
    try:
        return engine.run()
    finally:
        if counters is not None:
            counters.update(engine.counters)


def run_chunk(specs) -> Tuple[List[RunResult], Dict[str, float]]:
    """One pool worker's lockstep chunk: its results in spec order and
    its round counters (see :func:`run_lockstep`)."""
    counters: Dict[str, float] = {}
    return run_lockstep(specs, counters=counters), counters
