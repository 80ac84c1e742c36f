"""The engine contract: one stepping protocol for every simulation loop.

Three step loops grew in this tree -- the single-core generator engine
(:class:`~repro.sim.engine.SimulationEngine`), the batched lockstep
runner (:mod:`repro.sim.lockstep`) and the dual-core engine
(:mod:`repro.multicore.engine`) -- and only the first was wired to the
batch/supervisor/fault/observability stack.  This module extracts the
protocol they all share, so the next engine (N-core, a native backend)
implements a tested contract instead of a fourth copy-pasted loop.

The contract is generator-based.  :meth:`SimEngine.iter_run` yields
*thermal-step requests* and receives the stepped node-temperature
vector back; everything else -- sensing, policy, power, accounting --
runs inside the generator.  A request is either

* a tuple ``(solver, power, dt, count)``: advance ``solver`` by
  ``count`` steps of ``dt`` seconds under the node ``power`` vector
  (``count == 1`` is a plain step, ``count > 1`` a constant-power
  fast-forward), replying with the solver's state array;
* a tuple ``(solver, task, dt, count)`` where ``task`` is a
  :class:`~repro.sim.kernel.DenseSpanTask`: execute ``count`` fused
  dense steps via the task's pre-bound closure (the engine keeps
  ownership of sampling/power/accounting; the driver just invokes the
  span), replying with the solver's state array;
* a tuple ``(solver, task, dt, count)`` where ``task`` is a
  :class:`~repro.sim.stride.StrideTask`: prove that a closed-form jump
  of ``count`` steps crosses no threshold, write the verdict into the
  task and, when accepted, apply the jump, replying with the solver's
  state array (``None`` when not accepted); or
* a mapping ``{key: request}``: a *round* of requests from many
  interleaved runs (the lockstep engine), replying with
  ``{key: reply}``.  The driver batches the compatible single-step
  requests of a round into one call
  (:func:`~repro.thermal.solver.step_lockstep`) and proves the round's
  stride tasks together (:func:`~repro.sim.stride.serve_strides`).

Because the driver owns nothing but solver stepping, a run driven
incrementally through :meth:`SimEngine.build` / :meth:`SimEngine.step`
is bit-identical to :meth:`SimEngine.run` -- the conformance suite
(``tests/sim/test_engine_contract.py``) pins that, along with
reset-reentrancy and seed determinism, for every engine in the tree.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import SimulationError
from repro.obs import flightrec as obs_flightrec
from repro.obs import trace as obs_trace
from repro.sim.kernel import DenseSpanTask
from repro.sim.stride import StrideTask, serve_stride, serve_strides


@dataclass(frozen=True)
class EngineEvent:
    """One lifecycle notification published to engine subscribers.

    ``name`` is a dotted identifier (``run.start``, ``run.complete``,
    ``warmup.nonconverged``, ``multicore.swap`` ...), ``time_s`` the
    simulation time it describes (0 for pre-run events), ``payload``
    free-form scalar context.
    """

    name: str
    time_s: float
    payload: Mapping[str, Any] = field(default_factory=dict)


def service_request(request: Tuple) -> Any:
    """Advance one solver per a ``(solver, power, dt, count)`` request."""
    solver, power, dt, count = request
    if isinstance(power, StrideTask):
        return serve_stride(request)
    if isinstance(power, DenseSpanTask):
        return power.run(solver)
    if count == 1:
        return solver.step(power, dt, copy=False)
    return solver.fast_forward(power, dt, count, copy=False)


def service_round(requests: Mapping) -> Dict:
    """Service a mapping of step requests, batching compatible ones.

    Single-step requests sharing (stepper class, network identity, dt)
    advance together through one
    :func:`~repro.thermal.solver.step_lockstep` call, each row
    bit-identical to servicing it alone.  Stride
    requests are proven together by
    :func:`~repro.sim.stride.serve_strides`, each with the verdict it
    would get alone.  Fast-forwards, fused dense spans and groups of one
    go through the solver's own methods.
    """
    from repro.thermal.solver import step_lockstep

    groups: Dict[Tuple, List] = {}
    singles: List = []
    strides: List = []
    for key, (solver, _power, dt, count) in requests.items():
        if isinstance(_power, StrideTask):
            strides.append(key)
        elif count == 1 and not isinstance(_power, DenseSpanTask):
            groups.setdefault((type(solver), id(solver.network), dt), []).append(key)
        else:
            singles.append(key)
    replies: Dict = {}
    if strides:
        served = serve_strides([requests[key] for key in strides])
        replies.update(zip(strides, served))
    for keys in groups.values():
        if len(keys) == 1:
            singles.extend(keys)
            continue
        solvers = [requests[k][0] for k in keys]
        powers = [requests[k][1] for k in keys]
        dt = requests[keys[0]][2]
        for key, temps in zip(keys, step_lockstep(solvers, powers, dt)):
            replies[key] = temps
    for key in singles:
        replies[key] = service_request(requests[key])
    return replies


def drive(steps) -> Any:
    """Run an :meth:`SimEngine.iter_run` generator to completion.

    Services every yielded request (tuples and rounds) and returns the
    generator's return value.  A request that is not a tuple is a round
    (``isinstance(request, tuple)`` is much cheaper than an instance
    check against ``typing.Mapping``).  With step timing enabled
    (observability on), tuple requests record under the
    ``step.thermal`` span exactly as the pre-contract engine loop did;
    stride requests record under ``step.stride`` (proof and jump);
    fused :class:`~repro.sim.kernel.DenseSpanTask` requests
    record under ``step.kernel`` instead (the span covers the whole
    fused pipeline -- the kernel attributes its inner sections itself,
    so ``step.kernel`` is a boundary measure, not an additive one).  If
    servicing raises, the generator is closed so the engine unwinds
    immediately instead of at garbage collection.
    """
    from repro.sim.engine import step_timing_enabled

    reply: Any = None
    try:
        if step_timing_enabled():
            record = obs_trace.record
            try:
                while True:
                    request = steps.send(reply)
                    if not isinstance(request, tuple):
                        reply = service_round(request)
                        continue
                    t0 = perf_counter()
                    reply = service_request(request)
                    task = request[1]
                    if isinstance(task, DenseSpanTask):
                        record("step.kernel", perf_counter() - t0)
                    elif isinstance(task, StrideTask):
                        record("step.stride", perf_counter() - t0)
                    else:
                        record("step.thermal", perf_counter() - t0)
            except StopIteration as stop:
                return stop.value
        try:
            while True:
                request = steps.send(reply)
                if isinstance(request, tuple):
                    reply = service_request(request)
                else:
                    reply = service_round(request)
        except StopIteration as stop:
            return stop.value
    except BaseException:
        steps.close()
        raise


class SimEngine(ABC):
    """The contract every simulation step loop implements.

    Concrete engines provide :meth:`iter_run` (the physics, as a
    request-yielding generator) and :meth:`reset` (restore construction
    state so a rebuilt run is bit-identical); the base class provides
    the drivers -- :meth:`run` for one-shot execution, :meth:`build` /
    :meth:`step` for incremental external driving -- and the
    :meth:`subscribe` event channel.
    """

    _active = None
    _pending_reply: Any = None
    _subscribers: Optional[List[Callable[[EngineEvent], None]]] = None

    @abstractmethod
    def iter_run(
        self,
        budget,
        initial=None,
        settle_time_s: float = 0.0,
    ):
        """Generator form of :meth:`run`.

        ``budget`` is engine-specific (an instruction count for the
        single-core engine, a duration for the multicore engine, unused
        by the lockstep batch whose specs carry their own budgets).
        Yields thermal-step requests (see module docstring) and returns
        the engine's result object via ``StopIteration.value``.
        """

    @abstractmethod
    def reset(self) -> None:
        """Restore all run-to-run mutable state to construction values.

        After ``reset()``, a repeated :meth:`run` with the same
        arguments must be bit-identical to the first -- including
        sensor noise streams and policy state.
        """

    def run(self, budget, initial=None, settle_time_s: float = 0.0):
        """Execute one full run and return its result."""
        return drive(self.iter_run(budget, initial, settle_time_s))

    # --- incremental driving -----------------------------------------------

    def build(self, budget, initial=None, settle_time_s: float = 0.0) -> None:
        """Prepare a run for incremental :meth:`step` driving.

        Discards any previously built run.
        """
        if self._active is not None:
            self._active.close()
        self._active = self.iter_run(budget, initial, settle_time_s)
        self._pending_reply = None

    def step(self):
        """Service one pending request of the built run.

        Returns ``None`` while the run is in flight and the engine's
        result object once it completes (after which :meth:`build` must
        be called again).  Results are bit-identical to :meth:`run`:
        this is the same generator serviced one request at a time.
        """
        if self._active is None:
            raise SimulationError("no run built: call build() before step()")
        try:
            request = self._active.send(self._pending_reply)
        except StopIteration as stop:
            self._active = None
            self._pending_reply = None
            return stop.value
        except BaseException:
            self._active = None
            self._pending_reply = None
            raise
        if isinstance(request, tuple):
            self._pending_reply = service_request(request)
        else:
            self._pending_reply = service_round(request)
        return None

    # --- events ------------------------------------------------------------

    def subscribe(self, handler: Callable[[EngineEvent], None]) -> Callable[[], None]:
        """Register ``handler`` for :class:`EngineEvent` notifications.

        Returns an unsubscribe callable.  Handlers run synchronously in
        emission order; they must not mutate engine state.
        """
        if self._subscribers is None:
            self._subscribers = []
        subscribers = self._subscribers
        subscribers.append(handler)

        def unsubscribe() -> None:
            try:
                subscribers.remove(handler)
            except ValueError:
                pass

        return unsubscribe

    def _emit(self, name: str, time_s: float, **payload) -> None:
        """Publish an event to subscribers (no-op with none attached).

        Also noted into the crash flight recorder: engine lifecycle
        events (``run.start`` / ``run.complete`` and friends) are
        per-run cold-path calls, exactly what a post-mortem ring should
        hold even with observability off."""
        obs_flightrec.note("engine." + name, time_s=time_s, **payload)
        if not self._subscribers:
            return
        event = EngineEvent(name=name, time_s=time_s, payload=payload)
        for handler in list(self._subscribers):
            handler(event)
