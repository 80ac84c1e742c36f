"""Event-driven strides: the proof a run requests and the driver batches.

Between DTM decision points (sensor samples) only leakage can move a
run's power, so the engine jumps such spans in closed form once it is
proved that the jump crosses no trigger or emergency threshold
(docs/MODELING.md section 8).  The engine does not run that proof
itself.  Its :class:`StridePlanner` packs the run's inputs into a
:class:`StrideTask` and yields ``(solver, task, dt, k)`` through the
engine contract.  The driver -- :func:`repro.sim.contract.service_request`
for one run, :func:`~repro.sim.contract.service_round` for a lockstep
round -- hands the tasks to :func:`serve_strides`, which proves all
tasks over one network with one row-batched guess pass (plus one over
the first segment of the spans that must be split) and one row-batched
widened pass, writes each verdict back into its task and applies the
accepted jumps through
:meth:`~repro.thermal.solver.ExponentialSolver.fast_forward`.

A row's verdict does not depend on which rows share its batch: the two
:class:`~repro.thermal.solver.SpanProbe` passes are bit-identical per
row, and everything else here is elementwise, a last-axis reduction or
per-row scalar logic.  So a run strides exactly as it would alone.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

__all__ = [
    "ACCEPT",
    "COLD",
    "REJECT",
    "REJECT_REASONS",
    "SEGMENT",
    "StridePlanner",
    "StrideTask",
    "WARM",
    "serve_stride",
    "serve_strides",
]

# Task modes: how the drift band of an attempt is obtained.
COLD = "cold"
"""Guess the band from the unwidened envelope over the whole span."""
WARM = "warm"
"""Reuse the band the last accepted proof closed (same operating point,
frozen power within the drift tolerance of the one it was proven at)."""
SEGMENT = "segment"
"""One segment of a split span: guess the band over the segment and
prove it without another split."""

# Verdicts.
ACCEPT = "accept"
REJECT = "reject"

# Rejection reasons, in the order the proof can hit them.
REJECT_REASONS = ("short", "straddle", "closure", "threshold")
SHORT, STRADDLE, CLOSURE, THRESHOLD = REJECT_REASONS

SLACK_W = 1e-9
"""Absolute slack added to the widened drift band."""

_max = np.maximum.reduce
_SIGN = np.array([[1.0], [-1.0]])


class StrideTask:
    """One stride attempt of one run, shipped through the engine contract.

    The inputs are set by the run's :class:`StridePlanner` before each
    yield: the node ``power`` vector frozen for the span (the engine's
    own buffer; ``power_row`` is the same as a ``(1, n)`` row), its
    block part and leakage part (``frozen``, rows ``blocks`` and
    ``leak0``), the operating point, the span length ``span_s``, whether
    the run is ``measuring``, the ``mode`` and the drift band (``band``:
    the allowed rise and fall of each block's leakage, read by warm
    tasks, overwritten by the guess pass otherwise).  ``frozen`` and
    ``band`` are ``(1, 2, m)`` rows, so a batch stacks them along the
    first axis.

    :func:`serve_strides` writes the verdict: ``ACCEPT`` with the span's
    emergency ``violations`` and time above the trigger ``trigger_s``
    (the jump is then already applied), or ``REJECT`` with a ``reason``
    from :data:`REJECT_REASONS`.  A span whose drift exceeds the
    tolerance is split into ``n_seg`` segments (``n_seg`` is 1
    otherwise); the verdict is then that of its first segment, proven
    as a ``SEGMENT`` task over ``ceil(count / n_seg)`` steps, and the
    engine asks for the others one segment task at a time.
    """

    __slots__ = (
        "probe",
        "leakage",
        "tol",
        "trigger_c",
        "emergency_c",
        "raise_on_violation",
        "frozen",
        "blocks",
        "leak0",
        "band",
        "power",
        "power_row",
        "voltage",
        "frequency",
        "span_s",
        "measuring",
        "mode",
        "verdict",
        "reason",
        "n_seg",
        "violations",
        "trigger_s",
    )

    def __init__(
        self,
        probe,
        leakage,
        tol: float,
        trigger_c: float,
        emergency_c: float,
        raise_on_violation: bool,
    ):
        m = probe.basis.rows.size
        self.probe = probe
        self.leakage = leakage
        self.tol = tol
        self.trigger_c = trigger_c
        self.emergency_c = emergency_c
        self.raise_on_violation = raise_on_violation
        self.frozen = np.empty((1, 2, m))
        self.blocks, self.leak0 = self.frozen[0]
        self.band = np.empty((1, 2, m))
        self.power = self.power_row = None
        self.voltage = self.frequency = self.span_s = 0.0
        self.measuring = False
        self.arm(COLD)

    def arm(self, mode: str) -> None:
        """Set the mode and clear the previous verdict."""
        self.mode = mode
        self.verdict = self.reason = None
        self.n_seg = 1
        self.violations = 0
        self.trigger_s = 0.0


class StridePlanner:
    """One run's stride state: its task, scratch and drift-band cache.

    While consecutive attempts keep passing the closure at an unchanged
    operating point, the band proven last is reused (a ``WARM`` task)
    instead of re-guessed from a fresh unwidened envelope.  The closure
    re-verifies it every attempt, so the cache can go stale but never
    unsound.  The planner also counts accepted and rejected attempts,
    the latter by reason.
    """

    def __init__(
        self,
        solver,
        rows: np.ndarray,
        power_model,
        tol: float,
        trigger_c: float,
        emergency_c: float,
        raise_on_violation: bool,
    ):
        self._rows = rows
        self._dynamic = power_model.dynamic_vector_w
        self.task = StrideTask(
            solver.span_probe(rows),
            power_model.leakage_vector_w,
            tol,
            trigger_c,
            emergency_c,
            raise_on_violation,
        )
        m = len(rows)
        self._dyn = np.empty(m)
        self._tmp = np.empty(m)
        self._band_ok = False
        self._band_act = None
        self._band_v = self._band_f = 0.0
        self._band_blocks = np.empty(m)
        self._act = None
        self.taken = 0
        self.rejected: Dict[str, int] = dict.fromkeys(REJECT_REASONS, 0)

    def attempt(
        self,
        power: np.ndarray,
        acts: np.ndarray,
        voltage: float,
        frequency: float,
        clock_gate,
        actuation,
        span_s: float,
        measuring: bool,
    ) -> StrideTask:
        """Arm the task for a span of ``span_s`` under the node ``power``
        just stepped with (dynamic part from ``acts`` at the operating
        point and ``clock_gate``)."""
        task = self.task
        blocks = task.blocks
        self._dynamic(acts, voltage, frequency, clock_gate, out=self._dyn)
        # The frozen power comes from the engine's own node buffer: the
        # power model's output buffer is shared by every engine over one
        # substrate, which overwrite it in a lockstep batch.
        power.take(self._rows, out=blocks)
        np.subtract(blocks, self._dyn, out=task.leak0)
        # The cached band only predicts this span when the operating
        # point is the one it was proven under and the frozen power has
        # barely moved; otherwise a warm attempt would mostly fail the
        # closure after paying for the widened pass (duty-cycled
        # policies re-actuate every period, and thrash it).
        warm = (
            self._band_ok
            and actuation is self._band_act
            and voltage == self._band_v
            and frequency == self._band_f
        )
        if warm:
            tmp = self._tmp
            np.subtract(blocks, self._band_blocks, out=tmp)
            np.abs(tmp, out=tmp)
            warm = float(_max(tmp)) <= task.tol
        if not warm:
            self._band_ok = False
        if power is not task.power:
            task.power, task.power_row = power, power[None]
        self._act = actuation
        task.voltage = voltage
        task.frequency = frequency
        task.span_s = span_s
        task.measuring = measuring
        task.arm(WARM if warm else COLD)
        return task

    def segment(self, power: np.ndarray, span_s: float) -> StrideTask:
        """Arm the task for a later segment of a split span, under the
        same ``power`` buffer re-evaluated at the segment head."""
        task = self.task
        power.take(self._rows, out=task.blocks)
        np.subtract(task.blocks, self._dyn, out=task.leak0)
        task.span_s = span_s
        task.arm(SEGMENT)
        return task

    def settle(self) -> str:
        """Count the driver's verdict and update the band cache."""
        task = self.task
        verdict = task.verdict
        if verdict == ACCEPT:
            self.taken += 1
            # The closure just proved this band over this span: reuse
            # it on the next attempt at this operating point.
            self._band_ok = True
            self._band_act = self._act
            self._band_v = task.voltage
            self._band_f = task.frequency
            self._band_blocks[:] = task.blocks
        elif verdict == REJECT:
            self.rejected[task.reason] += 1
            if task.reason != SHORT:
                # Re-guess from a fresh envelope next time: the band was
                # too small (closure failed) or wide enough to blur a
                # threshold decision a tighter guess might still make.
                self._band_ok = False
        return verdict


def serve_stride(request: tuple):
    """Prove one ``(solver, task, dt, k)`` stride request and apply the
    jump if accepted: :func:`serve_strides` for a batch of one."""
    _prove((request,))
    return _jump(request)


def serve_strides(requests: Sequence[tuple]) -> List:
    """Prove ``(solver, task, dt, k)`` stride requests and apply the
    accepted jumps.

    Tasks whose probes share a basis (one network, one row set) are
    proven together.  Returns one reply per request, in order: the
    solver's state array after an accepted jump, ``None`` otherwise.
    """
    groups: Dict[int, list] = {}
    for request in requests:
        groups.setdefault(id(request[1].probe.basis), []).append(request)
    for group in groups.values():
        _prove(group)
    return [_jump(request) for request in requests]


def _jump(request: tuple):
    """Apply a proven request's accepted jump (over the first of
    ``n_seg`` segments when split): the solver's state, else ``None``."""
    solver, task, dt, count = request
    if task.verdict != ACCEPT:
        return None
    steps = -(-count // task.n_seg)
    return solver.fast_forward(task.power, dt, steps, copy=False)


def _leakage(tasks: Sequence[StrideTask], temps: np.ndarray) -> np.ndarray:
    """Leakage of stacked ``(R, 2, m)`` block temperatures, in place, row
    ``i`` at ``tasks[i]``'s operating point."""
    first = tasks[0]
    leakage, voltage, frequency = first.leakage, first.voltage, first.frequency
    for task in tasks:
        if (
            task.leakage != leakage
            or task.voltage != voltage
            or task.frequency != frequency
        ):
            break
    else:
        return leakage(temps, voltage, frequency, out=temps)
    ops: Dict[tuple, List[int]] = {}
    for i, task in enumerate(tasks):
        key = (task.leakage, task.voltage, task.frequency)
        ops.setdefault(key, []).append(i)
    for (leakage, voltage, frequency), index in ops.items():
        part = temps[index]
        temps[index] = leakage(part, voltage, frequency, out=part)
    return temps


def _guess(probe, tasks, rows, temps, decay, leak0, band, hot) -> None:
    """The guess pass over ``rows`` of the group: the unwidened
    constant-power envelope of each row gives its drift band, written
    into ``band`` and the row's task, and its ``[max upper, max lower]``
    bound, written into ``hot``."""
    if len(rows) == len(tasks):
        g_tasks, g_band = tasks, band
    else:
        g_tasks = [tasks[i] for i in rows]
        temps, leak0 = temps[rows], leak0[rows]
        g_band = np.empty((len(rows), 2, leak0.shape[1]))
    power = np.concatenate([task.power_row for task in g_tasks])
    envelope = probe.bounds(temps, power, decay)
    g_hot = _max(envelope, axis=2).tolist()
    leak = _leakage(g_tasks, envelope)
    np.subtract(leak[:, 0], leak0, out=g_band[:, 0])
    np.subtract(leak0, leak[:, 1], out=g_band[:, 1])
    np.maximum(g_band, 0.0, out=g_band)
    if g_band is not band:
        band[rows] = g_band
    for j, i in enumerate(rows):
        tasks[i].band[0] = g_band[j]
        hot[i] = g_hot[j]


def _prove(group: Sequence[tuple]) -> None:
    """Write the verdict of every request in ``group`` (one basis)."""
    count = len(group)
    tasks = [request[1] for request in group]
    probe = tasks[0].probe
    temps, decay = probe.gather(
        [request[0] for request in group], [task.span_s for task in tasks]
    )
    frozen = np.concatenate([task.frozen for task in tasks])
    band = np.concatenate([task.band for task in tasks])
    steps = [request[3] for request in group]
    cold = [i for i, task in enumerate(tasks) if task.mode != WARM]
    leak0 = frozen[:, 1]
    hot: list = [None] * count
    if cold:
        _guess(
            probe, tasks, cold, temps,
            decay if len(cold) == count else decay[cold],
            leak0, band, hot,
        )
    drift = _max(band, axis=(1, 2)).tolist()

    # Split a span whose drift exceeds the tolerance so each segment's
    # frozen-power error stays below it; its first segment is proven
    # here, as a segment task over the same frozen power.
    split = []
    for i, task in enumerate(tasks):
        if task.mode == SEGMENT:
            continue
        tol = task.tol
        n_seg = 1 if drift[i] <= tol else math.ceil(drift[i] / tol)
        if steps[i] // n_seg < 2:
            task.verdict, task.reason = REJECT, SHORT
            continue
        if n_seg == 1:
            continue
        task.n_seg = n_seg
        task.mode = SEGMENT
        steps[i] = -(-steps[i] // n_seg)
        task.span_s = steps[i] * group[i][2]
        split.append(i)
    if split:
        temps, decay = probe.gather(
            [request[0] for request in group], [task.span_s for task in tasks]
        )
        _guess(
            probe, tasks, split, temps,
            decay if len(split) == count else decay[split],
            leak0, band, hot,
        )

    widen = []
    for i, task in enumerate(tasks):
        if task.verdict is not None:
            continue
        if task.measuring and task.mode != WARM:
            # A fresh guess envelope that already straddles a threshold
            # can only widen outward, so classification would reject:
            # bail out before paying for the widened pass.
            g_hi, g_lo = hot[i]
            trigger_c, emergency_c = task.trigger_c, task.emergency_c
            if g_hi > trigger_c >= g_lo or g_hi > emergency_c >= g_lo:
                task.verdict, task.reason = REJECT, STRADDLE
                continue
        widen.append(i)
    if not widen:
        return

    # Widened pass: constant powers p0 + b_hi and p0 - b_lo pinch any
    # power trajectory inside the band (Kamke-Mueller comparison; the
    # discrete propagator is monotone because e^{-C^-1 L dt} >= 0
    # elementwise).  One stacked pass computes the upper envelope of the
    # inflated power and the lower envelope of the deflated one.
    if len(widen) < count:
        tasks = [tasks[i] for i in widen]
        temps, decay = temps[widen], decay[widen]
        frozen, band = frozen[widen], band[widen]
        count = len(widen)
    bound = band * 2.0
    bound += SLACK_W
    # (b_hi, -b_lo): negation is exact, so p0 + (-b_lo) == p0 - b_lo.
    signed = bound * _SIGN
    signed += frozen[:, :1]
    envelope = probe.widened(temps, signed, decay)
    widened_hot = _max(envelope, axis=2).tolist()
    # A-posteriori closure: leakage anywhere in the widened box stays
    # inside the assumed band, so the box provably traps the true
    # drifting-power trajectory.  (leak_hi - leak0, leak_lo - leak0)
    # times (1, -1) is (leak_hi - leak0, leak0 - leak_lo) exactly.
    excess = _leakage(tasks, envelope)
    excess -= frozen[:, 1:]
    excess *= _SIGN
    closed = np.logical_and.reduce(excess <= bound, axis=(1, 2)).tolist()
    for j, task in enumerate(tasks):
        if not closed[j]:
            task.verdict, task.reason = REJECT, CLOSURE
            continue
        task.verdict = ACCEPT
        if task.measuring:
            # Threshold classification: jump only when every jumped
            # step's accounting is provably exact.
            hi, lo = widened_hot[j]
            if hi <= task.trigger_c:
                pass
            elif lo > task.emergency_c and not task.raise_on_violation:
                task.violations = steps[widen[j]]
                task.trigger_s = task.span_s
            elif lo > task.trigger_c and hi <= task.emergency_c:
                task.trigger_s = task.span_s
            else:
                task.verdict, task.reason = REJECT, THRESHOLD
