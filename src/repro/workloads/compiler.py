"""Workload trace compiler: phase schedules lowered to contiguous arrays.

The interval engine (:mod:`repro.uarch.interval`) interprets a workload
step by step: every thermal step it looks up the current phase, walks a
``{block: activity}`` dict through a memoised scaling model, and builds
an :class:`~repro.uarch.interval.IntervalSample` dataclass.  At ~10 us
of physics per step that interpretation overhead is a measurable slice
of sweep wall time (see docs/MODELING.md section 7).

This module *compiles* the workload side once per run instead:

* :class:`CompiledSchedule` lowers a phase sequence into contiguous
  NumPy arrays -- per-phase base-activity matrix in a fixed block
  order, per-block rate-class indices, per-phase performance scalars
  and cumulative phase-boundary instruction indices;
* :class:`CompiledIntervalModel` is a drop-in replacement for
  :class:`~repro.uarch.interval.IntervalPerformanceModel` whose fast
  path returns a reused :class:`CompiledSample` carrying the activity
  vector directly -- no dict, no dataclass allocation, no per-block
  Python loop -- and whose :meth:`~CompiledIntervalModel.phase_run` /
  :meth:`~CompiledIntervalModel.commit` pair steps a whole phase run
  at once;
* the compiled activity math is *bit-identical* to the interpreted
  path: both compute ``min(1.0, base * factor)`` in IEEE double
  precision, so the power vectors (and therefore every downstream
  temperature, violation count and slowdown) match exactly; the
  compiler tests walk every SPEC workload through both models and
  compare each activity vector.

Phase-boundary-crossing intervals (rare: phases span millions of
instructions, intervals span thousands of cycles) delegate to the
interpreted slow path and translate its blended dict, so the compiled
model never re-implements the blending arithmetic it would have to keep
bit-compatible.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError, WorkloadError
from repro.uarch.activity import _RATE_CLASS
from repro.uarch.interval import (
    DtmActuation,
    IntervalPerformanceModel,
    PhasePerformance,
)

_CLASS_INDEX = {"F": 0, "I": 1, "C": 2}

ACTIVITY_CACHE_SIZE = 1024
"""Bound on cached per-(phase, rates) activity vectors, mirroring the
interpreted :class:`~repro.uarch.activity.ActivityModel` cache bound."""


class CompiledSchedule:
    """A workload's phase schedule lowered to contiguous arrays.

    Parameters
    ----------
    phases:
        The workload's phases in execution order (each carrying
        ``base_activities`` and a ``speculation_waste`` via its
        activity model, as :class:`~repro.workloads.phases.Phase` does).
    block_names:
        The block order every activity vector is emitted in -- the
        simulation engine passes its floorplan/network order so the
        vectors feed :meth:`~repro.power.model.PowerModel.
        block_powers_vector` without translation.

    Attributes
    ----------
    base_activities:
        ``(n_phases, n_blocks)`` base activity matrix; blocks a phase
        does not mention are 0, exactly like the engine's dict-to-vector
        translation of the interpreted path.
    rate_class:
        ``(n_blocks,)`` int8 indices into the per-step rate-factor
        triple ``(F, I, C)`` (see :mod:`repro.uarch.activity`).
    phase_instructions:
        ``(n_phases,)`` dynamic instruction counts.
    phase_boundaries:
        ``(n_phases + 1,)`` cumulative instruction indices of the phase
        boundaries within one pass of the schedule (``[0, i0, i0+i1,
        ...]``).
    speculation_waste:
        ``(n_phases,)`` wrong-path work fractions.
    """

    def __init__(
        self, phases: Sequence[PhasePerformance], block_names: Tuple[str, ...]
    ):
        if not phases:
            raise WorkloadError("cannot compile an empty phase schedule")
        if not block_names:
            raise WorkloadError("cannot compile onto an empty block set")
        self.block_names = tuple(block_names)
        self._phases = list(phases)
        n_blocks = len(self.block_names)
        n_phases = len(self._phases)
        position = {name: i for i, name in enumerate(self.block_names)}
        self._position = position

        self.rate_class = np.array(
            [
                _CLASS_INDEX[_RATE_CLASS.get(name, "C")]
                for name in self.block_names
            ],
            dtype=np.int8,
        )
        self.base_activities = np.zeros((n_phases, n_blocks))
        for k, phase in enumerate(self._phases):
            for block, value in phase.activity_model.base_activities.items():
                p = position.get(block)
                if p is not None:
                    self.base_activities[k, p] = value
        self.phase_instructions = np.array(
            [float(phase.instructions) for phase in self._phases]
        )
        self.phase_boundaries = np.concatenate(
            ([0.0], np.cumsum(self.phase_instructions))
        )
        self.speculation_waste = np.array(
            [phase.activity_model.speculation_waste for phase in self._phases]
        )
        # (phase index, fetch rate, commit rate) -> read-only activity
        # vector.  DTM policies hold their command steady for thousands
        # of consecutive steps, so the hit rate is near 1.
        self._act_cache: Dict[tuple, np.ndarray] = {}

    @property
    def n_phases(self) -> int:
        """Number of phases in one pass of the schedule."""
        return len(self._phases)

    @property
    def phases(self) -> list:
        """The source phases (shared, read-only by convention)."""
        return self._phases

    def activities(
        self, phase_index: int, fetch_rate_rel: float, commit_rate_rel: float
    ) -> np.ndarray:
        """The phase's activity vector for the given relative rates.

        Bit-identical to translating
        :meth:`~repro.uarch.activity.ActivityModel.activities` into
        block order: both evaluate ``min(1.0, base * factor)`` per block
        in double precision.  The returned array is cached and shared --
        treat it as read-only (the engine copies before mutating for
        migration, exactly as it did for the interpreted dict cache).
        """
        key = (phase_index, fetch_rate_rel, commit_rate_rel)
        cached = self._act_cache.get(key)
        if cached is not None:
            return cached
        if fetch_rate_rel < 0.0 or commit_rate_rel < 0.0:
            raise WorkloadError("relative rates must be >= 0")
        waste = float(self.speculation_waste[phase_index])
        factor_i = (commit_rate_rel + waste * fetch_rate_rel) / (1.0 + waste)
        factors = np.array([fetch_rate_rel, factor_i, commit_rate_rel])
        acts = self.base_activities[phase_index] * factors[self.rate_class]
        np.minimum(acts, 1.0, out=acts)
        acts.setflags(write=False)
        if len(self._act_cache) >= ACTIVITY_CACHE_SIZE:
            self._act_cache.clear()
        self._act_cache[key] = acts
        return acts

    def vector_from_mapping(self, activities) -> np.ndarray:
        """Translate an interpreted ``{block: activity}`` dict into the
        compiled block order (slow path; phase-boundary intervals)."""
        out = np.zeros(len(self.block_names))
        position = self._position
        for name, value in activities.items():
            p = position.get(name)
            if p is not None:
                out[p] = value
        return out


def compile_workload(workload, block_names) -> CompiledSchedule:
    """Compile ``workload``'s phase schedule for ``block_names`` order.

    The schedule is cached on the workload object per block order, so
    repeated runs of one workload (sweeps resolve the workload once per
    spec) pay the lowering once.
    """
    key = tuple(block_names)
    cache = getattr(workload, "_compiled_schedules", None)
    if cache is None:
        cache = {}
        try:
            workload._compiled_schedules = cache
        except AttributeError:  # pragma: no cover - exotic workload types
            return CompiledSchedule(workload.phases, key)
    schedule = cache.get(key)
    if schedule is None:
        schedule = CompiledSchedule(workload.phases, key)
        cache[key] = schedule
    return schedule


class CompiledSample:
    """Mutable, reused result of one compiled interval advance.

    One instance lives per :class:`CompiledIntervalModel`; every
    :meth:`~CompiledIntervalModel.advance` overwrites it in place, so
    consumers must read what they need before advancing again (the
    engine does: a sample is consumed within its own step).
    """

    __slots__ = (
        "cycles",
        "instructions",
        "acts",
        "fetch_rate_rel",
        "commit_rate_rel",
        "phase_name",
    )

    def __init__(self) -> None:
        self.cycles = 0
        self.instructions = 0.0
        self.acts: Optional[np.ndarray] = None
        self.fetch_rate_rel = 0.0
        self.commit_rate_rel = 0.0
        self.phase_name = ""


class CompiledIntervalModel(IntervalPerformanceModel):
    """Interval performance model advancing over a compiled schedule.

    Drop-in for :class:`~repro.uarch.interval.IntervalPerformanceModel`
    (same phase-walking state, same CPI cache, same
    :meth:`run_length`/:meth:`fast_forward` span maths) whose
    :meth:`advance` returns a :class:`CompiledSample` carrying the
    activity *vector*.  The fast path -- interval strictly inside the
    current phase -- allocates nothing; boundary-crossing intervals
    delegate to the interpreted slow path and translate its blended
    activity dict, keeping the rare-path arithmetic in exactly one
    place.

    Fused dense spans step the model by *phase runs*:
    :meth:`phase_run` sizes how many upcoming advances take the fast
    path (each commits the same instructions and returns the same
    activity vector), and :meth:`commit` applies them afterwards with
    the same sequential arithmetic, so a run of ``n`` steps costs two
    calls instead of ``n``.
    """

    def __init__(self, schedule: CompiledSchedule, loop: bool = True):
        super().__init__(schedule.phases, loop=loop)
        self._schedule = schedule
        self._sample = CompiledSample()
        # The run sized by the last phase_run() -- (instructions per
        # interval, activity vector, fetch rate, commit rate, phase name,
        # cycles) -- that commit() applies.
        self._run: Optional[tuple] = None

    @property
    def schedule(self) -> CompiledSchedule:
        """The compiled schedule this model advances over."""
        return self._schedule

    def advance(self, cycles: int, actuation: DtmActuation) -> CompiledSample:
        """Advance by ``cycles`` cycles under ``actuation``.

        Same contract as the interpreted
        :meth:`~repro.uarch.interval.IntervalPerformanceModel.advance`,
        returning a reused :class:`CompiledSample`.
        """
        if cycles <= 0:
            raise SimulationError("interval length must be > 0")
        sample = self._sample
        remaining = float(cycles) * actuation.clock_enabled_fraction
        if remaining > 1e-9:
            phase = self.current_phase
            cpi = self._cpi(phase, actuation)
            possible = remaining / cpi
            if possible < self._instructions_left:
                # Fast path: identical arithmetic, in the same order, as
                # the interpreted fast path -- `possible`, `fetch_rel`
                # and `commit_rel` are the same doubles, and the cached
                # activity vector applies the same `min(1, base*factor)`.
                self._instructions_left -= possible
                fetch_rel = 1.0 - actuation.gating_fraction
                commit_rel = min((1.0 / cpi) / phase.base_ipc, 1.0)
                acts = self._schedule.activities(
                    self._phase_index, fetch_rel, commit_rel
                )
                self._total_instructions += possible
                sample.cycles = cycles
                sample.instructions = possible
                sample.acts = acts
                sample.fetch_rate_rel = fetch_rel
                sample.commit_rate_rel = commit_rel
                sample.phase_name = phase.name
                return sample
        interpreted = super().advance(cycles, actuation)
        sample.cycles = interpreted.cycles
        sample.instructions = interpreted.instructions
        acts = self._schedule.vector_from_mapping(interpreted.activities)
        acts.setflags(write=False)
        sample.acts = acts
        sample.fetch_rate_rel = interpreted.fetch_rate_rel
        sample.commit_rate_rel = interpreted.commit_rate_rel
        sample.phase_name = interpreted.phase_name
        return sample

    def phase_run(
        self, cycles: int, actuation: DtmActuation, limit: int
    ) -> Tuple[int, float, Optional[np.ndarray]]:
        """Size the run of fast-path advances ahead, without advancing.

        Returns ``(n, instructions, acts)``: the next ``n`` (at most
        ``limit``) calls of ``advance(cycles, actuation)`` would each
        take the fast path, commit ``instructions`` and return the same
        cached, read-only ``acts`` array.  ``n`` is 0 -- and the next
        step must go through :meth:`advance` -- when that step crosses a
        phase boundary and when the clock is fully gated.  The model's
        state is left untouched; :meth:`commit` applies the first
        ``k <= n`` advances of the run.
        """
        if cycles <= 0:
            raise SimulationError("interval length must be > 0")
        remaining = float(cycles) * actuation.clock_enabled_fraction
        if remaining <= 1e-9:
            return 0, 0.0, None
        phase = self.current_phase
        cpi = self._cpi(phase, actuation)
        possible = remaining / cpi
        # Replay advance()'s fast-path test on its own sequential
        # subtraction: ``n * possible`` can differ from n subtractions in
        # the last ulp, and so misplace the boundary step.
        start = self._instructions_left
        left = start
        n = 0
        while n < limit and possible < left:
            left -= possible
            n += 1
        if n == 0:
            return 0, 0.0, None
        fetch_rel = 1.0 - actuation.gating_fraction
        commit_rel = min((1.0 / cpi) / phase.base_ipc, 1.0)
        acts = self._schedule.activities(
            self._phase_index, fetch_rel, commit_rel
        )
        self._run = (
            n, start, possible, acts, fetch_rel, commit_rel, phase.name, cycles
        )
        return n, possible, acts

    def commit(self, n: int) -> None:
        """Apply the first ``n`` advances of the run :meth:`phase_run`
        sized last.

        Exactly ``n`` fast-path :meth:`advance` calls: the same
        sequential ``-=``/``+=`` on the phase remainder and the commit
        total, and the reused :class:`CompiledSample` left as the n-th
        call would leave it.  Raises when the model moved since the run
        was sized or ``n`` exceeds its length.
        """
        if n <= 0:
            return
        run = self._run
        if run is None or run[1] != self._instructions_left or n > run[0]:
            raise SimulationError(
                "commit() needs the run sized by the last phase_run() on "
                "an unchanged model, and at most its length"
            )
        _, _, possible, acts, fetch_rel, commit_rel, name, cycles = run
        self._run = None
        left = self._instructions_left
        total = self._total_instructions
        for _ in range(n):
            left -= possible
            total += possible
        self._instructions_left = left
        self._total_instructions = total
        sample = self._sample
        sample.cycles = cycles
        sample.instructions = possible
        sample.acts = acts
        sample.fetch_rate_rel = fetch_rel
        sample.commit_rate_rel = commit_rel
        sample.phase_name = name
