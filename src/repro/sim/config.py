"""Engine configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import SimulationError
from repro.sim.faults import FaultPlan

DVS_MODE_STALL = "stall"
DVS_MODE_IDEAL = "ideal"

THERMAL_STEPPER_BE = "be"
THERMAL_STEPPER_EXPM = "expm"


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the coupled simulation.

    Parameters
    ----------
    thermal_step_cycles:
        Cycles per thermal step; the paper uses 10 000, keeping sampling
        error below 0.1 % with under 1 % simulation overhead.
    dvs_switch_time_s:
        Time to change the DVS setting (10 us in the paper).
    dvs_mode:
        ``"stall"`` -- the pipeline stalls for the switch time;
        ``"ideal"`` -- execution continues but the new setting takes
        effect only after the switch time has elapsed.
    raise_on_violation:
        Raise :class:`~repro.errors.ThermalViolationError` the moment any
        block exceeds the emergency threshold (useful while calibrating a
        technique that must be violation-free).
    record_trace:
        Keep a per-step time series of hottest-block temperature and
        actuation (costs memory; for plotting/examples).
    migration_time_s:
        Pipeline-flush stall charged whenever an activity-migration
        policy moves work between copies (2 us: drain plus a register
        transfer burst).
    max_no_progress_steps:
        Consecutive thermal steps allowed to commit zero instructions
        (e.g. under a fully clock-gated policy) before the engine raises
        :class:`~repro.errors.SimulationError` instead of spinning
        forever.
    thermal_stepper:
        ``"expm"`` (default) -- the exact exponential-propagator stepper
        (:class:`~repro.thermal.solver.ExponentialSolver`): one matvec
        pair per step, no time-discretisation error, and eligible for
        constant-power fast-forward.  ``"be"`` -- backward Euler, kept
        as the time-discretised regression anchor.
    fast_forward:
        Allow the engine to jump spans of steps between DTM decision
        points in closed form via ``A_d^K`` (event-driven stepping).
        The dynamic power is constant over such a span by construction
        (same phase, actuation and voltage until the next sensor
        sample); leakage drift within the span is closed by a widened
        span envelope (see ``stride_drift_tol_w``).  Only effective
        with the ``"expm"`` stepper; every jump is first proven safe
        against the trigger/emergency thresholds (see docs/MODELING.md
        section 8), otherwise the engine falls back to dense stepping.
    fault_plan:
        Deterministic faults to inject into matching runs (worker
        crashes, delays, solver corruption, sensor degradation; see
        :mod:`repro.sim.faults`).  ``None`` (default) runs clean.
    stride_drift_tol_w:
        Per-block power drift (watts) each event-driven stride segment
        may absorb before the stride is split into more segments (or
        abandoned for dense stepping).  Drift within a segment is closed
        rigorously -- the envelope is widened by the worst-case
        steady-state response ``L^-1 dP`` and re-verified a posteriori
        -- so this knob trades stride length against envelope slack, not
        correctness.  Must be finite and positive.
    """

    thermal_step_cycles: int = 10_000
    dvs_switch_time_s: float = 10.0e-6
    dvs_mode: str = DVS_MODE_STALL
    raise_on_violation: bool = False
    record_trace: bool = False
    migration_time_s: float = 2.0e-6
    max_no_progress_steps: int = 10_000
    thermal_stepper: str = THERMAL_STEPPER_EXPM
    fast_forward: bool = True
    fault_plan: Optional[FaultPlan] = None
    stride_drift_tol_w: float = 1.0e-3

    def __post_init__(self) -> None:
        if self.thermal_step_cycles < 100:
            raise SimulationError("thermal step must be at least 100 cycles")
        if not (math.isfinite(self.dvs_switch_time_s)
                and self.dvs_switch_time_s >= 0.0):
            raise SimulationError(
                f"DVS switch time must be finite and >= 0, "
                f"got {self.dvs_switch_time_s!r}"
            )
        if self.dvs_mode not in (DVS_MODE_STALL, DVS_MODE_IDEAL):
            raise SimulationError(
                f"dvs_mode must be 'stall' or 'ideal', got {self.dvs_mode!r}"
            )
        if not (math.isfinite(self.migration_time_s)
                and self.migration_time_s >= 0.0):
            raise SimulationError(
                f"migration time must be finite and >= 0, "
                f"got {self.migration_time_s!r}"
            )
        if self.max_no_progress_steps < 1:
            raise SimulationError("no-progress step budget must be >= 1")
        if self.thermal_stepper not in (THERMAL_STEPPER_BE, THERMAL_STEPPER_EXPM):
            raise SimulationError(
                f"thermal_stepper must be 'be' or 'expm', "
                f"got {self.thermal_stepper!r}"
            )
        if self.fault_plan is not None and not isinstance(
            self.fault_plan, FaultPlan
        ):
            raise SimulationError(
                f"fault_plan must be a FaultPlan, got {self.fault_plan!r}"
            )
        if not (math.isfinite(self.stride_drift_tol_w)
                and self.stride_drift_tol_w > 0.0):
            # The stride sizes its segments by dividing the drift by
            # this tolerance.
            raise SimulationError(
                f"stride drift tolerance must be finite and > 0, "
                f"got {self.stride_drift_tol_w!r}"
            )
