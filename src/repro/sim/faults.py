"""Deterministic fault injection for sweep robustness testing.

The paper's premise is control under imperfect conditions -- noisy,
offset sensors and an emergency threshold that must never be crossed --
and the sweep harness itself must hold up under the same kind of abuse:
worker processes die, solvers emit NaNs, sensors stick or drop out.
This module describes those faults *by value*, attached to an
:class:`~repro.sim.config.EngineConfig` (and therefore to a
:class:`~repro.sim.batch.RunSpec`), so a chaos experiment is exactly as
reproducible as the sweep it perturbs:

* faults target specs by their ``seed`` (:meth:`FaultPlan.targets`), so
  the same plan over the same spec list always hits the same runs;
* *transient* faults -- worker crash, artificial delay, solver power
  corruption -- model harness-level failures.  They fire once: the
  sweep supervisor strips them (:meth:`FaultPlan.transient_cleared`)
  when it retries a failed run, so a retried run is the fault-free run,
  bit for bit;
* *sensor* faults (:mod:`repro.sensors.faults`) model plant-level
  degradation.  They are physics, not harness noise, so they survive
  retries: a run with a stuck sensor is *supposed* to produce the
  stuck-sensor trajectory every time.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.errors import InjectedFaultError, SimulationError
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.sensors.faults import SensorFault

_LOGGER = logging.getLogger("repro.faults")

CORRUPT_NAN = "nan"
CORRUPT_INF = "inf"

_CORRUPTIONS = {CORRUPT_NAN: float("nan"), CORRUPT_INF: float("inf")}


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic faults to inject into matching runs.

    Parameters
    ----------
    seeds:
        Spec seeds the faults target; an empty tuple targets every run.
    crash_worker:
        Kill the executing process outright (``os._exit``) when running
        inside a pool worker -- the supervisor sees
        ``BrokenProcessPool`` -- or raise
        :class:`~repro.errors.InjectedFaultError` when running serially
        (an interpreter must not kill itself).
    delay_s:
        Sleep this long before the run starts executing, to exercise
        per-run timeouts.
    corrupt_power_at_step:
        Thermal-step index (0-based, counting execution steps) at which
        the power vector fed to the solver is corrupted; the solver's
        numerical-health guard then raises
        :class:`~repro.errors.NumericalError`.
    corruption:
        ``"nan"`` or ``"inf"`` -- the poison value used.
    sensor_faults:
        Persistent per-block sensor degradation (see
        :mod:`repro.sensors.faults`); applied to the engine's default
        sensor array for targeted runs.
    """

    seeds: Tuple[int, ...] = ()
    crash_worker: bool = False
    delay_s: float = 0.0
    corrupt_power_at_step: Optional[int] = None
    corruption: str = CORRUPT_NAN
    sensor_faults: Tuple[SensorFault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(
            self, "sensor_faults", tuple(self.sensor_faults)
        )
        if self.delay_s < 0.0:
            raise SimulationError("fault delay must be >= 0")
        if self.corruption not in _CORRUPTIONS:
            raise SimulationError(
                f"corruption must be one of {tuple(_CORRUPTIONS)}, "
                f"got {self.corruption!r}"
            )
        if (
            self.corrupt_power_at_step is not None
            and self.corrupt_power_at_step < 0
        ):
            raise SimulationError("corruption step must be >= 0")

    def targets(self, seed: int) -> bool:
        """True when this plan's faults apply to a run with ``seed``."""
        return not self.seeds or seed in self.seeds

    @property
    def poison(self) -> float:
        """The corruption value (NaN or +Inf)."""
        return _CORRUPTIONS[self.corruption]

    @property
    def has_transient_faults(self) -> bool:
        """True when any harness-level (one-shot) fault is armed."""
        return (
            self.crash_worker
            or self.delay_s > 0.0
            or self.corrupt_power_at_step is not None
        )

    def transient_cleared(self) -> Optional["FaultPlan"]:
        """This plan with the one-shot harness faults disarmed.

        Sensor faults survive (they are plant physics); returns ``None``
        when nothing survives, so retried specs carry no dead weight.
        """
        if not self.sensor_faults:
            return None
        return replace(
            self,
            crash_worker=False,
            delay_s=0.0,
            corrupt_power_at_step=None,
        )


def in_worker_process() -> bool:
    """True when executing inside a spawned/forked worker process."""
    return multiprocessing.parent_process() is not None


def targeted(plan: Optional[FaultPlan], seed: int) -> Optional[FaultPlan]:
    """``plan`` when its faults apply to a run with ``seed``, else None."""
    return plan if plan is not None and plan.targets(seed) else None


def fire_prerun_faults(plan: Optional[FaultPlan], seed: int) -> None:
    """Fire the pre-run harness faults (delay, crash) of ``plan``.

    Called by the batch runners at the top of each run.  A crash fault
    exits the process only inside a pool worker; serially it raises
    :class:`~repro.errors.InjectedFaultError` so the supervisor's retry
    path is exercised without killing the interpreter.
    """
    plan = targeted(plan, seed)
    if plan is None:
        return
    if plan.has_transient_faults:
        _LOGGER.warning(
            "fault plan armed for run seed %d (crash=%s, delay=%.3gs, "
            "corrupt_at_step=%s)",
            seed,
            plan.crash_worker,
            plan.delay_s,
            plan.corrupt_power_at_step,
        )
        obs_metrics.inc("faults.prerun_armed")
        obs_events.emit(
            "faults.prerun_armed",
            seed=seed,
            crash_worker=plan.crash_worker,
            delay_s=plan.delay_s,
            corrupt_power_at_step=plan.corrupt_power_at_step,
        )
    if plan.delay_s > 0.0:
        time.sleep(plan.delay_s)
    if plan.crash_worker:
        if in_worker_process():
            obs_events.emit("faults.worker_crash", seed=seed)
            os._exit(17)
        raise InjectedFaultError(
            f"injected worker crash for run seed {seed}"
        )
