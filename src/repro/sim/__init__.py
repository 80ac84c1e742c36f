"""Coupled performance / power / thermal / DTM simulation.

The engine advances the interval performance model one 10 000-cycle
thermal step at a time, feeds per-block average power into the thermal RC
network (with the step's wall-clock length set by the *current* clock
frequency, so DVS stretches steps), samples the sensor array at 10 kHz,
and applies the policy's commands -- including the 10 us DVS switching
stall or delayed-effect window.
"""

from repro.sim.config import EngineConfig
from repro.sim.contract import EngineEvent, SimEngine, drive
from repro.sim.faults import FaultPlan
from repro.sim.results import RunResult
from repro.sim.warmup import average_block_powers, initial_temperatures
from repro.sim.engine import SimulationEngine
from repro.sim.lockstep import LockstepEngine, run_lockstep
from repro.sim.batch import RunSpec, run_many, run_one
from repro.sim.supervisor import RunFailure, load_journal, spec_digest

__all__ = [
    "EngineConfig",
    "EngineEvent",
    "FaultPlan",
    "LockstepEngine",
    "RunFailure",
    "RunResult",
    "RunSpec",
    "SimEngine",
    "SimulationEngine",
    "drive",
    "run_lockstep",
    "initial_temperatures",
    "average_block_powers",
    "load_journal",
    "run_many",
    "run_one",
    "spec_digest",
]
