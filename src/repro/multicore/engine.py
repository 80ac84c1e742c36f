"""Dual-core co-simulation engine.

Each core runs its own workload through its own interval performance
model and its own DTM policy; both cores share one thermal RC network (so
a hot neighbour raises your temperature through the silicon and the
package), one sensor array, and -- as on 2004-era dual-core parts -- one
voltage/frequency domain: the chip runs at the *lower* of the two cores'
requested voltages.

An optional :class:`~repro.multicore.hopping.CoreHopper` sits above the
per-core policies and may swap the workload assignment (core hopping);
a swap stalls both cores for the hop time, which is accounted exactly
like execution time -- energy at the idle operating point, DVS-low and
gating time under the commands in force, violation checks included.

The engine implements the :class:`~repro.sim.contract.SimEngine`
contract on the single-core engine's step pipeline: each run builds the
shared :class:`~repro.sim.kernel.ChipStep` -- solver, sensing, dense
step, stall sub-step, fused dense spans, accounting, fault plan and
telemetry -- and adds only the dual-core stages: the per-core scatter
of both workloads' activity into chip block order and the per-core
commit of instructions and gating time, the hopper with its hop-stall
gating time, and the duration exit.  Each sensor period -- from the
sample, the step after it included, to the next sample -- runs as one
fused request; runs that must surface every step (fault plans,
``raise_on_violation``) and periods shorter than two steps take plain
steps.  Engines with the default package share one per-process
substrate (floorplan, thermal model, power model).  The closed-form
stride is not used here yet (see docs/ENGINES.md).
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, fields
from functools import partial
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.dtm.base import DtmPolicy
from repro.dtm.none import NoDtmPolicy
from repro.dtm.thresholds import ThermalThresholds
from repro.errors import SimulationError
from repro.multicore.floorplan import (
    CORE_INSTANCES,
    build_dual_core_floorplan,
    core_block,
    dual_core_power_specs,
)
from repro.multicore.hopping import CoreHopper
from repro.floorplan.alpha21364 import CORE_BLOCKS
from repro.power.model import PowerModel
from repro.sensors.array import SensorArray
from repro.sim import engine as sim_engine
from repro.sim.config import EngineConfig
from repro.sim.faults import targeted
from repro.sim.contract import SimEngine
from repro.sim.kernel import ChipStep
from repro.sim.warmup import average_activities, leakage_fixed_point
from repro.thermal.hotspot import HotSpotModel
from repro.thermal.package import ThermalPackage
from repro.uarch.interval import DtmActuation
from repro.workloads.compiler import CompiledIntervalModel, compile_workload
from repro.workloads.workload import Workload

_LOGGER = logging.getLogger("repro.multicore")

DUAL_CORE_PACKAGE = ThermalPackage(convection_resistance=0.46)
"""Default package for the dual-core die: twice the silicon demands a
better heat sink (0.46 K/W instead of the single-core 1.0 K/W)."""

HOP_STALL_S = 10.0e-6
"""Both cores stall this long when the hopper swaps workloads (context
transfer through the shared L2)."""

_L2_BANKS = ("L2", "L2_left", "L2_mid", "L2_right")

# Per-process default substrate (floorplan, thermal model, power model),
# shared by every engine built with the default package: all three are
# read-only after construction, like the single-core
# ``repro.sim.batch._default_substrate``, so the thermal network and its
# operator bank are assembled once per process instead of once per run.
_SUBSTRATE: Optional[tuple] = None


def _build_substrate(package: ThermalPackage) -> tuple:
    floorplan = build_dual_core_floorplan()
    return (
        floorplan,
        HotSpotModel(floorplan, package),
        PowerModel(floorplan, specs=dual_core_power_specs()),
    )


def _default_substrate() -> tuple:
    global _SUBSTRATE
    if _SUBSTRATE is None:
        _SUBSTRATE = _build_substrate(DUAL_CORE_PACKAGE)
    return _SUBSTRATE

# Per-workload activity vectors are emitted in this order: the per-core
# blocks, then the workload's shared-L2 demand as the final entry.
_WORKLOAD_BLOCK_ORDER = tuple(CORE_BLOCKS) + ("L2",)


@dataclass
class CoreResult:
    """Per-core outcome of a dual-core run."""

    core: int
    workload: str
    instructions: float
    mean_gating_fraction: float

    def to_json_dict(self) -> Dict[str, object]:
        """All fields as a JSON-serialisable mapping."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class MultiCoreResult:
    """Outcome of one dual-core run."""

    duration_s: float
    cores: List[CoreResult]
    violations: int
    max_true_temp_c: float
    hottest_block: str
    swaps: int
    dvs_low_time_s: float
    mean_power_w: float
    # Total hop-stall time inside the measured window (defaulted so
    # journals written before this field existed still load).
    stall_time_s: float = 0.0

    journal_kind = "multicore"
    """Journal dispatch tag (see :meth:`~repro.sim.supervisor.
    SweepJournal.record` / :func:`~repro.sim.supervisor.load_journal`)."""

    @property
    def total_instructions(self) -> float:
        """Chip-wide committed instructions."""
        return sum(core.instructions for core in self.cores)

    @property
    def throughput_ips(self) -> float:
        """Chip-wide instructions per second."""
        return self.total_instructions / self.duration_s

    @property
    def violation_free(self) -> bool:
        """True when the emergency threshold never tripped."""
        return self.violations == 0

    def to_json_dict(self) -> Dict[str, object]:
        """All fields as a JSON-serialisable mapping (for the sweep
        journal)."""
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "cores"
        }
        out["cores"] = [core.to_json_dict() for core in self.cores]
        return out

    @staticmethod
    def from_json_dict(data: Dict[str, object]) -> "MultiCoreResult":
        """Rebuild a result from :meth:`to_json_dict` output.

        Unknown keys are ignored so a journal written by a newer
        version still loads; missing keys raise ``TypeError`` as a
        corrupt-journal signal.
        """
        known = {f.name for f in fields(MultiCoreResult) if f.name != "cores"}
        core_known = {f.name for f in fields(CoreResult)}
        cores = [
            CoreResult(**{k: v for k, v in entry.items() if k in core_known})
            for entry in data["cores"]
        ]
        return MultiCoreResult(
            cores=cores,
            **{k: v for k, v in data.items() if k in known},
        )


class MultiCoreEngine(SimEngine):
    """Runs two workloads on the thermally coupled dual-core die.

    Implements the :class:`~repro.sim.contract.SimEngine` contract:
    :meth:`iter_run` yields ``(solver, power, dt, count)`` thermal-step
    requests (plain steps and fused dense spans) serviced by the shared
    driver.  The loop composes the shared
    :class:`~repro.sim.kernel.ChipStep` with this engine's per-core
    scatter and commit, hopper and duration exit; per-workload activity
    vectors are compiled from each phase schedule once per run.
    """

    def __init__(
        self,
        workloads: Sequence[Workload],
        policies: Optional[Sequence[DtmPolicy]] = None,
        hopper: Optional[CoreHopper] = None,
        package: Optional[ThermalPackage] = None,
        thresholds: Optional[ThermalThresholds] = None,
        config: Optional[EngineConfig] = None,
        seed: int = 0,
        hop_stall_s: float = HOP_STALL_S,
    ):
        if len(workloads) != len(CORE_INSTANCES):
            raise SimulationError(
                f"need exactly {len(CORE_INSTANCES)} workloads"
            )
        if hop_stall_s < 0.0:
            raise SimulationError("hop stall must be >= 0")
        self._workloads = list(workloads)
        self._floorplan, self._hotspot, self._power = (
            _default_substrate()
            if package is None
            else _build_substrate(package)
        )
        self._config = config if config is not None else EngineConfig()
        self._seed = seed
        self._hop_stall_s = hop_stall_s
        # A fault plan's sensor degradation applies to targeted runs,
        # mirroring the single-core engine.
        plan = targeted(self._config.fault_plan, seed)
        self._sensors = SensorArray(
            self._floorplan,
            seed=seed,
            faults=plan and plan.sensor_faults or None,
        )
        # Each core's sensor names, for splitting a sample per core.
        self._core_sensors = [
            tuple(
                name
                for name in self._sensors.block_names
                if name.endswith(f"#{core}")
            )
            for core in CORE_INSTANCES
        ]
        self._thresholds = (
            thresholds if thresholds is not None else ThermalThresholds()
        )
        if policies is None:
            policies = [
                NoDtmPolicy(self._power.technology.vdd_nominal)
                for _ in CORE_INSTANCES
            ]
        if len(policies) != len(CORE_INSTANCES):
            raise SimulationError("need one policy per core")
        self._policies = list(policies)
        self._hopper = hopper
        self._tech = self._power.technology
        network = self._hotspot.network
        if self._power.block_names != network.block_names:
            raise SimulationError(
                "power model and thermal network disagree on the block set"
            )
        # Name -> index translation, computed exactly once per engine.
        self._block_names = network.block_names
        self._block_pos: Dict[str, int] = {
            name: i for i, name in enumerate(self._block_names)
        }
        # Chip-vector positions of each core's blocks (in
        # _WORKLOAD_BLOCK_ORDER's per-core prefix) and of the shared L2
        # banks, for scattering per-workload activity vectors.
        self._core_pos = [
            np.array(
                [self._block_pos[core_block(b, core)] for b in CORE_BLOCKS],
                dtype=np.intp,
            )
            for core in CORE_INSTANCES
        ]
        self._l2_pos = np.array(
            [self._block_pos[bank] for bank in _L2_BANKS], dtype=np.intp
        )

    @property
    def hotspot(self) -> HotSpotModel:
        """The shared thermal model."""
        return self._hotspot

    @property
    def floorplan(self):
        """The dual-core floorplan."""
        return self._floorplan

    @property
    def config(self) -> EngineConfig:
        """Engine configuration."""
        return self._config

    def reset(self) -> None:
        """Restore run-to-run mutable state to construction values.

        Solvers and performance models are rebuilt inside every
        :meth:`iter_run`; policies, the hopper and the sensor array's
        noise streams persist, so all three are rewound here to make a
        repeated run bit-identical.
        """
        for policy in self._policies:
            policy.reset()
        if self._hopper is not None:
            self._hopper.reset()
        self._sensors.reset()

    # --- helpers -----------------------------------------------------------------

    def _core_readings(self, readings: Dict[str, float], core: int) -> Dict[str, float]:
        # Sensor order, so the keys keep the readings' order; a faulted
        # array's scalar path drops dead sensors, hence the membership test.
        return {
            name: readings[name]
            for name in self._core_sensors[core]
            if name in readings
        }

    def compute_initial_temperatures(self) -> np.ndarray:
        """Steady state with both workloads running unmanaged.

        Converges the leakage/temperature fixed point to tolerance
        (shared with the single-core warmup path); a non-converged
        state -- likely thermal runaway -- is used anyway but loudly:
        a warning and the ``warmup.nonconverged`` engine event fire.
        """
        # The run's scatter on each workload's average activity.
        names = self._block_names
        samples = [
            (0.0, np.array([avg.get(b, 0.0) for b in _WORKLOAD_BLOCK_ORDER]))
            for avg in map(average_activities, self._workloads)
        ]
        activities = self._scatter(np.zeros(len(names)), samples)

        def block_powers(temps: Dict[str, float]) -> Dict[str, float]:
            powers = self._power.block_powers_vector(
                activities,
                self._tech.vdd_nominal,
                self._tech.frequency_nominal,
                np.array([temps[name] for name in names]),
            )
            return dict(zip(names, powers.tolist()))

        vector, converged, iterations = leakage_fixed_point(
            block_powers, self._hotspot
        )
        if not converged:
            message = (
                f"dual-core leakage/temperature fixed point did not "
                f"converge in {iterations} iterations; the initial "
                f"condition may be inaccurate (thermal runaway?)"
            )
            _LOGGER.warning(message)
            warnings.warn(message, RuntimeWarning, stacklevel=2)
            self._emit(
                "warmup.nonconverged",
                0.0,
                iterations=iterations,
                workloads="+".join(w.name for w in self._workloads),
            )
        return vector

    def _scatter(self, chip_acts: np.ndarray, samples) -> np.ndarray:
        """Scatter both cores' activity vectors (in
        _WORKLOAD_BLOCK_ORDER) into ``chip_acts``, in chip block order;
        the shared L2 banks see the sum of both cores' L2 demand,
        min-clamped to 1."""
        l2_slot = len(CORE_BLOCKS)  # L2 demand index in a workload vector
        l2_demand = 0.0
        for pos, (_, acts) in zip(self._core_pos, samples):
            chip_acts[pos] = acts[:l2_slot]
            l2_demand += acts[l2_slot]
        chip_acts[self._l2_pos] = min(1.0, l2_demand)
        return chip_acts

    # --- main loop ---------------------------------------------------------------

    def run(
        self,
        duration_s: float,
        initial: Optional[np.ndarray] = None,
        settle_time_s: float = 0.0,
    ) -> MultiCoreResult:
        """Simulate for ``duration_s`` of measured wall-clock time."""
        return super().run(duration_s, initial, settle_time_s)

    def iter_run(
        self,
        duration_s: float,
        initial: Optional[np.ndarray] = None,
        settle_time_s: float = 0.0,
    ):
        """Generator form of :meth:`run` under the engine contract.

        Yields ``(solver, power, dt, count)`` thermal-step requests --
        a plain step or a fused dense span
        (:class:`~repro.sim.kernel.DenseSpanTask`) -- and expects the
        stepped node-temperature vector back; the
        :class:`MultiCoreResult` is the generator's return value.
        """
        if duration_s <= 0.0:
            raise SimulationError("duration must be > 0")
        if settle_time_s < 0.0:
            raise SimulationError("settle time must be >= 0")
        if initial is None:
            initial = self.compute_initial_temperatures()
        chip = ChipStep(
            self._hotspot.network,
            initial,
            self._power,
            self._sensors,
            self._thresholds,
            self._config,
            self._seed,
            settle_time_s,
            fuse=sim_engine._FUSE_DENSE_SPANS,
        )
        account_steps = chip.account_steps

        perf = [
            CompiledIntervalModel(
                compile_workload(w, _WORKLOAD_BLOCK_ORDER), loop=True
            )
            for w in self._workloads
        ]

        assignment = list(CORE_INSTANCES)  # workload index running on core i
        for policy in self._policies:
            policy.reset()
        if self._hopper is not None:
            self._hopper.reset()
        self._emit(
            "run.start",
            0.0,
            duration_s=duration_s,
            settle_time_s=settle_time_s,
        )

        nominal_v = chip.nominal_v
        commands = [None, None]
        instructions = [0.0, 0.0]
        gating_weighted = [0.0, 0.0]
        swaps = 0
        step_cycles = self._config.thermal_step_cycles
        hop_stall = self._hop_stall_s
        sampling_period_s = self._sensors.sampling_period_s
        f_nominal = self._tech.frequency_nominal
        scatter = partial(self._scatter, np.zeros(len(self._block_names)))
        # Per-core actuation reuse while the command and frequency hold.
        actuations: List[Optional[DtmActuation]] = [None, None]
        actuation_cmds = [None, None]
        actuation_f_rel = -1.0

        def commit(samples, dt: float, sums, rows) -> bool:
            """Per-core commit of a run of execution steps (one step on
            the per-step path): the chip accounting, then, for each
            step that began inside the measured window, each workload's
            instructions and each core's gating time, in per-step
            order.  True once the measured window is full."""
            measured = account_steps(dt, sums, rows)
            if measured:
                # Unrolled over the two cores.
                (instr0, _), (instr1, _) = samples
                workload0, workload1 = assignment
                gating0 = commands[0].gating_fraction * dt
                gating1 = commands[1].gating_fraction * dt
                total0 = instructions[workload0]
                total1 = instructions[workload1]
                weighted0, weighted1 = gating_weighted
                for _ in range(measured):
                    total0 += instr0
                    total1 += instr1
                    weighted0 += gating0
                    weighted1 += gating1
                instructions[workload0] = total0
                instructions[workload1] = total1
                gating_weighted[:] = weighted0, weighted1
            return (
                chip.measuring
                and chip.time_s - chip.measure_start_s >= duration_s
            )

        def limit(samples, dt: float, n: int) -> int:
            """The steps of a fused run up to the duration exit."""
            return chip.steps_within(dt, n, duration_s)

        while chip.measured_s < duration_s:
            # --- sensing, policy, hopping ----------------------------------
            if chip.sample_due():
                time_s = chip.time_s
                if chip.heartbeat is not None:
                    # This engine measures progress in simulated
                    # seconds, not instructions.
                    cmd0, cmd1 = commands
                    chip.heartbeat(
                        chip.measured_s,
                        time_s,
                        chip.exec_steps,
                        chip.max_temp,
                        chip.voltage < nominal_v - 1e-12
                        or (cmd0 is not None and cmd0.gating_fraction > 0.0)
                        or (cmd1 is not None and cmd1.gating_fraction > 0.0),
                    )
                readings = chip.read_sensors()
                for core in CORE_INSTANCES:
                    commands[core] = self._policies[core].update(
                        self._core_readings(readings, core),
                        time_s,
                        sampling_period_s,
                    )
                if self._hopper is not None:
                    swap = self._hopper.update(
                        readings, assignment, time_s, sampling_period_s
                    )
                    if swap:
                        assignment.reverse()
                        if chip.measuring:
                            swaps += 1
                        self._emit(
                            "multicore.swap",
                            time_s,
                            assignment=",".join(map(str, assignment)),
                        )
                        if hop_stall > 0.0:
                            # Both cores stall; each keeps its gating
                            # fraction over the measured stall time.
                            yield from chip.stall(hop_stall)
                            if chip.measuring:
                                for core in CORE_INSTANCES:
                                    gating_weighted[core] += (
                                        commands[core].gating_fraction
                                        * hop_stall
                                    )
                requested = min(c.voltage for c in commands)
                if abs(requested - chip.voltage) > 1e-12:
                    chip.set_voltage(requested)

            # Sensors are due at t = 0, so commands are always set by the
            # first loop iteration.
            f_rel = chip.frequency / f_nominal
            if f_rel != actuation_f_rel:
                actuation_cmds = [None, None]
                actuation_f_rel = f_rel
            dt = step_cycles / chip.frequency
            for core in CORE_INSTANCES:
                command = commands[core]
                if command is not actuation_cmds[core]:
                    actuations[core] = DtmActuation(
                        gating_fraction=command.gating_fraction,
                        relative_frequency=f_rel,
                        clock_enabled_fraction=(
                            command.clock_enabled_fraction
                        ),
                    )
                    actuation_cmds[core] = command

            # --- fused dense span ------------------------------------------
            # No decision can fire before the next sensor sample, so the
            # steps from this sample up to it run as one fused request
            # instead of one generator round-trip each.
            if chip.fuse and (
                yield from chip.fused_span(
                    dt,
                    True,
                    [perf[w] for w in assignment],
                    actuations,
                    1.0,
                    scatter,
                    limit,
                    commit,
                )
            ):
                continue

            # --- one thermal step of execution -----------------------------
            samples = []
            for core in CORE_INSTANCES:
                sample = perf[assignment[core]].advance(
                    step_cycles, actuations[core]
                )
                samples.append((sample.instructions, sample.acts))
            power_sum = yield from chip.dense_step(scatter(samples), 1.0, dt)
            commit(samples, dt, (power_sum,), chip.step_row)

        elapsed = chip.measured_s
        cores = [
            CoreResult(
                core=core,
                workload=self._workloads[assignment[core]].name,
                instructions=instructions[assignment[core]],
                mean_gating_fraction=gating_weighted[core] / elapsed,
            )
            for core in CORE_INSTANCES
        ]
        self._emit(
            "run.complete",
            chip.time_s,
            **chip.publish(
                "+".join(w.name for w in self._workloads),
                "+".join(p.name for p in self._policies),
                sum(instructions),
                elapsed,
                {"multicore.swaps": float(swaps)},
                {"multicore.stall_s": chip.stall_s},
                swaps=swaps,
            ),
        )
        return MultiCoreResult(
            duration_s=elapsed,
            cores=cores,
            violations=chip.violations,
            max_true_temp_c=chip.max_temp,
            hottest_block=chip.hottest_block,
            swaps=swaps,
            dvs_low_time_s=chip.low_time_s,
            mean_power_w=chip.energy_j / elapsed,
            stall_time_s=chip.stall_s,
        )
