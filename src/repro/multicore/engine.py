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
contract and composes with the same stack layers as the single-core
engine: compiled workload traces, the expm stepper with NaN/divergence
guards and backward-Euler fallback, fused dense spans
(:mod:`repro.sim.kernel`: the steps between sensor samples run as one
request, bit-identical to stepping them one by one), deterministic
fault injection via :attr:`~repro.sim.config.EngineConfig.fault_plan`,
and :mod:`repro.obs` metrics/events.  Engines with the default package
share one per-process substrate (floorplan, thermal model, power
model).  Constant-power fast-forward is not used here: with two
independently phased workloads plus a hopper, the chip power vector
essentially never holds still long enough for a span to pay (see
docs/ENGINES.md).
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.dtm.base import DtmPolicy
from repro.dtm.none import NoDtmPolicy
from repro.dtm.thresholds import ThermalThresholds
from repro.errors import SimulationError, ThermalViolationError
from repro.multicore.floorplan import (
    CORE_INSTANCES,
    build_dual_core_floorplan,
    core_block,
    dual_core_power_specs,
)
from repro.multicore.hopping import CoreHopper
from repro.floorplan.alpha21364 import CORE_BLOCKS
from repro.obs import events as obs_events
from repro.obs import heartbeat as obs_heartbeat
from repro.obs import metrics as obs_metrics
from repro.obs import runctx as obs_runctx
from repro.power.model import PowerModel
from repro.sensors.array import SensorArray
from repro.sim import engine as sim_engine
from repro.sim.config import EngineConfig
from repro.sim.contract import SimEngine
from repro.sim.kernel import DenseSpanTask, commit_phase_run, next_phase_run
from repro.sim.warmup import average_activities, leakage_fixed_point
from repro.thermal.hotspot import HotSpotModel
from repro.thermal.package import ThermalPackage
from repro.thermal.solver import make_transient_solver
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
    driver, so the dual-core loop
    composes with the same fault/guard/observability stack as the
    single-core engine.  The inner loop is array-native like the
    single-core one: per-workload activity vectors (compiled from each
    phase schedule once per run) are scattered into chip block order and
    power is evaluated with
    :meth:`~repro.power.model.PowerModel.block_powers_vector`.
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
        plan = self._config.fault_plan
        sensor_faults = (
            plan.sensor_faults
            if plan is not None and plan.targets(seed)
            else ()
        )
        self._sensors = SensorArray(
            self._floorplan, seed=seed, faults=sensor_faults or None
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
        self._vf = self._power.vf_curve
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
        self._node_idx = network.block_node_indices
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
        a warning, a structured event and an engine event all fire.
        """
        activities = self._chip_activities(
            [average_activities(w) for w in self._workloads]
        )
        vector, converged, iterations = leakage_fixed_point(
            lambda temps: self._power.block_powers(
                activities,
                self._tech.vdd_nominal,
                self._tech.frequency_nominal,
                temps,
            ),
            self._hotspot,
        )
        if not converged:
            message = (
                f"dual-core leakage/temperature fixed point did not "
                f"converge in {iterations} iterations; the initial "
                f"condition may be inaccurate (thermal runaway?)"
            )
            _LOGGER.warning(message)
            warnings.warn(message, RuntimeWarning, stacklevel=2)
            obs_events.emit(
                "multicore.warmup_nonconverged",
                iterations=iterations,
                workloads="+".join(w.name for w in self._workloads),
            )
            self._emit("warmup.nonconverged", 0.0, iterations=iterations)
        return vector

    def _chip_activities(
        self, per_core: Sequence[Dict[str, float]]
    ) -> Dict[str, float]:
        """Map two base-named activity dicts onto the dual-core blocks."""
        chip: Dict[str, float] = {}
        for core, acts in zip(CORE_INSTANCES, per_core):
            for base in CORE_BLOCKS:
                chip[core_block(base, core)] = acts.get(base, 0.0)
        # The shared L2 banks see both cores' traffic.
        l2_demand = min(
            1.0, sum(acts.get("L2", 0.0) for acts in per_core)
        )
        for bank in _L2_BANKS:
            chip[bank] = l2_demand
        return chip

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
        network = self._hotspot.network
        solver = make_transient_solver(
            network,
            np.array(initial, dtype=float, copy=True),
            self._config.thermal_stepper,
        )
        block_names = self._block_names
        n_blocks = len(block_names)
        node_idx = self._node_idx
        core_pos = self._core_pos
        l2_pos = self._l2_pos
        l2_slot = len(CORE_BLOCKS)  # L2 demand index in a workload vector

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

        nominal_v = self._tech.vdd_nominal
        commands = [None, None]
        voltage = nominal_v
        frequency = self._tech.frequency_nominal

        time_s = 0.0
        measuring = settle_time_s == 0.0
        measure_start = 0.0
        instructions = [0.0, 0.0]
        gating_weighted = [0.0, 0.0]
        violations = 0
        swaps = 0
        low_time = 0.0
        stall_s = 0.0
        energy = 0.0
        max_temp = -1e9
        hottest = block_names[0]
        sensor_samples = 0
        exec_steps = 0
        step_cycles = self._config.thermal_step_cycles
        hop_stall = self._hop_stall_s
        raise_on_violation = self._config.raise_on_violation
        emergency_c = self._thresholds.emergency_c
        # The reductions call the ufunc methods directly, as the
        # single-core loop does: the same results as ``.max()`` /
        # ``.sum()``, minus the Python wrapper frames.
        max_reduce = np.maximum.reduce
        sum_reduce = np.add.reduce

        # Hoisted bound methods (same rationale as the single-core loop).
        sensors_due = self._sensors.due
        sensors_sample = self._sensors.sample
        sampling_period_s = self._sensors.sampling_period_s
        vf_frequency = self._vf.frequency
        f_nominal = self._tech.frequency_nominal
        power_vector_fn = self._power.block_powers_vector
        dynamic_w = self._power.dynamic_vector_w
        leakage_coefficients = self._power.leakage_coefficients
        subtract = np.subtract
        multiply = np.multiply
        exp = np.exp
        add = np.add
        vector_sensors = (
            self._sensors.vector_eligible
            and tuple(self._sensors.block_names) == tuple(block_names)
        )
        sensors_sample_vector = (
            self._sensors.sample_vector if vector_sensors else None
        )

        # Deterministic solver-corruption fault, counting execution
        # steps only (stall substeps excluded), like the single-core
        # engine and the fault-plan documentation.
        plan = self._config.fault_plan
        if (
            plan is not None
            and plan.targets(self._seed)
            and plan.corrupt_power_at_step is not None
        ):
            fault_corrupt_step: Optional[int] = plan.corrupt_power_at_step
            fault_poison = plan.poison
        else:
            fault_corrupt_step = None
            fault_poison = 0.0
        # Fused dense spans (repro.sim.kernel), as in the single-core
        # engine: runs that must surface every step (injected solver
        # faults, raise_on_violation) keep the per-step path, and the
        # private seam switches fusion off for the identity tests.
        kernel_enabled = (
            sim_engine._FUSE_DENSE_SPANS
            and not raise_on_violation
            and fault_corrupt_step is None
        )
        kernel_spans = 0
        kernel_steps = 0

        # Reused buffers: block temperatures gathered per step with
        # np.take(..., out=), chip activity and node power vectors
        # overwritten in place.
        block_temps = np.empty(n_blocks)
        solver.temperatures.take(node_idx, out=block_temps)
        chip_acts = np.zeros(n_blocks)
        zero_acts = np.zeros(n_blocks)
        power_buffer = np.zeros(network.size)
        # Fused-span power buffers: a phase run's dynamic part, a step's
        # leakage and their sum (repro.sim.kernel).
        dyn_w = np.empty(n_blocks)
        leak_w = np.empty(n_blocks)
        span_w = np.empty(n_blocks)
        # Per-core actuation reuse while the command and frequency hold.
        actuations: List[Optional[DtmActuation]] = [None, None]
        actuation_cmds = [None, None]
        actuation_f_rel = -1.0

        def block_temps_mapping() -> Dict[str, float]:
            return {
                name: float(block_temps[i])
                for i, name in enumerate(block_names)
            }

        def account_thermal(dt_acct: float, power_sum_w: float) -> None:
            """Measured-window statistics shared by execution steps and
            hop-stall substeps (which the accounting previously skipped
            entirely -- energy, DVS-low time, gating time and even
            emergency checks were all silently missing for the stall
            interval while ``elapsed`` included it)."""
            nonlocal max_temp, hottest, violations, low_time, energy
            step_max = float(max_reduce(block_temps))
            if step_max > max_temp:
                max_temp = step_max
                hottest = block_names[int(np.argmax(block_temps))]
            if step_max > emergency_c:
                violations += 1
                if raise_on_violation:
                    raise ThermalViolationError(
                        step_max,
                        emergency_c,
                        time_s,
                        block_names[int(np.argmax(block_temps))],
                    )
            if voltage < nominal_v - 1e-12:
                low_time += dt_acct
            energy += power_sum_w * dt_acct

        def idle_step_power():
            """Node power vector (and block total) with zero switching
            activity at the current operating point."""
            blocks_w = power_vector_fn(
                zero_acts, voltage, frequency, block_temps, check=False
            )
            power_buffer[node_idx] = blocks_w
            return power_buffer, float(sum_reduce(blocks_w))

        def hop_stall_substep(dt_sub: float):
            """Advance the thermal state through a hop stall at idle
            power, with full accounting: the interval is inside the
            measured window, so it contributes energy, DVS-low time and
            per-core gating time under the commands in force, and its
            temperatures are checked like any other step's."""
            nonlocal time_s, stall_s
            power, power_sum = idle_step_power()
            stepped = yield (solver, power, dt_sub, 1)
            stepped.take(node_idx, out=block_temps)
            time_s += dt_sub
            if measuring:
                stall_s += dt_sub
                account_thermal(dt_sub, power_sum)
                for core in CORE_INSTANCES:
                    gating_weighted[core] += (
                        commands[core].gating_fraction * dt_sub
                    )

        def run_dense_span(count: int):
            """Execute up to ``count`` fused dense steps inside the engine.

            The main loop's per-step pipeline over phase runs
            (:mod:`repro.sim.kernel`): per run, both cores' samples, the
            scatter and the dynamic power once; per step, the leakage,
            the power scatter, the solver step, the accounting, the
            settle->measuring flip and the duration exit -- the same
            float operations on the same buffers in the same order as
            the per-step path, minus the events that cannot occur
            before the next sensor sample (sensing, policy and hopper
            updates, actuation rebuilds, voltage switches).
            Bit-identical to the per-step path.
            """
            nonlocal time_s, measuring, measure_start, exec_steps
            nonlocal kernel_spans, kernel_steps
            span_step = solver.span_stepper(power_buffer, dt)
            workload0, workload1 = assignment
            models = (perf[workload0], perf[workload1])
            pos0, pos1 = core_pos
            gating0 = commands[0].gating_fraction * dt
            gating1 = commands[1].gating_fraction * dt
            ref_c, beta, leak_scale, leak_ref = leakage_coefficients(
                voltage, frequency
            )
            # A workload's activity array is cached and read-only, so
            # when both cores return the arrays scattered for the
            # previous run, the chip activity vector already holds
            # their values and the scatter is skipped.
            acts0 = acts1 = None
            first_step = exec_steps
            stop = False
            left = count
            while left:
                n, samples, sized = next_phase_run(
                    models, actuations, step_cycles, left
                )
                (instr0, new0), (instr1, new1) = samples
                if new0 is not acts0 or new1 is not acts1:
                    chip_acts[pos0] = new0[:l2_slot]
                    chip_acts[pos1] = new1[:l2_slot]
                    chip_acts[l2_pos] = min(
                        1.0, 0.0 + new0[l2_slot] + new1[l2_slot]
                    )
                    acts0 = new0
                    acts1 = new1
                dynamic_w(chip_acts, voltage, frequency, 1.0, dyn_w)
                run_start = exec_steps
                for _ in range(n):
                    # block_powers_vector's leakage half, inline.
                    subtract(block_temps, ref_c, out=leak_w)
                    multiply(leak_w, beta, out=leak_w)
                    exp(leak_w, out=leak_w)
                    multiply(leak_w, leak_scale, out=leak_w)
                    multiply(leak_w, leak_ref, out=leak_w)
                    add(dyn_w, leak_w, out=span_w)
                    power_buffer[node_idx] = span_w
                    power_sum = float(sum_reduce(span_w))
                    exec_steps += 1
                    stepped = span_step()
                    stepped.take(node_idx, out=block_temps)
                    if measuring:
                        instructions[workload0] += instr0
                        gating_weighted[0] += gating0
                        instructions[workload1] += instr1
                        gating_weighted[1] += gating1
                        account_thermal(dt, power_sum)
                    time_s += dt
                    if measuring:
                        if time_s - measure_start >= duration_s:
                            stop = True
                            break
                    elif time_s >= settle_time_s:
                        measuring = True
                        measure_start = time_s
                if sized:
                    commit_phase_run(models, exec_steps - run_start)
                if stop:
                    break
                left -= n
            kernel_spans += 1
            kernel_steps += exec_steps - first_step
            return stepped

        # Progress heartbeat: captured once per run; heartbeat-off cost
        # is one ``is not None`` compare per sensor sample.  This engine
        # measures progress in simulated seconds, not instructions.
        hb_pub = obs_heartbeat.active()
        hb_publish = hb_pub.publish if hb_pub is not None else None

        while (time_s - measure_start if measuring else 0.0) < duration_s:
            # --- sensing, policy, hopping ----------------------------------
            if sensors_due(time_s):
                sensor_samples += 1
                if hb_publish is not None:
                    cmd0, cmd1 = commands
                    hb_publish(
                        time_s - measure_start if measuring else 0.0,
                        time_s,
                        exec_steps,
                        max_temp,
                        voltage < nominal_v - 1e-12
                        or (cmd0 is not None and cmd0.gating_fraction > 0.0)
                        or (cmd1 is not None and cmd1.gating_fraction > 0.0),
                    )
                if sensors_sample_vector is not None:
                    readings = sensors_sample_vector(block_temps, time_s)
                else:
                    readings = sensors_sample(block_temps_mapping(), time_s)
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
                        if measuring:
                            swaps += 1
                        self._emit(
                            "multicore.swap",
                            time_s,
                            assignment=tuple(assignment),
                        )
                        if hop_stall > 0.0:
                            yield from hop_stall_substep(hop_stall)
                requested = min(c.voltage for c in commands)
                if abs(requested - voltage) > 1e-12:
                    voltage = requested
                    frequency = vf_frequency(voltage)

            # Sensors are due at t = 0, so commands are always set by the
            # first loop iteration.
            f_rel = frequency / f_nominal
            if f_rel != actuation_f_rel:
                actuation_cmds = [None, None]
                actuation_f_rel = f_rel
            dt = step_cycles / frequency
            step_instr = [0.0, 0.0]
            # Scatter both cores' activity vectors (in
            # _WORKLOAD_BLOCK_ORDER) into chip block order; the shared L2
            # banks see the sum of both cores' L2 demand, min-clamped
            # to 1.
            l2_demand = 0.0
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
                sample = perf[assignment[core]].advance(
                    step_cycles, actuations[core]
                )
                step_instr[core] = sample.instructions
                acts = sample.acts
                chip_acts[core_pos[core]] = acts[:l2_slot]
                l2_demand += acts[l2_slot]
            chip_acts[l2_pos] = min(1.0, l2_demand)
            blocks_w = power_vector_fn(
                chip_acts, voltage, frequency, block_temps, check=False
            )
            power_buffer[node_idx] = blocks_w
            step_power = power_buffer
            power_sum = float(sum_reduce(blocks_w))

            if (
                fault_corrupt_step is not None
                and exec_steps == fault_corrupt_step
            ):
                # Poison a copy: the shared power buffer must stay
                # clean for any later (post-recovery) steps.
                step_power = np.array(step_power, dtype=float, copy=True)
                step_power[0] = fault_poison
            exec_steps += 1

            temps_vec = yield (solver, step_power, dt, 1)
            temps_vec.take(node_idx, out=block_temps)

            # --- accounting ------------------------------------------------
            if measuring:
                for core in CORE_INSTANCES:
                    instructions[assignment[core]] += step_instr[core]
                    gating_weighted[core] += (
                        commands[core].gating_fraction * dt
                    )
                account_thermal(dt, power_sum)
            time_s += dt
            if not measuring and time_s >= settle_time_s:
                measuring = True
                measure_start = time_s

            # --- fused dense span ------------------------------------------
            # No decision can fire before the next sensor sample, so the
            # steps up to it run as one fused request instead of one
            # generator round-trip each.
            if kernel_enabled and (
                not measuring or time_s - measure_start < duration_s
            ):
                k = math.ceil(
                    (self._sensors.next_due_s - 1e-12 - time_s) / dt
                )
                if k >= 2:
                    yield (solver, DenseSpanTask(run_dense_span, k), dt, k)

        elapsed = time_s - measure_start
        cores = [
            CoreResult(
                core=core,
                workload=self._workloads[assignment[core]].name,
                instructions=instructions[assignment[core]],
                mean_gating_fraction=gating_weighted[core] / elapsed,
            )
            for core in CORE_INSTANCES
        ]
        if obs_metrics.enabled():
            # One batch publish per run, mirroring the single-core
            # engine's telemetry contract.
            counters = {
                "engine.runs": 1.0,
                "engine.exec_steps": float(exec_steps),
                "engine.sensor_samples": float(sensor_samples),
                "engine.violations": float(violations),
                "engine.kernel_spans": float(kernel_spans),
                "engine.kernel_steps": float(kernel_steps),
                "multicore.swaps": float(swaps),
            }
            if solver.fallback_active:
                counters["thermal.fallback_runs"] = 1.0
            registry = obs_metrics.REGISTRY
            for name, value in counters.items():
                registry.counter(name).inc(value)
            obs_runctx.add_metrics(counters)
            obs_runctx.add_metric("multicore.stall_s", stall_s)
            obs_events.emit(
                "engine.run_complete",
                benchmark="+".join(w.name for w in self._workloads),
                policy="+".join(p.name for p in self._policies),
                instructions=float(sum(instructions)),
                elapsed_s=elapsed,
                violations=violations,
                swaps=swaps,
                fallback_active=bool(solver.fallback_active),
            )
        self._emit(
            "run.complete",
            time_s,
            violations=violations,
            swaps=swaps,
            fallback_active=bool(solver.fallback_active),
        )
        return MultiCoreResult(
            duration_s=elapsed,
            cores=cores,
            violations=violations,
            max_true_temp_c=max_temp,
            hottest_block=hottest,
            swaps=swaps,
            dvs_low_time_s=low_time,
            mean_power_w=energy / elapsed,
            stall_time_s=stall_s,
        )
