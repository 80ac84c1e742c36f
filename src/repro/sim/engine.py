"""The coupled simulation engine."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dtm.base import DtmCommand, DtmPolicy
from repro.dtm.none import NoDtmPolicy
from repro.dtm.thresholds import ThermalThresholds
from repro.errors import SimulationError
from repro.floorplan.alpha21364 import build_alpha21364_floorplan
from repro.floorplan.floorplan import Floorplan
from repro.power.model import PowerModel
from repro.sensors.array import SensorArray
from repro.sim.config import DVS_MODE_STALL, EngineConfig
from repro.sim.faults import targeted
from repro.sim.contract import SimEngine, drive
from repro.sim.kernel import ChipStep
from repro.sim.stride import ACCEPT, REJECT, REJECT_REASONS, StridePlanner
from repro.sim.results import RunResult, TracePoint
from repro.sim.warmup import initial_temperatures
from repro.thermal.hotspot import HotSpotModel
from repro.thermal.package import ThermalPackage
from repro.uarch.interval import DtmActuation
from repro.workloads.compiler import CompiledIntervalModel, compile_workload
from repro.workloads.workload import Workload

_FUSE_DENSE_SPANS = True
"""Whether decision-free dense spans run as fused
:class:`~repro.sim.kernel.DenseSpanTask` requests.  Tests set it to
``False`` to compare the fused path with the per-step path, which is
bit-identical by construction; it is neither a configuration field nor
part of a run's identity."""


class TraceBuffer:
    """Growable chunked column store for the per-step trace.

    ``record_trace`` runs used to append one :class:`TracePoint`
    dataclass per thermal step -- hundreds of thousands of small Python
    objects per run.  This buffer stores the numeric columns in
    preallocated array chunks (the hottest block as its index into the
    engine's block order) and materialises the ``TracePoint`` list once
    at the end of the run.

    The class-level ``created`` counter exists for the regression test
    asserting that runs with tracing *disabled* never construct a
    buffer (zero trace-buffer growth on the default path).
    """

    CHUNK = 4096
    COLUMNS = 7  # time, hot index, hot temp, gating, voltage, enabled, instr

    created = 0

    def __init__(self, block_names: Tuple[str, ...]):
        type(self).created += 1
        self._block_names = block_names
        self._chunks: List[np.ndarray] = []
        self._fill = TraceBuffer.CHUNK  # force a chunk on first append

    def append(
        self,
        time_s: float,
        hot_index: int,
        hot_temp_c: float,
        gating_fraction: float,
        voltage: float,
        clock_enabled_fraction: float,
        instructions: float,
    ) -> None:
        fill = self._fill
        if fill == TraceBuffer.CHUNK:
            self._chunks.append(
                np.empty((TraceBuffer.CHUNK, TraceBuffer.COLUMNS))
            )
            fill = 0
        row = self._chunks[-1][fill]
        row[0] = time_s
        row[1] = hot_index
        row[2] = hot_temp_c
        row[3] = gating_fraction
        row[4] = voltage
        row[5] = clock_enabled_fraction
        row[6] = instructions
        self._fill = fill + 1

    def __len__(self) -> int:
        if not self._chunks:
            return 0
        return (len(self._chunks) - 1) * TraceBuffer.CHUNK + self._fill

    def points(self) -> List[TracePoint]:
        """Materialise the stored rows as :class:`TracePoint` objects."""
        names = self._block_names
        out: List[TracePoint] = []
        last = len(self._chunks) - 1
        for index, chunk in enumerate(self._chunks):
            rows = self._fill if index == last else TraceBuffer.CHUNK
            for r in range(rows):
                row = chunk[r]
                out.append(
                    TracePoint(
                        time_s=float(row[0]),
                        hottest_block=names[int(row[1])],
                        hottest_temp_c=float(row[2]),
                        gating_fraction=float(row[3]),
                        voltage=float(row[4]),
                        clock_enabled_fraction=float(row[5]),
                        instructions=float(row[6]),
                    )
                )
        return out


class SimulationEngine(SimEngine):
    """Runs one workload under one DTM policy.

    All substrate objects can be injected for experiments; the defaults
    reproduce the paper's setup (Alpha 21364 floorplan, low-cost package,
    Alpha power budget, 10 kHz noisy sensors).

    Each run composes the step stage it shares with the dual-core
    engine (:class:`~repro.sim.kernel.ChipStep`: array-native power,
    thermal step, sensing, fused dense spans, accounting) with its own
    stages: the instruction-budget commit, the closed-form stride over
    spans between sensor samples when proved safe
    (:mod:`repro.sim.stride`) and the trace.  The workload's phase
    schedule is compiled to contiguous arrays once per run
    (:mod:`repro.workloads.compiler`).
    """

    def __init__(
        self,
        workload: Workload,
        policy: Optional[DtmPolicy] = None,
        floorplan: Optional[Floorplan] = None,
        package: Optional[ThermalPackage] = None,
        power_model: Optional[PowerModel] = None,
        hotspot: Optional[HotSpotModel] = None,
        sensors: Optional[SensorArray] = None,
        thresholds: Optional[ThermalThresholds] = None,
        config: Optional[EngineConfig] = None,
        seed: int = 0,
    ):
        self._workload = workload
        self._floorplan = (
            floorplan if floorplan is not None else build_alpha21364_floorplan()
        )
        # An injected HotSpotModel (read-only after construction) lets
        # batch runners share one thermal network across many engines
        # instead of re-assembling it per run; it must have been built
        # from the same floorplan.
        self._hotspot = (
            hotspot if hotspot is not None else HotSpotModel(self._floorplan, package)
        )
        self._power = (
            power_model if power_model is not None else PowerModel(self._floorplan)
        )
        self._config = config if config is not None else EngineConfig()
        self._seed = seed
        # A fault plan's sensor degradation applies to the default array
        # of targeted runs only; an explicitly injected array is the
        # caller's responsibility.
        plan = targeted(self._config.fault_plan, seed)
        self._sensors = (
            sensors
            if sensors is not None
            else SensorArray(
                self._floorplan, seed=seed,
                faults=plan and plan.sensor_faults or None,
            )
        )
        self._policy = policy if policy is not None else NoDtmPolicy(
            self._power.technology.vdd_nominal
        )
        self._thresholds = (
            thresholds if thresholds is not None else ThermalThresholds()
        )
        self._tech = self._power.technology
        network = self._hotspot.network
        if self._power.block_names != network.block_names:
            raise SimulationError(
                "power model and thermal network disagree on the block set"
            )
        # Name -> index translation, computed exactly once per engine: the
        # inner loop only ever touches arrays in this order.
        self._block_names = network.block_names
        self._block_pos: Dict[str, int] = {
            name: i for i, name in enumerate(self._block_names)
        }
        self._domain_pos: Dict[str, np.ndarray] = {}

    @property
    def workload(self) -> Workload:
        """The workload under simulation."""
        return self._workload

    @property
    def hotspot(self) -> HotSpotModel:
        """The thermal model."""
        return self._hotspot

    @property
    def power_model(self) -> PowerModel:
        """The power model."""
        return self._power

    @property
    def policy(self) -> DtmPolicy:
        """The DTM policy under test."""
        return self._policy

    @property
    def config(self) -> EngineConfig:
        """Engine configuration."""
        return self._config

    def compute_initial_temperatures(self) -> np.ndarray:
        """No-DTM steady-state node temperatures for this workload."""
        return initial_temperatures(self._workload, self._hotspot, self._power)

    def _domain_positions(self, domain: str) -> np.ndarray:
        """Vector positions of a clock domain's blocks (cached)."""
        cached = self._domain_pos.get(domain)
        if cached is None:
            from repro.dtm.domains import CLOCK_DOMAINS

            cached = np.array(
                [
                    self._block_pos[block]
                    for block in CLOCK_DOMAINS[domain]
                    if block in self._block_pos
                ],
                dtype=np.intp,
            )
            self._domain_pos[domain] = cached
        return cached

    # --- main loop ---------------------------------------------------------------

    def run(
        self,
        instructions: int,
        initial: Optional[np.ndarray] = None,
        settle_time_s: float = 0.0,
    ) -> RunResult:
        """Simulate until ``instructions`` have committed.

        Parameters
        ----------
        instructions:
            Commit budget; the run's elapsed time is interpolated within
            the final step so slowdown comparisons are exact.
        initial:
            Node temperature vector to start from; defaults to the
            workload's no-DTM steady state.
        settle_time_s:
            Length of an unmeasured lead-in with the policy active,
            standing in for the tail of the paper's 300 M-cycle warmup:
            statistics (including violations) start once the policy has
            pulled the chip from its unmanaged steady state into the
            regulated band.
        """
        return drive(self.iter_run(instructions, initial, settle_time_s))

    def reset(self) -> None:
        """Restore run-to-run mutable state to construction values.

        The solver and performance model are rebuilt inside every
        :meth:`iter_run`; the only state that persists across runs is
        the sensor array's noise-stream position and the policy, so a
        ``reset()`` makes a repeated run bit-identical to the first.
        """
        self._sensors.reset()
        self._policy.reset()

    def iter_run(
        self,
        instructions: int,
        initial: Optional[np.ndarray] = None,
        settle_time_s: float = 0.0,
    ):
        """Generator form of :meth:`run` for lockstep batch execution.

        Yields one thermal-step request ``(solver, power, dt, count)``
        per suspension -- a plain step, a fused dense span
        (:class:`~repro.sim.kernel.DenseSpanTask`) or an event-driven
        stride attempt (:class:`~repro.sim.stride.StrideTask`), see
        :mod:`repro.sim.contract` -- and expects the stepped
        node-temperature vector to be sent back (the solver's own state
        array, as returned by ``step(..., copy=False)``; ``None`` for a
        stride the driver did not accept).  Everything else (sensing,
        policy, power, accounting) runs inside the generator, so a
        driver that services requests from many runs with one batched
        operation (see :mod:`repro.sim.lockstep`) produces results
        identical to :meth:`run`.  The :class:`RunResult` is the
        generator's return value (``StopIteration.value``).
        """
        if instructions <= 0:
            raise SimulationError("instruction budget must be > 0")
        if settle_time_s < 0.0:
            raise SimulationError("settle time must be >= 0")
        if initial is None:
            initial = self.compute_initial_temperatures()
        trace = TraceBuffer(self._block_names) if self._config.record_trace else None
        chip = ChipStep(
            self._hotspot.network,
            initial,
            self._power,
            self._sensors,
            self._thresholds,
            self._config,
            self._seed,
            settle_time_s,
            fuse=_FUSE_DENSE_SPANS and trace is None,
        )
        solver = chip.solver
        block_temps = chip.block_temps
        account_steps = chip.account_steps
        self._policy.reset()
        self._emit(
            "run.start",
            0.0,
            instructions=float(instructions),
            settle_time_s=settle_time_s,
        )

        block_names = self._block_names
        pos = self._block_pos
        # Compiled step pipeline: lower the workload's phase schedule to
        # contiguous arrays once per run and drive the loop from reused
        # CompiledSample activity vectors (see repro/workloads/compiler.py).
        schedule = compile_workload(self._workload, block_names)
        perf = CompiledIntervalModel(schedule, loop=True)

        nominal_v = chip.nominal_v
        command = DtmCommand(gating_fraction=0.0, voltage=nominal_v)
        pending_voltage: Optional[float] = None
        pending_effective_s = 0.0
        done = 0.0
        cycles_f = 0.0
        # Always-on local telemetry: plain int/bool/float updates on
        # quantities the loop already computes, so the disabled path
        # stays bit-identical and allocation-free.  Published into the
        # obs registry in one batch after the loop.
        cmd_active = False
        dtm_engagements = 0
        engaged_s = 0.0
        switches = 0
        migrations = 0
        previous_migration = None
        gating_time_weighted = 0.0
        no_progress_steps = 0
        actuation: Optional[DtmActuation] = None
        actuation_cmd: Optional[DtmCommand] = None
        actuation_f_rel = -1.0
        gate_cmd: Optional[DtmCommand] = None
        gate_vec: Optional[np.ndarray] = None
        act_vec = np.zeros(len(block_names))

        step_cycles = self._config.thermal_step_cycles
        switch_time = self._config.dvs_switch_time_s
        stall_mode = self._config.dvs_mode == DVS_MODE_STALL
        max_no_progress = self._config.max_no_progress_steps
        sampling_period_s = self._sensors.sampling_period_s
        policy_update = self._policy.update
        f_nominal = self._tech.frequency_nominal
        perf_advance = perf.advance
        # Fused sensing: a policy that consumes only the hottest reading
        # (every max-only comparator policy in the tree declares
        # ``hottest_only``) gets the array maximum directly -- same
        # per-sensor values, no per-sample dict.  Bit-identical because
        # the maximum of identical values is order-independent.
        hottest_policy = chip.vector_sensors and self._policy.hottest_only
        sensors_sample_hottest = (
            self._sensors.sample_hottest if hottest_policy else None
        )
        policy_update_hottest = (
            self._policy.update_hottest if hottest_policy else None
        )

        # Event-driven stepping: between DTM decision points (sensor
        # samples) the dynamic power cannot change -- same phase run,
        # actuation and operating point until the next sample -- so only
        # leakage drifts.  The stride below jumps such spans in closed
        # form once the driver has proved, via the solver's span
        # envelope widened by the worst-case leakage drift, that the
        # jump crosses no trigger/emergency threshold
        # (docs/MODELING.md section 8; repro.sim.stride).
        # One attempt is made per decision region: the flag arms at
        # every sensor sample and disarms when an attempt is rejected,
        # so a rejected region falls through to dense stepping (or the
        # fused kernel) instead of re-probing the envelope every step.
        ff_enabled = (
            self._config.fast_forward
            and trace is None
            and chip.fault_step is None
        )
        stride_ok = True
        planner = (
            StridePlanner(
                solver,
                self._hotspot.network.block_node_indices,
                self._power,
                self._config.stride_drift_tol_w,
                self._thresholds.trigger_c,
                self._thresholds.emergency_c,
                self._config.raise_on_violation,
            )
            if ff_enabled
            else None
        )

        def append_trace() -> None:
            # Callers guard on ``trace is not None`` so the common
            # no-trace run pays no call at all; rows land in the chunked
            # TraceBuffer, not per-step Python objects.
            k = int(np.argmax(block_temps))
            trace.append(
                chip.time_s,
                k,
                float(block_temps[k]),
                command.gating_fraction,
                chip.voltage,
                command.clock_enabled_fraction,
                done,
            )

        def scatter(samples) -> np.ndarray:
            """The step's activity vector: the sample's, with an active
            migration moving its share of the source block's activity
            to the target."""
            ((_, acts),) = samples
            if command.migration is None:
                return acts
            source, target, fraction = command.migration
            try:
                si = pos[source]
                ti = pos[target]
            except KeyError as exc:
                raise SimulationError(
                    f"migration names unknown block {exc.args[0]!r}"
                ) from None
            # Cached vectors are shared; mutate a scratch copy.
            act_vec[:] = acts
            moved = act_vec[si] * fraction
            act_vec[si] -= moved
            act_vec[ti] = min(1.0, act_vec[ti] + moved)
            return act_vec

        def commit(samples, dt: float, sums, rows) -> bool:
            """Budget accounting of a run of execution steps (one step
            on the per-step path), per step as the per-step path does:
            the no-progress guard, the committed instructions (the
            final step interpolated for exact elapsed time), the chip
            accounting, gating and engaged time.  A run of several
            steps lies inside the measured window (fused spans start
            there) and commits a positive, constant instruction count
            per step.  True once the budget is spent."""
            nonlocal done, cycles_f, no_progress_steps
            nonlocal gating_time_weighted, engaged_s
            ((step_instr, _),) = samples
            if step_instr <= 0.0:
                # Zero-progress step (e.g. a fully clock-gated
                # interval): the clock still runs wall-time forward, but
                # interpolating ``remaining / step_instr`` would divide
                # by zero and the commit counter would never advance.
                no_progress_steps += 1
                if no_progress_steps >= max_no_progress:
                    raise SimulationError(
                        f"no instructions committed in {no_progress_steps} "
                        f"consecutive thermal steps (is the clock fully "
                        f"gated?); raise max_no_progress_steps if this "
                        f"workload legitimately idles this long"
                    )
            else:
                no_progress_steps = 0
            if not chip.measuring:
                account_steps(dt, sums, rows)
                return False
            # limit() ends a fused run at its final step, so every step
            # before the last commits its instructions in full.
            full = len(sums) - 1
            for _ in range(full):
                cycles_f += step_cycles
                done += step_instr
            remaining = instructions - done
            if step_instr <= 0.0:
                dt_measured = dt
                cycles_f += step_cycles
            elif step_instr >= remaining:
                fraction = remaining / step_instr
                dt_measured = dt * fraction
                cycles_f += step_cycles * fraction
                done = instructions
            else:
                dt_measured = dt
                cycles_f += step_cycles
                done += step_instr
            if dt_measured == dt:
                account_steps(dt, sums, rows)
            else:
                if full:
                    account_steps(dt, sums[:full], rows[:full])
                account_steps(dt_measured, sums[full:], rows[full:])
            gating_dt = command.gating_fraction * dt
            for _ in range(full):
                gating_time_weighted += gating_dt
                if cmd_active:
                    engaged_s += dt
            gating_time_weighted += command.gating_fraction * dt_measured
            if cmd_active:
                engaged_s += dt_measured
            return done >= instructions

        def limit(samples, dt: float, n: int) -> int:
            """The steps of a fused run up to the one that spends the
            budget: :func:`commit`'s sequential replay."""
            ((step_instr, _),) = samples
            spent = done
            for i in range(n):
                if step_instr >= instructions - spent:
                    return i + 1
                spent += step_instr
                if spent >= instructions:
                    return i + 1
            return n

        while done < instructions:
            # --- sensing and policy -------------------------------------------
            if chip.sample_due():
                stride_ok = True
                # Every stride and fused dense span stops strictly
                # before the next sensor sample, so this branch is hit
                # on all execution paths, kernel or not.
                if chip.heartbeat is not None:
                    chip.heartbeat(
                        done, chip.time_s, chip.exec_steps, chip.max_temp,
                        cmd_active,
                    )
                if sensors_sample_hottest is not None:
                    new_command = policy_update_hottest(
                        sensors_sample_hottest(block_temps, chip.time_s),
                        chip.time_s,
                        sampling_period_s,
                    )
                else:
                    new_command = policy_update(
                        chip.read_sensors(), chip.time_s, sampling_period_s
                    )
                new_active = (
                    new_command.gating_fraction > 0.0
                    or new_command.clock_enabled_fraction < 1.0
                    or bool(new_command.domain_gating)
                    or new_command.migration is not None
                    or abs(new_command.voltage - nominal_v) > 1e-12
                )
                if new_active and not cmd_active:
                    dtm_engagements += 1
                cmd_active = new_active
                if abs(new_command.voltage - chip.voltage) > 1e-12 and (
                    pending_voltage is None
                    or abs(new_command.voltage - pending_voltage) > 1e-12
                ):
                    if chip.measuring:
                        switches += 1
                    if stall_mode:
                        if switch_time > 0.0:
                            yield from chip.stall(switch_time)
                            if trace is not None:
                                append_trace()
                        chip.set_voltage(new_command.voltage)
                        pending_voltage = None
                    else:
                        pending_voltage = new_command.voltage
                        pending_effective_s = chip.time_s + switch_time
                command = new_command

            if pending_voltage is not None and chip.time_s >= pending_effective_s:
                chip.set_voltage(pending_voltage)
                pending_voltage = None

            # --- activity-migration transitions --------------------------------
            if command.migration != previous_migration:
                previous_migration = command.migration
                if chip.measuring:
                    migrations += 1
                if self._config.migration_time_s > 0.0:
                    yield from chip.stall(self._config.migration_time_s)
                    if trace is not None:
                        append_trace()

            # --- one thermal step of execution --------------------------------
            frequency = chip.frequency
            f_rel = frequency / f_nominal
            if command is not actuation_cmd or f_rel != actuation_f_rel:
                # The policy holds its command steady between 10 kHz sensor
                # samples (~30 thermal steps), so reuse the validated
                # actuation object while nothing changed.
                actuation = DtmActuation(
                    gating_fraction=command.gating_fraction,
                    relative_frequency=f_rel,
                    clock_enabled_fraction=command.clock_enabled_fraction,
                    domain_gating=command.domain_gating,
                )
                actuation_cmd = command
                actuation_f_rel = f_rel
            sample = perf_advance(step_cycles, actuation)
            dt = step_cycles / frequency

            if command.domain_gating:
                if command is not gate_cmd:
                    clock_gate = np.ones(len(block_names))
                    for domain, duty in command.domain_gating.items():
                        clock_gate[self._domain_positions(domain)] = (
                            command.clock_enabled_fraction * (1.0 - duty)
                        )
                    gate_cmd = command
                    gate_vec = clock_gate
                else:
                    clock_gate = gate_vec
            else:
                clock_gate = command.clock_enabled_fraction
            # The compiled model already produced the activity vector in
            # block order (cached and read-only).
            samples = ((sample.instructions, sample.acts),)
            step_acts = scatter(samples)
            power_sum = yield from chip.dense_step(step_acts, clock_gate, dt)
            settling = not chip.measuring
            commit(samples, dt, (power_sum,), chip.step_row)
            if settling and chip.measuring:
                # Measure the same instruction window for every
                # technique (the paper's fixed SimPoint sample): the
                # settle lead-in warms the *thermal* state only.
                perf = CompiledIntervalModel(schedule, loop=True)
                perf_advance = perf.advance
                # The step's sample came from the settle-phase model;
                # disarm the stride so the next jump is sized from the
                # fresh measurement model's samples.
                stride_ok = False
            if trace is not None:
                append_trace()

            # --- event-driven stride ---------------------------------------
            # A solver that has fallen back to backward Euler after a
            # numerical-health trip loses stride eligibility for the
            # rest of the run (the expm operators are suspect).
            stride_taken = False
            if (
                ff_enabled
                and stride_ok
                and not solver.fallback_active
                and sample.instructions > 0.0
                and pending_voltage is None
                and done < instructions
            ):
                # Size the jump: stop strictly before the next sensor
                # sample, the current phase's boundary, the budget's
                # final (interpolated) step and the settle crossing, so
                # every event the dense path would handle still happens
                # on a densely stepped iteration.
                k = chip.steps_to_sample(dt)
                k = min(k, perf.run_length(step_cycles, actuation))
                if chip.measuring:
                    # Cap with the span's own per-interval rate, not the
                    # last sample's: a boundary-crossing step commits a
                    # blend of two phases' rates, and the jump commits
                    # the current phase's clean rate.
                    span_instr = perf.span_instructions(
                        step_cycles, actuation
                    )
                    if span_instr <= 0.0:
                        k = 0
                    else:
                        k_budget = int((instructions - done) / span_instr)
                        while (
                            k_budget > 0
                            and done + k_budget * span_instr >= instructions
                        ):
                            k_budget -= 1
                        k = min(k, k_budget)
                else:
                    time_s = chip.time_s
                    k_settle = int((settle_time_s - time_s) / dt)
                    while (
                        k_settle > 0
                        and time_s + k_settle * dt >= settle_time_s
                    ):
                        k_settle -= 1
                    k = min(k, k_settle)
                if k >= 2:
                    # Only leakage can move the power before the next
                    # decision point: the driver proves the span with
                    # the dynamic part frozen (repro.sim.stride) and
                    # applies the jump or rejects it.  A span whose
                    # leakage drift exceeds the tolerance comes back
                    # split into task.n_seg segments, the first one
                    # already proven.
                    task = planner.attempt(
                        chip.power_buffer, step_acts, chip.voltage,
                        frequency, clock_gate, actuation, k * dt,
                        chip.measuring,
                    )
                    stepped = yield (solver, task, dt, k)
                    verdict = planner.settle()
                    k_seg, k_extra = divmod(k, task.n_seg)
                    for seg in range(task.n_seg):
                        k_i = k_seg + 1 if seg < k_extra else k_seg
                        seg_s = k_i * dt
                        if seg > 0:
                            # Re-freeze the power from the jumped
                            # temperatures: exactly the value the next
                            # dense step would compute.
                            power_sum = chip.power(step_acts, clock_gate)
                            task = planner.segment(chip.power_buffer, seg_s)
                            stepped = yield (solver, task, dt, k_i)
                            verdict = planner.settle()
                        if verdict != ACCEPT:
                            break
                        stride_taken = True
                        per_step_instr = perf.fast_forward(
                            step_cycles, actuation, k_i
                        )
                        chip.gather(stepped)
                        chip.account_span(
                            seg_s, power_sum, task.violations, task.trigger_s
                        )
                        if chip.measuring:
                            done += per_step_instr * k_i
                            cycles_f += step_cycles * k_i
                            gating_time_weighted += (
                                command.gating_fraction * seg_s
                            )
                            if cmd_active:
                                engaged_s += seg_s
                    if verdict == REJECT:
                        stride_ok = False

            # --- fused dense span ------------------------------------------
            # With the stride disarmed (or event-driven stepping off
            # entirely) no decision can fire before the next sensor
            # sample, so the remaining dense steps execute as one fused
            # request instead of one generator round-trip per step.
            if (
                chip.fuse
                and not stride_taken
                and not (ff_enabled and stride_ok)
                and chip.measuring
                and pending_voltage is None
                and done < instructions
            ):
                yield from chip.fused_span(
                    dt, (perf,), (actuation,), clock_gate, scatter, limit,
                    commit,
                )

        elapsed_s = chip.measured_s
        duty_cycle = engaged_s / max(elapsed_s, 1e-12)
        rejected = (
            planner.rejected
            if planner is not None
            else dict.fromkeys(REJECT_REASONS, 0)
        )
        chip.publish(
            self._workload.name,
            self._policy.name,
            done,
            elapsed_s,
            {
                "engine.ff_spans_taken": float(
                    planner.taken if planner is not None else 0
                ),
                "engine.ff_spans_rejected": float(sum(rejected.values())),
                "dtm.engagements": float(dtm_engagements),
                "dtm.dvs_switches": float(switches),
                "dtm.migrations": float(migrations),
                **{
                    "engine.ff_rejected." + reason: float(count)
                    for reason, count in rejected.items()
                },
            },
            {"dtm.duty_cycle": duty_cycle, "dtm.engaged_s": engaged_s},
            dtm_duty_cycle=duty_cycle,
        )
        self._emit(
            "run.complete",
            chip.time_s,
            instructions=float(done),
            violations=chip.violations,
            fallback_active=bool(solver.fallback_active),
        )
        return RunResult(
            benchmark=self._workload.name,
            policy=self._policy.name,
            dvs_mode=self._config.dvs_mode,
            instructions=done,
            elapsed_s=elapsed_s,
            # Fractional final-step cycles accumulate exactly and are
            # rounded once here, instead of truncating per run.
            cycles=int(round(cycles_f)),
            violations=chip.violations,
            max_true_temp_c=chip.max_temp,
            hottest_block=chip.hottest_block,
            time_above_trigger_s=chip.above_trigger_s,
            dvs_switches=switches,
            dvs_low_time_s=chip.low_time_s,
            stall_time_s=chip.stall_s,
            mean_gating_fraction=gating_time_weighted / max(elapsed_s, 1e-12),
            mean_power_w=chip.energy_j / max(elapsed_s, 1e-12),
            migrations=migrations,
            trigger_crossings=chip.trigger_crossings,
            trace=trace.points() if trace is not None else None,
        )
