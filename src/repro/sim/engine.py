"""The coupled simulation engine."""

from __future__ import annotations

import math
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dtm.base import DtmCommand, DtmPolicy
from repro.dtm.none import NoDtmPolicy
from repro.dtm.thresholds import ThermalThresholds
from repro.errors import SimulationError, ThermalViolationError
from repro.obs import events as obs_events
from repro.obs import heartbeat as obs_heartbeat
from repro.obs import metrics as obs_metrics
from repro.obs import runctx as obs_runctx
from repro.obs import trace as obs_trace
from repro.floorplan.alpha21364 import build_alpha21364_floorplan
from repro.floorplan.floorplan import Floorplan
from repro.power.model import PowerModel
from repro.sensors.array import SensorArray
from repro.sim.config import (
    COMPILED_TRACE_OFF,
    COMPILED_TRACE_VERIFY,
    DVS_MODE_STALL,
    POWER_PATH_VECTOR,
    STEP_KERNEL_NUMBA,
    EngineConfig,
)
from repro.sim.contract import SimEngine, drive
from repro.sim.kernel import DenseSpanTask, resolve_step_kernel
from repro.sim.stride import ACCEPT, REJECT, REJECT_REASONS, StridePlanner
from repro.sim.results import RunResult, TracePoint
from repro.sim.warmup import initial_temperatures
from repro.thermal.hotspot import HotSpotModel
from repro.thermal.package import ThermalPackage
from repro.uarch.interval import DtmActuation, IntervalPerformanceModel
from repro.workloads.compiler import CompiledIntervalModel, compile_workload
from repro.workloads.workload import Workload

STEP_SECTIONS = (
    "sense", "policy", "perf", "power", "thermal", "stride", "kernel"
)
"""The per-section names :func:`step_timers` reports.

``kernel`` is a *boundary* span: it covers whole fused dense spans
(:class:`~repro.sim.kernel.DenseSpanTask` requests) whose inner
perf/power/thermal work records under the other sections too, so it
must not be added to them when computing a total."""


def step_timing_enabled() -> bool:
    """True when the per-section step-timing breakdown is switched on,
    i.e. when the observability layer is enabled (``REPRO_OBS=1`` or
    :func:`repro.obs.metrics.set_enabled`).  The sections record
    through :mod:`repro.obs.trace` as ``step.<section>`` spans;
    :func:`step_timers` reads them back."""
    return obs_metrics.enabled()


def _timed(section: str, fn):
    """Wrap a hot-loop callable so its cumulative time and call count
    land in the ``step.<section>`` span totals.  Only installed when
    timing is enabled, so the normal hot loop carries no
    instrumentation branches at all."""
    name = "step." + section
    record = obs_trace.record

    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record(name, perf_counter() - t0)

    return wrapper


def step_timers() -> Dict[str, Tuple[float, int]]:
    """Accumulated ``{section: (seconds, calls)}`` since the last reset.

    A back-compat view over :func:`repro.obs.trace.totals` restricted
    to the ``step.*`` spans, with the prefix stripped.
    """
    totals = obs_trace.totals()
    return {
        section: totals["step." + section]
        for section in STEP_SECTIONS
        if "step." + section in totals
    }


def reset_step_timers() -> None:
    """Zero the step-timing accumulators (all span totals)."""
    obs_trace.reset_totals()


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

    The inner loop is array-native: temperatures stay in the thermal
    solver's node vector, per-block power is evaluated with
    :meth:`~repro.power.model.PowerModel.block_powers_vector`, and block
    names are translated to vector indices exactly once per run.  Per-block
    ``{name: value}`` mappings are built only at the 10 kHz sensor sampling
    boundary (and in the ``power_path="mapping"`` regression mode).
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
        plan = self._config.fault_plan
        sensor_faults = (
            plan.sensor_faults
            if plan is not None and plan.targets(seed)
            else ()
        )
        self._sensors = (
            sensors
            if sensors is not None
            else SensorArray(
                self._floorplan, seed=seed, faults=sensor_faults or None
            )
        )
        self._policy = policy if policy is not None else NoDtmPolicy(
            self._power.technology.vdd_nominal
        )
        self._thresholds = (
            thresholds if thresholds is not None else ThermalThresholds()
        )
        self._tech = self._power.technology
        self._vf = self._power.vf_curve
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
        self._node_idx = network.block_node_indices
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
        network = self._hotspot.network
        solver_temps = np.array(initial, dtype=float, copy=True)
        from repro.thermal.solver import ExponentialSolver, make_transient_solver

        solver = make_transient_solver(
            network, solver_temps, self._config.thermal_stepper
        )
        self._policy.reset()
        self._emit(
            "run.start",
            0.0,
            instructions=float(instructions),
            settle_time_s=settle_time_s,
        )

        block_names = self._block_names
        n_blocks = len(block_names)
        pos = self._block_pos
        node_idx = self._node_idx
        # The per-step and per-span reductions call the ufunc methods
        # directly: the same reductions as ``.max()``/``.sum()``/
        # ``np.all`` (bit-identical), minus the Python wrapper frames.
        max_reduce = np.maximum.reduce
        sum_reduce = np.add.reduce
        all_reduce = np.logical_and.reduce
        use_vector = self._config.power_path == POWER_PATH_VECTOR
        # Compiled step pipeline: lower the workload's phase schedule to
        # contiguous arrays once per run and drive the loop from reused
        # CompiledSample activity vectors (bit-identical to the
        # interpreted path; see repro/workloads/compiler.py).  The
        # mapping power path keeps the interpreted model -- it consumes
        # per-block dicts by design.
        trace_mode = self._config.resolved_compiled_trace()
        compiled = use_vector and trace_mode != COMPILED_TRACE_OFF
        verify_compiled = trace_mode == COMPILED_TRACE_VERIFY
        if compiled:
            schedule = compile_workload(self._workload, block_names)
            perf: IntervalPerformanceModel = CompiledIntervalModel(
                schedule, loop=True, verify=verify_compiled
            )
        else:
            schedule = None
            perf = IntervalPerformanceModel(self._workload.phases, loop=True)

        nominal_v = self._tech.vdd_nominal
        command = DtmCommand(gating_fraction=0.0, voltage=nominal_v)
        voltage = nominal_v
        frequency = self._tech.frequency_nominal
        pending_voltage: Optional[float] = None
        pending_effective_s = 0.0

        time_s = 0.0
        measure_start_s = 0.0
        measuring = settle_time_s == 0.0
        done = 0.0
        cycles_f = 0.0
        violations = 0
        max_temp = -1e9
        hottest_block = block_names[0]
        above_trigger_s = 0.0
        # Always-on local telemetry: plain int/bool/float updates on
        # quantities the loop already computes, so the disabled path
        # stays bit-identical and allocation-free.  Published into the
        # obs registry in one batch after the loop.
        above_trigger = False
        trigger_crossings = 0
        cmd_active = False
        dtm_engagements = 0
        engaged_s = 0.0
        sensor_samples = 0
        switches = 0
        migrations = 0
        previous_migration = None
        low_time_s = 0.0
        stall_s = 0.0
        gating_time_weighted = 0.0
        energy_j = 0.0
        no_progress_steps = 0
        trace = TraceBuffer(block_names) if self._config.record_trace else None
        actuation: Optional[DtmActuation] = None
        actuation_cmd: Optional[DtmCommand] = None
        actuation_f_rel = -1.0
        gate_cmd: Optional[DtmCommand] = None
        gate_vec: Optional[np.ndarray] = None

        step_cycles = self._config.thermal_step_cycles
        switch_time = self._config.dvs_switch_time_s
        stall_mode = self._config.dvs_mode == DVS_MODE_STALL
        max_no_progress = self._config.max_no_progress_steps
        raise_on_violation = self._config.raise_on_violation
        trigger_c = self._thresholds.trigger_c
        emergency_c = self._thresholds.emergency_c

        # Bound methods and constants hoisted out of the loop: at ~10 us
        # of work per thermal step, repeated attribute lookups are a
        # measurable fraction of the whole run.
        sensors_due = self._sensors.due
        sensors_sample = self._sensors.sample
        sampling_period_s = self._sensors.sampling_period_s
        policy_update = self._policy.update
        vf_frequency = self._vf.frequency
        f_nominal = self._tech.frequency_nominal
        power_vector_fn = self._power.block_powers_vector
        perf_advance = perf.advance
        # Vectorized sensor sampling: the whole array is read with a few
        # NumPy ops straight from the block-temperature buffer, bit-
        # identical to per-sensor scalar reads.  Faulted arrays (and
        # injected arrays in a different block order) keep the scalar
        # path with its per-sensor fault handling.
        vector_sensors = (
            use_vector
            and self._sensors.vector_eligible
            and tuple(self._sensors.block_names) == tuple(block_names)
        )
        sensors_sample_vector = (
            self._sensors.sample_vector if vector_sensors else None
        )
        # Fused sensing: a policy that consumes only the hottest reading
        # (every max-only comparator policy in the tree declares
        # ``hottest_only``) gets the array maximum directly -- same
        # per-sensor values, no per-sample dict.  Bit-identical because
        # the maximum of identical values is order-independent.
        hottest_policy = vector_sensors and self._policy.hottest_only
        sensors_sample_hottest = (
            self._sensors.sample_hottest if hottest_policy else None
        )
        policy_update_hottest = (
            self._policy.update_hottest if hottest_policy else None
        )
        timing = step_timing_enabled()
        if timing:
            sensors_sample = _timed("sense", sensors_sample)
            if sensors_sample_vector is not None:
                sensors_sample_vector = _timed("sense", sensors_sample_vector)
            if sensors_sample_hottest is not None:
                sensors_sample_hottest = _timed(
                    "sense", sensors_sample_hottest
                )
                policy_update_hottest = _timed("policy", policy_update_hottest)
            policy_update = _timed("policy", policy_update)
            power_vector_fn = _timed("power", power_vector_fn)
            perf_advance = _timed("perf", perf_advance)

        temps_vec = solver.temperatures
        # Preallocated buffers reused every step: block temperatures are
        # gathered with np.take(..., out=) instead of fancy indexing, so
        # the steady-state loop allocates no per-step arrays at all.
        block_temps = np.empty(n_blocks)
        temps_vec.take(node_idx, out=block_temps)
        act_vec = np.zeros(n_blocks)
        zero_acts = np.zeros(n_blocks)
        power_buffer = np.zeros(network.size)

        # Deterministic solver-corruption fault: poison the power vector
        # at one configured execution step so the solver's numerical
        # guards (and the sweep supervisor above) are exercised end to
        # end.  Counts execution steps only, like the plan documents.
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
        exec_steps = 0
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
            and isinstance(solver, ExponentialSolver)
            and trace is None
            and use_vector
            and fault_corrupt_step is None
        )
        stride_ok = True
        planner = (
            StridePlanner(
                solver,
                node_idx,
                self._power,
                self._config.stride_drift_tol_w,
                trigger_c,
                emergency_c,
                raise_on_violation,
            )
            if ff_enabled
            else None
        )
        # Fused dense spans: when no decision can occur before the next
        # sensor sample (the stride disarmed, so the remaining steps run
        # dense), the span executes as one DenseSpanTask request through
        # the contract instead of one generator round-trip per step.
        # Bit-identical to per-step dispatch by construction -- the task
        # body is the per-step pipeline below, verbatim.
        kernel_backend = resolve_step_kernel(
            self._config.resolved_step_kernel()
        )
        kernel_enabled = (
            kernel_backend is not None
            and use_vector
            and trace is None
            and not raise_on_violation
            and fault_corrupt_step is None
        )
        if kernel_enabled and kernel_backend == STEP_KERNEL_NUMBA:
            # numba is importable, but the JIT lowering of the solver
            # apply is still an open ROADMAP item: run the numpy span
            # loop and say so in telemetry rather than silently.
            if obs_metrics.enabled():
                obs_events.emit(
                    "engine.step_kernel_numba_fallback", backend="numpy"
                )
        solver_step_kernel = (
            _timed("thermal", solver.step) if timing else solver.step
        )
        # The interval model memoizes its activity dicts, so the same
        # dict object comes back for thousands of consecutive steps;
        # translating it to vector order once per distinct dict (keyed by
        # identity, with the dict itself pinned in the entry so ids stay
        # unique) removes a per-step Python loop over the blocks.
        act_cache: Dict[int, tuple] = {}

        def block_temps_mapping() -> Dict[str, float]:
            return {
                name: float(block_temps[i]) for i, name in enumerate(block_names)
            }

        def idle_step_power():
            """Full-node power vector (and block total) with zero
            switching activity at the current operating point."""
            if use_vector:
                blocks_w = power_vector_fn(
                    zero_acts, voltage, frequency, block_temps, check=False
                )
                power_buffer[node_idx] = blocks_w
                return power_buffer, float(sum_reduce(blocks_w))
            zero = {name: 0.0 for name in block_names}
            powers = self._power.block_powers_reference(
                zero, voltage, frequency, block_temps_mapping()
            )
            return network.power_vector(powers), float(sum(powers.values()))

        def account_thermal(dt_acct: float, power_sum_w: float) -> None:
            """Measured-window statistics shared by execution steps and
            stall/migration sub-steps (which the accounting previously
            skipped -- an emergency reached during a 10 us stall window
            was silently missed)."""
            nonlocal max_temp, hottest_block, violations
            nonlocal above_trigger_s, low_time_s, energy_j
            nonlocal above_trigger, trigger_crossings
            step_max = float(max_reduce(block_temps))
            if step_max > max_temp:
                # argmax only when the maximum moved: the hottest block's
                # identity changes rarely, its temperature every step.
                max_temp = step_max
                hottest_block = block_names[int(np.argmax(block_temps))]
            if step_max > emergency_c:
                violations += 1
                if raise_on_violation:
                    raise ThermalViolationError(
                        step_max,
                        emergency_c,
                        time_s,
                        block_names[int(np.argmax(block_temps))],
                    )
            if step_max > trigger_c:
                above_trigger_s += dt_acct
                if not above_trigger:
                    above_trigger = True
                    trigger_crossings += 1
            else:
                above_trigger = False
            if voltage < nominal_v - 1e-12:
                low_time_s += dt_acct
            energy_j += power_sum_w * dt_acct

        def append_trace() -> None:
            # Callers guard on ``trace is not None`` so the common
            # no-trace run pays no call at all; rows land in the chunked
            # TraceBuffer, not per-step Python objects.
            k = int(np.argmax(block_temps))
            trace.append(
                time_s,
                k,
                float(block_temps[k]),
                command.gating_fraction,
                voltage,
                command.clock_enabled_fraction,
                done,
            )

        def stalled_substep(dt_sub: float):
            """Advance the thermal state through a stall window (DVS
            switch or migration flush) at idle power, with full thermal
            accounting and trace coverage.  A sub-generator: callers
            ``yield from`` it so the thermal step is serviced by the
            outer driver like any other."""
            nonlocal time_s, stall_s
            power, power_sum = idle_step_power()
            stepped = yield (solver, power, dt_sub, 1)
            stepped.take(node_idx, out=block_temps)
            time_s += dt_sub
            if measuring:
                stall_s += dt_sub
                account_thermal(dt_sub, power_sum)
            if trace is not None:
                append_trace()

        def run_dense_span(count: int):
            """Execute ``count`` fused dense steps inside the engine.

            The body is the main loop's per-step pipeline, verbatim --
            same callables, same buffers, same order -- minus the events
            that cannot occur before the next sensor sample (sensing,
            policy updates, actuation rebuilds, voltage switches,
            migration transitions), which is exactly what the
            invocation guards exclude.  The step-kernel equivalence
            suite pins bit-identity against the per-step anchor
            (``step_kernel="off"``).
            """
            nonlocal time_s, done, cycles_f, exec_steps, no_progress_steps
            nonlocal gating_time_weighted, engaged_s
            stepped = temps_vec
            gating = command.gating_fraction
            for _ in range(count):
                span_sample = perf_advance(step_cycles, actuation)
                if compiled:
                    span_acts = span_sample.acts
                else:
                    acts_map = span_sample.activities
                    entry = act_cache.get(id(acts_map))
                    if entry is not None and entry[0] is acts_map:
                        span_acts = entry[1]
                    else:
                        span_acts = np.zeros(n_blocks)
                        for name, value in acts_map.items():
                            p = pos.get(name)
                            if p is not None:
                                span_acts[p] = value
                        if len(act_cache) >= 2048:
                            act_cache.clear()
                        act_cache[id(acts_map)] = (acts_map, span_acts)
                if command.migration is not None:
                    source, target, fraction = command.migration
                    act_vec[:] = span_acts
                    moved = act_vec[pos[source]] * fraction
                    act_vec[pos[source]] -= moved
                    act_vec[pos[target]] = min(
                        1.0, act_vec[pos[target]] + moved
                    )
                    span_acts = act_vec
                blocks = power_vector_fn(
                    span_acts, voltage, frequency, block_temps, clock_gate,
                    check=False,
                )
                power_buffer[node_idx] = blocks
                span_power_sum = float(sum_reduce(blocks))
                exec_steps += 1
                stepped = solver_step_kernel(power_buffer, dt, copy=False)
                stepped.take(node_idx, out=block_temps)
                if span_sample.instructions <= 0.0:
                    no_progress_steps += 1
                    if no_progress_steps >= max_no_progress:
                        raise SimulationError(
                            f"no instructions committed in "
                            f"{no_progress_steps} consecutive thermal "
                            f"steps (is the clock fully gated?); raise "
                            f"max_no_progress_steps if this workload "
                            f"legitimately idles this long"
                        )
                else:
                    no_progress_steps = 0
                remaining = instructions - done
                if span_sample.instructions <= 0.0:
                    dt_measured = dt
                    cycles_f += step_cycles
                elif span_sample.instructions >= remaining:
                    fraction = remaining / span_sample.instructions
                    dt_measured = dt * fraction
                    cycles_f += step_cycles * fraction
                    done = instructions
                else:
                    dt_measured = dt
                    cycles_f += step_cycles
                    done += span_sample.instructions
                time_s += dt_measured
                account_thermal(dt_measured, span_power_sum)
                gating_time_weighted += gating * dt_measured
                if cmd_active:
                    engaged_s += dt_measured
                if done >= instructions:
                    break
            return stepped

        # Progress heartbeat: the publisher (if a supervisor registered
        # one) is captured once per run; with heartbeats off the hook
        # below is a single ``is not None`` compare per sensor sample.
        # Publishing reads loop locals only -- no physics state is
        # touched, so results stay bit-identical either way.
        hb_pub = obs_heartbeat.active()
        hb_publish = hb_pub.publish if hb_pub is not None else None

        while done < instructions:
            # --- sensing and policy -------------------------------------------
            if sensors_due(time_s):
                sensor_samples += 1
                stride_ok = True
                # Every stride and fused dense span stops strictly
                # before the next sensor sample, so this branch is hit
                # on all execution paths, kernel or not.
                if hb_publish is not None:
                    hb_publish(done, time_s, exec_steps, max_temp, cmd_active)
                if sensors_sample_hottest is not None:
                    new_command = policy_update_hottest(
                        sensors_sample_hottest(block_temps, time_s),
                        time_s,
                        sampling_period_s,
                    )
                elif sensors_sample_vector is not None:
                    readings = sensors_sample_vector(block_temps, time_s)
                    new_command = policy_update(
                        readings, time_s, sampling_period_s
                    )
                else:
                    readings = sensors_sample(block_temps_mapping(), time_s)
                    new_command = policy_update(
                        readings, time_s, sampling_period_s
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
                if abs(new_command.voltage - voltage) > 1e-12 and (
                    pending_voltage is None
                    or abs(new_command.voltage - pending_voltage) > 1e-12
                ):
                    if measuring:
                        switches += 1
                    if stall_mode:
                        if switch_time > 0.0:
                            yield from stalled_substep(switch_time)
                        voltage = new_command.voltage
                        frequency = vf_frequency(voltage)
                        pending_voltage = None
                    else:
                        pending_voltage = new_command.voltage
                        pending_effective_s = time_s + switch_time
                command = new_command

            if pending_voltage is not None and time_s >= pending_effective_s:
                voltage = pending_voltage
                frequency = vf_frequency(voltage)
                pending_voltage = None

            # --- activity-migration transitions --------------------------------
            if command.migration != previous_migration:
                previous_migration = command.migration
                if measuring:
                    migrations += 1
                if self._config.migration_time_s > 0.0:
                    yield from stalled_substep(self._config.migration_time_s)

            # --- one thermal step of execution --------------------------------
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

            if use_vector:
                if command.domain_gating:
                    if command is not gate_cmd:
                        clock_gate = np.ones(n_blocks)
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
                if compiled:
                    # The compiled model already produced the activity
                    # vector in block order (cached and read-only).
                    step_acts = sample.acts
                else:
                    acts_map = sample.activities
                    entry = act_cache.get(id(acts_map))
                    if entry is not None and entry[0] is acts_map:
                        step_acts = entry[1]
                    else:
                        step_acts = np.zeros(n_blocks)
                        for name, value in acts_map.items():
                            p = pos.get(name)
                            if p is not None:
                                step_acts[p] = value
                        if len(act_cache) >= 2048:
                            act_cache.clear()
                        act_cache[id(acts_map)] = (acts_map, step_acts)
                if command.migration is not None:
                    source, target, fraction = command.migration
                    try:
                        si = pos[source]
                        ti = pos[target]
                    except KeyError as exc:
                        raise SimulationError(
                            f"migration names unknown block {exc.args[0]!r}"
                        ) from None
                    # Cached vectors are shared; mutate a scratch copy.
                    act_vec[:] = step_acts
                    moved = act_vec[si] * fraction
                    act_vec[si] -= moved
                    act_vec[ti] = min(1.0, act_vec[ti] + moved)
                    step_acts = act_vec
                blocks_w = power_vector_fn(
                    step_acts, voltage, frequency, block_temps, clock_gate,
                    check=False,
                )
                power_buffer[node_idx] = blocks_w
                step_power = power_buffer
                power_sum = float(sum_reduce(blocks_w))
            else:
                if command.domain_gating:
                    from repro.dtm.domains import CLOCK_DOMAINS

                    clock_gate = {
                        block: command.clock_enabled_fraction * (1.0 - duty)
                        for domain, duty in command.domain_gating.items()
                        for block in CLOCK_DOMAINS[domain]
                    }
                else:
                    clock_gate = command.clock_enabled_fraction
                activities = dict(sample.activities)
                for name in block_names:
                    activities.setdefault(name, 0.0)  # e.g. spare structures
                if command.migration is not None:
                    source, target, fraction = command.migration
                    moved = activities.get(source, 0.0) * fraction
                    activities[source] = activities.get(source, 0.0) - moved
                    activities[target] = min(
                        1.0, activities.get(target, 0.0) + moved
                    )
                powers = self._power.block_powers_reference(
                    activities,
                    voltage,
                    frequency,
                    block_temps_mapping(),
                    clock_gate,
                )
                step_power = network.power_vector(powers)
                power_sum = float(sum(powers.values()))

            if fault_corrupt_step is not None and exec_steps == fault_corrupt_step:
                # Poison a copy: the shared power buffer must stay clean
                # for any later (post-recovery) steps.
                step_power = np.array(step_power, dtype=float, copy=True)
                step_power[0] = fault_poison
            exec_steps += 1

            temps_vec = yield (solver, step_power, dt, 1)
            temps_vec.take(node_idx, out=block_temps)

            # --- accounting ----------------------------------------------------
            if sample.instructions <= 0.0:
                # Zero-progress step (e.g. a fully clock-gated interval):
                # the clock still runs wall-time forward, but interpolating
                # `remaining / sample.instructions` would divide by zero
                # and the commit counter would never advance.
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

            if measuring:
                remaining = instructions - done
                if sample.instructions <= 0.0:
                    dt_measured = dt
                    cycles_f += step_cycles
                elif sample.instructions >= remaining:
                    # Interpolate the final partial step for exact elapsed
                    # time.
                    fraction = remaining / sample.instructions
                    dt_measured = dt * fraction
                    cycles_f += step_cycles * fraction
                    done = instructions
                else:
                    dt_measured = dt
                    cycles_f += step_cycles
                    done += sample.instructions
                time_s += dt_measured

                account_thermal(dt_measured, power_sum)
                gating_time_weighted += command.gating_fraction * dt_measured
                if cmd_active:
                    engaged_s += dt_measured
            else:
                time_s += dt
                if time_s >= settle_time_s:
                    measuring = True
                    measure_start_s = time_s
                    # Measure the same instruction window for every
                    # technique (the paper's fixed SimPoint sample): the
                    # settle lead-in warms the *thermal* state only.
                    if compiled:
                        perf = CompiledIntervalModel(
                            schedule, loop=True, verify=verify_compiled
                        )
                    else:
                        perf = IntervalPerformanceModel(
                            self._workload.phases, loop=True
                        )
                    perf_advance = (
                        _timed("perf", perf.advance) if timing
                        else perf.advance
                    )
                    # The step's sample came from the settle-phase
                    # model; disarm the stride so the next jump is sized
                    # from the fresh measurement model's samples.
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
                k = math.ceil(
                    (self._sensors.next_due_s - 1e-12 - time_s) / dt
                )
                k = min(k, perf.run_length(step_cycles, actuation))
                if measuring:
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
                        k_budget = int(
                            (instructions - done) / span_instr
                        )
                        while (
                            k_budget > 0
                            and done + k_budget * span_instr
                            >= instructions
                        ):
                            k_budget -= 1
                        k = min(k, k_budget)
                else:
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
                        power_buffer, step_acts, voltage, frequency,
                        clock_gate, actuation, k * dt, measuring,
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
                            blocks_seg = power_vector_fn(
                                step_acts, voltage, frequency,
                                block_temps, clock_gate, check=False,
                            )
                            power_buffer[node_idx] = blocks_seg
                            power_sum = float(sum_reduce(blocks_seg))
                            task = planner.segment(power_buffer, seg_s)
                            stepped = yield (solver, task, dt, k_i)
                            verdict = planner.settle()
                        if verdict != ACCEPT:
                            break
                        stride_taken = True
                        per_step_instr = perf.fast_forward(
                            step_cycles, actuation, k_i
                        )
                        temps_vec = stepped
                        temps_vec.take(node_idx, out=block_temps)
                        time_s += seg_s
                        if measuring:
                            done += per_step_instr * k_i
                            cycles_f += step_cycles * k_i
                            violations += task.violations
                            # The envelope proved the jumped span either
                            # uniformly above the trigger (trigger_s ==
                            # seg_s) or uniformly at-or-below it, so
                            # crossing state is exact.
                            if task.trigger_s > 0.0:
                                above_trigger_s += task.trigger_s
                                if not above_trigger:
                                    above_trigger = True
                                    trigger_crossings += 1
                            else:
                                above_trigger = False
                            if voltage < nominal_v - 1e-12:
                                low_time_s += seg_s
                            energy_j += power_sum * seg_s
                            gating_time_weighted += (
                                command.gating_fraction * seg_s
                            )
                            if cmd_active:
                                engaged_s += seg_s
                            step_max = float(max_reduce(block_temps))
                            if step_max > max_temp:
                                max_temp = step_max
                                hottest_block = block_names[
                                    int(np.argmax(block_temps))
                                ]
                    if verdict == REJECT:
                        stride_ok = False

            # --- fused dense span ------------------------------------------
            # With the stride disarmed (or event-driven stepping off
            # entirely) no decision can fire before the next sensor
            # sample, so the remaining dense steps execute as one fused
            # request instead of one generator round-trip per step.
            if (
                kernel_enabled
                and not stride_taken
                and not (ff_enabled and stride_ok)
                and measuring
                and pending_voltage is None
                and done < instructions
            ):
                k = math.ceil(
                    (self._sensors.next_due_s - 1e-12 - time_s) / dt
                )
                if k >= 2:
                    temps_vec = yield (
                        solver,
                        DenseSpanTask(run_dense_span, k),
                        dt,
                        k,
                    )

        elapsed_s = time_s - measure_start_s
        if obs_metrics.enabled():
            rejected = (
                planner.rejected
                if planner is not None
                else dict.fromkeys(REJECT_REASONS, 0)
            )
            # One batch publish per run: registry counters for the
            # process view, run-context metrics for the spill record the
            # sweep report aggregates, and one completion event.
            duty_cycle = engaged_s / max(elapsed_s, 1e-12)
            counters = {
                "engine.runs": 1.0,
                "engine.exec_steps": float(exec_steps),
                "engine.trigger_crossings": float(trigger_crossings),
                "engine.sensor_samples": float(sensor_samples),
                "engine.violations": float(violations),
                "engine.ff_spans_taken": float(
                    planner.taken if planner is not None else 0
                ),
                "engine.ff_spans_rejected": float(sum(rejected.values())),
                "dtm.engagements": float(dtm_engagements),
                "dtm.dvs_switches": float(switches),
                "dtm.migrations": float(migrations),
            }
            for reason, count in rejected.items():
                counters["engine.ff_rejected." + reason] = float(count)
            if solver.fallback_active:
                counters["thermal.fallback_runs"] = 1.0
            registry = obs_metrics.REGISTRY
            for name, value in counters.items():
                registry.counter(name).inc(value)
            obs_runctx.add_metrics(counters)
            obs_runctx.add_metric("dtm.duty_cycle", duty_cycle)
            obs_runctx.add_metric("dtm.engaged_s", engaged_s)
            obs_runctx.add_metric("engine.above_trigger_s", above_trigger_s)
            obs_events.emit(
                "engine.run_complete",
                benchmark=self._workload.name,
                policy=self._policy.name,
                instructions=float(done),
                elapsed_s=elapsed_s,
                trigger_crossings=trigger_crossings,
                violations=violations,
                dtm_duty_cycle=duty_cycle,
                fallback_active=bool(solver.fallback_active),
            )
        self._emit(
            "run.complete",
            time_s,
            instructions=float(done),
            violations=violations,
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
            violations=violations,
            max_true_temp_c=max_temp,
            hottest_block=hottest_block,
            time_above_trigger_s=above_trigger_s,
            dvs_switches=switches,
            dvs_low_time_s=low_time_s,
            stall_time_s=stall_s,
            mean_gating_fraction=gating_time_weighted / max(elapsed_s, 1e-12),
            mean_power_w=energy_j / max(elapsed_s, 1e-12),
            migrations=migrations,
            trigger_crossings=trigger_crossings,
            trace=trace.points() if trace is not None else None,
        )
