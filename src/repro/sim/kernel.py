"""The chip-step stage both engines compose, and its fused dense spans.

Both engines run one step pipeline -- sense, policy, power, thermal
step, account -- over one thermal network.  :class:`ChipStep` is the
part that does not depend on how many cores share the die, built once
per run by the single-core :class:`~repro.sim.engine.SimulationEngine`
and the dual-core :class:`~repro.multicore.engine.MultiCoreEngine`
alike: the solver, the operating point and the reused buffers; the fault
plan; sensing; the dense step, the idle-power stall sub-step and the
fused dense span; the accounting, per step and per closed-form jump; and
the end-of-run telemetry publish.  Each engine adds only its own stages
(docs/ENGINES.md section 2): the single-core engine its instruction
budget, stride and trace; the dual-core engine its per-core scatter and
commit, hopper and duration exit.

Fused dense spans.  Between DTM decision points (sensor samples) no
step can change an engine's control state -- the command, actuation
and operating point are frozen until the next sample -- so the
per-step generator round-trip, request tuple and driver dispatch are
pure overhead.  The kernel lowers such a decision-free span into a
single :class:`DenseSpanTask` request that :meth:`ChipStep.run_span`
executes without leaving the engine.  A span can start at the sample
itself and cover the step after it too (:meth:`ChipStep.
steps_to_sample` with ``head``), so a sensor period takes one request:
the dual-core engine starts every span there, the single-core engine
whenever no stride attempt can follow that step.

A span body iterates over *phase runs*, not single steps.  Power is a
per-interval average and DTM acts only at sensor samples, so within a
span each core's interval sample changes only where its workload
crosses a phase boundary: between boundaries every step commits the
same instructions with the same cached activity vector.
:func:`next_phase_run` sizes the run every core shares
(:meth:`~repro.workloads.compiler.CompiledIntervalModel.phase_run`),
the engine's *limit* stage cuts it at the engine's stop (the
instruction budget, the measured duration), and the span evaluates the
run's dynamic power once
(:meth:`~repro.power.model.PowerModel.dynamic_vector_w`).  Each step
of the run then does only the float work that cannot be hoisted: the
five leakage ufuncs of :meth:`~repro.power.model.PowerModel.
leakage_vector_w` on the previous step's block temperatures, the
dynamic + leakage add written straight into the block prefix of the
node power row, and the two propagator matvecs and their ``+=``
(:meth:`~repro.thermal.solver.ExponentialSolver.span_operators`).  The
health test runs once per phase run, over the run's new state rows
(:meth:`ChipStep.run_span`).  Node states and power rows live in
per-run history buffers; the die blocks are the node prefix
(:class:`~repro.thermal.rc_model.ThermalNetwork` checks it), so block
temperatures and block powers are prefix views of those rows, not
gathered or scattered copies, and the per-row views are built with the
buffers.

At 34-36 elements a NumPy call costs its dispatch (about 0.5-1 us), not
its arithmetic, so the step follows two rules: outputs are passed
positionally, and scalar operands are 0-d arrays (a Python float is
converted to an array on every call).  docs/MODELING.md section 8 gives
the measured cost per step.

The run is accounted once: its step maxima and power sums are two row
reductions, and the engine's *commit* stage (:meth:`ChipStep.
account_steps` plus the engine's own instructions and gating time)
replays the per-step scalar updates over them in one pass;
:func:`commit_phase_run` then applies the steps the run took to every
model.  A core at a phase boundary sends that one step through
``advance()`` as before.

Bit-identity with per-step dispatch is by construction: the kernel runs
the same float operations on the same operands in the same order as the
per-step path -- the dynamic/leakage split, the row reductions and the
sequential phase-run, clock and budget replays are all exact, and a
step whose row fails the run's health test goes through the solver's
own check and backward-Euler recovery at its own step
(:meth:`~repro.thermal.solver.ExponentialSolver.guard`) before the rest
of the run is stepped again.  ``TestKernelBitIdentity`` in
``tests/sim/test_step_kernel.py`` and ``tests/multicore/test_kernel.py``
pins the two paths equal across the nine single-core benchmark
scenarios, the A9 dual-core grid and short-phase workloads whose
boundaries fall inside spans; ``tests/sim/test_fused_differential.py``
draws the stops and the unhealthy rows at random.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ThermalViolationError
from repro.obs import events as obs_events
from repro.obs import heartbeat as obs_heartbeat
from repro.obs import metrics as obs_metrics
from repro.sim.faults import targeted
from repro.thermal.solver import DIVERGENCE_LIMIT_C, ExponentialSolver

# The reductions call the ufunc methods directly: the same reductions
# as ``.max()``/``.sum()`` (bit-identical), minus the Python wrapper
# frames.  Over the rows of a run (``axis=1``) each row reduces exactly
# as the 1-D block vector of a lone step does.
_max_reduce = np.maximum.reduce
_sum_reduce = np.add.reduce

# The fast half of the solver's health test (``_healthy``): a sum of
# squares below the squared limit proves every node healthy, whatever
# the summation order.
_HEALTHY_SQ = DIVERGENCE_LIMIT_C * DIVERGENCE_LIMIT_C

_MAX_RUN = 1024
"""Most steps a fused phase run takes at once: bounds the history
buffers when sensor samples are far apart (a longer run is stepped as
several)."""

__all__ = [
    "ChipStep",
    "DenseSpanTask",
    "commit_phase_run",
    "next_phase_run",
]


class DenseSpanTask:
    """A fused dense span, shipped through the engine contract.

    Engines yield ``(solver, task, dt, count)`` where ``task`` carries a
    pre-bound runner that executes up to ``count`` consecutive thermal
    steps (workload sample, power evaluation, solver step, accounting)
    inside the engine: ``runner(count, *args)``.  Drivers treat it like any
    other request: :func:`repro.sim.contract.service_request`
    dispatches on the type and calls :meth:`run` once instead of
    stepping the solver directly.

    The runner returns the solver's state vector after the final step
    (the same object a plain step request would have produced), so
    driver-side plumbing that inspects the reply keeps working.
    """

    __slots__ = ("runner", "count", "args")

    def __init__(self, runner: Callable[..., object], count: int, *args):
        self.runner = runner
        self.count = count
        self.args = args

    def run(self, solver: object) -> object:
        """Execute the span against ``solver`` and return its state."""
        return self.runner(self.count, *self.args)


def next_phase_run(
    models: Sequence, actuations: Sequence, cycles: int, limit: int
) -> Tuple[int, List[tuple], bool]:
    """Size the next phase run shared by every core's interval model.

    Returns ``(n, samples, sized)`` with one ``(instructions, acts)``
    pair per model.  With ``sized`` true, each of the next ``n <=
    limit`` steps commits those instructions with those (cached,
    read-only) activity vectors on every model; nothing has been
    advanced yet, and the caller applies the steps it ran with
    :func:`commit_phase_run`.  Otherwise some core is at a phase
    boundary (or its clock is gated, or it verifies every sample):
    every model has been stepped once through ``advance()``, exactly
    as the per-step path does, and ``n`` is 1.
    """
    samples = []
    n = limit
    for model, actuation in zip(models, actuations):
        n, instructions, acts = model.phase_run(cycles, actuation, n)
        if n == 0:
            break
        samples.append((instructions, acts))
    else:
        return n, samples, True
    samples = []
    for model, actuation in zip(models, actuations):
        sample = model.advance(cycles, actuation)
        samples.append((sample.instructions, sample.acts))
    return 1, samples, False


def commit_phase_run(models: Sequence, steps: int) -> None:
    """Apply the ``steps`` a span ran of the run :func:`next_phase_run`
    sized to every model."""
    for model in models:
        model.commit(steps)


class ChipStep:
    """The per-run chip-step stage both engines compose.

    Built once per run over the engine's thermal ``network`` from the
    ``initial`` node temperatures.  The engine moves the operating
    point with :meth:`set_voltage` and reads the run's clock and
    statistics back from the public attributes.  An engine's stages,
    over ``samples`` (one ``(instructions, acts)`` pair per core, as
    :func:`next_phase_run` returns them):

    * *scatter* ``scatter(samples)`` maps them to the chip activity
      vector;
    * *commit* ``commit(samples, dt, sums, rows) -> stop`` accounts a
      run of ``len(sums)`` steps of ``dt`` -- one step on the per-step
      path -- that ended at the block temperatures ``rows`` (a 2-D
      array, one row per step; :attr:`step_row` for a lone step)
      under the block power totals ``sums``, through
      :meth:`account_steps` (one call per step length: an interpolated
      final step is its own call);
    * *limit* ``limit(samples, dt, n) -> k`` cuts a fused run of ``n``
      steps at the engine's stop: the run takes ``k <= n`` steps and,
      when the stop falls inside it, the stopping step is the last.

    ``fuse`` is the engine's own condition for fused spans; the fault
    plan and ``raise_on_violation`` veto it here.
    """

    def __init__(
        self,
        network,
        initial: np.ndarray,
        power,
        sensors,
        thresholds,
        config,
        seed: int,
        settle_time_s: float,
        fuse: bool,
    ):
        self.solver = ExponentialSolver(
            network, np.array(initial, dtype=float, copy=True)
        )
        self.block_names = block_names = network.block_names
        self._n_blocks = n_blocks = len(block_names)
        # Reused buffers.  The die blocks are the network's first nodes,
        # so block temperatures are copied out of the node prefix and
        # block power is written into the prefix of the node power
        # vector (whose package entries stay zero): the steady-state
        # loop allocates no per-step array buffers.
        self.block_temps = self.solver.temperatures[:n_blocks].copy()
        #: :attr:`block_temps` as a one-row history: a lone step's
        #: ``rows`` for the engine's commit stage.
        self.step_row = self.block_temps[np.newaxis]
        self.power_buffer = np.zeros(network.size)
        self._power_blocks = self.power_buffer[:n_blocks]
        self._zero_acts = np.zeros(n_blocks)
        # Fused-span buffers: a phase run's dynamic power, a step's
        # leakage, the propagator scratch and the run histories (node
        # states and node power rows, built on the first span).
        self._dyn_w = np.empty(n_blocks)
        self._leak_w = np.empty(n_blocks)
        self._scratch = np.empty(network.size)
        self._history: Optional[tuple] = None
        self._cycles = config.thermal_step_cycles

        tech = power.technology
        self.nominal_v = self.voltage = tech.vdd_nominal
        self.frequency = tech.frequency_nominal
        self._vf_frequency = power.vf_curve.frequency
        self._low_v = self.nominal_v - 1e-12
        self._trigger_c = thresholds.trigger_c
        self._emergency_c = thresholds.emergency_c
        self._raise_on_violation = config.raise_on_violation
        self._settle_s = settle_time_s

        # Deterministic solver-corruption fault: poison the power vector
        # at one configured execution step so the solver's numerical
        # guards (and the sweep supervisor above) are exercised end to
        # end.  Counts execution steps only (stall sub-steps excluded),
        # like the plan documents.
        plan = targeted(config.fault_plan, seed)
        self.fault_step = plan.corrupt_power_at_step if plan else None
        self._poison = plan.poison if plan else 0.0
        # Runs that must surface every step (injected solver faults,
        # raise_on_violation, and whatever the engine excludes) keep
        # the per-step path.
        self.fuse = (
            fuse
            and not self._raise_on_violation
            and self.fault_step is None
        )

        # Bound methods hoisted out of the loop: at ~10 us of work per
        # thermal step, repeated attribute lookups are a measurable
        # fraction of the whole run.
        self._sensors = sensors
        self._sensors_due = sensors.due
        self._power_vector = power.block_powers_vector
        self._dynamic_w = power.dynamic_vector_w
        self._leakage_coefficients = power.leakage_coefficients
        # Vectorized sensor sampling reads the whole array with a few
        # NumPy ops straight from the block-temperature buffer, bit-
        # identical to per-sensor scalar reads.  Faulted arrays (and
        # injected arrays in a different block order) keep the scalar
        # path with its per-sensor fault handling.
        self.vector_sensors = sensors.vector_eligible and tuple(
            sensors.block_names
        ) == tuple(block_names)
        self._sample_vector = (
            sensors.sample_vector if self.vector_sensors else None
        )
        self._sample = sensors.sample
        # The run's record (if a sweep opened one) is captured once per
        # run: live progress goes through ``heartbeat`` and the metrics
        # through :meth:`publish`.  Both read counters only, so results
        # stay bit-identical either way.
        self.record = obs_heartbeat.active()
        self.heartbeat = (
            self.record.publish if self.record is not None else None
        )

        self.time_s = 0.0
        self.measuring = settle_time_s == 0.0
        self.measure_start_s = 0.0
        self.max_temp = -1e9
        self.hottest_block = block_names[0]
        self.violations = 0
        self.above_trigger = False
        self.above_trigger_s = 0.0
        self.trigger_crossings = 0
        self.low_time_s = 0.0
        self.energy_j = 0.0
        self.stall_s = 0.0
        self.exec_steps = 0
        self.sensor_samples = 0
        self.kernel_spans = 0
        self.kernel_steps = 0

    @property
    def measured_s(self) -> float:
        """Simulated time inside the measured window so far."""
        return self.time_s - self.measure_start_s if self.measuring else 0.0

    def set_voltage(self, voltage: float) -> None:
        """Move the chip to ``voltage`` and its V/f-curve frequency."""
        self.voltage = voltage
        self.frequency = self._vf_frequency(voltage)

    # --- sensing ------------------------------------------------------------

    def sample_due(self) -> bool:
        """True (and counted) when the sensors sample at this time."""
        if self._sensors_due(self.time_s):
            self.sensor_samples += 1
            return True
        return False

    def read_sensors(self):
        """One sensor read of the current block temperatures."""
        if self._sample_vector is not None:
            return self._sample_vector(self.block_temps, self.time_s)
        temps = self.block_temps
        return self._sample(
            {name: float(temps[i]) for i, name in enumerate(self.block_names)},
            self.time_s,
        )

    def steps_to_sample(self, dt: float, head: bool = False) -> int:
        """Steps of ``dt`` that end strictly before the next sample.

        With ``head`` the count starts at the sample just taken: the
        step the per-step path takes right after it, plus the steps
        from the clock that step ends at (``time_s + dt``, the value
        :meth:`account_steps` reaches), so a span of that length ends
        where the next :meth:`sample_due` fires."""
        if head:
            return 1 + math.ceil(
                (self._sensors.next_due_s - 1e-12 - (self.time_s + dt)) / dt
            )
        return math.ceil(
            (self._sensors.next_due_s - 1e-12 - self.time_s) / dt
        )

    # --- stepping -----------------------------------------------------------

    def power(self, acts: np.ndarray, clock_gate=1.0) -> float:
        """Evaluate the block power at the operating point into the
        node power buffer and return its block total."""
        blocks_w = self._power_vector(
            acts, self.voltage, self.frequency, self.block_temps, clock_gate,
            check=False,
        )
        self._power_blocks[...] = blocks_w
        return float(_sum_reduce(blocks_w))

    def gather(self, stepped: np.ndarray) -> None:
        """Copy the block temperatures out of a stepped node vector."""
        self.block_temps[...] = stepped[: self._n_blocks]

    def dense_step(self, acts: np.ndarray, clock_gate, dt: float):
        """One execution step through the contract (a sub-generator:
        ``power_sum = yield from chip.dense_step(...)``).

        Evaluates the power, applies the fault plan's poisoning to a
        copy (the shared buffer must stay clean for any post-recovery
        steps) and gathers the stepped block temperatures.  Returns the
        block power total.
        """
        power_sum = self.power(acts, clock_gate)
        power = self.power_buffer
        if self.exec_steps == self.fault_step:
            power = np.array(power, dtype=float, copy=True)
            power[0] = self._poison
        self.exec_steps += 1
        self.gather((yield (self.solver, power, dt, 1)))
        return power_sum

    def stall(self, dt_sub: float):
        """Advance the thermal state through a stall window (a DVS
        switch, a migration flush, a core hop) at idle power -- zero
        switching activity at the current operating point -- with full
        accounting inside the measured window.  A sub-generator, like
        :meth:`dense_step`.  A stall never ends the settle lead-in."""
        power_sum = self.power(self._zero_acts)
        self.gather((yield (self.solver, self.power_buffer, dt_sub, 1)))
        if self.measuring:
            self.stall_s += dt_sub
            self.account(dt_sub, power_sum)
        else:
            self.time_s += dt_sub

    def fused_span(self, dt: float, head: bool, *args):
        """Yield the steps up to the next sensor sample as one
        :class:`DenseSpanTask` (a sub-generator returning whether it
        yielded: nothing when fewer than two steps remain).  With
        ``head`` the span starts at the sample and covers the step
        after it too (:meth:`steps_to_sample`), so the period takes one
        request.  ``args`` are :meth:`run_span`'s."""
        k = self.steps_to_sample(dt, head)
        if k < 2:
            return False
        task = DenseSpanTask(self.run_span, k, dt, *args)
        yield (self.solver, task, dt, k)
        return True

    def _histories(self, rows: int, ambient: np.ndarray) -> tuple:
        """The node-state and node-power histories, at least ``rows``
        steps deep, with the views a run steps through.

        Returns ``(states, squares, block_rows, power_rows, views)``:
        ``rows + 1`` node-state rows (row 0 a run's start state), a
        scratch of ``rows`` node rows for the health test, the block
        prefixes of the states and of the ``rows`` node-power rows, and
        ``views`` -- the per-row views of the states, their block
        prefixes, the power rows and their block prefixes, as four
        lists.  Power rows hold the node power plus the ``ambient``
        source; the ambient is zero on the block prefix, so a step
        writes only that prefix and the package entries keep the
        ambient source.  All of it is built when the histories
        (re)allocate, so a step takes its rows from the lists instead
        of making four views."""
        history = self._history
        if history is None or len(history[0]) <= rows:
            m = self._n_blocks
            states = np.empty((rows + 1, ambient.size))
            powers = np.empty((rows, ambient.size))
            powers[:] = ambient
            block_rows, power_rows = states[:, :m], powers[:, :m]
            views = (
                list(states), list(block_rows), list(powers), list(power_rows)
            )
            self._history = history = (
                states, np.empty_like(powers), block_rows, power_rows, views
            )
        return history

    # Rows after a diverging one are stepped before the run's health
    # test finds it, and their leakage exp overflows; the per-step path
    # stops at that step first, so a span silences the warnings the
    # per-step path never reaches.
    @np.errstate(over="ignore", invalid="ignore")
    def run_span(
        self,
        count: int,
        dt: float,
        models: Sequence,
        actuations: Sequence,
        clock_gate,
        scatter: Callable,
        limit: Callable,
        commit: Callable,
    ):
        """Execute up to ``count`` fused dense steps, stopping at the
        engine's stop.

        Per phase run: the samples, ``limit``, ``scatter`` and the
        dynamic power once; per step: the leakage, the node power row
        and the propagator step, each step's state a row of the
        node-state history; then one health test over the run's new
        state rows and ``commit`` over the run's power sums and
        block-temperature rows, once.  The per-step path's float
        operations on the same operands in the same order, minus the
        events that cannot occur before the next sensor sample
        (sensing, policy updates, actuation rebuilds, voltage switches,
        migration transitions).

        The health test is :func:`~repro.thermal.solver._healthy`'s
        fast half row by row: a sum of squares below the squared limit
        proves every node of that state healthy, and NaN or Inf fail
        the comparison.  When a row fails it, the steps before it are
        adopted, the solver checks the failed step from its pre-step
        state and power row at its own clock (:meth:`~repro.thermal.
        solver.ExponentialSolver.guard`: the per-step path's check and
        backward-Euler recovery, or its error), and the rest of the run
        is stepped again from the checked state.
        """
        solver = self.solver
        a_d, b_d, ambient = solver.span_operators(dt)
        run_cap = min(count, _MAX_RUN)
        states, squares, block_rows, power_rows, views = self._histories(
            run_cap, ambient
        )
        state_l, block_l, power_l, power_block_l = views
        states[0] = solver.temperatures
        dyn_w, leak_w, scratch = self._dyn_w, self._leak_w, self._scratch
        subtract = np.subtract
        multiply = np.multiply
        exp = np.exp
        add = np.add
        a_dot, b_dot = a_d.dot, b_d.dot
        dynamic_w = self._dynamic_w
        voltage, frequency = self.voltage, self.frequency
        cycles = self._cycles
        # The scalar operands are 0-d arrays: no per-call conversion.
        ref_c, beta, leak_scale, leak_ref = self._leakage_coefficients(
            voltage, frequency
        )
        steps = 0  # steps this span has taken
        synced = 0  # of them, the steps already on the solver's clock
        left = count
        stop = False
        while left and not stop:
            n, samples, sized = next_phase_run(
                models, actuations, cycles, min(left, run_cap)
            )
            n = limit(samples, dt, n)
            dynamic_w(scatter(samples), voltage, frequency, clock_gate, dyn_w)
            first = 0  # the run's first step still to take
            while first < n:
                for prev, nxt, prev_b, power, power_b in zip(
                    state_l[first:n],
                    state_l[first + 1 : n + 1],
                    block_l[first:n],
                    power_l[first:n],
                    power_block_l[first:n],
                ):
                    # block_powers_vector's leakage half, then its sum
                    # with the run's dynamic part in the node power row.
                    subtract(prev_b, ref_c, leak_w)
                    multiply(leak_w, beta, leak_w)
                    exp(leak_w, leak_w)
                    multiply(leak_w, leak_scale, leak_w)
                    multiply(leak_w, leak_ref, leak_w)
                    add(dyn_w, leak_w, power_b)
                    # The solver's step: A_d T + B_d (P + ambient).  The
                    # ndarray methods run np.dot's product without its
                    # dispatch frame.
                    a_dot(prev, nxt)
                    b_dot(power, scratch)
                    add(nxt, scratch, nxt)
                # The run's health test: one sum of squares per new
                # state row.  A failed row k takes the per-step path's
                # check at step k; the run re-steps from row k + 1.
                new = states[first + 1 : n + 1]
                squared = squares[: n - first]
                multiply(new, new, squared)
                sums = _sum_reduce(squared, axis=1)
                if _max_reduce(sums) < _HEALTHY_SQ:
                    break
                k = first + int(np.argmin(sums < _HEALTHY_SQ))
                solver.adopt(state_l[k], dt, steps + k - synced)
                synced = steps + k + 1
                self._power_blocks[...] = power_block_l[k]
                solver.guard(state_l[k + 1], state_l[k], self.power_buffer, dt)
                first = k + 1
            if sized:
                commit_phase_run(models, n)
            stop = commit(
                samples,
                dt,
                _sum_reduce(power_rows[:n], axis=1).tolist(),
                block_rows[1 : n + 1],
            )
            states[0] = states[n]
            steps += n
            left -= n
        self.block_temps[...] = block_rows[0]
        self.exec_steps += steps
        self.kernel_spans += 1
        self.kernel_steps += steps
        return solver.adopt(states[0], dt, steps - synced)

    # --- accounting ---------------------------------------------------------

    def account(self, dt: float, power_sum_w: float) -> None:
        """:meth:`account_steps` for one step (or a stall inside the
        measured window) that ended at :attr:`block_temps`."""
        self.account_steps(dt, (power_sum_w,), self.step_row)

    def account_steps(self, dt: float, sums: Sequence, rows) -> int:
        """Advance the clock by ``len(sums)`` execution steps of ``dt``
        and account them; step ``i`` ended at the block temperatures
        ``rows[i]`` under the block power total ``sums[i]``.  Returns
        how many of the steps began inside the measured window.

        Step by step, as the per-step path does: before the measured
        window only the clock moves, and the step that reaches the
        settle time opens the window.  Inside it: the maximum and
        hottest block, emergency violations (raised at the step's
        *end* time under ``raise_on_violation``), trigger crossings and
        time above the trigger, low-voltage time and energy.
        """
        n = len(sums)
        time_s = self.time_s
        first = 0
        if not self.measuring:
            settle_s = self._settle_s
            while first < n:
                time_s += dt
                first += 1
                if time_s >= settle_s:
                    self.measuring = True
                    self.measure_start_s = time_s
                    break
        if first == n:
            self.time_s = time_s
            return 0
        maxima = _max_reduce(rows, axis=1).tolist()
        max_temp = self.max_temp
        emergency_c = self._emergency_c
        trigger_c = self._trigger_c
        above = self.above_trigger
        above_s = self.above_trigger_s
        crossings = self.trigger_crossings
        low = self.voltage < self._low_v
        low_s = self.low_time_s
        energy_j = self.energy_j
        violation = None
        for i in range(first, n):
            time_s += dt
            step_max = maxima[i]
            if step_max > max_temp:
                # argmax only when the maximum moved: the hottest
                # block's identity changes rarely, its temperature
                # every step.
                max_temp = step_max
                self.hottest_block = self.block_names[int(np.argmax(rows[i]))]
            if step_max > emergency_c:
                self.violations += 1
                if self._raise_on_violation:
                    violation = ThermalViolationError(
                        step_max,
                        emergency_c,
                        time_s,
                        self.block_names[int(np.argmax(rows[i]))],
                    )
                    break
            if step_max > trigger_c:
                above_s += dt
                if not above:
                    above = True
                    crossings += 1
            else:
                above = False
            if low:
                low_s += dt
            energy_j += sums[i] * dt
        self.time_s = time_s
        self.max_temp = max_temp
        self.above_trigger = above
        self.above_trigger_s = above_s
        self.trigger_crossings = crossings
        self.low_time_s = low_s
        self.energy_j = energy_j
        if violation is not None:
            raise violation
        return n - first

    def steps_within(self, dt: float, n: int, duration_s: float) -> int:
        """How many of the next ``n`` steps of ``dt`` run until the
        measured window holds ``duration_s``: the step that fills it
        included.  Replays :meth:`account_steps`' clock adds and its
        settle flip."""
        time_s = self.time_s
        measuring = self.measuring
        start_s = self.measure_start_s
        for i in range(n):
            time_s += dt
            if measuring:
                if time_s - start_s >= duration_s:
                    return i + 1
            elif time_s >= self._settle_s:
                measuring = True
                start_s = time_s
        return n

    def account_span(
        self, span_s: float, power_sum_w: float, violations: int,
        trigger_s: float,
    ) -> None:
        """:meth:`account` for a closed-form jump of ``span_s`` seconds
        under constant ``power_sum_w``, ending at the current block
        temperatures.

        The stride proof counted the span's ``violations`` and proved
        it either uniformly above the trigger (``trigger_s ==
        span_s``) or uniformly at-or-below it (``trigger_s == 0``), so
        the crossing state is exact.  A jump never straddles the end
        of the settle lead-in.
        """
        self.time_s += span_s
        if not self.measuring:
            return
        self.violations += violations
        if trigger_s > 0.0:
            self.above_trigger_s += trigger_s
            if not self.above_trigger:
                self.above_trigger = True
                self.trigger_crossings += 1
        else:
            self.above_trigger = False
        if self.voltage < self._low_v:
            self.low_time_s += span_s
        self.energy_j += power_sum_w * span_s
        step_max = float(_max_reduce(self.block_temps))
        if step_max > self.max_temp:
            self.max_temp = step_max
            self.hottest_block = self.block_names[
                int(np.argmax(self.block_temps))
            ]

    # --- telemetry ----------------------------------------------------------

    def publish(
        self,
        benchmark: str,
        policy: str,
        instructions: float,
        elapsed_s: float,
        counters: Dict[str, float],
        metrics: Dict[str, float],
        **event,
    ) -> None:
        """One batch publish per run when observability is on: registry
        counters for the process view, metrics on the run's record for
        the sweep report, and one ``engine.run_complete`` event carrying
        the record's ``run_id``.  ``counters``, ``metrics`` and
        ``event`` carry the engine's own additions."""
        if not obs_metrics.enabled():
            return
        fallback = bool(self.solver.fallback_active)
        counters = {
            "engine.runs": 1.0,
            "engine.exec_steps": float(self.exec_steps),
            "engine.trigger_crossings": float(self.trigger_crossings),
            "engine.sensor_samples": float(self.sensor_samples),
            "engine.violations": float(self.violations),
            "engine.kernel_spans": float(self.kernel_spans),
            "engine.kernel_steps": float(self.kernel_steps),
            **counters,
        }
        if fallback:
            counters["thermal.fallback_runs"] = 1.0
        registry = obs_metrics.REGISTRY
        for name, value in counters.items():
            registry.counter(name).inc(value)
        record = self.record
        if record is not None:
            record.add_metrics(counters)
            record.add_metrics(
                {"engine.above_trigger_s": self.above_trigger_s, **metrics}
            )
            event["run_id"] = record.run_id
        obs_events.emit(
            "engine.run_complete",
            benchmark=benchmark,
            policy=policy,
            instructions=float(instructions),
            elapsed_s=elapsed_s,
            trigger_crossings=self.trigger_crossings,
            violations=self.violations,
            fallback_active=fallback,
            **event,
        )
