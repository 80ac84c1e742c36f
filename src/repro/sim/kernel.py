"""Fused dense-span execution for the step pipeline.

The engine's hot loop normally yields one ``(solver, power, dt, 1)``
request per thermal step through the :mod:`repro.sim.contract` surface.
Between DTM decision points (sensor samples) no step can change the
engine's control state -- the command, actuation and operating point are
frozen until the next sample -- so the per-step generator round-trip,
request tuple and driver dispatch are pure overhead.  The fused kernel
lowers such a decision-free span into a single :class:`DenseSpanTask`
request: the driver makes one call, and a tight pre-bound loop inside
the engine executes the span's sample/power/step/accounting pipeline
without leaving the engine's frame.

Both engines use it: the single-core
:class:`~repro.sim.engine.SimulationEngine` for the dense residue its
stride leaves, and the dual-core
:class:`~repro.multicore.engine.MultiCoreEngine` for every span between
sensor samples.  Inside a span the solver advances through
``span_stepper(power, dt)``, which validates the step and looks up its
operator once per span while health-checking every step.

A span body iterates over *phase runs*, not single steps.  Power is a
per-interval average and DTM acts only at sensor samples, so within a
span each core's interval sample changes only where its workload
crosses a phase boundary: between boundaries every step commits the
same instructions with the same cached activity vector.
:func:`next_phase_run` sizes the run every core shares
(:meth:`~repro.workloads.compiler.CompiledIntervalModel.phase_run`),
the engine evaluates the run's dynamic power once
(:meth:`~repro.power.model.PowerModel.dynamic_vector_w`), and each step
of the run computes only the temperature-dependent leakage -- the five
ufuncs of :meth:`~repro.power.model.PowerModel.leakage_vector_w`,
inline, on the operands :meth:`~repro.power.model.PowerModel.
leakage_coefficients` returns once per span -- followed by the solver
step and the accounting.  :func:`commit_phase_run` then applies the
steps the run took to every model.  A core at a phase boundary sends
that one step through ``advance()`` as before.

Bit-identity with per-step dispatch is by construction: the kernel runs
the same float operations on the same buffers in the same order as the
per-step path -- the dynamic/leakage split and the sequential
phase-run replay are both exact -- and only the generator suspension
points and the loop-invariant recomputation disappear.  The engines
keep the per-step path for the runs that need every step to surface
(trace recording, injected solver faults, ``raise_on_violation``), and
``TestKernelBitIdentity`` in ``tests/sim/test_step_kernel.py`` and
``tests/multicore/test_kernel.py`` pins the two paths equal across the
nine single-core benchmark scenarios, the A9 dual-core grid and
short-phase workloads whose boundaries fall inside spans.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

__all__ = ["DenseSpanTask", "commit_phase_run", "next_phase_run"]


class DenseSpanTask:
    """A fused dense span, shipped through the engine contract.

    Engines yield ``(solver, task, dt, count)`` where ``task`` carries a
    pre-bound closure that executes ``count`` consecutive thermal steps
    (workload sample, power evaluation, solver step, accounting) inside
    the engine's own frame.  Drivers treat it like any other request:
    :func:`repro.sim.contract.service_request` dispatches on the type
    and calls :meth:`run` once instead of stepping the solver directly.

    The closure returns the solver's state vector after the final step
    (the same object a plain step request would have produced), so
    driver-side plumbing that inspects the reply keeps working.
    """

    __slots__ = ("runner", "count")

    def __init__(self, runner: Callable[[int], object], count: int):
        self.runner = runner
        self.count = count

    def run(self, solver: object) -> object:
        """Execute the span against ``solver`` and return its state."""
        return self.runner(self.count)


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
