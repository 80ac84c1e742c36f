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

Bit-identity with per-step dispatch is by construction: the kernel runs
the same callables on the same buffers in the same order as the per-step
path; only the generator suspension points disappear.  The engines keep
the per-step path for the runs that need every step to surface (trace
recording, injected solver faults, ``raise_on_violation``), and
``TestKernelBitIdentity`` in ``tests/sim/test_step_kernel.py`` and
``tests/multicore/test_kernel.py`` pins the two paths equal across the
nine single-core benchmark scenarios and the A9 dual-core grid.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["DenseSpanTask"]


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
