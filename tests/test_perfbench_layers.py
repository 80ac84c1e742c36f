"""Guard for the benchmark's per-layer trace (``perfbench/layers.py``).

The trace wraps library entry points by name from outside ``src/``, so
renaming one of them silently drops its layer from the benchmark (and
from ``python -m repro bench``, which prints the same trace).  These
tests import the tracer as it is, run short sweeps under it and check
that the layers were recorded, so such a rename fails here instead.
"""

import importlib.util
from pathlib import Path

from repro.multicore.batch import DualCoreRunSpec
from repro.sim.batch import RunSpec, run_many
from repro.thermal.solver import ExponentialSolver, SpanProbe

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lockstep_sweep_records_stride_layers():
    layers = _load_layers()
    originals = (
        vars(SpanProbe)["bounds"],
        vars(SpanProbe)["widened"],
        vars(ExponentialSolver)["fast_forward"],
    )
    specs = [
        RunSpec(workload="gcc", policy=policy, instructions=2_000_000, seed=seed)
        for policy in ("none", "FG")
        for seed in (0, 1)
    ]
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        run_many(specs)
    finally:
        layers.uninstall(tracer)
    totals = tracer.totals()
    for layer in (layers.STRIDE_PROOF, layers.STRIDE_APPLY):
        assert layer in totals and totals[layer].calls > 0, layer
    assert totals[layers.STRIDE_APPLY].units >= 2 * totals[
        layers.STRIDE_APPLY
    ].calls
    assert (
        vars(SpanProbe)["bounds"],
        vars(SpanProbe)["widened"],
        vars(ExponentialSolver)["fast_forward"],
    ) == originals


def _traced(layers, sweeps):
    tracer = layers.Tracer()
    layers.install(tracer)
    patches = list(tracer.patches)
    try:
        for specs in sweeps:
            run_many(specs)
    finally:
        layers.uninstall(tracer)
    return tracer.totals(), patches


STEP_LAYERS = ("KERNEL", "SENSORS", "DTM", "UARCH", "POWER")


def test_dual_core_run_records_step_layers():
    layers = _load_layers()
    spec = DualCoreRunSpec(
        ("crafty", "mesa"),
        policies=("Hyb", "Hyb"),
        duration_s=1.0e-3,
        settle_time_s=2.0e-4,
    )
    totals, _ = _traced(layers, [[spec]])
    for name in STEP_LAYERS:
        layer = getattr(layers, name)
        assert layer in totals and totals[layer].calls > 0, layer


def test_per_run_sweep_records_step_layers_and_restores_owners():
    layers = _load_layers()
    specs = [
        RunSpec(workload="gcc", policy="Hyb", instructions=2_000_000, seed=seed)
        for seed in (0, 1)
    ]
    # One-spec sweeps: each run alone.
    totals, patches = _traced(layers, [[spec] for spec in specs])
    for name in STEP_LAYERS + ("DENSE",):
        layer = getattr(layers, name)
        assert layer in totals and totals[layer].calls > 0, layer
    assert patches
    for owner, name, _ in patches:
        assert not hasattr(vars(owner)[name], "__wrapped_layer__"), (
            owner, name
        )
