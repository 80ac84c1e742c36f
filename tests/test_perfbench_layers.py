"""Guard for the benchmark's per-layer trace (``perfbench/layers.py``).

The trace wraps library entry points by name from outside ``src/``, so
renaming one of them silently drops its layer from the benchmark.  This
test imports the tracer as it is, runs a short lockstep sweep under it
and checks that the stride layers were recorded, so such a rename fails
here instead.
"""

import importlib.util
from pathlib import Path

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
        run_many(specs, lockstep=True)
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
