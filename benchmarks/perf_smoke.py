"""Fused step kernel identity check on one bench.

Runs one bench (default ``fig3b``; any ``run_all.py`` bench, or ``a9``
for the dual-core ablation) through the harness.  With
``--kernel-identity`` the bench is run twice -- once on the default
path, which runs decision-free dense spans as fused kernel calls, and
once with fusion switched off through the engine's private
``_FUSE_DENSE_SPANS`` seam, so every dense step goes through the
per-step path -- and the two result tables must be bit-identical.

Speed is not compared here: the CI wall-clock gate is the repository
benchmark (``perfbench/run.py --workload paper_sweep``) against its
recorded baseline and ``BENCHMARK.json`` bound.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py --kernel-identity
    PYTHONPATH=src python benchmarks/perf_smoke.py --bench a9 --kernel-identity
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).parent))

from run_all import BENCHES, _run_bench

# The figure benches plus the dual-core ablation, whose engine fuses
# every span between sensor samples.
SMOKE_BENCHES = dict(BENCHES, a9=("bench_a9_multicore", (), "a9_multicore"))


def _run_per_step(bench: str) -> dict:
    """Run one bench with fused dense spans switched off."""
    from repro.sim import engine

    previous = engine._FUSE_DENSE_SPANS
    engine._FUSE_DENSE_SPANS = False
    try:
        return _run_bench(bench, SMOKE_BENCHES)
    finally:
        engine._FUSE_DENSE_SPANS = previous


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench", default="fig3b", choices=sorted(SMOKE_BENCHES),
        help="bench to run (default %(default)s)",
    )
    parser.add_argument(
        "--kernel-identity", action="store_true",
        help="also run the bench with the fused step kernel off and "
             "require a bit-identical result table",
    )
    options = parser.parse_args(argv)

    record = _run_bench(options.bench, SMOKE_BENCHES)
    if not options.kernel_identity:
        print(f"\n[perf-smoke: {options.bench} ran in "
              f"{record['wall_s']:.2f} s]")
        return 0
    plain = _run_per_step(options.bench)
    if record["table"] != plain["table"]:
        print(
            f"perf-smoke: FAIL -- {options.bench} result table "
            f"with fused dense spans differs from the per-step run",
            file=sys.stderr,
        )
        return 1
    # No speed comparison: the first run also pays the process's
    # warm-ups (substrates, steady states, operator banks).
    print(
        f"\n[perf-smoke: kernel identity OK -- {options.bench} table "
        f"bit-identical with fused and per-step dense spans]"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
