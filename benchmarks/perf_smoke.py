"""Fused step kernel identity check on one bench.

Runs one bench (default ``fig3b``) through the harness.  With
``--kernel-identity`` the bench is run twice -- once on the default
path, which runs decision-free dense spans as fused kernel calls, and
once with fusion switched off through the engine's private
``_FUSE_DENSE_SPANS`` seam, so every dense step goes through the
per-step path -- and the two result tables must be bit-identical.

Throughput is reported, not gated: the CI wall-clock gate is the
repository benchmark (``perfbench/run.py --workload paper_sweep``)
against its recorded baseline and ``BENCHMARK.json`` bound.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py --kernel-identity
    PYTHONPATH=src python benchmarks/perf_smoke.py --bench fig4a --kernel-identity
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).parent))

from run_all import BENCHES, _run_bench


def _table_body(record: dict) -> str:
    """The bench's result table minus its wall-clock throughput line.

    Every bench appends a ``[throughput: ...]`` report to its table;
    that line is timing, not simulation output, so the bit-identity
    check must ignore it.
    """
    return "\n".join(
        line for line in record["table"].splitlines()
        if not line.startswith("[throughput:")
    )


def _run_per_step(bench: str) -> dict:
    """Run one bench with fused dense spans switched off."""
    from repro.sim import engine

    previous = engine._FUSE_DENSE_SPANS
    engine._FUSE_DENSE_SPANS = False
    try:
        return _run_bench(bench)
    finally:
        engine._FUSE_DENSE_SPANS = previous


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench", default="fig3b", choices=sorted(BENCHES),
        help="bench to run (default %(default)s)",
    )
    parser.add_argument(
        "--kernel-identity", action="store_true",
        help="also run the bench with the fused step kernel off and "
             "require a bit-identical result table",
    )
    options = parser.parse_args(argv)

    record = _run_bench(options.bench)
    fused_sps = float(record["steps_per_second"])
    if not options.kernel_identity:
        print(f"\n[perf-smoke: {options.bench} ran at {fused_sps:,.0f} "
              f"steps/s]")
        return 0
    plain = _run_per_step(options.bench)
    if _table_body(record) != _table_body(plain):
        print(
            f"perf-smoke: FAIL -- {options.bench} result table "
            f"with fused dense spans differs from the per-step run",
            file=sys.stderr,
        )
        return 1
    plain_sps = float(plain["steps_per_second"])
    speedup = fused_sps / plain_sps if plain_sps > 0 else float("inf")
    print(
        f"\n[perf-smoke: kernel identity OK -- {options.bench} table "
        f"bit-identical with fused and per-step dense spans; "
        f"fused {fused_sps:,.0f} vs per-step {plain_sps:,.0f} "
        f"steps/s ({speedup:.2f}x)]"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
