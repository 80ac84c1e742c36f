"""Throughput regression gate against the committed baseline.

Runs one bench (default ``fig3b``) through the harness and compares its
thermal-step throughput with the same bench's entry in the committed
``BENCH_results.json``.  Exits non-zero when throughput drops more than
``--max-drop`` (default 30 %) below the baseline -- the CI perf-smoke
job runs this on every pull request (skippable with the
``skip-perf-smoke`` label for changes where a throughput delta is
expected and the baseline will be regenerated).

Throughput is per-run steps/second, so it is only weakly sensitive to
the instruction budget; CI uses a reduced budget and the slack in
``--max-drop`` absorbs the residual difference plus runner noise.

With ``--kernel-identity`` the bench is run twice -- once on the
default path, which runs decision-free dense spans as fused kernel
calls, and once with fusion switched off through the engine's private
``_FUSE_DENSE_SPANS`` seam, so every dense step goes through the
per-step path -- and the two result tables must be bit-identical; the
fused run is the one gated against the baseline.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py
    PYTHONPATH=src python benchmarks/perf_smoke.py --bench fig4a --max-drop 0.5
    PYTHONPATH=src python benchmarks/perf_smoke.py --kernel-identity
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).parent))

from run_all import BENCHES, DEFAULT_JSON_PATH, _run_bench


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
        help="bench to gate on (default %(default)s)",
    )
    parser.add_argument(
        "--baseline", default=str(DEFAULT_JSON_PATH), metavar="PATH",
        help="committed results file (default %(default)s)",
    )
    parser.add_argument(
        "--max-drop", type=float, default=0.30, metavar="FRACTION",
        help="largest tolerated relative throughput drop "
             "(default %(default)s)",
    )
    parser.add_argument(
        "--kernel-identity", action="store_true",
        help="also run the bench with the fused step kernel off and "
             "require a bit-identical result table (gates on the "
             "fused run)",
    )
    options = parser.parse_args(argv)

    baseline_path = Path(options.baseline)
    if not baseline_path.is_file():
        print(f"perf-smoke: no baseline at {baseline_path}; nothing to "
              f"gate against", file=sys.stderr)
        return 0
    baseline = json.loads(baseline_path.read_text())
    records = {r["bench"]: r for r in baseline.get("benches", [])}
    base = records.get(options.bench)
    if base is None:
        print(f"perf-smoke: baseline has no entry for {options.bench!r}; "
              f"nothing to gate against", file=sys.stderr)
        return 0
    base_sps = float(base["steps_per_second"])

    if options.kernel_identity:
        record = _run_bench(options.bench)
        plain = _run_per_step(options.bench)
        if _table_body(record) != _table_body(plain):
            print(
                f"perf-smoke: FAIL -- {options.bench} result table "
                f"with fused dense spans differs from the per-step run",
                file=sys.stderr,
            )
            return 1
        fused_sps = float(record["steps_per_second"])
        plain_sps = float(plain["steps_per_second"])
        speedup = fused_sps / plain_sps if plain_sps > 0 else float("inf")
        print(
            f"\n[perf-smoke: kernel identity OK -- {options.bench} table "
            f"bit-identical with fused and per-step dense spans; "
            f"fused {fused_sps:,.0f} vs per-step {plain_sps:,.0f} "
            f"steps/s ({speedup:.2f}x)]"
        )
    else:
        record = _run_bench(options.bench)
    sps = float(record["steps_per_second"])
    floor = base_sps * (1.0 - options.max_drop)
    ratio = sps / base_sps if base_sps > 0 else float("inf")
    print(
        f"\n[perf-smoke: {options.bench} at {sps:,.0f} steps/s vs "
        f"baseline {base_sps:,.0f} ({ratio:.2f}x); floor "
        f"{floor:,.0f} at max drop {options.max_drop:.0%}]"
    )
    if sps < floor:
        print(
            f"perf-smoke: FAIL -- {options.bench} throughput dropped "
            f"{1.0 - ratio:.0%}, more than the tolerated "
            f"{options.max_drop:.0%}",
            file=sys.stderr,
        )
        return 1
    print("perf-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
