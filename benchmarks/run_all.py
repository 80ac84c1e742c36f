"""Run the benchmark harness end to end and time each bench.

Each bench module regenerates one of the paper's figures or in-text
tables (see the individual ``bench_*.py`` files); this driver runs a
selection of them back to back and times each one.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py            # full harness
    PYTHONPATH=src python benchmarks/run_all.py --json     # + BENCH_results.json
    PYTHONPATH=src python benchmarks/run_all.py --only fig3b fig4a

The instruction budget and process count come from the usual harness
knobs (``REPRO_BENCH_INSTRUCTIONS``, ``REPRO_BENCH_PROCESSES``; see
``_helpers.py``).  ``--json`` writes ``BENCH_results.json`` at the
repository root: per-bench wall time and the rendered result table,
plus the harness configuration -- the CI artifact consumed by
performance tracking.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).parent))

from _helpers import (
    bench_instructions,
    bench_processes,
    save_table,
)

from repro.sim import EngineConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_JSON_PATH = REPO_ROOT / "BENCH_results.json"

# name -> (module, _run positional args, saved-table name)
BENCHES: Dict[str, Tuple[str, tuple, str]] = {
    "fig3a_stall": ("bench_fig3a_pihyb_duty_sweep", ("stall",), "fig3a_stall"),
    "fig3a_ideal": ("bench_fig3a_pihyb_duty_sweep", ("ideal",), "fig3a_ideal"),
    "fig3b": ("bench_fig3b_fg_vs_dvs", (), "fig3b"),
    "fig4a": ("bench_fig4a_dtm_comparison_stall", (), "fig4a_stall"),
    "fig4b": ("bench_fig4b_dtm_comparison_ideal", (), "fig4b_ideal"),
    "t1": ("bench_t1_dvs_step_sensitivity", (), "t1_dvs_steps"),
    "t2": ("bench_t2_voltage_floor", (), "t2_voltage_floor"),
    "t4": ("bench_t4_benchmark_characterisation", (), "t4_characterisation"),
}


def _run_bench(
    name: str, benches: Dict[str, Tuple[str, tuple, str]] = BENCHES
) -> dict:
    """Execute one bench's ``_run`` (looked up in ``benches``) and
    measure it."""
    module_name, args, table_name = benches[name]
    module = importlib.import_module(module_name)
    runner: Callable[..., str] = module._run
    started = time.perf_counter()
    table = runner(*args)
    wall_s = time.perf_counter() - started
    save_table(table_name, table)
    return {"bench": name, "wall_s": round(wall_s, 3), "table": table}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        nargs="?",
        const=str(DEFAULT_JSON_PATH),
        default=None,
        metavar="PATH",
        help=(
            "write a machine-readable summary "
            f"(default path: {DEFAULT_JSON_PATH.name} at the repo root)"
        ),
    )
    parser.add_argument(
        "--only",
        nargs="+",
        choices=sorted(BENCHES),
        default=None,
        help="run only these benches (default: all)",
    )
    options = parser.parse_args(argv)

    names = options.only if options.only else list(BENCHES)
    config = {
        "instructions": bench_instructions(),
        "processes": bench_processes() or 1,
        "fast_forward": EngineConfig().fast_forward,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
    }
    print(f"[run_all: {len(names)} benches, config {config}]")

    records = []
    started = time.perf_counter()
    for name in names:
        print(f"\n=== {name} ===")
        records.append(_run_bench(name))
    total_wall = time.perf_counter() - started

    summary = {
        "config": config,
        "total_wall_s": round(total_wall, 3),
        "benches": records,
    }
    print(f"\n[run_all: {len(records)} benches in {total_wall:.1f} s]")
    if options.json:
        path = Path(options.json)
        path.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"[summary written to {path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
