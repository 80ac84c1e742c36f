"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's figures or in-text tables at
full scale, prints the table, and writes it to ``benchmarks/results/``.

Environment knobs:

* ``REPRO_BENCH_INSTRUCTIONS`` -- per-benchmark instruction budget
  (default 20 000 000, about 7 ms of 3 GHz execution per run).
* ``REPRO_BENCH_PROCESSES`` -- worker processes for the sweep runner
  (:func:`repro.sim.batch.run_many`); default 1 (serial).  Values > 1
  fan independent runs out over a process pool; results are identical
  to the serial path.

Sweeps run on :func:`~repro.sim.batch.run_many`'s default execution
path, which advances homogeneous batches in lockstep
(:mod:`repro.sim.lockstep`), as it does for every other caller.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

RESULTS_DIR = Path(__file__).parent / "results"


def bench_instructions() -> int:
    """Per-run instruction budget for the harness."""
    return int(os.environ.get("REPRO_BENCH_INSTRUCTIONS", 20_000_000))


def bench_processes() -> Optional[int]:
    """Worker-process count for the sweep runner (None means serial)."""
    value = int(os.environ.get("REPRO_BENCH_PROCESSES", 1))
    return value if value > 1 else None


def save_table(name: str, text: str) -> None:
    """Print a rendered table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print()
    print(text)
    print(f"[saved to {path}]")
