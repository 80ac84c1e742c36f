"""Per-run telemetry context.

A *run* here is one engine execution inside a sweep (one
:class:`~repro.sim.batch.RunSpec`).  :func:`begin` opens the context --
pushing the run id into the ambient event context -- and :func:`end`
closes it, returning the finished run record: identity fields, numeric
metrics published by the engine, and the run's wall time.
:func:`repro.sim.batch.run_one` writes that record through
:mod:`repro.obs.spill` so it reaches the sweep parent even from a pool
worker.

Contexts nest (supervised serial fallback re-running a spec inside a
sweep), and are process-local like everything else in the obs layer.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional

from repro.obs import events, metrics


class _RunContext:
    __slots__ = ("run_id", "meta", "metrics", "t0", "saved_events")

    def __init__(self, run_id: str, meta: Dict[str, object]):
        self.run_id = run_id
        self.meta = meta
        self.metrics: Dict[str, float] = {}
        self.t0 = time.perf_counter()
        self.saved_events = events.push_context(run_id=run_id)


_STACK: List[_RunContext] = []


def begin(run_id: str, **meta) -> None:
    """Open a run context; ``meta`` are identity fields (benchmark,
    policy, seed, ...) copied verbatim into the run record."""
    _STACK.append(_RunContext(run_id, dict(meta)))


def current() -> Optional[str]:
    """The innermost active run id, or ``None``."""
    return _STACK[-1].run_id if _STACK else None


def add_metric(name: str, value: float) -> None:
    """Attach one numeric metric to the innermost run (accumulating:
    repeated calls with the same name sum)."""
    if _STACK:
        table = _STACK[-1].metrics
        table[name] = table.get(name, 0.0) + value


def add_metrics(values: Dict[str, float]) -> None:
    """Attach a batch of numeric metrics to the innermost run."""
    if _STACK:
        table = _STACK[-1].metrics
        for name, value in values.items():
            table[name] = table.get(name, 0.0) + value


def end(error: Optional[str] = None) -> Dict[str, object]:
    """Close the innermost run context and return its record.

    The record is flat-ish JSON: identity fields at top level, numeric
    metrics under ``"metrics"`` and the run's ``wall_seconds``, which
    also lands in the shared ``run.wall_seconds`` histogram.
    """
    if not _STACK:
        return {}
    ctx = _STACK.pop()
    events.pop_context(ctx.saved_events)
    wall = time.perf_counter() - ctx.t0
    metrics.REGISTRY.histogram("run.wall_seconds").observe(wall)
    record: Dict[str, object] = {
        "kind": "run",
        "run_id": ctx.run_id,
        "pid": os.getpid(),
        "wall_seconds": wall,
    }
    record.update(ctx.meta)
    if error is not None:
        record["error"] = error
    record["metrics"] = dict(ctx.metrics)
    return record


def reset() -> None:
    """Drop any open run contexts (test isolation)."""
    while _STACK:
        ctx = _STACK.pop()
        events.pop_context(ctx.saved_events)
