"""Lightweight span tracing with process totals and per-run aggregation.

``with span("sweep.total"):`` times a block and records it under the
span's name.  Recording is two-level:

* **process totals** -- cumulative ``{name: (seconds, calls)}`` since
  the last reset.  The engine's per-section step timers
  (``sense`` / ``policy`` / ``perf`` / ``power`` / ``thermal``) record
  through :func:`record` into the same table, so ``python -m repro
  bench`` and the Prometheus export read one source of truth;
* **run aggregates** -- when a run context is open
  (:func:`begin_run` / :func:`end_run`, managed by
  :mod:`repro.obs.runctx`), the same recordings also land in the run's
  own table, which travels to the sweep parent in the run's spill
  record.  Aggregates nest (a stack), so a supervised serial fallback
  running inside a sweep span attributes time correctly.

When observability is disabled, :func:`span` returns a shared no-op
singleton -- no object allocation, no clock read -- which the
disabled-overhead tests assert.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.obs import metrics

_TOTALS: Dict[str, List[float]] = {}  # name -> [seconds, calls]
_RUN_STACK: List[Dict[str, List[float]]] = []


def record(name: str, seconds: float) -> None:
    """Add one timed interval under ``name``.

    Unconditional by design: callers gate on their own flags (the
    engine installs its step timers only when observability is on).
    """
    entry = _TOTALS.get(name)
    if entry is None:
        entry = _TOTALS[name] = [0.0, 0]
    entry[0] += seconds
    entry[1] += 1
    if _RUN_STACK:
        run = _RUN_STACK[-1]
        entry = run.get(name)
        if entry is None:
            entry = run[name] = [0.0, 0]
        entry[0] += seconds
        entry[1] += 1


class _NullSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("name", "_t0")

    def __init__(self, name: str):
        self.name = name
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        record(self.name, perf_counter() - self._t0)
        return False


def span(name: str):
    """A context manager timing its block under ``name``.

    Returns the shared no-op singleton when observability is disabled,
    so a disabled call allocates nothing.
    """
    if not metrics.enabled():
        return _NULL_SPAN
    return _Span(name)


def totals() -> Dict[str, Tuple[float, int]]:
    """Cumulative ``{name: (seconds, calls)}`` since the last reset."""
    return {name: (entry[0], entry[1]) for name, entry in _TOTALS.items()}


def reset_totals() -> None:
    """Zero the process-lifetime span totals."""
    _TOTALS.clear()


def begin_run() -> None:
    """Open a fresh per-run aggregate (nestable)."""
    _RUN_STACK.append({})


def end_run() -> Dict[str, Tuple[float, int]]:
    """Close the innermost per-run aggregate and return it."""
    if not _RUN_STACK:
        return {}
    run = _RUN_STACK.pop()
    return {name: (entry[0], entry[1]) for name, entry in run.items()}


def reset_run_stack() -> None:
    """Drop any open run aggregates (test isolation)."""
    _RUN_STACK.clear()
