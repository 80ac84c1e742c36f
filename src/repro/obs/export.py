"""Exporters: registry snapshots as JSON and Prometheus text format.

The Prometheus exposition follows the text format conventions: metric
names are the registry's dotted names with dots mangled to underscores
under a ``repro_`` prefix; histograms expose cumulative ``le`` bucket
series plus ``_sum`` / ``_count``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs import metrics

_INF = float("inf")


def registry_snapshot(
    registry: Optional[metrics.MetricsRegistry] = None,
) -> Dict[str, object]:
    """Registry contents as one JSON-serialisable mapping
    (``counters`` / ``gauges`` / ``histograms``)."""
    registry = registry if registry is not None else metrics.REGISTRY
    return registry.snapshot()


def _mangle(name: str) -> str:
    return "repro_" + name.replace(".", "_")


def _fmt(value: float) -> str:
    # NaN/Inf first: int(nan) raises ValueError and int(inf) raises
    # OverflowError, and Prometheus text requires these exact spellings.
    if value != value:
        return "NaN"
    if value == _INF:
        return "+Inf"
    if value == -_INF:
        return "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_text(
    registry: Optional[metrics.MetricsRegistry] = None,
    counters: Optional[Dict[str, float]] = None,
) -> str:
    """The registry (or an explicit ``counters`` table, as a
    :class:`~repro.obs.report.SweepReport` holds) in Prometheus text
    exposition format."""
    registry = registry if registry is not None else metrics.REGISTRY
    lines: List[str] = []

    if counters is None:
        counter_table = registry.counter_values()
        counter_help = {
            name: c.help for name, c in registry._counters.items() if c.help
        }
    else:
        counter_table = counters
        counter_help = {}
    for name in sorted(counter_table):
        mangled = _mangle(name)
        if name in counter_help:
            lines.append(f"# HELP {mangled} {counter_help[name]}")
        lines.append(f"# TYPE {mangled} counter")
        lines.append(f"{mangled} {_fmt(counter_table[name])}")

    if counters is None:
        for name in sorted(registry._gauges):
            gauge = registry._gauges[name]
            mangled = _mangle(name)
            if gauge.help:
                lines.append(f"# HELP {mangled} {gauge.help}")
            lines.append(f"# TYPE {mangled} gauge")
            lines.append(f"{mangled} {_fmt(gauge.value)}")

        for name in sorted(registry._histograms):
            hist = registry._histograms[name]
            mangled = _mangle(name)
            if hist.help:
                lines.append(f"# HELP {mangled} {hist.help}")
            lines.append(f"# TYPE {mangled} histogram")
            cumulative = 0
            for bound, count in zip(hist.bounds, hist.counts):
                cumulative += count
                lines.append(
                    f'{mangled}_bucket{{le="{_fmt(bound)}"}} {cumulative}'
                )
            lines.append(f'{mangled}_bucket{{le="+Inf"}} {hist.count}')
            lines.append(f"{mangled}_sum {repr(float(hist.sum))}")
            lines.append(f"{mangled}_count {hist.count}")

    return "\n".join(lines) + "\n" if lines else ""
