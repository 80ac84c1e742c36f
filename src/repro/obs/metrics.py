"""The metrics registry: counters, gauges, fixed-bucket histograms.

One module-level flag (:func:`enabled`, initialised from ``REPRO_OBS``)
gates the whole observability layer.  Instrumented code follows one of
two patterns:

* *hot paths* (the engine's step loop) check the flag **once per run**
  and keep plain local counters either way, publishing them into the
  registry in one batch at the end of the run -- the disabled path
  executes no observability code at all;
* *cold paths* (a fallback activation, a pool rebuild) call
  :func:`inc` or ``REGISTRY.counter(...).inc()`` directly; when
  disabled, :func:`inc` returns before touching the registry and
  allocates nothing.

The registry itself is process-local.  Worker processes publish into
their own copy; cross-process aggregation happens through per-run spill
records (:mod:`repro.obs.spill`), not by merging registries.
"""

from __future__ import annotations

import atexit
import os
import re
import shutil
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

OBS_ENV = "REPRO_OBS"
"""Set to ``1`` to enable the observability layer (metrics registry,
structured events, run records, sweep reports).  Off by default."""

OBS_DIR_ENV = "REPRO_OBS_DIR"
"""Directory that receives event logs, worker spill files and sweep
reports.  When unset, a per-run temporary directory is created lazily
(``repro-obs-*`` under the system temp dir) and removed at interpreter
exit, so casual runs never litter the working directory with
``obs/events-*.jsonl`` files.  Set it explicitly to keep the logs."""

_FALSEY = ("", "0", "off", "false", "no")

_ENABLED = os.environ.get(OBS_ENV, "").strip().lower() not in _FALSEY

_NAME_RE = re.compile(r"^[a-z][a-z0-9_.]*$")

DEFAULT_TIME_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0,
)
"""Default fixed buckets for duration histograms, in seconds."""


def enabled() -> bool:
    """True when the observability layer is switched on."""
    return _ENABLED


def set_enabled(on: bool) -> bool:
    """Set the module-level enabled flag; returns the previous value.

    The environment variable seeds the flag at import; this lets the
    CLI (``--obs``) and tests flip it per call without re-importing.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(on)
    return previous


# The lazily created default output directory, cached per process so
# every caller (and every pool worker forked afterwards) agrees on one
# path.  Only the process that created it removes it at exit: forked
# workers inherit the cache but not ownership.
_DEFAULT_DIR: Optional[Path] = None
_DEFAULT_DIR_OWNER: Optional[int] = None


def _cleanup_default_dir() -> None:
    if _DEFAULT_DIR is not None and _DEFAULT_DIR_OWNER == os.getpid():
        shutil.rmtree(_DEFAULT_DIR, ignore_errors=True)


def obs_dir() -> Path:
    """The observability output directory.

    ``REPRO_OBS_DIR`` names it explicitly (not created here).  Without
    the override, a per-run temporary directory is created on first use
    and removed at interpreter exit by the process that created it --
    telemetry spill/event files must live *somewhere* while pool
    workers stream them back, but they are intermediate state, not a
    deliverable, and used to accumulate unboundedly in ``./obs``.
    """
    env = os.environ.get(OBS_DIR_ENV)
    if env:
        return Path(env)
    global _DEFAULT_DIR, _DEFAULT_DIR_OWNER
    if _DEFAULT_DIR is None:
        _DEFAULT_DIR = Path(tempfile.mkdtemp(prefix="repro-obs-"))
        _DEFAULT_DIR_OWNER = os.getpid()
        atexit.register(_cleanup_default_dir)
    return _DEFAULT_DIR


def reset_default_dir_for_testing() -> None:
    """Drop (and delete) the cached default directory so the next
    :func:`obs_dir` call creates a fresh one.  Test isolation only."""
    global _DEFAULT_DIR, _DEFAULT_DIR_OWNER
    _cleanup_default_dir()
    _DEFAULT_DIR = None
    _DEFAULT_DIR_OWNER = None


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} must be lowercase dotted "
            f"([a-z][a-z0-9_.]*)"
        )
    return name


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = _check_name(name)
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0.0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """A value that can move in both directions."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = _check_name(name)
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = float(value)

    def add(self, amount: float) -> None:
        """Shift the gauge by ``amount``."""
        self.value += amount


class Histogram:
    """Fixed-bucket recording of an observed distribution.

    ``bounds`` are the inclusive upper edges of the finite buckets, in
    increasing order; one implicit overflow bucket catches everything
    beyond the last edge.  Bucket counts are stored per bucket (not
    cumulative); the Prometheus exporter accumulates them into the
    classic ``le`` form.
    """

    __slots__ = ("name", "help", "bounds", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_TIME_BUCKETS,
        help: str = "",
    ):
        self.name = _check_name(name)
        self.help = help
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError(
                f"histogram {name!r} needs strictly increasing bucket "
                f"bounds, got {bounds!r}"
            )
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # + overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.sum += value
        self.count += 1


class MetricsRegistry:
    """Named metrics, created on first use and stable thereafter.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the same
    name always returns the same object, so call sites can look metrics
    up by name without holding references.  A name registered as one
    kind cannot be re-registered as another.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _claim(self, name: str, kind: str) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} is already a {other_kind}"
                )

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter ``name``."""
        metric = self._counters.get(name)
        if metric is None:
            self._claim(name, "counter")
            metric = self._counters[name] = Counter(name, help)
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge ``name``."""
        metric = self._gauges.get(name)
        if metric is None:
            self._claim(name, "gauge")
            metric = self._gauges[name] = Gauge(name, help)
        return metric

    def histogram(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_TIME_BUCKETS,
        help: str = "",
    ) -> Histogram:
        """Get or create the histogram ``name`` (bounds apply only on
        creation)."""
        metric = self._histograms.get(name)
        if metric is None:
            self._claim(name, "histogram")
            metric = self._histograms[name] = Histogram(name, bounds, help)
        return metric

    def counter_values(self) -> Dict[str, float]:
        """Current counter values by name (a plain dict snapshot)."""
        return {name: c.value for name, c in self._counters.items()}

    def snapshot(self) -> Dict[str, object]:
        """The whole registry as a JSON-serialisable mapping."""
        return {
            "counters": self.counter_values(),
            "gauges": {name: g.value for name, g in self._gauges.items()},
            "histograms": {
                name: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for name, h in self._histograms.items()
            },
        }

    def reset(self) -> None:
        """Drop every registered metric (test isolation)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


REGISTRY = MetricsRegistry()
"""The process-wide default registry everything publishes into."""


def inc(name: str, amount: float = 1.0) -> None:
    """Increment counter ``name`` on the default registry when
    observability is enabled; a free no-op otherwise (no allocation,
    no registry access) -- safe to call from warm paths."""
    if _ENABLED:
        REGISTRY.counter(name).inc(amount)


def counter_delta(
    after: Dict[str, float], before: Dict[str, float]
) -> Dict[str, float]:
    """Per-name difference of two :meth:`MetricsRegistry.counter_values`
    snapshots, dropping zero entries."""
    delta: Dict[str, float] = {}
    for name, value in after.items():
        change = value - before.get(name, 0.0)
        if change != 0.0:
            delta[name] = change
    return delta
