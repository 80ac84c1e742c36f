"""Observability: metrics, structured events, run records, reports.

The paper's argument is carried entirely by time-series evidence --
sensor temperatures crossing the trigger, controller duty cycles, DVS
switches, fallback events -- and a reproduction that cannot *see* those
signals cannot be tuned or trusted.  This package is the cross-cutting
telemetry layer the rest of :mod:`repro` publishes into:

* :mod:`repro.obs.metrics` -- a low-overhead registry of counters,
  gauges and fixed-bucket histograms (:data:`~repro.obs.metrics.REGISTRY`);
* :mod:`repro.obs.events` -- the one event path: every event record
  is made by ``emit``, stamped with the open run's id, kept in the
  crash ring and, with obs on, logged as JSONL; plus its schema;
* :mod:`repro.obs.heartbeat` -- the one record of each run: identity,
  live progress, the engine's metrics and ``wall_seconds``;
* :mod:`repro.obs.spill` -- per-worker spill files that carry finished
  run records out of process-pool workers, merged by
  :func:`repro.sim.batch.run_many`;
* :mod:`repro.obs.flightrec` -- the always-on crash ring of recent
  events, dumped to ``REPRO_OBS_DIR`` or the working directory;
* :mod:`repro.obs.report` -- the merged :class:`~repro.obs.report.
  SweepReport` (JSONL + Prometheus export, rendered by
  ``python -m repro report``);
* :mod:`repro.obs.export` -- registry snapshots as JSON and Prometheus
  text format.

Everything but the crash ring is gated on one module-level flag
(``REPRO_OBS=1`` or :func:`set_enabled`), and its files land in one
directory (``REPRO_OBS_DIR``, or a temporary one).  Live progress
follows the flag, and the sweep service turns it on for its own
lifetime.  When disabled, the hot paths pay one boolean check per run
(not per step), ``inc()`` returns immediately without allocating, and
``emit()`` only appends its record to the bounded crash ring -- the
disabled-overhead tests assert both.  The flag never changes which
code the step loop runs, so results are bit-identical with
observability on or off.  Host time per layer
is not measured here: ``python -m repro bench`` reads it from the
benchmark's outside-in tracer (``perfbench/layers.py``).
"""

from __future__ import annotations

import logging
import sys
from typing import Optional, TextIO

from repro.obs.events import (
    emit,
    validate_events_file,
    validate_record,
)
from repro.obs.export import prometheus_text, registry_snapshot
from repro.obs.metrics import (
    OBS_DIR_ENV,
    OBS_ENV,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    enabled,
    inc,
    obs_dir,
    set_enabled,
)
from repro.obs.report import SweepReport

__all__ = [
    "OBS_DIR_ENV",
    "OBS_ENV",
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SweepReport",
    "emit",
    "enabled",
    "inc",
    "logging_setup",
    "obs_dir",
    "prometheus_text",
    "registry_snapshot",
    "reset_for_testing",
    "set_enabled",
    "validate_events_file",
    "validate_record",
]

_LOG_FORMAT = "%(asctime)s %(levelname)s %(name)s: %(message)s"
_HANDLER: Optional[logging.Handler] = None


def logging_setup(
    level: int = logging.INFO,
    stream: Optional[TextIO] = None,
    capture_warnings: bool = True,
) -> logging.Logger:
    """Route the library's diagnostics through standard ``logging``.

    The numerical-health guards, the fault layer and the sweep
    supervisor all log to child loggers of ``"repro"``; without a
    configured handler those records fall through to logging's
    last-resort stderr handler (WARNING and up) and everything below
    is swallowed.  This attaches one stream handler to the ``"repro"``
    logger (idempotent -- calling again reconfigures the same handler)
    and optionally routes ``warnings.warn`` through logging too, so the
    supervisor's degradation warnings land in the same stream.

    Returns the configured ``"repro"`` logger.
    """
    global _HANDLER
    logger = logging.getLogger("repro")
    if _HANDLER is not None:
        logger.removeHandler(_HANDLER)
    _HANDLER = logging.StreamHandler(
        stream if stream is not None else sys.stderr
    )
    _HANDLER.setFormatter(logging.Formatter(_LOG_FORMAT))
    logger.addHandler(_HANDLER)
    logger.setLevel(level)
    if capture_warnings:
        logging.captureWarnings(True)
    return logger


def reset_for_testing() -> None:
    """Reset every piece of module-level observability state.

    For test isolation only: zeroes the registry, any open run
    record, the event-log handle and the in-process spill
    records.  Does *not* touch the enabled flag.
    """
    from repro.obs import events, flightrec, heartbeat, spill

    REGISTRY.reset()
    events.reset()
    spill.reset()
    flightrec.reset()
    heartbeat.reset()
