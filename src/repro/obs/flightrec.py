"""Crash flight recorder: a bounded ring of recent structured events.

Post-mortem debugging of a wedged or crashed sweep needs the *last few
hundred* events, not the full log -- and it needs them even when the
observability layer is off (``REPRO_OBS=0``), because crashes do not
wait for instrumentation to be enabled.  This module keeps a
``collections.deque`` ring of the last :data:`RING_LEN` event records,
always on, at the cost of one append per (cold-path) event.  The ring
has one writer, :func:`repro.obs.events.emit`, which appends every
record it makes -- no copy, no re-serialisation -- whether or not it
also writes the JSONL log.

The ring is dumped to JSONL by :func:`dump` -- wired to ``SIGUSR2`` and
to unhandled crashes by :func:`install`, and served live over HTTP by
:mod:`repro.obs.httpd` (``/flight``).  Dumps go to ``REPRO_OBS_DIR``
when it is set, otherwise to the working directory -- never to the obs
temp dir, which is removed at interpreter exit: a crash dump that
evaporates with the process is no dump at all.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional

from repro.obs import metrics

RING_LEN = 512
"""Ring capacity in records."""

RING: Deque[Dict[str, object]] = deque(maxlen=RING_LEN)
"""The ring itself; appended to by :func:`repro.obs.events.emit` only."""

_PREV_EXCEPTHOOK = None
_PREV_SIGUSR2 = None
_INSTALLED = False


def snapshot() -> List[Dict[str, object]]:
    """The ring's current contents, oldest first."""
    return list(RING)


def dump_dir() -> Path:
    """Directory receiving flight dumps (``REPRO_OBS_DIR`` or cwd)."""
    raw = os.environ.get(metrics.OBS_DIR_ENV, "").strip()
    return Path(raw) if raw else Path(".")


def dump(path: Optional[os.PathLike] = None, reason: str = "manual") -> Path:
    """Write the ring to a JSONL file; returns the path written.

    The first line is a ``flight.dump`` header (reason, ring size);
    each following line is one recorded event.  Values that are not
    JSON-serialisable degrade to their ``str`` form -- a dump written
    from a crash handler must never raise over a payload detail."""
    records = snapshot()
    if path is None:
        directory = dump_dir()
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"flight-{os.getpid()}-{int(time.time())}.jsonl"
    path = Path(path)
    header = {
        "event": "flight.dump",
        "ts": time.time(),
        "pid": os.getpid(),
        "reason": reason,
        "records": len(records),
    }
    with open(path, "w", encoding="utf-8") as handle:
        for record in [header] + records:
            handle.write(json.dumps(record, sort_keys=True, default=str))
            handle.write("\n")
    return path


def _on_sigusr2(signum, frame) -> None:  # pragma: no cover - signal path
    try:
        dump(reason="sigusr2")
    except OSError:
        pass


def _crash_hook(exc_type, exc_value, exc_tb) -> None:
    from repro.obs import events  # events imports this module

    events.emit("flight.crash", error=f"{exc_type.__name__}: {exc_value}")
    try:
        dump(reason="crash")
    except OSError:  # pragma: no cover - dump dir gone at teardown
        pass
    chained = _PREV_EXCEPTHOOK or sys.__excepthook__
    chained(exc_type, exc_value, exc_tb)


def install(sigusr2: bool = True, excepthook: bool = True) -> None:
    """Wire the dump triggers: ``SIGUSR2`` and unhandled crashes.

    Idempotent.  The previous excepthook is chained, not replaced, so a
    host application's own crash reporting still runs."""
    global _PREV_EXCEPTHOOK, _PREV_SIGUSR2, _INSTALLED
    if _INSTALLED:
        return
    if sigusr2 and hasattr(signal, "SIGUSR2"):
        try:
            _PREV_SIGUSR2 = signal.signal(signal.SIGUSR2, _on_sigusr2)
        except ValueError:  # pragma: no cover - not the main thread
            _PREV_SIGUSR2 = None
    if excepthook:
        _PREV_EXCEPTHOOK = sys.excepthook
        sys.excepthook = _crash_hook
    _INSTALLED = True


def uninstall() -> None:
    """Undo :func:`install` (test seam)."""
    global _PREV_EXCEPTHOOK, _PREV_SIGUSR2, _INSTALLED
    if not _INSTALLED:
        return
    if _PREV_SIGUSR2 is not None and hasattr(signal, "SIGUSR2"):
        try:
            signal.signal(signal.SIGUSR2, _PREV_SIGUSR2)
        except ValueError:  # pragma: no cover - not the main thread
            pass
        _PREV_SIGUSR2 = None
    if sys.excepthook is _crash_hook:
        sys.excepthook = _PREV_EXCEPTHOOK or sys.__excepthook__
    _PREV_EXCEPTHOOK = None
    _INSTALLED = False


def reset() -> None:
    """Clear the ring (test isolation); hooks stay installed."""
    RING.clear()
