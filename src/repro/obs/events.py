"""The one event path: :func:`emit` makes every event record.

Each call builds one flat record and then

1. appends it to the crash flight recorder's ring
   (:data:`repro.obs.flightrec.RING`), always -- crash dumps need recent
   events even with observability off;
2. with observability on, writes it as one JSON line to this process's
   log (``<obs_dir>/events-<pid>.jsonl``), so pool workers never
   interleave partial lines and a crashed process loses at most the
   line it was writing;
3. returns it.

Each record carries:

* ``event`` -- dotted lowercase event name (``"sweep.pool_rebuild"``);
* ``ts`` -- wall-clock UNIX timestamp;
* ``pid`` -- the emitting process;
* ``run_id`` of the calling thread's innermost open run record
  (:func:`repro.obs.heartbeat.active`), when one is open;
* the caller's keyword fields (an explicit ``run_id`` wins).

The log shares the spill channel's fork-aware appender
(:class:`repro.obs.spill.Appender`).  :func:`validate_record` /
:func:`validate_events_file` implement the event schema the CI smoke
job checks emitted logs against.
"""

from __future__ import annotations

import json
import numbers
import os
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.obs import flightrec, heartbeat, metrics, spill

REQUIRED_FIELDS = ("event", "ts", "pid")
"""Fields present on every event record."""

_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789_.")

_LOG = spill.Appender()


def events_path() -> Path:
    """This process's event-log file path."""
    return metrics.obs_dir() / f"events-{os.getpid()}.jsonl"


def emit(event: str, **fields) -> Dict[str, object]:
    """Make one event: ring always, JSONL log with observability on;
    returns the record."""
    record: Dict[str, object] = {
        "event": event,
        "ts": time.time(),
        "pid": os.getpid(),
    }
    run = heartbeat.active()
    if run is not None:
        record["run_id"] = run.run_id
    if fields:
        record.update(fields)
    flightrec.RING.append(record)
    if metrics.enabled():
        _LOG.write(events_path(), record)
    return record


def reset() -> None:
    """Close the event-log handle (test isolation)."""
    _LOG.close()


# --- schema -----------------------------------------------------------------


def _valid_name(name: object) -> bool:
    return (
        isinstance(name, str)
        and bool(name)
        and name[0].isalpha()
        and set(name) <= _NAME_CHARS
        and not name.startswith(".")
        and not name.endswith(".")
    )


def validate_record(record: object) -> List[str]:
    """Schema errors of one event record (empty list = valid).

    The schema is structural, not a name whitelist -- new subsystems
    may add event types freely:

    * the record is a JSON object with every required field;
    * ``event`` is a dotted lowercase identifier;
    * ``ts`` is a number, ``pid`` a positive integer;
    * keys are identifiers and values are JSON scalars (events are flat
      -- aggregates belong in spill records and reports, not events).
    """
    if not isinstance(record, dict):
        return ["record is not a JSON object"]
    errors: List[str] = []
    for field in REQUIRED_FIELDS:
        if field not in record:
            errors.append(f"missing required field {field!r}")
    name = record.get("event")
    if "event" in record and not _valid_name(name):
        errors.append(f"bad event name {name!r}")
    ts = record.get("ts")
    if "ts" in record and not isinstance(ts, numbers.Real):
        errors.append(f"ts is not a number: {ts!r}")
    pid = record.get("pid")
    if "pid" in record and not (isinstance(pid, int) and pid > 0):
        errors.append(f"pid is not a positive integer: {pid!r}")
    for key, value in record.items():
        if not isinstance(key, str) or not key.replace("_", "").isalnum():
            errors.append(f"bad field name {key!r}")
        if not isinstance(value, (str, int, float, bool, type(None))):
            errors.append(f"field {key!r} is not a JSON scalar: {value!r}")
    return errors


def validate_events_file(path) -> Tuple[int, List[str]]:
    """Validate one JSONL event log.

    Returns ``(record_count, errors)`` where each error names its line.
    An unparsable line is an error (event logs are flushed per record,
    so torn lines indicate a crashed writer, which is worth surfacing).
    """
    count = 0
    errors: List[str] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"{path}:{lineno}: unparsable line ({exc})")
                continue
            count += 1
            for problem in validate_record(record):
                errors.append(f"{path}:{lineno}: {problem}")
    return count, errors
