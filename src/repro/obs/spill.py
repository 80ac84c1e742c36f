"""Per-worker spill files: run records that survive the process pool.

A pool worker returns each run's result to the sweep parent, but not
its per-run telemetry (span tables, named metric dicts), so workers
append each finished run record as one JSON line to their own
``<obs_dir>/spill-<pid>.jsonl``.  Appends are O_APPEND single writes,
so records from a worker that is later killed remain intact.  In the
sweep parent, records go to an in-memory list instead -- no reason to
round-trip through the filesystem for serial runs.

``run_many`` brackets a sweep with :func:`begin_collection` /
:func:`collect`: the token snapshots each existing spill file's byte
offset plus the local list length, so ``collect`` returns exactly the
records produced by *this* sweep, even when the same obs directory (and
long-lived workers) serve several sweeps in one process.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obs import metrics


def spill_path() -> Path:
    """This process's spill-file path."""
    return metrics.obs_dir() / f"spill-{os.getpid()}.jsonl"


_LOCAL: List[Dict[str, object]] = []

_HANDLE = None
_HANDLE_KEY: Optional[Tuple[int, str]] = None

_IN_PARENT_PID: Optional[int] = None


def mark_parent() -> None:
    """Declare this process the sweep parent: its own records stay in
    memory rather than spilling to disk.  (Workers never call this, and
    a forked child of a parent stops matching the recorded pid.)"""
    global _IN_PARENT_PID
    _IN_PARENT_PID = os.getpid()


def record(rec: Dict[str, object]) -> None:
    """Store one finished run record (no-op when obs is disabled)."""
    if not metrics.enabled() or not rec:
        return
    if _IN_PARENT_PID == os.getpid():
        _LOCAL.append(rec)
        return
    global _HANDLE, _HANDLE_KEY
    path = spill_path()
    key = (os.getpid(), str(path))
    if _HANDLE is None or _HANDLE_KEY != key:
        if _HANDLE is not None and _HANDLE_KEY is not None and (
            _HANDLE_KEY[0] == os.getpid()
        ):
            try:
                _HANDLE.close()
            except Exception:  # pragma: no cover - defensive
                pass
        path.parent.mkdir(parents=True, exist_ok=True)
        _HANDLE = open(path, "a", encoding="utf-8")
        _HANDLE_KEY = key
    _HANDLE.write(json.dumps(rec, sort_keys=True, default=str) + "\n")
    _HANDLE.flush()


def begin_collection() -> Dict[str, int]:
    """Snapshot the current spill state; pass the token to
    :func:`collect` to get only records produced after this point.

    The token maps each existing spill file to its byte size, plus the
    in-memory list length under the ``""`` key.
    """
    mark_parent()
    token: Dict[str, int] = {"": len(_LOCAL)}
    directory = metrics.obs_dir()
    if directory.is_dir():
        for path in directory.glob("spill-*.jsonl"):
            try:
                token[str(path)] = path.stat().st_size
            except OSError:  # pragma: no cover - raced unlink
                pass
    return token


def collect(token: Dict[str, int]) -> List[Dict[str, object]]:
    """All run records produced since ``token`` was taken: the tail of
    every spill file (including files created after the snapshot) plus
    the parent's in-memory records past the snapshot mark."""
    records: List[Dict[str, object]] = []
    directory = metrics.obs_dir()
    if directory.is_dir():
        for path in sorted(directory.glob("spill-*.jsonl")):
            offset = token.get(str(path), 0)
            try:
                with open(path, encoding="utf-8") as handle:
                    handle.seek(offset)
                    for line in handle:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            records.append(json.loads(line))
                        except json.JSONDecodeError:
                            # A torn final line from a killed worker;
                            # the run it described already shows up as
                            # a failure in the sweep results.
                            continue
            except OSError:  # pragma: no cover - raced unlink
                continue
    records.extend(_LOCAL[token.get("", 0):])
    return records


def _writer_alive(pid: int) -> bool:
    if pid == os.getpid():
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # pragma: no cover - e.g. EPERM: someone's process
        return True
    return True


def discard_merged() -> None:
    """Drop spill records that have just been merged into a report.

    Called by ``run_many`` after :func:`collect`: without it, spill
    files accumulate for the life of the obs directory (one per worker
    pid, growing across sweeps).  Files whose writer process is gone
    are unlinked.  Files whose writer may still be alive are
    *truncated* instead: a live worker holds an ``O_APPEND`` handle, so
    its next record still lands safely at the (new) end of the file,
    whereas unlinking would silently divert every later record to a
    dead inode.  The parent's in-memory records are cleared too.
    """
    _LOCAL.clear()
    directory = metrics.obs_dir()
    if not directory.is_dir():
        return
    for path in directory.glob("spill-*.jsonl"):
        try:
            pid = int(path.stem.split("-", 1)[1])
        except (IndexError, ValueError):  # pragma: no cover - foreign file
            continue
        try:
            if _writer_alive(pid):
                os.truncate(path, 0)
            else:
                path.unlink()
        except OSError:  # pragma: no cover - raced unlink
            continue


def reset() -> None:
    """Close the handle and clear in-memory records (test isolation)."""
    global _HANDLE, _HANDLE_KEY, _IN_PARENT_PID
    if _HANDLE is not None:
        try:
            _HANDLE.close()
        except Exception:  # pragma: no cover - defensive
            pass
    _HANDLE = None
    _HANDLE_KEY = None
    _IN_PARENT_PID = None
    _LOCAL.clear()
