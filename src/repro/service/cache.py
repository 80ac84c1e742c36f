"""Content-addressed on-disk result cache.

One completed run is one file, ``results/<digest>.json``, where the
digest is :func:`~repro.sim.supervisor.spec_digest` -- the same
identity the sweep journal uses, so journal entries and cache entries
are interchangeable.  Identical specs therefore hit the cache instead
of recomputing, across server restarts and across clients.

Durability rules:

* **writes are atomic** -- the entry is written to a temp file in the
  same directory and ``os.replace``d into place, so a crash (even
  SIGKILL) can never leave a half-written entry under a digest;
* **reads are skeptical** -- an unreadable or malformed entry is a
  cache *miss*, quarantined out of the way (renamed to ``*.corrupt``)
  and counted, never a crash;
* **the journal backfills the cache** -- :meth:`ResultCache.absorb_journal`
  replays a sweep journal into the cache, which is how a restarted
  server recovers results that were journalled but not yet cached when
  it was killed.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional

from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.sim.supervisor import (
    _JOURNAL_ENTRY_ERRORS,
    load_journal,
    result_from_journal_entry,
)


class ResultCache:
    """Digest-keyed store of completed run results.

    ``root`` is created on first use.  Entries are the same JSON
    mappings the sweep journal records (``result`` payload plus a
    ``kind`` tag for non-single-core results), so one serialisation
    format serves both persistence paths.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    def _entry_path(self, digest: str) -> Path:
        return self.root / f"{digest}.json"

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def __contains__(self, digest: str) -> bool:
        return self._entry_path(digest).is_file()

    def get(self, digest: str):
        """The cached result for ``digest``, or ``None`` on a miss.

        A corrupt entry counts as a miss: it is renamed to
        ``<digest>.json.corrupt`` (so the evidence survives for
        inspection but can never be served) and a
        ``service.cache_corrupt`` event is emitted.
        """
        path = self._entry_path(digest)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            self.misses += 1
            return None
        try:
            entry = json.loads(raw.decode("utf-8"))
            result = result_from_journal_entry(entry)
        except (UnicodeDecodeError,) + _JOURNAL_ENTRY_ERRORS as exc:
            self.corrupt += 1
            obs_metrics.inc("service.cache_corrupt")
            obs_events.emit(
                "service.cache_corrupt",
                digest=digest,
                error_type=type(exc).__name__,
            )
            try:
                os.replace(path, str(path) + ".corrupt")
            except OSError:  # pragma: no cover - raced removal
                pass
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, digest: str, result) -> None:
        """Store ``result`` under ``digest``, atomically.

        The temp file lives in the cache directory itself so the final
        ``os.replace`` is same-filesystem and therefore atomic; a crash
        between write and replace leaves only an orphaned ``.tmp`` file,
        which is garbage, not a servable entry.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        entry: Dict[str, object] = {
            "digest": digest,
            "result": result.to_json_dict(),
        }
        kind = getattr(result, "journal_kind", None)
        if kind is not None:
            entry["kind"] = kind
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=f".{digest}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(entry, sort_keys=True))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self._entry_path(digest))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def absorb_journal(self, path) -> int:
        """Backfill the cache from a sweep journal; returns the number
        of entries added.  Tolerates a torn journal tail the same way
        resume does (:func:`~repro.sim.supervisor.load_journal`)."""
        added = 0
        for digest, result in load_journal(path).items():
            if digest not in self:
                self.put(digest, result)
                added += 1
        return added

    def stats(self) -> Dict[str, int]:
        """Counters for STATUS replies and reports.

        ``entries`` lists the cache directory, so its cost grows with
        the number of results ever cached; per-request paths read
        :attr:`hits` and :attr:`misses` directly instead."""
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
        }
