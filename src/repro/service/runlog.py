"""Append-only JSON-lines bookkeeping of every served lift request.

Each served request — including ones that deduped onto an in-flight
identical lift — appends exactly one line::

    {"fingerprint": ..., "application": ..., "driver": ...,
     "deduped": bool, "status": "done" | "error",
     "cache_hits": n, "cache_misses": n, "seconds": job_wall_clock,
     "waited_seconds": submit_to_terminal, "verification_levels": {...},
     "translated": n, "fallback": n, "created": unix_time}

``cache_misses == 0`` is the load-bearing bit: it *proves* a warm
request performed zero synthesis, which is what the service smoke test
and the run-database ROADMAP item both key on.  Appends are serialized
under a crash-reclaimable :class:`~repro.cache.locks.FileLock`, a torn
tail left by a killed writer is closed with a newline before the next
append, and the reader is line-tolerant, so a torn tail costs one
record, not the log, and many service processes can share one log file.

Fault hook: ``runlog-append`` fires before each append (see
:mod:`repro.testing.faultinject`).
"""

from __future__ import annotations

import json
import time
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.cache.integrity import CacheIntegrityWarning
from repro.cache.locks import FileLock, LockTimeout
from repro.cache.shards import heal_torn_tail
from repro.testing import faultinject

RUNLOG_FORMAT = "lift-runlog-1"


class RunLog:
    """One append-only JSON-lines file of served-request records."""

    def __init__(self, path: "Path | str", lock_timeout: float = 10.0):
        self.path = Path(path)
        self.lock_timeout = lock_timeout
        self.appended = 0

    def append(self, record: Dict[str, Any]) -> bool:
        """Append one record; returns whether it was persisted.

        A busy lock (a live writer past the timeout) drops *this*
        record with a warning rather than blocking the serving loop or
        risking an interleaved write — bookkeeping degrades, service
        does not.
        """
        stamped = dict(record)
        stamped.setdefault("format", RUNLOG_FORMAT)
        stamped.setdefault("created", time.time())
        line = json.dumps(stamped, sort_keys=True, separators=(",", ":")) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        lock = FileLock(str(self.path) + ".lock", timeout=self.lock_timeout)
        try:
            lock.acquire()
        except (LockTimeout, OSError):
            warnings.warn(
                f"run log lock busy: dropped one record for {self.path.name}",
                CacheIntegrityWarning,
                stacklevel=2,
            )
            return False
        try:
            faultinject.fire("runlog-append", stamped.get("fingerprint", ""))
            heal_torn_tail(self.path)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)
        finally:
            lock.release()
        self.appended += 1
        return True

    def read_all(self) -> List[Dict[str, Any]]:
        """Every decodable record, in append order (torn lines skipped)."""
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return []
        records: List[Dict[str, Any]] = []
        for line in text.split("\n"):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                records.append(record)
        return records

    def stats(self) -> Dict[str, Any]:
        records = self.read_all()
        warm = sum(1 for r in records if r.get("cache_misses") == 0)
        return {
            "path": str(self.path),
            "records": len(records),
            "deduped": sum(1 for r in records if r.get("deduped")),
            "warm": warm,
            "errors": sum(1 for r in records if r.get("status") == "error"),
        }


def record_for(
    fingerprint: str,
    *,
    application: Optional[str],
    driver: Optional[str],
    deduped: bool,
    status: str,
    waited_seconds: float,
    result: Optional[Dict[str, Any]] = None,
    message: Optional[str] = None,
) -> Dict[str, Any]:
    """Shape one run-log record from a terminal protocol event."""
    record: Dict[str, Any] = {
        "fingerprint": fingerprint,
        "application": application,
        "driver": driver,
        "deduped": deduped,
        "status": status,
        "waited_seconds": waited_seconds,
    }
    if result is not None:
        cache = result.get("cache", {})
        counts = result.get("manifest", {}).get("counts", {})
        record.update(
            {
                "cache_hits": cache.get("hits"),
                "cache_misses": cache.get("misses"),
                "seconds": result.get("seconds"),
                "translated": counts.get("translated"),
                "fallback": counts.get("fallback"),
                "verification_levels": counts.get("verification_levels"),
            }
        )
    if message is not None:
        record["message"] = message
    return record
