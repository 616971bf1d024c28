"""Content-addressed store of tuned-schedule winners.

Measured autotuning is the most expensive mode the pipeline has: every
evaluation compiles and *times* a candidate schedule, and timing cannot
be cached, parallelised away or skipped — it is wall-clock by
definition.  But the *outcome* of a tuning run is a pure function of
what was tuned and where: the kernel (structurally, via
:func:`~repro.cache.fingerprint.fingerprint_kernel`), the search space
shape, the measuring backend, the compiler that built the candidates
and the machine that timed them, plus the tuning configuration (budget,
repeats, measurement grid, seed, thread count).  This store keys the
winning :class:`~repro.halide.schedule.Schedule` and its measurement
summary by the SHA-256 of exactly that tuple, so a warm ``measure``-mode
run performs **zero** measurements and zero compiler invocations — it
loads the winner and moves on.

Layout: records are bucketed into ``<root>/<prefix>/`` shard
subdirectories by the first two characters of their key (the shared
:func:`~repro.cache.shards.shard_path` helper), one ``<key>.json``
record per file.  Writers publish atomically (temp file +
``os.replace``) under a *per-shard* crash-reclaimable
:class:`~repro.cache.locks.FileLock`.  Every record embeds the SHA-256
of its own canonical content; a load that fails parsing, format or
digest verification quarantines the record aside as ``*.corrupt-<n>``
(:class:`~repro.cache.integrity.CacheIntegrityWarning`) and reports a
miss, so the caller re-tunes instead of trusting a torn write.

Machine identity (:func:`machine_fingerprint`) deliberately covers the
platform, architecture and core count but *not* the hostname: two
identical containers share tuned schedules, while moving the store to a
different architecture or core count invalidates every entry.

The per-instance ``hits``/``misses`` counters let benchmarks *prove*
warmth: a warm application tune asserts ``misses == 0`` next to the
objective's ``evaluations == 0``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from repro.cache.integrity import quarantine_file
from repro.cache.locks import FileLock, LockTimeout
from repro.cache.shards import shard_path
from repro.halide.schedule import Schedule
from repro.testing import faultinject

# Bump when the record layout, the Schedule fields or the key recipe
# change: old records become unreachable rather than wrongly reused.
SCHEDULE_FORMAT = "tuned-schedule-1"


def machine_fingerprint() -> str:
    """Identity of the timing machine, folded into every schedule key.

    Platform, architecture and core count — the properties that change
    which schedule wins — but no hostname, so identical machines (CI
    containers, cluster nodes) share one cache population.
    """
    return (
        f"{platform.system()}|{platform.machine()}|cores={os.cpu_count() or 1}"
    )


def schedule_key(
    kernel_fingerprint: str,
    space_signature: str,
    backend: str,
    toolchain_fingerprint: str,
    machine: str,
    config: Mapping[str, Any],
) -> str:
    """Content address of one tuning run's outcome.

    The key covers everything the winning schedule depends on; any
    ingredient changing — a different kernel body, a wider search
    space, another backend or compiler, a machine with more cores, a
    different budget/seed — produces a different key, never a stale hit.
    """
    identity = {
        "format": SCHEDULE_FORMAT,
        "kernel": kernel_fingerprint,
        "space": space_signature,
        "backend": backend,
        "toolchain": toolchain_fingerprint,
        "machine": machine,
        "config": dict(config),
    }
    canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def schedule_to_payload(schedule: Schedule) -> Dict[str, Any]:
    """A JSON-able dict carrying every Schedule field."""
    return {
        "parallel_dim": schedule.parallel_dim,
        "tile_sizes": list(schedule.tile_sizes),
        "vector_width": schedule.vector_width,
        "unroll": schedule.unroll,
        "dim_order": None if schedule.dim_order is None else list(schedule.dim_order),
        "inline": schedule.inline,
    }


def schedule_from_payload(payload: Mapping[str, Any]) -> Schedule:
    """Rebuild a Schedule from :func:`schedule_to_payload` output.

    Construction re-runs the Schedule invariant checks, so a record
    edited into inconsistency raises rather than lowering garbage.
    """
    dim_order = payload.get("dim_order")
    return Schedule(
        parallel_dim=payload.get("parallel_dim"),
        tile_sizes=tuple(payload.get("tile_sizes") or ()),
        vector_width=int(payload.get("vector_width", 1)),
        unroll=int(payload.get("unroll", 1)),
        dim_order=None if dim_order is None else tuple(dim_order),
        inline=bool(payload.get("inline", False)),
    )


def _record_digest(record: Mapping[str, Any]) -> str:
    """SHA-256 of the record's canonical JSON, excluding the digest field."""
    stripped = {name: value for name, value in record.items() if name != "sha256"}
    canonical = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ScheduleStore:
    """A directory of content-addressed tuned-schedule records.

    Parameters
    ----------
    directory:
        Where records live; created on first write.
    lock_timeout:
        Passed to the publish-time :class:`FileLock`; on timeout the
        record simply is not published (the tuning result is still
        returned to this process's caller).
    """

    def __init__(self, directory: "os.PathLike[str] | str", lock_timeout: float = 10.0):
        self.directory = Path(directory)
        self.lock_timeout = lock_timeout
        self.hits = 0
        self.misses = 0

    def shard_dir(self, key: str) -> Path:
        """The ``<root>/<prefix>/`` bucket holding ``key``'s record."""
        return shard_path(self.directory, key)

    def publish_lock_path(self, key: str) -> Path:
        """The per-shard lock publications into ``key``'s bucket take."""
        return Path(str(self.shard_dir(key)) + ".lock")

    def record_path(self, key: str) -> Path:
        return self.shard_dir(key) / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The verified record for ``key``, or ``None`` (counted as a miss).

        A record that is unreadable, unparseable, from another format
        version, or whose bytes fail the embedded digest is quarantined
        and reported as a miss — the caller re-tunes and republishes.
        """
        path = self.record_path(key)
        if not path.is_file():
            self.misses += 1
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            quarantine_file(path, f"schedule record {key[:16]} is unreadable")
            self.misses += 1
            return None
        if (
            not isinstance(record, dict)
            or record.get("format") != SCHEDULE_FORMAT
            or record.get("sha256") != _record_digest(record)
        ):
            quarantine_file(path, f"schedule record {key[:16]} failed verification")
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, key: str, record: Mapping[str, Any]) -> Optional[Path]:
        """Publish one tuning outcome under ``key``; returns its path.

        The store stamps the format version, creation time and content
        digest; publication is atomic and lock-protected.  A lock
        timeout skips publishing (returns ``None``) rather than risking
        a torn record — the caller keeps its in-memory result.
        """
        faultinject.fire("schedule-publish", key)
        stamped: Dict[str, Any] = dict(record)
        stamped["format"] = SCHEDULE_FORMAT
        stamped["created"] = time.time()
        stamped["sha256"] = _record_digest(stamped)
        target = self.record_path(key)
        bucket = self.shard_dir(key)
        bucket.mkdir(parents=True, exist_ok=True)
        lock = FileLock(self.publish_lock_path(key), timeout=self.lock_timeout)
        try:
            lock.acquire()
        except LockTimeout:
            return None
        try:
            fd, tmp_name = tempfile.mkstemp(
                prefix=key[:16] + ".", suffix=".json.tmp", dir=str(bucket)
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(stamped, handle, indent=2, sort_keys=True)
                os.replace(tmp_name, target)
                faultinject.corrupt_file("schedule-record", key, target)
            except OSError:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            return target
        finally:
            lock.release()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.rglob("*.json"))

    def stats(self) -> Dict[str, Any]:
        """JSON-able counters for benchmark/CI publication."""
        return {
            "directory": str(self.directory),
            "entries": self.entry_count(),
            "schedule_hits": self.hits,
            "schedule_misses": self.misses,
        }
