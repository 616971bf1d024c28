"""Sharded, append-compacted persistence for the synthesis store.

This module owns the on-disk format of
:class:`~repro.cache.store.SynthesisCache`.  Entries are distributed
over per-shard **append logs** by fingerprint prefix, so concurrent
writers touching different shards never contend, a save appends only
the entries recorded since the last save, and a torn write can damage
at most the final line of one shard.

Layout: a directory of ``shard-<p>.jsonl`` files, ``p`` the
:func:`shard_prefix` of the entry fingerprint (one lowercase hex/alnum
character, sixteen-ish shards).  Each line is one record::

    {"fp": "<fingerprint>", "version": "<code version>", "entry": {...}}

Append discipline: records are appended under a per-shard
crash-reclaimable :class:`~repro.cache.locks.FileLock`; a missing
trailing newline (a writer killed mid-append) is healed before the next
append so one torn record never corrupts its successor.  Loads are
line-wise and tolerant: an undecodable line — the torn tail of a killed
append, mid-file damage, a byte that is not UTF-8 — is skipped with a
:class:`~repro.cache.integrity.CacheIntegrityWarning` while every other
record on the shard still loads, so a kill-mid-append leaves the store
*loadable*, not quarantined.  :func:`decode_json_lines` is that reader;
the service run log uses it too.

Reads are memoised per :class:`ShardedStore` instance: a shard whose
bytes equal the bytes that instance last decoded is not decoded again,
so a long-lived store (the lift server keeps one) pays a file read and
a byte comparison per unchanged shard, and only the shards another
writer or its own append changed are decoded.

Compaction: appends never remove anything, so a shard accumulates dead
records (same-fingerprint rewrites, stale code versions, damaged
lines).  When a shard's record count crosses
``compact_min_records`` and exceeds ``compact_factor`` times its live
entry count — or the shard carries damaged/stale lines — it is
rewritten in place (temp file + ``os.replace``) under the same
per-shard lock.  :meth:`ShardedStore.compact` forces a full sweep.

Version skew: records carry the code version they were written with;
loads discard other-version records with a
:class:`~repro.cache.integrity.StaleVersionWarning` naming the count —
explicit invalidation, per record.

The store path must be a directory (or not exist yet): a regular file
there raises ``ValueError`` at construction and is left untouched.

:func:`shard_prefix`/:func:`shard_path` are shared with the
compiled-artifact and tuned-schedule stores, which bucket their
content-addressed files into ``<root>/<prefix>/`` subdirectories with
per-shard publication locks (same helper, two-character prefix).

Fault-injection hook sites (see :mod:`repro.testing.faultinject`):
``shard-append`` fires before a shard append, ``shard-log`` truncates
the shard after an append (torn tail), ``shard-compact`` fires before
a compaction rewrite, and ``shard-file`` truncates the compacted shard.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
import warnings
from pathlib import Path
from typing import Any, Dict, List, Mapping, Tuple

from repro.cache.fingerprint import CODE_VERSION
from repro.cache.integrity import CacheIntegrityWarning, StaleVersionWarning
from repro.cache.locks import FileLock, LockTimeout
from repro.testing import faultinject

SHARD_FORMAT = "sharded-store-1"

# Characters allowed verbatim in a shard prefix (and therefore in shard
# file/directory names); anything else falls back to a digest prefix.
_SAFE_PREFIX = frozenset("0123456789abcdefghijklmnopqrstuvwxyz")

# Prefix characters per shard log: 16 shards for hex fingerprints.
_SHARD_WIDTH = 1

# One shard log decoded: (live entries, records, stale records, damaged lines).
ShardDecode = Tuple[Dict[str, Dict[str, Any]], int, int, int]


def heal_torn_tail(path: Path) -> None:
    """Ensure a JSON-lines log ends in a newline before appending after a crash.

    A writer killed mid-append leaves a partial last line; without the
    newline the next record would be written onto its end and both
    lines would be undecodable.  Call it under the log's append lock.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(-1, os.SEEK_END)
            torn = handle.read(1) != b"\n"
    except (OSError, ValueError):
        return  # missing or empty file: nothing to heal
    if torn:
        with open(path, "ab") as handle:
            handle.write(b"\n")


def decode_json_lines(data: bytes) -> Tuple[List[Any], int]:
    """``(values, damaged)`` of a JSON-lines log: one value per decodable line.

    Blank lines are skipped.  A line that is not UTF-8 or not JSON — a
    torn tail, mid-file damage — counts as damaged and the rest still
    decode, so one bad line never makes the whole log unreadable.
    """
    values: List[Any] = []
    damaged = 0
    for line in data.split(b"\n"):
        if not line.strip():
            continue
        try:
            values.append(json.loads(line.decode("utf-8")))
        except ValueError:  # UnicodeDecodeError and JSONDecodeError alike
            damaged += 1
    return values, damaged


def shard_prefix(key: str, width: int = 2) -> str:
    """The shard bucket of ``key``: its first ``width`` characters.

    Keys are normally SHA-256 hex digests, so the prefix is uniform and
    filesystem-safe as-is; a key whose leading characters are not safe
    (or which is shorter than ``width``) buckets by digest instead, so
    *every* key deterministically lands somewhere.
    """
    prefix = str(key)[:width].lower()
    if len(prefix) == width and all(c in _SAFE_PREFIX for c in prefix):
        return prefix
    return hashlib.sha256(str(key).encode("utf-8")).hexdigest()[:width]


def shard_path(root: "os.PathLike[str] | str", key: str, width: int = 2) -> Path:
    """The shard directory for ``key`` under ``root`` (not created)."""
    return Path(root) / shard_prefix(key, width)


class ShardedStore:
    """A directory of per-prefix append logs holding store entries.

    Parameters
    ----------
    root:
        The store directory, created on the first append.  A regular
        file at this path raises ``ValueError``.
    code_version:
        Stamped into every appended record; other-version records are
        discarded on load (with a :class:`StaleVersionWarning`) and
        dropped by compaction.
    lock_timeout:
        Per-shard lock patience.  An append that cannot take its shard
        lock leaves those entries unpersisted (they are returned to the
        caller to retry on the next save) with a warning, never a torn
        file.
    compact_min_records / compact_factor:
        Compaction triggers once a shard holds at least
        ``compact_min_records`` records *and* more than
        ``compact_factor`` records per live entry (or any damaged or
        stale line).
    """

    def __init__(
        self,
        root: "os.PathLike[str] | str",
        code_version: str = CODE_VERSION,
        lock_timeout: float = 10.0,
        compact_min_records: int = 64,
        compact_factor: int = 4,
    ):
        self.root = Path(root)
        if self.root.is_file():
            raise ValueError(
                f"synthesis store path {self.root} is a regular file, "
                "not a directory of shard logs"
            )
        self.code_version = code_version
        self.lock_timeout = lock_timeout
        self.compact_min_records = max(1, compact_min_records)
        self.compact_factor = max(1, compact_factor)
        self.compactions = 0
        # Threads share one store (the lift server's workers): guards the counter.
        self._counter_lock = threading.Lock()
        # shard path -> (the bytes last decoded, their decode); see _decode_shard.
        self._decoded: Dict[Path, Tuple[bytes, ShardDecode]] = {}

    # ------------------------------------------------------------------
    # Shard naming
    # ------------------------------------------------------------------
    def shard_name(self, key: str) -> str:
        return f"shard-{shard_prefix(key, _SHARD_WIDTH)}.jsonl"

    def shard_file(self, key: str) -> Path:
        return self.root / self.shard_name(key)

    def shard_files(self) -> "list[Path]":
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("shard-*.jsonl"))

    def _shard_lock(self, path: Path) -> FileLock:
        return FileLock(str(path) + ".lock", timeout=self.lock_timeout)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def _decode_shard(self, path: Path) -> ShardDecode:
        """``(entries, records, stale, damaged)`` for one shard log.

        Later records win fingerprint collisions (append order is write
        order).  Undecodable lines are counted as damaged and skipped —
        a torn tail never takes the rest of the shard down with it.

        A shard whose bytes equal the bytes this instance last decoded
        returns that decode again.  The contents are compared, not
        ``os.stat`` signatures: a same-size rewrite within one mtime
        tick must not serve stale entries.  Threads sharing the store
        may race to remember a decode; whichever lands, the next read
        compares the bytes again, so a lost race costs one more decode,
        never a stale entry.
        """
        try:
            data = path.read_bytes()
        except OSError:
            return {}, 0, 0, 0
        memo = self._decoded.get(path)
        if memo is not None and memo[0] == data:
            return memo[1]
        values, damaged = decode_json_lines(data)
        entries: Dict[str, Dict[str, Any]] = {}
        records = stale = 0
        for record in values:
            if not (
                isinstance(record, dict)
                and isinstance(record.get("fp"), str)
                and isinstance(record.get("entry"), dict)
            ):
                damaged += 1
                continue
            records += 1
            if record.get("version") != self.code_version:
                stale += 1
                continue
            entries[record["fp"]] = record["entry"]
        result = (entries, records, stale, damaged)
        self._decoded[path] = (data, result)
        return result

    def load_all(self, warn: bool = True) -> Dict[str, Dict[str, Any]]:
        """Every live entry across every shard, in a fresh dict per call.

        With ``warn`` (the default) stale-version and damaged-line
        counts are reported on every load, decoded or memoised alike;
        saves re-read silently.

        Only shards whose bytes changed since this instance last read
        them are decoded, so the entry dicts are shared between loads
        and must be treated as read-only.  Nothing in this package
        mutates a loaded entry: the cache reads them and
        :mod:`repro.cache.serialize` builds fresh payloads.
        """
        merged: Dict[str, Dict[str, Any]] = {}
        stale = damaged = 0
        for path in self.shard_files():
            entries, _records, shard_stale, shard_damaged = self._decode_shard(path)
            merged.update(entries)
            stale += shard_stale
            damaged += shard_damaged
        if warn and stale:
            warnings.warn(
                f"sharded store {self.root.name} holds {stale} entries from "
                f"other code versions; discarded (current {self.code_version!r})",
                StaleVersionWarning,
                stacklevel=3,
            )
        if warn and damaged:
            warnings.warn(
                f"sharded store {self.root.name} had {damaged} undecodable "
                f"log lines (torn appends); skipped, {len(merged)} entries recovered",
                CacheIntegrityWarning,
                stacklevel=3,
            )
        return merged

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _encode_record(self, fingerprint: str, entry: Dict[str, Any]) -> str:
        return json.dumps(
            {"fp": fingerprint, "version": self.code_version, "entry": entry},
            sort_keys=True,
            separators=(",", ":"),
        )

    def append(self, entries: Mapping[str, Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
        """Append ``entries`` to their shards; returns the *unpersisted* rest.

        Entries are grouped by shard and each group appended under its
        shard lock.  A shard whose lock is held by a live writer past
        the timeout is skipped with a :class:`CacheIntegrityWarning`
        and its entries come back to the caller (kept dirty for the
        next save) — degrading to "not yet persisted" rather than
        risking an unlocked interleaved write.
        """
        if not entries:
            return {}
        groups: Dict[str, Dict[str, Dict[str, Any]]] = {}
        for fingerprint, entry in entries.items():
            groups.setdefault(self.shard_name(fingerprint), {})[fingerprint] = entry
        leftover: Dict[str, Dict[str, Any]] = {}
        self.root.mkdir(parents=True, exist_ok=True)
        for name in sorted(groups):
            group = groups[name]
            path = self.root / name
            lock = self._shard_lock(path)
            try:
                lock.acquire()
            except (LockTimeout, OSError):
                warnings.warn(
                    f"shard lock busy: kept {len(group)} entries in memory "
                    f"without appending to {name}",
                    CacheIntegrityWarning,
                    stacklevel=3,
                )
                leftover.update(group)
                continue
            try:
                faultinject.fire("shard-append", name)
                heal_torn_tail(path)
                lines = "".join(
                    self._encode_record(fp, entry) + "\n"
                    for fp, entry in group.items()
                )
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(lines)
                faultinject.corrupt_file("shard-log", name, path)
                try:
                    self._maybe_compact_locked(path)
                except Exception as exc:
                    # Compaction is an optimization; the append above is
                    # already durable.  A failed rewrite (full disk, an
                    # injected fault) keeps the uncompacted log and
                    # retries on a later append.
                    warnings.warn(
                        f"shard compaction failed for {name}: {exc}; "
                        "keeping the append-only log",
                        CacheIntegrityWarning,
                        stacklevel=3,
                    )
            finally:
                lock.release()
        return leftover

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def _maybe_compact_locked(self, path: Path) -> bool:
        """Compact ``path`` (lock already held) when it carries dead weight."""
        try:
            with open(path, "rb") as handle:
                line_count = handle.read().count(b"\n")
        except OSError:
            return False
        if line_count < self.compact_min_records:
            return False
        entries, records, stale, damaged = self._decode_shard(path)
        if stale or damaged or records > self.compact_factor * max(1, len(entries)):
            self._rewrite_locked(path, entries)
            return True
        return False

    def _rewrite_locked(self, path: Path, entries: Dict[str, Dict[str, Any]]) -> None:
        """Atomically replace a shard log with its compacted form."""
        faultinject.fire("shard-compact", path.name)
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.name + ".", suffix=".tmp", dir=str(self.root)
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                for fingerprint in sorted(entries):
                    handle.write(self._encode_record(fingerprint, entries[fingerprint]) + "\n")
            os.replace(tmp_name, path)
            with self._counter_lock:
                self.compactions += 1
            faultinject.corrupt_file("shard-file", path.name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def compact(self) -> Dict[str, int]:
        """Force-compact every shard; returns before/after record counts."""
        before = after = shards = 0
        for path in self.shard_files():
            lock = self._shard_lock(path)
            try:
                lock.acquire()
            except (LockTimeout, OSError):
                continue
            try:
                entries, records, _stale, _damaged = self._decode_shard(path)
                before += records
                self._rewrite_locked(path, entries)
                after += len(entries)
                shards += 1
            finally:
                lock.release()
        return {"shards": shards, "records_before": before, "records_after": after}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        return len(self.load_all(warn=False))

    def record_count(self) -> int:
        """Total log records across shards (live + stale + rewritten)."""
        total = 0
        for path in self.shard_files():
            _entries, records, _stale, damaged = self._decode_shard(path)
            total += records + damaged
        return total

    def stats(self) -> Dict[str, Any]:
        """JSON-able counters for benchmark/CI publication."""
        return {
            "format": SHARD_FORMAT,
            "root": str(self.root),
            "shards": len(self.shard_files()),
            "entries": self.entry_count(),
            "records": self.record_count(),
            "compactions": self.compactions,
            "generated": time.time(),
        }
