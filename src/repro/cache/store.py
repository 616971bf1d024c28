"""Persistent store of synthesis outcomes, keyed by fingerprint.

An entry records either a verified summary (the serialized
``CEGISResult``) or a definitive failure (no strategy produced a
verified summary) — both outcomes are deterministic functions of the
fingerprinted inputs (:mod:`repro.cache.fingerprint`), so warm runs can
replay them without re-synthesizing.

:class:`SynthesisCache` persists to a
:class:`~repro.cache.shards.ShardedStore`: a directory of
per-fingerprint-prefix append logs with periodic compaction and
per-shard locks, safe for many concurrent writers.  A save appends only
the entries recorded since the last save.  The on-disk format lives in
:mod:`repro.cache.shards`.  Handles built on one ``ShardedStore`` share
its read memo, so a shard is decoded once per change, not once per
handle.

Robustness rules:

* a missing store is treated as empty, and a torn shard log skips the
  damaged lines with a
  :class:`~repro.cache.integrity.CacheIntegrityWarning` while every
  other record still loads — a warm run degrades towards a cold one,
  never to a crash;
* a regular file at the store path is refused with ``ValueError`` at
  construction and left untouched, instead of failing on the first
  save after the lift's work is done;
* entries carry the :data:`~repro.cache.fingerprint.CODE_VERSION` they
  were written with; a version mismatch discards the stale entries with
  a :class:`~repro.cache.integrity.StaleVersionWarning` naming the
  discarded count (explicit invalidation when templates/strategies
  change), while option changes invalidate implicitly because they
  change the fingerprint;
* appends are newline-delimited (a torn tail is healed and skipped)
  and serialized per shard through crash-reclaimable
  :class:`~repro.cache.locks.FileLock`\\ s: a writer killed mid-save
  leaves a lock file behind, and the next save detects the dead holder
  (pid liveness, then age) and reclaims it instead of deadlocking the
  warm run;
* entries created since construction are exposed via
  :meth:`SynthesisCache.new_entries` so process-pool workers can ship
  them back to the parent, which merges and saves once — workers never
  write the store and therefore never race each other.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.ir import nodes as ir
from repro.cache.fingerprint import CODE_VERSION, fingerprint_synthesis
from repro.cache.serialize import CachePayloadError, result_from_payload, result_to_payload
from repro.cache.shards import ShardedStore

_STATUS_VERIFIED = "verified"
_STATUS_FAILURE = "failure"


@dataclass
class CachedOutcome:
    """One decoded cache entry: a verified summary or a recorded failure."""

    fingerprint: str
    verified: bool
    payload: Dict[str, Any]

    def result(self, kernel: ir.Kernel):
        """Rehydrate the stored ``CEGISResult`` against the live kernel."""
        if not self.verified:
            raise ValueError("cache entry records a failure, not a result")
        return result_from_payload(self.payload, kernel)

    @property
    def failure_message(self) -> str:
        return str(self.payload.get("message", "synthesis failed (cached)"))


class SynthesisCache:
    """Content-addressed store of synthesis outcomes.

    Parameters
    ----------
    path:
        Directory of shard logs backing the cache, created on the first
        save, or a :class:`~repro.cache.shards.ShardedStore` to read and
        append through (its ``code_version`` and ``lock_timeout`` then
        apply, and every handle on it shares its read memo); ``None``
        keeps the cache purely in-memory (useful for tests and for pool
        workers that ship entries back to the parent instead of
        writing).  A regular file at ``path`` raises ``ValueError``.
    autosave:
        Persist after every recorded entry — durable by default (a
        crash loses nothing), but each save appends the new entry and
        then re-reads the store: every shard's bytes are read and
        compared, and the shard the entry went to is decoded again, so
        a long sweep still pays a cost that grows with the store per
        entry.  Batch users (and the batch scheduler, automatically)
        disable this and call :meth:`save` once.
    cache_failures:
        Also record definitive synthesis failures so warm runs skip the
        (typically slowest) exhausted-space kernels.  Set to ``False``
        to re-attempt failed kernels on every run.
    lock_timeout:
        Per-shard lock patience of a save (see :meth:`save`).
    """

    def __init__(
        self,
        path: "os.PathLike[str] | str | ShardedStore | None" = None,
        code_version: str = CODE_VERSION,
        autosave: bool = True,
        cache_failures: bool = True,
        lock_timeout: float = 10.0,
    ):
        if path is not None and not isinstance(path, ShardedStore):
            path = ShardedStore(path, code_version=code_version, lock_timeout=lock_timeout)
        self._shards: Optional[ShardedStore] = path
        self.path = path.root if path is not None else None
        self.code_version = path.code_version if path is not None else code_version
        self.autosave = autosave
        self.cache_failures = cache_failures
        self.hits = 0
        self.misses = 0
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._new: Dict[str, Dict[str, Any]] = {}
        # Entries recorded or merged since the last successful save:
        # what the next save appends.
        self._dirty: Dict[str, Dict[str, Any]] = {}
        if self._shards is not None:
            self._load()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _load(self) -> None:
        """Load every live entry; damaged lines and stale versions warn."""
        assert self._shards is not None
        self._entries = self._shards.load_all()

    def save(self) -> None:
        """Append the entries recorded since the last save, then merge.

        Each shard's new entries are appended under that shard's
        :class:`~repro.cache.locks.FileLock`, compacting a shard that
        has accumulated dead records.  The lock reclaims itself when a
        previous writer died between acquire and release (pid liveness
        + age), so a crashed save can never deadlock later runs.  A
        shard whose lock a *live* holder keeps past ``lock_timeout`` is
        skipped with a :class:`~repro.cache.integrity.CacheIntegrityWarning`;
        its entries stay dirty for the next save, and its file is left
        untouched.

        The store is then re-read and the entries other writers
        appended since our load are folded into memory, our own
        entries winning any fingerprint collision.  Where the store's
        decoded copy of an entry just appended equals ours, the handle
        keeps that copy instead, so it and the store's read memo hold
        one.
        """
        if self._shards is None:
            return
        appended = self._dirty
        self._dirty = self._shards.append(appended)
        disk = self._shards.load_all(warn=False)
        for fingerprint, entry in appended.items():
            if disk.get(fingerprint) == entry:
                self._entries[fingerprint] = disk[fingerprint]
                if fingerprint in self._new:
                    self._new[fingerprint] = disk[fingerprint]
        if disk:
            merged = dict(disk)
            merged.update(self._entries)
            self._entries = merged

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Lookup and recording
    # ------------------------------------------------------------------
    def fingerprint(self, kernel: ir.Kernel, config: Mapping[str, Any]) -> str:
        return fingerprint_synthesis(kernel, config, code_version=self.code_version)

    def get(self, fingerprint: str) -> Optional[CachedOutcome]:
        """Decode the entry stored under ``fingerprint``, if any.

        With ``cache_failures=False`` recorded failures are invisible —
        both newly-recorded and previously-persisted ones — so failed
        kernels are re-attempted on every run.
        """
        entry = self._entries.get(fingerprint)
        if entry is None:
            return None
        status = entry.get("status")
        if status == _STATUS_FAILURE and not self.cache_failures:
            return None
        payload = entry.get("payload")
        if not isinstance(payload, dict):
            return None
        return CachedOutcome(
            fingerprint=fingerprint,
            verified=status == _STATUS_VERIFIED,
            payload=payload,
        )

    def _put(self, fingerprint: str, entry: Dict[str, Any]) -> None:
        self._entries[fingerprint] = entry
        self._new[fingerprint] = entry
        self._dirty[fingerprint] = entry
        if self.autosave:
            self.save()

    def record_result(self, fingerprint: str, result, kernel_name: str = "") -> None:
        """Store a verified ``CEGISResult`` under ``fingerprint``."""
        try:
            payload = result_to_payload(result)
        except CachePayloadError:
            # An unserializable summary is simply not cached.
            return
        self._put(
            fingerprint,
            {
                "status": _STATUS_VERIFIED,
                "payload": payload,
                "kernel": kernel_name,
                "created": time.time(),
            },
        )

    def record_failure(self, fingerprint: str, message: str, kernel_name: str = "") -> None:
        """Store a definitive synthesis failure under ``fingerprint``."""
        if not self.cache_failures:
            return
        self._put(
            fingerprint,
            {
                "status": _STATUS_FAILURE,
                "payload": {"message": message},
                "kernel": kernel_name,
                "created": time.time(),
            },
        )

    # ------------------------------------------------------------------
    # Cross-process entry shipping
    # ------------------------------------------------------------------
    def new_entries(self) -> Dict[str, Dict[str, Any]]:
        """Entries recorded by this instance (picklable, JSON-ready)."""
        return dict(self._new)

    def drain_new_entries(self) -> Dict[str, Dict[str, Any]]:
        """Like :meth:`new_entries`, but resets the tracker.

        Long-lived pool workers call this after each job so every entry
        is shipped to the parent exactly once (the entries themselves
        stay in the worker's in-memory cache for intra-batch hits).
        """
        drained = self._new
        self._new = {}
        return dict(drained)

    def snapshot_entries(self) -> Dict[str, Dict[str, Any]]:
        """Every current entry (for seeding an in-memory worker cache)."""
        return dict(self._entries)

    def preload(self, entries: Mapping[str, Dict[str, Any]]) -> None:
        """Adopt pre-existing entries without marking them as new."""
        self._entries.update(entries)

    def merge_entries(self, entries: Mapping[str, Dict[str, Any]]) -> int:
        """Adopt entries shipped back from a worker; returns how many were new."""
        added = 0
        for fingerprint, entry in entries.items():
            if fingerprint not in self._entries:
                added += 1
            self._entries[fingerprint] = entry
            self._new[fingerprint] = entry
            self._dirty[fingerprint] = entry
        if added and self.autosave:
            self.save()
        return added
