"""Fault tolerance: crashes, hangs, torn writes and lock death, injected.

Every test here drives a *real* process-pool batch (or a real
application translation) with faults injected deterministically through
:mod:`repro.testing.faultinject`.  The invariants under test are the
acceptance criteria of the fault-tolerance layer:

* the batch always completes;
* results from unaffected kernels are never lost;
* a job that exhausts its retry budget yields a classified
  ``LIFT_FAILED`` report instead of aborting the batch;
* a faulted-then-recovered run is byte-identical (via
  ``report_signature``) to a never-faulted run.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cache import (
    ArtifactStore,
    CacheIntegrityWarning,
    FileLock,
    ShardedStore,
    SynthesisCache,
)
from repro.pipeline import (
    BatchScheduler,
    FaultPolicy,
    PipelineOptions,
    lift_cases_sequential,
    report_signature,
)
from repro.pipeline.faults import CAUSE_DEADLINE, CAUSE_EXCEPTION
from repro.pipeline.stng import KernelOutcome
from repro.suites.base import KernelCase
from repro.testing import write_spec
from repro.testing.faultinject import ENV_VAR

OPTIONS = PipelineOptions(autotune_budget=20, verifier_environments=1, inductive=False)

_TEMPLATE = """
procedure {name}(imin,imax,jmin,jmax,a,b)
real (kind=8), dimension(imin:imax,jmin:jmax) :: a
real (kind=8), dimension(imin:imax,jmin:jmax) :: b
do j=jmin+1,jmax
do i=imin+1,imax
a(i,j) = {body}
enddo
enddo
end procedure
"""


def _case(name: str, body: str) -> KernelCase:
    return KernelCase(
        name=name,
        suite="faulttest",
        source=_TEMPLATE.format(name=name, body=body),
    )


CASES = [
    _case("alpha", "b(i,j) + b(i-1,j)"),
    _case("beta", "b(i,j) + b(i,j-1)"),
    _case("gamma", "b(i,j) + b(i-1,j) + b(i,j-1)"),
]


def _signatures(reports):
    return [report_signature(r) for r in reports]


@pytest.fixture(scope="module")
def reference():
    """Never-faulted sequential signatures: what every batch must match."""
    return _signatures(lift_cases_sequential(CASES, OPTIONS))


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory, reference):
    """A populated store so faulted batches re-run warm and fast."""
    path = tmp_path_factory.mktemp("warm") / "store"
    cache = SynthesisCache(path, autosave=False)
    lift_cases_sequential(CASES, OPTIONS, cache)
    cache.save()
    return path


def _copy_store(warm_store, tmp_path):
    path = tmp_path / "store"
    shutil.copytree(warm_store, path)
    return path


def _src_dir() -> str:
    import repro.testing.faultinject as fi_mod

    return os.path.dirname(os.path.dirname(os.path.dirname(fi_mod.__file__)))


# ---------------------------------------------------------------------------
# The fault matrix: every fault class, every pool size
# ---------------------------------------------------------------------------

class TestFaultMatrix:
    """One injected fault; the retry passes; the batch is unharmed."""

    @pytest.mark.parametrize("pool_size", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["raise", "kill", "exit", "hang"])
    def test_single_fault_recovers_bitwise(
        self, kind, pool_size, warm_store, reference, tmp_path, monkeypatch
    ):
        spec = write_spec(
            tmp_path / "faults.json",
            tmp_path / "state",
            [
                {
                    "site": "worker-job",
                    "key": "beta",
                    "kind": kind,
                    "occurrences": [1],
                    "seconds": 30.0,
                }
            ],
        )
        monkeypatch.setenv(ENV_VAR, str(spec))
        policy = FaultPolicy(
            max_attempts=3,
            backoff_seconds=0.0,
            deadline_seconds=3.0 if kind == "hang" else None,
        )
        cache = SynthesisCache(_copy_store(warm_store, tmp_path), autosave=False)
        result = BatchScheduler(
            OPTIONS, pool_size=pool_size, cache=cache, fault_policy=policy
        ).lift_cases(CASES)
        assert result.failures == []
        assert _signatures(result.reports) == reference


# ---------------------------------------------------------------------------
# Exhausted retries: classified failure report, nothing else lost
# ---------------------------------------------------------------------------

class TestExhaustedRetries:
    def test_failure_report_carries_attempts_and_cause(
        self, warm_store, reference, tmp_path, monkeypatch
    ):
        spec = write_spec(
            tmp_path / "faults.json",
            tmp_path / "state",
            [
                {
                    "site": "worker-job",
                    "key": "beta",
                    "kind": "raise",
                    "occurrences": [1, 2],
                }
            ],
        )
        monkeypatch.setenv(ENV_VAR, str(spec))
        policy = FaultPolicy(max_attempts=2, backoff_seconds=0.0)
        cache = SynthesisCache(_copy_store(warm_store, tmp_path), autosave=False)
        result = BatchScheduler(
            OPTIONS, pool_size=2, cache=cache, fault_policy=policy
        ).lift_cases(CASES)

        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.name == "beta"
        assert failure.attempt_count == 2
        assert failure.cause == CAUSE_EXCEPTION
        assert all(a.traceback and "InjectedFault" in a.traceback for a in failure.attempts)

        # One report per job, in submission order; the failed slot is
        # a classified LIFT_FAILED, the neighbours are untouched.
        assert len(result.reports) == len(CASES)
        failed = result.reports[1]
        assert failed.outcome is KernelOutcome.LIFT_FAILED
        assert failed.name == "beta"
        assert failed.fault is failure
        assert "worker-exception after 2 attempt(s)" in failed.failure_reason
        assert _signatures(result.reports)[0] == reference[0]
        assert _signatures(result.reports)[2] == reference[2]

    def test_failed_jobs_count_as_untranslated(self, warm_store, tmp_path, monkeypatch):
        spec = write_spec(
            tmp_path / "faults.json",
            tmp_path / "state",
            [
                {
                    "site": "worker-job",
                    "key": "beta",
                    "kind": "raise",
                    "occurrences": [1],
                }
            ],
        )
        monkeypatch.setenv(ENV_VAR, str(spec))
        policy = FaultPolicy(max_attempts=1, backoff_seconds=0.0)
        cache = SynthesisCache(_copy_store(warm_store, tmp_path), autosave=False)
        result = BatchScheduler(
            OPTIONS, pool_size=2, cache=cache, fault_policy=policy
        ).lift_cases(CASES)
        summary = result.summaries()["faulttest"]
        assert summary.candidates == 3
        assert summary.translated == 2
        assert summary.untranslated_stencils == 1

    def test_deadline_failures_are_classified(self, warm_store, tmp_path, monkeypatch):
        spec = write_spec(
            tmp_path / "faults.json",
            tmp_path / "state",
            [
                {
                    "site": "worker-job",
                    "key": "beta",
                    "kind": "hang",
                    "occurrences": [1, 2],
                    "seconds": 30.0,
                }
            ],
        )
        monkeypatch.setenv(ENV_VAR, str(spec))
        policy = FaultPolicy(
            max_attempts=2, backoff_seconds=0.0, deadline_seconds=2.0
        )
        cache = SynthesisCache(_copy_store(warm_store, tmp_path), autosave=False)
        result = BatchScheduler(
            OPTIONS, pool_size=1, cache=cache, fault_policy=policy
        ).lift_cases(CASES)
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.name == "beta"
        assert failure.cause == CAUSE_DEADLINE
        assert "scheduler deadline" in failure.message
        assert len(result.reports) == len(CASES)


# ---------------------------------------------------------------------------
# Partial progress is never lost (satellite: save in finally)
# ---------------------------------------------------------------------------

class TestPartialProgress:
    def test_failed_job_does_not_lose_neighbours_entries(
        self, tmp_path, monkeypatch
    ):
        """Cold batch with one terminally-failing job: the successful
        kernels' cache entries still reach the store.  (``raise``,
        not ``kill``: a pool breakage under ``max_attempts=1`` also
        terminally charges the innocent in-flight job, since blame for
        a broken pool cannot be pinned — crash recovery with a retry
        budget is the fault matrix's job.)"""
        spec = write_spec(
            tmp_path / "faults.json",
            tmp_path / "state",
            [
                {
                    "site": "worker-job",
                    "key": "beta",
                    "kind": "raise",
                    "occurrences": [1],
                }
            ],
        )
        monkeypatch.setenv(ENV_VAR, str(spec))
        path = tmp_path / "store"
        policy = FaultPolicy(max_attempts=1, backoff_seconds=0.0)
        cache = SynthesisCache(path, autosave=False)
        result = BatchScheduler(
            OPTIONS, pool_size=2, cache=cache, fault_policy=policy
        ).lift_cases(CASES)
        assert [f.name for f in result.failures] == ["beta"]
        assert result.failures[0].cause == CAUSE_EXCEPTION
        saved = SynthesisCache(path)
        assert len(saved) == 2  # alpha and gamma made it to disk

    def test_crash_entries_survive_pool_breakage(self, tmp_path, monkeypatch):
        """A SIGKILL mid-batch: entries merged before the breakage and
        after the rebuild all land on disk."""
        spec = write_spec(
            tmp_path / "faults.json",
            tmp_path / "state",
            [
                {
                    "site": "worker-job",
                    "key": "beta",
                    "kind": "kill",
                    "occurrences": [1],
                }
            ],
        )
        monkeypatch.setenv(ENV_VAR, str(spec))
        path = tmp_path / "store"
        cache = SynthesisCache(path, autosave=False)
        result = BatchScheduler(
            OPTIONS,
            pool_size=2,
            cache=cache,
            fault_policy=FaultPolicy(max_attempts=3, backoff_seconds=0.0),
        ).lift_cases(CASES)
        assert result.failures == []
        assert len(SynthesisCache(path)) == 3

    def test_parent_side_interruption_still_saves(self, tmp_path):
        """Even when aggregation itself blows up mid-batch, entries
        merged before the interruption are persisted (save in finally)."""
        path = tmp_path / "store"
        cache = SynthesisCache(path, autosave=False)
        calls = {"n": 0}
        real_merge = cache.merge_entries

        def flaky_merge(entries):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("simulated parent interruption")
            return real_merge(entries)

        cache.merge_entries = flaky_merge
        scheduler = BatchScheduler(OPTIONS, pool_size=1, cache=cache)
        with pytest.raises(RuntimeError, match="simulated parent interruption"):
            scheduler.lift_cases(CASES)
        assert len(SynthesisCache(path)) == 1  # the first job's entry survived


# ---------------------------------------------------------------------------
# Lock-holder death and lock-timeout degradation
# ---------------------------------------------------------------------------

class TestLockFaults:
    def test_batch_save_reclaims_lock_of_killed_holder(
        self, warm_store, reference, tmp_path
    ):
        """A process SIGKILLed *while holding* the shard lock the batch's
        save needs (injected at the lock-acquired hook) must not wedge
        the batch."""
        path = _copy_store(warm_store, tmp_path)
        # Drop one shard so its kernels lift cold and the save appends
        # to exactly the shard whose lock the corpse holds.
        shard = ShardedStore(path).shard_files()[0]
        shard.unlink()
        lock_path = str(shard) + ".lock"
        spec = write_spec(
            tmp_path / "faults.json",
            tmp_path / "state",
            [{"site": "lock-acquired", "kind": "kill", "occurrences": [1]}],
        )
        victim = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; sys.path.insert(0, sys.argv[1])\n"
                "from repro.cache.locks import FileLock\n"
                "FileLock(sys.argv[2]).acquire()\n"
                "print('SURVIVED')\n",
                _src_dir(),
                lock_path,
            ],
            env={**os.environ, ENV_VAR: str(spec)},
            capture_output=True,
            text=True,
        )
        assert victim.returncode == -9
        assert os.path.exists(lock_path)  # the corpse left its lock behind

        cache = SynthesisCache(path, autosave=False)
        result = BatchScheduler(OPTIONS, pool_size=2, cache=cache).lift_cases(CASES)
        assert _signatures(result.reports) == reference
        assert result.cache_misses > 0
        assert not os.path.exists(lock_path)  # reclaimed, then released
        assert shard.is_file()  # the save appended to the reclaimed shard
        assert len(SynthesisCache(path)) == len(CASES)

    def test_store_save_degrades_to_memory_under_live_lock(self, tmp_path):
        path = tmp_path / "store"
        writer = SynthesisCache(path, autosave=False)
        writer.record_failure("fp-disk", "no strategy verified")
        writer.save()

        cache = SynthesisCache(path, autosave=False, lock_timeout=0.2)
        cache.record_failure("fp-mem", "no strategy verified")
        # A concurrent writer lands another entry after our load...
        other = SynthesisCache(path, autosave=False)
        other.record_failure("fp-disk2", "no strategy verified")
        other.save()
        # ...and a live holder pins the lock of the shard our save needs.
        shard = ShardedStore(path).shard_file("fp-mem")
        holder = FileLock(str(shard) + ".lock")
        holder.acquire()
        try:
            before = shard.read_bytes()
            with pytest.warns(CacheIntegrityWarning, match="shard lock busy"):
                cache.save()
            assert shard.read_bytes() == before  # the shard was not touched
        finally:
            holder.release()
        # The degraded save still folded the other writers' entries into
        # memory, and held our own back for the next save.
        assert cache.get("fp-disk") is not None
        assert cache.get("fp-disk2") is not None
        assert cache.get("fp-mem") is not None
        assert "fp-mem" not in ShardedStore(path).load_all()
        # And nothing was lost: the next unobstructed save writes it.
        cache.save()
        reread = SynthesisCache(path)
        for fp in ("fp-disk", "fp-disk2", "fp-mem"):
            assert reread.get(fp) is not None, fp

    def test_artifact_publish_degrades_to_private_build(self, tmp_path):
        store = ArtifactStore(tmp_path / "arts", lock_timeout=0.2)
        built = tmp_path / "built.so"
        built.write_bytes(b"\x7fELF fake artifact bytes")
        holder = FileLock(store.publish_lock_path("k" * 64))
        holder.acquire()
        try:
            published = store.put("k" * 64, built)
        finally:
            holder.release()
        # The compile is not wasted: the caller gets its private build,
        # the shared store just was not updated.
        assert published == built
        assert not store.so_path("k" * 64).exists()


# ---------------------------------------------------------------------------
# Torn writes: shard logs
# ---------------------------------------------------------------------------

class TestShardFaults:
    """Fault-matrix rows for the sharded store: a torn shard append
    loses only its own line, and a failed compaction never loses an
    already-durable append."""

    def test_torn_shard_append_degrades_and_heals(
        self, reference, tmp_path, monkeypatch
    ):
        spec = write_spec(
            tmp_path / "faults.json",
            tmp_path / "state",
            [{"site": "shard-log", "kind": "truncate", "occurrences": [1]}],
        )
        monkeypatch.setenv(ENV_VAR, str(spec))
        path = tmp_path / "store"
        first = BatchScheduler(
            OPTIONS, pool_size=2, cache=SynthesisCache(path, autosave=False)
        ).lift_cases(CASES)
        assert _signatures(first.reports) == reference  # results unharmed

        # Only the torn line is lost: the next load warns, skips it, and
        # every other shard's entries survive.
        with pytest.warns(CacheIntegrityWarning, match="torn appends"):
            cache = SynthesisCache(path, autosave=False)
        assert 0 < len(cache) < len(CASES)

        second = BatchScheduler(OPTIONS, pool_size=2, cache=cache).lift_cases(CASES)
        assert _signatures(second.reports) == reference
        # The damaged line lingers until compaction, so the reload still
        # warns — but every entry is back.
        with pytest.warns(CacheIntegrityWarning, match="torn appends"):
            healed = SynthesisCache(path)
        assert len(healed) == len(CASES)

    def test_compaction_fault_keeps_append_only_log(self, tmp_path, monkeypatch):
        spec = write_spec(
            tmp_path / "faults.json",
            tmp_path / "state",
            [{"site": "shard-compact", "kind": "raise", "occurrences": [1]}],
        )
        monkeypatch.setenv(ENV_VAR, str(spec))
        store = ShardedStore(
            tmp_path / "store", compact_min_records=4, compact_factor=2
        )
        fp = hashlib.sha256(b"hot-entry").hexdigest()
        for round_ in range(3):
            store.append({fp: {"status": "ok", "round": round_}})
        # The 4th append crosses the compaction threshold; the injected
        # fault aborts the rewrite but the append itself is durable.
        with pytest.warns(CacheIntegrityWarning, match="shard compaction failed"):
            store.append({fp: {"status": "ok", "round": 3}})
        assert store.load_all(warn=False)[fp] == {"status": "ok", "round": 3}
        assert store.record_count() == 4  # uncompacted log kept intact
        assert store.compactions == 0

        # The next append retries compaction (occurrence 2 passes).
        store.append({fp: {"status": "ok", "round": 4}})
        assert store.compactions == 1
        assert store.record_count() == 1
        assert store.load_all(warn=False)[fp] == {"status": "ok", "round": 4}


# ---------------------------------------------------------------------------
# Graceful degradation in whole-application translation
# ---------------------------------------------------------------------------

class TestApplicationDegradation:
    """A crashed lift site demotes to the interpreter; the translated
    application still completes and stays bitwise identical."""

    @pytest.fixture(scope="class")
    def heat_store(self, tmp_path_factory):
        from repro.application import translate_application
        from repro.suites.apps import heat_mini_app

        path = tmp_path_factory.mktemp("app") / "heat"
        cache = SynthesisCache(path, autosave=False)
        bundle = translate_application(
            heat_mini_app(), PipelineOptions(verifier_environments=1), cache=cache
        )
        assert len(bundle.translated) == 2  # both sites lift when unfaulted
        return path

    def _faulted_bundle(self, heat_store, tmp_path, monkeypatch, site, pool_size):
        from repro.application import translate_application
        from repro.suites.apps import heat_mini_app

        spec = write_spec(
            tmp_path / "faults.json",
            tmp_path / "state",
            [
                {
                    "site": site,
                    "key": "heat_step",
                    "kind": "raise",
                    "occurrences": [1, 2],
                }
            ],
        )
        monkeypatch.setenv(ENV_VAR, str(spec))
        cache = SynthesisCache(_copy_store(heat_store, tmp_path), autosave=False)
        return translate_application(
            heat_mini_app(),
            PipelineOptions(verifier_environments=1),
            cache=cache,
            pool_size=pool_size,
            fault_policy=FaultPolicy(max_attempts=2, backoff_seconds=0.0),
        )

    @pytest.mark.parametrize(
        "site,pool_size",
        [("worker-job", 2), ("site-lift", 1)],
        ids=["pooled", "sequential"],
    )
    def test_crashed_site_demotes_and_stays_bitwise(
        self, heat_store, tmp_path, monkeypatch, site, pool_size
    ):
        from repro.application import differential_check

        bundle = self._faulted_bundle(heat_store, tmp_path, monkeypatch, site, pool_size)

        # Translation completed; the faulted site degraded, the other lifted.
        assert [tk.site.procedure for tk in bundle.translated] == ["copy_back"]
        demoted = [fb for fb in bundle.fallbacks if fb.kind == "lift-failure"]
        assert len(demoted) == 1
        assert demoted[0].site.procedure == "heat_step"
        assert "worker-exception after" in demoted[0].reason
        assert "InjectedFault" not in demoted[0].reason  # classified, not raw

        # The manifest records the degradation with its reason.
        manifest = bundle.manifest()
        by_kind = {fb["kind"] for fb in manifest["fallbacks"]}
        assert "lift-failure" in by_kind
        recorded = [
            fb for fb in manifest["fallbacks"] if fb["kind"] == "lift-failure"
        ]
        assert recorded[0]["procedure"] == "heat_step"
        assert recorded[0]["reason"] == demoted[0].reason

        # The degraded program still runs and matches the interpreter bitwise.
        report = differential_check(bundle, grids=(6,))
        assert report.all_identical


class TestArtifactIntegrity:
    KEY = "a" * 64

    def _publish(self, store, tmp_path, data=b"fake shared object bytes"):
        built = tmp_path / "built.so"
        built.write_bytes(data)
        return store.put(self.KEY, built)

    def test_publication_records_digest(self, tmp_path):
        import hashlib
        import json

        store = ArtifactStore(tmp_path / "arts")
        self._publish(store, tmp_path)
        sidecar = json.loads(store.meta_path(self.KEY).read_text())
        assert sidecar["sha256"] == hashlib.sha256(b"fake shared object bytes").hexdigest()
        assert store.get(self.KEY) == store.so_path(self.KEY)
        assert store.hits == 1

    def test_truncated_artifact_is_quarantined_and_misses(self, tmp_path):
        store = ArtifactStore(tmp_path / "arts")
        self._publish(store, tmp_path)
        target = store.so_path(self.KEY)
        target.write_bytes(target.read_bytes()[: 4])  # torn write
        with pytest.warns(CacheIntegrityWarning, match="digest mismatch"):
            assert store.get(self.KEY) is None
        assert store.misses == 1
        assert Path(f"{store.so_path(self.KEY)}.corrupt-1").exists()
        assert Path(f"{store.meta_path(self.KEY)}.corrupt-1").exists()
        # Quarantine-then-recompile: a fresh publication works and loads.
        self._publish(store, tmp_path)
        assert store.get(self.KEY) is not None

    def test_digestless_artifact_is_not_trusted(self, tmp_path):
        store = ArtifactStore(tmp_path / "arts")
        self._publish(store, tmp_path)
        store.meta_path(self.KEY).unlink()  # e.g. a pre-integrity store
        with pytest.warns(CacheIntegrityWarning, match="no integrity digest"):
            assert store.get(self.KEY) is None

    def test_put_replaces_corrupt_preexisting_artifact(self, tmp_path):
        store = ArtifactStore(tmp_path / "arts")
        self._publish(store, tmp_path)
        store.so_path(self.KEY).write_bytes(b"corrupted")
        with pytest.warns(CacheIntegrityWarning, match="digest mismatch"):
            published = self._publish(store, tmp_path)
        assert published == store.so_path(self.KEY)
        assert store.get(self.KEY) is not None  # verified republication

    def test_injected_torn_artifact_write(self, tmp_path, monkeypatch):
        """The artifact-so hook: the .so is truncated at publication and
        caught at load, never dlopen'd."""
        spec = write_spec(
            tmp_path / "faults.json",
            tmp_path / "state",
            [
                {
                    "site": "artifact-so",
                    "kind": "truncate",
                    "occurrences": [1],
                    "keep_bytes": 3,
                }
            ],
        )
        monkeypatch.setenv(ENV_VAR, str(spec))
        store = ArtifactStore(tmp_path / "arts")
        self._publish(store, tmp_path)
        with pytest.warns(CacheIntegrityWarning, match="digest mismatch"):
            assert store.get(self.KEY) is None
