"""The content-addressed synthesis cache: fingerprints, store, pipeline wiring."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cache import (
    CODE_VERSION,
    SynthesisCache,
    fingerprint_kernel,
    fingerprint_synthesis,
)
from repro.cache.serialize import (
    expr_from_json,
    expr_to_json,
    result_from_payload,
    result_to_payload,
)
from repro.frontend import identify_candidates, parse_source
from repro.frontend.lowering import lower_candidate
from repro.pipeline import PipelineOptions, STNGPipeline, report_signature
from repro.symbolic.expr import cell, const, sym
from repro.synthesis import cegis
from repro.synthesis.cegis import SynthesisFailure, SynthesisTimeout, synthesize_kernel

TWO_POINT = """
procedure sten(imin,imax,jmin,jmax,a,b)
real (kind=8), dimension(imin:imax,jmin:jmax) :: a
real (kind=8), dimension(imin:imax,jmin:jmax) :: b
do j=jmin,jmax
do i=imin+1,imax
a(i,j) = b(i,j) + b(i-1,j)
enddo
enddo
end procedure
"""

# Same kernel with one body edit (different neighbour offset).
TWO_POINT_EDITED = TWO_POINT.replace("b(i-1,j)", "b(i+1,j)")

# Same kernel, renamed procedure: structurally identical content.
TWO_POINT_RENAMED = TWO_POINT.replace("procedure sten", "procedure nets")


def _kernel(source: str):
    return lower_candidate(identify_candidates(parse_source(source)).candidates[0])


def _config(**overrides):
    config = {
        "trials": 2,
        "seed": 1,
        "max_candidates": 2000,
        "quick_samples": 2,
        "verifier_environments": 1,
        "strategies": ["perfect_nest", "cross", "box", "default"],
    }
    config.update(overrides)
    return config


@pytest.fixture()
def counted_synthesis(monkeypatch):
    """Count real (uncached) synthesis runs."""
    calls = {"count": 0}
    real = cegis.synthesize_kernel_uncached

    def counting(*args, **kwargs):
        calls["count"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(cegis, "synthesize_kernel_uncached", counting)
    return calls


class TestFingerprint:
    def test_stable_across_lowerings(self):
        assert fingerprint_kernel(_kernel(TWO_POINT)) == fingerprint_kernel(_kernel(TWO_POINT))

    def test_changes_on_body_edit(self):
        assert fingerprint_kernel(_kernel(TWO_POINT)) != fingerprint_kernel(
            _kernel(TWO_POINT_EDITED)
        )

    def test_content_addressed_ignores_name(self):
        # A renamed but structurally identical kernel shares the address.
        assert fingerprint_kernel(_kernel(TWO_POINT)) == fingerprint_kernel(
            _kernel(TWO_POINT_RENAMED)
        )

    def test_changes_on_option_change(self):
        kernel = _kernel(TWO_POINT)
        base = fingerprint_synthesis(kernel, _config())
        assert base != fingerprint_synthesis(kernel, _config(trials=3))
        assert base != fingerprint_synthesis(kernel, _config(seed=2))
        assert base != fingerprint_synthesis(kernel, _config(strategies=["default"]))

    def test_changes_on_code_version(self):
        kernel = _kernel(TWO_POINT)
        assert fingerprint_synthesis(kernel, _config()) != fingerprint_synthesis(
            kernel, _config(), code_version=CODE_VERSION + "-next"
        )


class TestSerialization:
    def test_expr_round_trip(self):
        expr = (sym("i") + const(2)) * cell("b", sym("i") - 1, sym("j")) / const(3) - sym("q")
        data = json.loads(json.dumps(expr_to_json(expr)))
        assert expr_from_json(data) == expr

    def test_result_round_trip(self):
        kernel = _kernel(TWO_POINT)
        result = synthesize_kernel(kernel, seed=1, verifier_environments=1)
        payload = json.loads(json.dumps(result_to_payload(result)))
        restored = result_from_payload(payload, kernel)
        assert restored.candidate.post == result.candidate.post
        assert restored.candidate.invariants == result.candidate.invariants
        assert restored.strategy == result.strategy
        assert restored.control_bits == result.control_bits
        assert restored.stats == result.stats


class TestStore:
    def test_hit_skips_synthesis(self, tmp_path, counted_synthesis):
        kernel = _kernel(TWO_POINT)
        cache = SynthesisCache(tmp_path / "store")
        first = synthesize_kernel(kernel, seed=1, verifier_environments=1, cache=cache)
        assert counted_synthesis["count"] == 1
        second = synthesize_kernel(kernel, seed=1, verifier_environments=1, cache=cache)
        assert counted_synthesis["count"] == 1  # cache hit: no new synthesis
        assert cache.hits == 1 and cache.misses == 1
        assert second.candidate.post == first.candidate.post

    def test_persists_across_instances(self, tmp_path, counted_synthesis):
        kernel = _kernel(TWO_POINT)
        path = tmp_path / "store"
        synthesize_kernel(kernel, seed=1, verifier_environments=1, cache=SynthesisCache(path))
        warm = SynthesisCache(path)
        synthesize_kernel(kernel, seed=1, verifier_environments=1, cache=warm)
        assert counted_synthesis["count"] == 1
        assert warm.hits == 1

    def test_option_change_misses(self, tmp_path, counted_synthesis):
        kernel = _kernel(TWO_POINT)
        cache = SynthesisCache(tmp_path / "store")
        synthesize_kernel(kernel, seed=1, verifier_environments=1, cache=cache)
        synthesize_kernel(kernel, seed=1, trials=3, verifier_environments=1, cache=cache)
        assert counted_synthesis["count"] == 2

    def test_corrupted_store_falls_back_to_cold(self, tmp_path, counted_synthesis):
        from repro.cache import CacheIntegrityWarning

        kernel = _kernel(TWO_POINT)
        path = tmp_path / "store"
        path.mkdir()
        garbage = path / "shard-0.jsonl"
        garbage.write_text("{not json at all\n", encoding="utf-8")
        with pytest.warns(CacheIntegrityWarning, match="undecodable"):
            cache = SynthesisCache(path)
        result = synthesize_kernel(kernel, seed=1, verifier_environments=1, cache=cache)
        assert result.verification.ok
        assert counted_synthesis["count"] == 1
        # The damaged line was skipped, not overwritten: the evidence
        # survives next to the persisted cold result.
        assert garbage.read_text(encoding="utf-8").startswith("{not json at all\n")
        with pytest.warns(CacheIntegrityWarning, match="undecodable"):
            assert len(SynthesisCache(path)) == 1

    def test_version_mismatch_invalidates(self, tmp_path, counted_synthesis):
        kernel = _kernel(TWO_POINT)
        path = tmp_path / "store"
        synthesize_kernel(
            kernel, seed=1, verifier_environments=1, cache=SynthesisCache(path)
        )
        stale = SynthesisCache(path, code_version=CODE_VERSION + "-next")
        assert len(stale) == 0
        synthesize_kernel(kernel, seed=1, verifier_environments=1, cache=stale)
        assert counted_synthesis["count"] == 2

    def test_version_mismatch_warns_with_discarded_count(self, tmp_path):
        """Version skew is loud now: a StaleVersionWarning names the count."""
        from repro.cache import StaleVersionWarning

        path = tmp_path / "store"
        seeded = SynthesisCache(path, autosave=False)
        seeded.record_failure("a" * 64, "m1", "k1")
        seeded.record_failure("b" * 64, "m2", "k2")
        seeded.save()
        with pytest.warns(
            StaleVersionWarning, match="holds 2 entries from other code versions"
        ):
            stale = SynthesisCache(path, code_version=CODE_VERSION + "-next")
        assert len(stale) == 0
        # The shards are not touched — skew is invalidation, not damage.
        assert len(list(path.glob("shard-*.jsonl"))) == 2

    def test_failure_is_cached(self, tmp_path, counted_synthesis):
        kernel = _kernel(TWO_POINT)
        cache = SynthesisCache(tmp_path / "store")
        with pytest.raises(SynthesisFailure) as first:
            synthesize_kernel(kernel, seed=1, strategies=[], cache=cache)
        with pytest.raises(SynthesisFailure) as second:
            synthesize_kernel(kernel, seed=1, strategies=[], cache=cache)
        assert counted_synthesis["count"] == 1
        assert str(first.value) == str(second.value)

    def test_failure_caching_can_be_disabled(self, tmp_path, counted_synthesis):
        kernel = _kernel(TWO_POINT)
        cache = SynthesisCache(tmp_path / "store", cache_failures=False)
        for _ in range(2):
            with pytest.raises(SynthesisFailure):
                synthesize_kernel(kernel, seed=1, strategies=[], cache=cache)
        assert counted_synthesis["count"] == 2

    def test_persisted_failures_hidden_when_disabled(self, tmp_path, counted_synthesis):
        # A failure recorded by an earlier (cache_failures=True) run must not
        # be replayed once failure caching is turned off.
        kernel = _kernel(TWO_POINT)
        path = tmp_path / "store"
        with pytest.raises(SynthesisFailure):
            synthesize_kernel(kernel, seed=1, strategies=[], cache=SynthesisCache(path))
        retry = SynthesisCache(path, cache_failures=False)
        with pytest.raises(SynthesisFailure):
            synthesize_kernel(kernel, seed=1, strategies=[], cache=retry)
        assert counted_synthesis["count"] == 2

    def test_custom_strategy_objects_bypass_cache(self, tmp_path, counted_synthesis):
        # The cache keys strategies by name; a caller-supplied Strategy with
        # a built-in's name but different behaviour must neither hit nor
        # record entries.
        from repro.synthesis.strategies import STRATEGIES, Strategy

        kernel = _kernel(TWO_POINT)
        cache = SynthesisCache(tmp_path / "store")
        impostor = Strategy("default", lambda _kernel, templates: templates)
        synthesize_kernel(
            kernel, seed=1, verifier_environments=1, strategies=[impostor], cache=cache
        )
        assert len(cache) == 0
        synthesize_kernel(
            kernel, seed=1, verifier_environments=1, strategies=list(STRATEGIES), cache=cache
        )
        assert len(cache) == 1
        assert counted_synthesis["count"] == 2

    def test_timeouts_are_never_cached(self, tmp_path, counted_synthesis):
        # Timeout failures are wall-clock-dependent; a warm run re-attempts.
        kernel = _kernel(TWO_POINT)
        cache = SynthesisCache(tmp_path / "store")
        for _ in range(2):
            with pytest.raises(SynthesisTimeout):
                synthesize_kernel(kernel, seed=1, timeout=0.0, cache=cache)
        assert counted_synthesis["count"] == 2
        assert len(cache) == 0


class TestPipelineIntegration:
    def test_warm_pipeline_report_is_identical(self, tmp_path, counted_synthesis):
        options = PipelineOptions(seed=1, autotune_budget=20, verifier_environments=1)
        path = tmp_path / "store"
        cold = STNGPipeline(options, cache=SynthesisCache(path)).lift_source(
            TWO_POINT, suite="demo", points=64
        )
        warm = STNGPipeline(options, cache=SynthesisCache(path)).lift_source(
            TWO_POINT, suite="demo", points=64
        )
        assert counted_synthesis["count"] == 1
        assert [report_signature(r) for r in warm] == [report_signature(r) for r in cold]


class TestFileLock:
    """Crash-reclaimable locking for the store's per-shard appends."""

    def test_acquire_release_round_trip(self, tmp_path):
        from repro.cache import FileLock

        lock = FileLock(tmp_path / "x.lock")
        with lock:
            assert lock.held
            assert (tmp_path / "x.lock").exists()
        assert not lock.held
        assert not (tmp_path / "x.lock").exists()

    def test_held_lock_times_out(self, tmp_path):
        from repro.cache import FileLock, LockTimeout

        holder = FileLock(tmp_path / "x.lock")
        holder.acquire()
        try:
            waiter = FileLock(tmp_path / "x.lock", timeout=0.2)
            with pytest.raises(LockTimeout):
                waiter.acquire()
        finally:
            holder.release()

    def test_dead_holder_is_reclaimed(self, tmp_path):
        import subprocess
        import sys
        import time

        from repro.cache import FileLock

        # A real, definitely-dead pid: spawn a process and wait for it.
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        lock_path = tmp_path / "x.lock"
        lock_path.write_text(f"{proc.pid} {time.time()}")
        lock = FileLock(lock_path, timeout=5.0)
        started = time.monotonic()
        lock.acquire()  # reclaims instead of deadlocking
        assert time.monotonic() - started < 2.0
        lock.release()

    def test_old_lock_from_live_pid_is_reclaimed(self, tmp_path):
        import os
        import time

        from repro.cache import FileLock

        lock_path = tmp_path / "x.lock"
        # Our own (alive) pid, but acquired far beyond stale_after:
        # covers pid reuse after a crash.
        lock_path.write_text(f"{os.getpid()} {time.time() - 100.0}")
        lock = FileLock(lock_path, timeout=5.0, stale_after=1.0)
        lock.acquire()
        lock.release()

    def test_unparseable_lock_file_reclaimed_by_mtime(self, tmp_path):
        import os
        import time

        from repro.cache import FileLock

        lock_path = tmp_path / "x.lock"
        lock_path.write_text("garbage")
        old = time.time() - 100.0
        os.utime(lock_path, (old, old))
        lock = FileLock(lock_path, timeout=5.0, stale_after=1.0)
        lock.acquire()
        lock.release()

    def test_save_reclaims_lock_of_killed_writer(self, tmp_path):
        """A writer SIGKILLed mid-save must not wedge every later save."""
        import os
        import subprocess
        import sys
        import time

        import repro.cache.locks as locks_mod
        from repro.cache import ShardedStore

        store_path = tmp_path / "store"
        lock_path = Path(str(ShardedStore(store_path).shard_file("fp-after-crash")) + ".lock")
        src_dir = os.path.dirname(os.path.dirname(os.path.dirname(locks_mod.__file__)))
        # The victim acquires the shard lock that SynthesisCache.save
        # needs for this entry, announces it, then hangs as if it died
        # between acquire and release.
        victim = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys; sys.path.insert(0, sys.argv[1])\n"
                "from repro.cache.locks import FileLock\n"
                "lock = FileLock(sys.argv[2]); lock.acquire()\n"
                "print('HOLDING', flush=True)\n"
                "import time; time.sleep(60)\n",
                src_dir,
                str(lock_path),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert victim.stdout.readline().strip() == "HOLDING"
            victim.kill()
            victim.wait()
            assert lock_path.exists()  # the crash left the lock behind

            cache = SynthesisCache(store_path, autosave=False)
            cache.record_failure("fp-after-crash", "no strategy verified")
            started = time.monotonic()
            cache.save()  # must reclaim the dead holder's lock, not block
            assert time.monotonic() - started < 5.0
            assert not lock_path.exists()
            reread = SynthesisCache(store_path)
            assert reread.get("fp-after-crash") is not None
        finally:
            if victim.poll() is None:
                victim.kill()
