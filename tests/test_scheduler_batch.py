"""Batch-lifting scheduler: parallel results must equal the sequential sweep.

The StencilMark suite (cheap) is lifted cold through the pool at sizes
1, 2 and 4.  The Challenge suite (expensive) is lifted cold once at
pool size 4 — the maximum worker interleaving — while pool sizes 1 and
2 rerun it warm through a shared cache store, which still exercises the
pool fan-out, the worker-side cache rehydration, and the deterministic
aggregation.  Every run must be byte-identical (up to wall-clock
timing, via :func:`report_signature`) to the in-process sequential
reference, in the same order.
"""

from __future__ import annotations

import pytest

from repro.cache import SynthesisCache
from repro.pipeline import (
    BatchScheduler,
    PipelineOptions,
    lift_cases_sequential,
    report_signature,
)
from repro.pipeline.report import summarize_suite
from repro.suites.registry import cases_for_suite

# These tests pin the *scheduler's* semantics (batch == sequential,
# deterministic aggregation, cache plumbing); the Tier-3 prover is
# orthogonal and expensive on the hand-tiled Challenge kernels, so it
# stays off here — its batch/cache interplay is covered by
# tests/test_cache_certificates.py.
OPTIONS = PipelineOptions(autotune_budget=20, verifier_environments=1, inductive=False)


def _signatures(reports):
    return [report_signature(r) for r in reports]


@pytest.fixture(scope="module")
def stencilmark_sequential():
    return lift_cases_sequential(cases_for_suite("StencilMark"), OPTIONS)


@pytest.fixture(scope="module")
def challenge_sequential():
    return lift_cases_sequential(cases_for_suite("Challenge"), OPTIONS)


@pytest.fixture(scope="module")
def challenge_store(tmp_path_factory, challenge_sequential):
    """Cold batch run of Challenge at pool size 4, populating a store."""
    path = tmp_path_factory.mktemp("batch") / "challenge-cache"
    cache = SynthesisCache(path, autosave=False)
    result = BatchScheduler(OPTIONS, pool_size=4, cache=cache).lift_cases(
        cases_for_suite("Challenge")
    )
    return path, result


class TestStencilMarkCold:
    @pytest.mark.parametrize("pool_size", [1, 2, 4])
    def test_batch_equals_sequential(self, pool_size, stencilmark_sequential):
        result = BatchScheduler(OPTIONS, pool_size=pool_size).lift_cases(
            cases_for_suite("StencilMark")
        )
        assert _signatures(result.reports) == _signatures(stencilmark_sequential)

    def test_report_order_is_submission_order(self, stencilmark_sequential):
        cases = cases_for_suite("StencilMark")
        result = BatchScheduler(OPTIONS, pool_size=4).lift_cases(cases)
        assert [r.name for r in result.reports] == [c.name for c in cases]


class TestChallenge:
    def test_cold_pool4_equals_sequential(self, challenge_store, challenge_sequential):
        _path, result = challenge_store
        assert _signatures(result.reports) == _signatures(challenge_sequential)
        # Cold runs are dominated by misses; a worker may still score
        # intra-batch hits when two cases share a content address (the
        # fingerprint ignores kernel names), so hits need not be zero.
        assert result.cache_misses > 0
        assert result.cache_misses >= result.cache_hits

    @pytest.mark.parametrize("pool_size", [1, 2])
    def test_warm_pools_equal_sequential(self, pool_size, challenge_store, challenge_sequential):
        path, _result = challenge_store
        cache = SynthesisCache(path, autosave=False)
        result = BatchScheduler(OPTIONS, pool_size=pool_size, cache=cache).lift_cases(
            cases_for_suite("Challenge")
        )
        assert _signatures(result.reports) == _signatures(challenge_sequential)
        assert result.cache_hits > 0 and result.cache_misses == 0

    def test_warm_rerun_is_deterministic(self, challenge_store):
        path, _result = challenge_store
        runs = []
        for _ in range(2):
            cache = SynthesisCache(path, autosave=False)
            result = BatchScheduler(OPTIONS, pool_size=2, cache=cache).lift_cases(
                cases_for_suite("Challenge")
            )
            runs.append(_signatures(result.reports))
        assert runs[0] == runs[1]


class TestCachePlumbing:
    def test_custom_code_version_reaches_workers(self, tmp_path, stencilmark_sequential):
        # Workers must open the store with the parent cache's code_version,
        # or a custom-version store would never warm up in batch mode.
        path = tmp_path / "v2-cache"
        cases = cases_for_suite("StencilMark")
        BatchScheduler(
            OPTIONS, pool_size=2, cache=SynthesisCache(path, code_version="v2", autosave=False)
        ).lift_cases(cases)
        warm = BatchScheduler(
            OPTIONS, pool_size=2, cache=SynthesisCache(path, code_version="v2", autosave=False)
        ).lift_cases(cases)
        assert warm.cache_hits > 0 and warm.cache_misses == 0
        assert _signatures(warm.reports) == _signatures(stencilmark_sequential)


class TestAggregation:
    def test_suite_summaries_match_sequential(self, stencilmark_sequential):
        result = BatchScheduler(OPTIONS, pool_size=2).lift_cases(
            cases_for_suite("StencilMark")
        )
        batch_summary = result.summaries()["StencilMark"]
        sequential_summary = summarize_suite("StencilMark", stencilmark_sequential)
        assert batch_summary == sequential_summary

    def test_outcomes_match_sequential(self, challenge_store, challenge_sequential):
        _path, result = challenge_store
        assert [(r.name, r.outcome) for r in result.reports] == [
            (r.name, r.outcome) for r in challenge_sequential
        ]
