"""E6 — Batch scheduler: cold-vs-warm cache and pool-size timings.

Runs the selected suite cross-section through the batch scheduler three
ways — cold (empty cache) at the machine's pool size, warm (primed
cache) at the same pool size, and warm at pool size 1 — and records the
timings.  The warm run must be at least 5× faster than the cold run,
and batch classification must agree with the sequential pipeline
(``lifted_reports``) for every suite.

With ``REPRO_FULL=1`` this covers all 93 Table 2 kernels.
"""

from __future__ import annotations

import os
import time

from repro.cache import SynthesisCache
from repro.pipeline import BatchScheduler, PipelineOptions
from repro.pipeline.scheduler import BatchResult

OPTIONS = PipelineOptions(autotune_budget=80, verifier_environments=1)

WARM_SPEEDUP_FLOOR = 5.0


def _timed_run(selected_cases, pool_size: int, cache_path) -> "tuple[BatchResult, float]":
    cache = SynthesisCache(cache_path, autosave=False)
    scheduler = BatchScheduler(OPTIONS, pool_size=pool_size, cache=cache)
    start = time.perf_counter()
    result = scheduler.lift_cases(selected_cases)
    return result, time.perf_counter() - start


def test_batch_scheduler_cold_vs_warm(lifted_reports, selected_cases, benchmark, capsys, tmp_path):
    pool_n = os.cpu_count() or 1
    cache_path = tmp_path / "batch-cache"

    cold_result, cold_seconds = _timed_run(selected_cases, pool_n, cache_path)

    def warm_run():
        return _timed_run(selected_cases, pool_n, cache_path)

    warm_result, warm_seconds = benchmark.pedantic(warm_run, rounds=1, iterations=1)
    _pool1_result, pool1_seconds = _timed_run(selected_cases, 1, cache_path)

    benchmark.extra_info.update(
        {
            "cases": len(selected_cases),
            "pool_size": pool_n,
            "cold_seconds": round(cold_seconds, 3),
            "warm_seconds": round(warm_seconds, 3),
            "warm_pool1_seconds": round(pool1_seconds, 3),
            "warm_speedup": round(cold_seconds / max(warm_seconds, 1e-9), 1),
        }
    )
    with capsys.disabled():
        print("\n=== Batch scheduler (cold vs warm, pool sizes) ===")
        print(f"cases: {len(selected_cases)}   pool size: {pool_n}")
        print(f"cold  (pool {pool_n}): {cold_seconds:7.2f}s  "
              f"hits={cold_result.cache_hits} misses={cold_result.cache_misses}")
        print(f"warm  (pool {pool_n}): {warm_seconds:7.2f}s  "
              f"hits={warm_result.cache_hits} misses={warm_result.cache_misses}")
        print(f"warm  (pool 1): {pool1_seconds:7.2f}s")
        print(f"warm speedup: {cold_seconds / max(warm_seconds, 1e-9):.1f}x")

    # The content-addressed cache must make the warm run ≥5× faster.
    assert warm_seconds * WARM_SPEEDUP_FLOOR <= cold_seconds

    # Batch and sequential pipelines classify every suite identically.
    batch_by_suite = cold_result.by_suite()
    assert set(batch_by_suite) == set(lifted_reports)
    for suite, sequential in lifted_reports.items():
        batch_outcomes = [(r.name, r.outcome) for r in batch_by_suite[suite]]
        sequential_outcomes = [(r.name, r.outcome) for r in sequential]
        assert batch_outcomes == sequential_outcomes

    # Warm outcomes replay the cold outcomes exactly.
    assert [(r.name, r.outcome) for r in warm_result.reports] == [
        (r.name, r.outcome) for r in cold_result.reports
    ]
