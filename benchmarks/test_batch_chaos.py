"""E10 — Chaos variant of the batch benchmark: SIGKILLs mid-batch.

Runs the StencilMark suite through the batch scheduler at pool size 4
with deterministic SIGKILL faults injected into two worker jobs, and
compares against a clean run of the same suite.  The invariants are the
fault-tolerance layer's acceptance criteria at benchmark scale:

* the chaotic batch completes with zero terminal failures (every
  killed job recovers within its retry budget);
* its outcomes are identical to the clean run's;
* the overhead of crash recovery (pool rebuild + resubmission) is
  recorded in the benchmark JSON for tracking, not asserted — wall
  clock under chaos is machine-dependent by design.

This file is the non-blocking CI chaos job; the blocking fault matrix
lives in ``tests/test_fault_tolerance.py``.
"""

from __future__ import annotations

import time

from repro.cache import SynthesisCache
from repro.pipeline import BatchScheduler, FaultPolicy, PipelineOptions
from repro.suites.registry import cases_for_suite
from repro.testing import write_spec
from repro.testing.faultinject import ENV_VAR

OPTIONS = PipelineOptions(autotune_budget=80, verifier_environments=1)


def test_batch_survives_chaos(benchmark, capsys, tmp_path, monkeypatch):
    cases = cases_for_suite("StencilMark")
    cache_path = tmp_path / "chaos-cache"

    # Prime the cache so both runs are warm: the comparison then
    # isolates scheduling/fault overhead from synthesis time.
    prime = SynthesisCache(cache_path, autosave=False)
    BatchScheduler(OPTIONS, pool_size=4, cache=prime).lift_cases(cases)

    start = time.perf_counter()
    clean = BatchScheduler(
        OPTIONS, pool_size=4, cache=SynthesisCache(cache_path, autosave=False)
    ).lift_cases(cases)
    clean_seconds = time.perf_counter() - start

    spec = write_spec(
        tmp_path / "faults.json",
        tmp_path / "state",
        [
            {
                "site": "worker-job",
                "key": cases[0].name,
                "kind": "kill",
                "occurrences": [1],
            },
            {
                "site": "worker-job",
                "key": cases[-1].name,
                "kind": "kill",
                "occurrences": [1],
            },
        ],
    )
    monkeypatch.setenv(ENV_VAR, str(spec))
    policy = FaultPolicy(max_attempts=3, backoff_seconds=0.0)

    def chaos_run():
        cache = SynthesisCache(cache_path, autosave=False)
        scheduler = BatchScheduler(
            OPTIONS, pool_size=4, cache=cache, fault_policy=policy
        )
        start = time.perf_counter()
        result = scheduler.lift_cases(cases)
        return result, time.perf_counter() - start

    chaos_result, chaos_seconds = benchmark.pedantic(chaos_run, rounds=1, iterations=1)

    benchmark.extra_info.update(
        {
            "cases": len(cases),
            "pool_size": 4,
            "injected_kills": 2,
            "clean_seconds": round(clean_seconds, 3),
            "chaos_seconds": round(chaos_seconds, 3),
            "recovery_overhead_seconds": round(chaos_seconds - clean_seconds, 3),
            "terminal_failures": len(chaos_result.failures),
        }
    )
    with capsys.disabled():
        print("\n=== Batch scheduler under chaos (2 injected SIGKILLs) ===")
        print(f"cases: {len(cases)}   pool size: 4")
        print(f"clean: {clean_seconds:7.2f}s")
        print(f"chaos: {chaos_seconds:7.2f}s  failures={len(chaos_result.failures)}")

    # Every killed job recovered; nothing was lost or reordered.
    assert chaos_result.failures == []
    assert [(r.name, r.outcome) for r in chaos_result.reports] == [
        (r.name, r.outcome) for r in clean.reports
    ]
