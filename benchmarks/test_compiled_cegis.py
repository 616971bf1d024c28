"""E7 — Compiled CEGIS inner loop: cold-lift speedup, compiled vs interpreted.

Lifts the Table-1 suite cross-section cold (no cache) twice through the
sequential pipeline: once with the compiled evaluation layer
(:mod:`repro.compile`, the default) and once with the interpreted
fallback (``PipelineOptions(compiled=False)``).  Reports must be
byte-identical (via :func:`repro.pipeline.report_signature`) and the
compiled cold lift must be at least 3x faster.

With ``REPRO_FULL=1`` this covers all 93 Table 2 kernels.
"""

from __future__ import annotations

import time

from repro.compile import clear_compile_caches
from repro.pipeline import PipelineOptions, lift_cases_sequential, report_signature
from repro.symbolic.expr import clear_intern_table
from repro.symbolic.simplify import clear_simplify_cache

COMPILED_SPEEDUP_FLOOR = 3.0

# The Tier-3 inductive prover costs the same in both evaluation modes
# and would dilute the measured ratio; this benchmark isolates the
# compile layer, so it runs the prover-less configuration.
COMPILED = PipelineOptions(autotune_budget=20, verifier_environments=1, inductive=False)
INTERPRETED = PipelineOptions(
    autotune_budget=20, verifier_environments=1, inductive=False, compiled=False
)


def _timed_cold_lift(cases, options):
    # Both modes lean on process-global memo tables (interned expressions,
    # canonical forms, compiled functions); start each timed run cold so the
    # comparison is order-independent within the benchmark session.
    clear_compile_caches()
    clear_simplify_cache()
    clear_intern_table()
    start = time.perf_counter()
    reports = lift_cases_sequential(cases, options)
    return reports, time.perf_counter() - start


def test_compiled_cold_lift_speedup(selected_cases, benchmark, capsys):
    def compiled_run():
        return _timed_cold_lift(selected_cases, COMPILED)

    compiled_reports, compiled_seconds = benchmark.pedantic(
        compiled_run, rounds=1, iterations=1
    )
    interpreted_reports, interpreted_seconds = _timed_cold_lift(
        selected_cases, INTERPRETED
    )

    speedup = interpreted_seconds / max(compiled_seconds, 1e-9)
    benchmark.extra_info.update(
        {
            "cases": len(selected_cases),
            "compiled_seconds": round(compiled_seconds, 3),
            "interpreted_seconds": round(interpreted_seconds, 3),
            "compiled_speedup": round(speedup, 2),
        }
    )
    with capsys.disabled():
        print("\n=== Compiled CEGIS inner loop (cold lift, Table 1 cross-section) ===")
        print(f"cases: {len(selected_cases)}")
        print(f"compiled    : {compiled_seconds:7.2f}s")
        print(f"interpreted : {interpreted_seconds:7.2f}s")
        print(f"speedup     : {speedup:7.2f}x  (floor {COMPILED_SPEEDUP_FLOOR}x)")

    assert [report_signature(r) for r in compiled_reports] == [
        report_signature(r) for r in interpreted_reports
    ], "compiled and interpreted cold lifts must be byte-identical"
    assert speedup >= COMPILED_SPEEDUP_FLOOR
