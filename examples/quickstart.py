"""Quickstart: lift the paper's running example (Figure 1) end to end.

Run with ``python examples/quickstart.py``.  The script parses the
Fortran stencil of Figure 1(a), lifts it to the predicate-language
summary of Figure 1(b)/(c) and *proves* it for all array sizes with the
Tier-3 inductive prover (see docs/verification.md for the three-tier
hierarchy and the proof-certificate format), demonstrates the
content-addressed synthesis cache with a warm rerun (the stored proof
certificate revalidates on replay), prints the generated Halide C++ of
Figure 1(d), checks the generated pipeline against the original
Fortran semantics on a random grid, and finishes with *measured*
autotuning: the generated stencil is lowered to a loop nest
(tiling/vectorisation/parallel chunking as real loop structure),
wall-clock tuned, and every tuned schedule differentially verified
bit-identical against the schedule-blind reference.  A final pass runs
the same tuning through the pipeline's tuned-schedule store: the warm
rerun replays the winning schedule with **zero** measurements.

This is the single-kernel story; for translating *whole applications*
(scan every procedure, lift every kernel, substitute, differentially
execute) see docs/application_translation.md and
``examples/lift_cloverleaf.py``.  Scheduled execution here uses the
generated-Python backend (docs/scheduled_execution.md covers the loop-nest IR,
the compile-ahead concurrent tuner and the tuned-schedule store;
docs/static_analysis.md covers the dependence/legality/liveness
analyses that gate which schedules may run at all); when
a C toolchain is present the same nests can run through the native
compiled-C backend — multithreaded, with a content-addressed artifact
cache — see docs/native_execution.md.  Batch runs over whole
suites are fault-tolerant — worker crashes, hangs and corrupted caches
are retried, quarantined or degraded rather than fatal — see
docs/fault_tolerance.md.  To run all of this as a long-lived *server* —
submit Fortran over a socket, stream the phases back, dedupe concurrent
identical requests, serve repeats warm from a sharded synthesis store —
see docs/service.md and ``examples/lift_service.py``.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.backend.halidegen import postcondition_to_func
from repro.cache import SynthesisCache
from repro.frontend import identify_candidates, parse_source
from repro.frontend.lowering import lower_candidate
from repro.halide.executor import realize
from repro.predicates import format_invariant, format_postcondition
from repro.semantics.exec import execute_kernel
from repro.semantics.state import ArrayValue, State
from repro.synthesis import synthesize_kernel

FIGURE_1A = """
procedure sten(imin,imax,jmin,jmax,a,b)
real (kind=8), dimension(imin:imax,jmin:jmax) :: a
real (kind=8), dimension(imin:imax,jmin:jmax) :: b
do j=jmin,jmax
t = b(imin, j)
do i=imin+1,imax
q = b(i,j)
a(i,j) = q + t
t = q
enddo
enddo
end procedure
"""


def main() -> None:
    # 1. Front end: find the candidate loop nest and lower it to the IR.
    program = parse_source(FIGURE_1A)
    candidates = identify_candidates(program)
    kernel = lower_candidate(candidates.candidates[0])
    print("== candidate kernel ==")
    print(f"  {kernel.name} writing {[d.name for d in kernel.arrays]}")

    # 2. Verified lifting: inductive template generation + CEGIS + verification.
    #    The content-addressed cache persists the verified summary, so a
    #    second lookup — here, or from the store directory in a later
    #    process — skips synthesis entirely.  A fresh per-run directory
    #    keeps the cold measurement honest (and avoids clashes on shared
    #    machines).
    cache_path = Path(tempfile.mkdtemp(prefix="stng-quickstart-")) / "cache"
    cache = SynthesisCache(cache_path)
    start = time.perf_counter()
    result = synthesize_kernel(kernel, seed=1, cache=cache, inductive=True)
    cold_seconds = time.perf_counter() - start
    print("\n== lifted summary (postcondition, cf. Figure 1b) ==")
    print(format_postcondition(result.post))
    print("\n== loop invariants (cf. Figure 1c) ==")
    for loop_id, invariant in result.candidate.invariants.items():
        print(f"  [{loop_id}] {format_invariant(invariant)}")
    print(f"\nsynthesis time: {result.synthesis_time:.3f}s, "
          f"control bits: {result.control_bits}, "
          f"postcondition AST nodes: {result.postcondition_ast_nodes}")

    # 2b. The verification level: with ``inductive=True`` the summary is
    #     not just checked on sampled grid sizes but *proved* for all of
    #     them by the Tier-3 inductive prover; the proof certificate is
    #     stored in the cache and revalidated on every replay.  See
    #     docs/verification.md for the three-tier hierarchy.
    proved = sum(1 for c in result.certificate.clauses if c.proved)
    print(f"\n== verification level ==")
    print(f"{result.verification_level} "
          f"({proved}/{len(result.certificate.clauses)} VC clauses discharged "
          f"for all array sizes)")

    # 2c. Warm-cache rerun: the kernel's structural fingerprint hits the
    #     store, the stored proof certificate revalidates, and the
    #     verified summary is replayed without synthesizing.
    start = time.perf_counter()
    replayed = synthesize_kernel(kernel, seed=1, cache=cache, inductive=True)
    warm_seconds = time.perf_counter() - start
    assert replayed.post == result.post
    assert replayed.verification_level == "proved"
    print(f"\n== warm-cache rerun ({cache_path}) ==")
    print(f"cold: {cold_seconds * 1000:.0f}ms, warm: {warm_seconds * 1000:.1f}ms "
          f"(hits={cache.hits}, misses={cache.misses})")

    # 3. Backend: generate the Halide pipeline (Figure 1d).
    stencils = postcondition_to_func(result.post)
    print("\n== generated Halide C++ (cf. Figure 1d) ==")
    print(stencils[0].cpp_source)

    # 4. Check the generated pipeline against the original Fortran semantics.
    imin, imax, jmin, jmax = 0, 8, 0, 6
    rng = np.random.default_rng(0)
    b = rng.standard_normal((imax - imin + 1, jmax - jmin + 1))

    # Reference: interpret the original Fortran kernel.
    state = State(scalars={"imin": imin, "imax": imax, "jmin": jmin, "jmax": jmax})
    b_array = ArrayValue("b", default=lambda name, idx: float(b[idx[0] - imin, idx[1] - jmin]))
    a_array = ArrayValue("a", default=lambda name, idx: 0.0)
    state.arrays.update({"a": a_array, "b": b_array})
    execute_kernel(kernel, state)

    # Halide: realize the generated Func over the same domain.
    halide_out = realize(
        stencils[0].func,
        domain=[(imin + 1, imax), (jmin, jmax)],
        inputs={"b": b},
        input_origins={"b": (imin, jmin)},
    )

    max_error = 0.0
    for i in range(imin + 1, imax + 1):
        for j in range(jmin, jmax + 1):
            reference = a_array.load((i, j))
            generated = halide_out[i - (imin + 1), j - jmin]
            max_error = max(max_error, abs(float(reference) - float(generated)))
    print(f"max |fortran - halide| over the output domain: {max_error:.2e}")
    assert max_error < 1e-12, "generated pipeline disagrees with the original kernel"
    print("generated Halide pipeline matches the original Fortran kernel.")

    # 5. Measured autotuning: execute the schedule for real.  The
    #    (Func, Schedule) pair is lowered to an explicit loop nest and
    #    run through the generated-Python backend; the tuner's objective
    #    is wall-clock time, and every measured schedule is checked
    #    bit-identical against the schedule-blind reference.
    from repro.autotune import MeasuredObjective, MultiArmedBanditTuner, ScheduleSpace
    from repro.halide.lower import lower

    func = stencils[0].func
    n = 160
    big = np.random.default_rng(7).standard_normal((n + 1, n + 1))
    objective = MeasuredObjective(
        func, domain=[(1, n), (0, n - 1)], inputs={"b": big}, backend="codegen"
    )
    tuner = MultiArmedBanditTuner(ScheduleSpace(func.dimensions), objective, seed=3)
    tuned = tuner.tune(budget=16)
    print(f"\n== measured autotuning ({n}x{n} grid, codegen backend) ==")
    print(f"default schedule: {tuned.default_cost * 1000:7.2f}ms")
    print(f"tuned schedule  : {tuned.best_cost * 1000:7.2f}ms  "
          f"[{tuned.best_schedule.describe()}]")
    print(f"measured speedup: {tuned.default_cost / tuned.best_cost:7.2f}x "
          f"({objective.evaluations} schedules, all verified: {objective.all_verified})")
    print("\n== tuned loop nest ==")
    print(lower(func, tuned.best_schedule).pretty())

    # 6. The tuned-schedule store: measured tuning is expensive, its
    #    product — the winning schedule for (kernel, search space,
    #    backend, toolchain, machine, tuning config) — is tiny.  With
    #    ``PipelineOptions.schedule_dir`` the pipeline publishes each
    #    winner to a content-addressed store, and a warm run replays it
    #    with ZERO measurements (``from_cache=True, evaluations=0``).
    #    See docs/scheduled_execution.md for the record format.
    from repro.pipeline import PipelineOptions, STNGPipeline

    schedule_dir = cache_path.parent / "schedules"
    options = PipelineOptions(
        measure=True,
        measure_backend="auto",  # native when a C toolchain is present
        measure_budget=8,
        measure_points=4096,
        schedule_dir=str(schedule_dir),
    )
    cold = STNGPipeline(options).lift_kernel(kernel).performance.measured
    warm = STNGPipeline(options).lift_kernel(kernel).performance.measured
    assert warm.from_cache and warm.evaluations == 0
    assert warm.tuned_schedule == cold.tuned_schedule
    print(f"\n== tuned-schedule store ({schedule_dir}) ==")
    print(f"cold tune : {cold.evaluations} measurements on the "
          f"{cold.backend} backend -> [{cold.tuned_schedule}]")
    print(f"warm rerun: {warm.evaluations} measurements "
          f"(from_cache={warm.from_cache}) -> [{warm.tuned_schedule}]")


if __name__ == "__main__":
    main()
