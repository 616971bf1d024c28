"""The STNG pipeline driver."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence

from repro.autotune import autotune
from repro.backend.cgen import emit_serial_c
from repro.backend.gluegen import emit_fortran_glue
from repro.backend.halidegen import (
    GeneratedStencil,
    HalideGenerationError,
    postcondition_to_func,
)
from repro.frontend.candidates import Candidate, CandidateReport, identify_candidates
from repro.frontend.lowering import LoweringError, lower_candidate
from repro.frontend.parser import ParseError, parse_source
from repro.halide.lower import BACKENDS
from repro.halide.schedule import Schedule
from repro.ir.nodes import Kernel
from repro.perfmodel.compiler import (
    GFORTRAN,
    HALIDE_CPU,
    HALIDE_GPU,
    IFORT_PARALLEL,
    IFORT_PARALLEL_CLEAN,
)
from repro.perfmodel.workload import KernelWorkload, workload_from_func, workload_from_kernel
from repro.synthesis.cegis import CEGISResult, SynthesisFailure, synthesize_kernel


class KernelOutcome(str, Enum):
    """Classification of one flagged loop nest (the Table 2 categories).

    ``LIFT_FAILED`` is not a paper category: it marks a kernel whose
    lifting *infrastructure* failed — the worker crashed, hung past the
    scheduler deadline, or raised — after the fault policy's retries
    were exhausted (see :mod:`repro.pipeline.faults`).  Table 2 counts
    it with the untranslated kernels of its stencil class.
    """

    TRANSLATED = "translated"
    UNTRANSLATED_STENCIL = "untranslated_stencil"
    NOT_A_STENCIL = "not_a_stencil"
    LIFT_FAILED = "lift_failed"


@dataclass
class PipelineOptions:
    """Tunables of the pipeline (defaults keep the full suite under a few minutes).

    The counts ``trials``, ``max_candidates``, ``verifier_environments``,
    ``autotune_budget``, ``measure_budget`` and ``measure_points`` must
    be at least 1: construction raises ``ValueError`` before any synthesis.

    ``compiled`` selects how synthesis evaluates candidates (generated
    code by default; ``False`` falls back to the tree-walking
    interpreters with bit-identical results).

    ``measure`` turns on *measured* autotuning alongside the analytic
    model: each translated kernel's generated stencil is lowered to a
    loop nest and wall-clock tuned on synthetic buffers of roughly
    ``measure_points`` output points, with every tuned schedule
    differentially checked bit-identical against the schedule-blind
    reference executor.  Measured numbers are wall-clock and therefore
    nondeterministic; they are excluded from report signatures.

    ``inductive`` (default on) adds Tier 3 of the verifier hierarchy —
    the unbounded inductive prover of
    :mod:`repro.verification.inductive` — behind the bounded check:
    CEGIS prefers candidates whose summaries *prove* for all array
    sizes (trying up to ``cegis.MAX_PROOF_ATTEMPTS`` bounded-verified
    candidates before falling back to the first one), and every lift
    reports its verification level ("proved" versus "verified (bounded
    N=k)").  Disabling it skips the prover: the first bounded-verified
    candidate of the same candidate space wins.

    ``measure_backend`` accepts ``"codegen"``, ``"native"`` (compiled
    C, see :mod:`repro.native`) and ``"auto"`` (native when a C
    toolchain is present); any other name raises ``ValueError`` here,
    before any synthesis.  The :class:`MeasuredPerformance.backend`
    field records the backend that actually ran (native falls back to
    codegen when unavailable).  Each measured schedule is timed once
    after one warm-up run.

    ``threads`` sets the native worker-thread count used for measured
    runs and substituted execution (``None`` → the process default,
    ``$REPRO_NATIVE_THREADS`` or 1).  ``schedule_dir`` points measured
    autotuning at a shared :class:`~repro.cache.schedules.ScheduleStore`
    of tuned winners: a warm ``measure``-mode run whose kernel, search
    space, backend, toolchain, machine and tuning configuration all
    match a stored record performs zero measurements and zero compiler
    invocations for that kernel (``MeasuredPerformance.from_cache``).
    """

    seed: int = 0
    trials: int = 2
    autotune_budget: int = 120
    max_candidates: int = 2000
    verifier_environments: int = 2
    compiled: bool = True
    inductive: bool = True
    measure: bool = False
    measure_backend: str = "codegen"
    measure_budget: int = 12
    measure_points: int = 9216
    threads: Optional[int] = None
    schedule_dir: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("trials", "max_candidates", "verifier_environments",
                     "autotune_budget", "measure_budget", "measure_points"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value!r}")
        if self.measure_backend not in ("auto",) + BACKENDS:
            raise ValueError(
                f"unknown measure_backend {self.measure_backend!r} "
                f"(choose from {('auto',) + BACKENDS})"
            )


@dataclass
class MeasuredPerformance:
    """Measured (wall-clock) autotuning results for one generated stencil.

    ``schedule`` is the winning :class:`~repro.halide.schedule.Schedule`
    object itself (``tuned_schedule`` is its description text); the
    whole-application executor realizes substituted kernels under it.

    ``from_cache`` marks a result replayed from the tuned-schedule
    store (``PipelineOptions.schedule_dir``): the seconds are the ones
    recorded when the schedule was originally tuned, and
    ``evaluations`` is 0 because the warm run measured nothing.

    ``pruned_illegal``/``pruned_duplicate`` report the static
    schedule-legality pruner (:mod:`repro.analysis.legality`): proposals
    rejected before any compile/measure, and canonical-duplicate
    traversals replayed from the in-run cost cache.  ``evaluations`` is
    the objective's own counter — actual measurements — so pruning
    shows up as a drop there on a fixed tuning budget.
    """

    default_seconds: float
    tuned_seconds: float
    speedup: float
    tuned_schedule: str
    backend: str
    evaluations: int
    verified: bool
    schedule: Optional["Schedule"] = None
    from_cache: bool = False
    pruned_illegal: int = 0
    pruned_duplicate: int = 0


@dataclass
class PerformanceRow:
    """The Table 1 columns for one translated kernel.

    ``measured`` is only present when the pipeline runs with
    ``PipelineOptions.measure``: the modeled speedups above come from
    the roofline model, the measured block from actually executing the
    lowered loop nests.
    """

    halide_speedup: float
    icc_before_speedup: float
    icc_after_speedup: float
    gpu_speedup: float
    gpu_speedup_no_transfer: float
    tuned_schedule: str
    baseline_seconds: float
    measured: Optional[MeasuredPerformance] = None


@dataclass
class KernelReport:
    """Everything the pipeline learned about one flagged loop nest."""

    name: str
    suite: str
    outcome: KernelOutcome
    is_stencil: bool
    kernel: Optional[Kernel] = None
    lift: Optional[CEGISResult] = None
    stencils: List[GeneratedStencil] = field(default_factory=list)
    halide_cpp: List[str] = field(default_factory=list)
    serial_c: Optional[str] = None
    glue_code: Optional[str] = None
    performance: Optional[PerformanceRow] = None
    failure_reason: Optional[str] = None
    annotations_used: bool = False
    lift_seconds: float = 0.0
    # A repro.pipeline.faults.JobFailure when the outcome is LIFT_FAILED
    # (kept untyped here: faults imports this module).
    fault: Optional[object] = None

    @property
    def translated(self) -> bool:
        return self.outcome is KernelOutcome.TRANSLATED

    @property
    def verification_level(self) -> Optional[str]:
        """"proved", "verified (bounded N=k)", or None when not lifted."""
        if self.lift is None:
            return None
        return self.lift.verification_level


class STNGPipeline:
    """Figure 3's toolchain: frontend, summary search, verification, codegen.

    ``cache`` is an optional :class:`repro.cache.SynthesisCache`:
    verified summaries (and definitive failures) are replayed from it so
    warm runs skip the expensive middle stage (synthesis) entirely.
    """

    def __init__(self, options: Optional[PipelineOptions] = None, cache=None):
        self.options = options or PipelineOptions()
        self.cache = cache

    def _synthesize(self, kernel: Kernel) -> CEGISResult:
        return synthesize_kernel(
            kernel,
            trials=self.options.trials,
            seed=self.options.seed,
            max_candidates=self.options.max_candidates,
            verifier_environments=self.options.verifier_environments,
            cache=self.cache,
            compiled=self.options.compiled,
            inductive=self.options.inductive,
        )

    # ------------------------------------------------------------------
    # Front end
    # ------------------------------------------------------------------
    def identify(self, source: str) -> CandidateReport:
        """Parse source and flag candidate loop nests (§5.1)."""
        return identify_candidates(parse_source(source))

    # ------------------------------------------------------------------
    # Lifting one kernel
    # ------------------------------------------------------------------
    def lift_kernel(self, kernel: Kernel, suite: str = "", is_stencil: bool = True,
                    points: Optional[int] = None, reduction_like: bool = False) -> KernelReport:
        """Lift one IR kernel end to end and evaluate the result."""
        report = KernelReport(
            name=kernel.name,
            suite=suite,
            outcome=KernelOutcome.UNTRANSLATED_STENCIL if is_stencil else KernelOutcome.NOT_A_STENCIL,
            is_stencil=is_stencil,
            kernel=kernel,
            annotations_used=bool(kernel.assumptions),
        )
        start = time.perf_counter()
        try:
            result = self._synthesize(kernel)
        except SynthesisFailure as exc:
            report.failure_reason = str(exc)
            report.lift_seconds = time.perf_counter() - start
            return report
        report.lift_seconds = time.perf_counter() - start
        report.lift = result
        report.outcome = KernelOutcome.TRANSLATED
        self._finalize_report(report, kernel, result, points=points, reduction_like=reduction_like)
        return report

    def _finalize_report(
        self,
        report: KernelReport,
        kernel: Kernel,
        result: CEGISResult,
        points: Optional[int],
        reduction_like: bool,
    ) -> None:
        """Backend code generation and performance evaluation for a lifted kernel."""
        try:
            report.stencils = postcondition_to_func(result.post)
            report.halide_cpp = [stencil.cpp_source for stencil in report.stencils]
            report.glue_code = emit_fortran_glue(kernel, report.stencils)
        except HalideGenerationError as exc:
            # High-dimensional kernels (TERRA) are lifted but need the
            # per-dimensionality splitting workaround; record and continue.
            report.failure_reason = f"halide generation: {exc}"
        report.serial_c, _nests = emit_serial_c(result.post, function_name=f"{kernel.name}_clean")

        if report.stencils:
            report.performance = self._evaluate_performance(
                kernel, report.stencils, points=points, reduction_like=reduction_like
            )

    def lift_source(
        self,
        source: str,
        suite: str = "",
        stencil_flags: Optional[Dict[str, bool]] = None,
        points: Optional[int] = None,
    ) -> List[KernelReport]:
        """Run the whole pipeline on one Fortran source file."""
        reports: List[KernelReport] = []
        candidate_report = self.identify(source)
        flags = stencil_flags or {}
        for rejection in candidate_report.rejections:
            name = f"{rejection.procedure.name}_rejected"
            is_stencil = flags.get(rejection.procedure.name, True)
            reports.append(
                KernelReport(
                    name=name,
                    suite=suite,
                    outcome=(
                        KernelOutcome.UNTRANSLATED_STENCIL
                        if is_stencil
                        else KernelOutcome.NOT_A_STENCIL
                    ),
                    is_stencil=is_stencil,
                    failure_reason="; ".join(rejection.reasons),
                )
            )
        for candidate in candidate_report.candidates:
            is_stencil = flags.get(candidate.procedure.name, True)
            try:
                kernel = lower_candidate(candidate)
            except LoweringError as exc:
                reports.append(
                    KernelReport(
                        name=candidate.name,
                        suite=suite,
                        outcome=(
                            KernelOutcome.UNTRANSLATED_STENCIL
                            if is_stencil
                            else KernelOutcome.NOT_A_STENCIL
                        ),
                        is_stencil=is_stencil,
                        failure_reason=f"lowering: {exc}",
                    )
                )
                continue
            reports.append(self.lift_kernel(kernel, suite=suite, is_stencil=is_stencil, points=points))
        return reports

    # ------------------------------------------------------------------
    # Performance evaluation (Table 1 columns)
    # ------------------------------------------------------------------
    def _evaluate_performance(
        self,
        kernel: Kernel,
        stencils: Sequence[GeneratedStencil],
        points: Optional[int],
        reduction_like: bool,
    ) -> PerformanceRow:
        original = workload_from_kernel(kernel, points=points)
        if reduction_like:
            original = _mark_reduction(original)
        # The regenerated clean kernel: characterise from the first generated Func.
        clean = workload_from_func(
            stencils[0].func,
            name=kernel.name,
            points=original.points,
            dimensionality=original.dimensionality,
        )
        if reduction_like:
            clean = _mark_reduction(clean)

        baseline = GFORTRAN.runtime(original)
        icc_before = IFORT_PARALLEL.runtime(original)
        icc_after = IFORT_PARALLEL_CLEAN.runtime(clean)

        tuning = autotune(
            dimensions=max(clean.dimensionality, 1),
            objective=lambda schedule: HALIDE_CPU.runtime(clean, schedule),
            budget=self.options.autotune_budget,
            seed=self.options.seed,
        )
        halide_time = tuning.best_cost
        gpu_time = HALIDE_GPU.runtime(clean, include_transfer=True)
        gpu_time_nt = HALIDE_GPU.runtime(clean, include_transfer=False)

        measured = None
        if self.options.measure:
            measured = self._measure_performance(kernel, stencils[0])

        return PerformanceRow(
            halide_speedup=baseline / halide_time,
            icc_before_speedup=baseline / icc_before,
            icc_after_speedup=baseline / icc_after,
            gpu_speedup=baseline / gpu_time,
            gpu_speedup_no_transfer=baseline / gpu_time_nt,
            tuned_schedule=tuning.best_schedule.describe(),
            baseline_seconds=baseline,
            measured=measured,
        )

    def _measure_performance(
        self, kernel: Kernel, stencil: GeneratedStencil
    ) -> MeasuredPerformance:
        """Wall-clock autotune one generated stencil's lowered loop nest.

        Synthetic inputs are deterministic per kernel (seeded from the
        pipeline seed and the kernel name); every measured schedule is
        differentially checked bit-identical against the schedule-blind
        reference executor, so a lowering bug fails the lift instead of
        producing a fast-but-wrong schedule.

        With ``options.schedule_dir`` set, the tuned-schedule store is
        consulted *before* any measurement machinery is built: a hit
        returns the recorded winner immediately — zero measurements,
        zero compiler invocations — and a miss tunes as usual and then
        publishes the winner for the next run.
        """
        import zlib

        import numpy as np

        from repro.autotune import MeasuredObjective, MultiArmedBanditTuner, ScheduleSpace
        from repro.perfmodel.workload import domain_for_points

        func = stencil.func
        space = ScheduleSpace(func.dimensions)
        store = store_key = None
        if self.options.schedule_dir is not None:
            from repro.cache.fingerprint import fingerprint_kernel
            from repro.cache.schedules import (
                ScheduleStore,
                machine_fingerprint,
                schedule_from_payload,
                schedule_key,
            )
            from repro.native.dispatch import default_thread_count
            from repro.native.toolchain import find_toolchain, resolve_backend

            backend = resolve_backend(self.options.measure_backend)
            toolchain = find_toolchain() if backend == "native" else None
            toolchain_fp = (
                toolchain.fingerprint()
                if toolchain is not None
                else f"python-backend:{backend}"
            )
            threads = (
                self.options.threads
                if self.options.threads is not None
                else default_thread_count()
            )
            store = ScheduleStore(self.options.schedule_dir)
            store_key = schedule_key(
                fingerprint_kernel(kernel),
                space.signature(),
                backend,
                toolchain_fp,
                machine_fingerprint(),
                {
                    "budget": self.options.measure_budget,
                    # One timed run per schedule; the entry keeps the
                    # keys of stores tuned earlier valid.
                    "repeats": 1,
                    "points": self.options.measure_points,
                    "seed": self.options.seed,
                    "threads": threads,
                },
            )
            record = store.get(store_key)
            if record is not None:
                schedule = schedule_from_payload(record["schedule"])
                return MeasuredPerformance(
                    default_seconds=float(record["default_seconds"]),
                    tuned_seconds=float(record["tuned_seconds"]),
                    speedup=float(record["default_seconds"])
                    / max(float(record["tuned_seconds"]), 1e-12),
                    tuned_schedule=schedule.describe(),
                    backend=str(record["backend"]),
                    evaluations=0,
                    verified=bool(record["verified"]),
                    schedule=schedule,
                    from_cache=True,
                )
        domain = domain_for_points(func.dimensions, self.options.measure_points)
        extents = tuple(hi - lo + 1 for lo, hi in domain)
        rng = np.random.default_rng(
            (self.options.seed << 16) ^ zlib.crc32(kernel.name.encode())
        )
        inputs = {
            image.name: rng.standard_normal(
                tuple(
                    extents[dim] if dim < len(extents) else 8
                    for dim in range(image.dimensions)
                )
            )
            for image in func.inputs()
        }
        params = {param.name: float(rng.integers(1, 4)) for param in func.params()}
        objective = MeasuredObjective(
            func,
            domain,
            inputs,
            params=params,
            backend=self.options.measure_backend,
            threads=self.options.threads,
        )
        from repro.analysis.legality import ScheduleChecker

        checker = ScheduleChecker(func, output=getattr(stencil, "array", None))
        tuner = MultiArmedBanditTuner(
            space, objective, seed=self.options.seed, legality=checker
        )
        result = tuner.tune(budget=self.options.measure_budget)
        if store is not None and store_key is not None:
            from repro.cache.schedules import schedule_to_payload

            store.put(
                store_key,
                {
                    "kernel": kernel.name,
                    "backend": objective.effective_backend,
                    "default_seconds": result.default_cost,
                    "tuned_seconds": result.best_cost,
                    "evaluations": objective.evaluations,
                    "verified": objective.all_verified,
                    "schedule": schedule_to_payload(result.best_schedule),
                },
            )
        return MeasuredPerformance(
            default_seconds=result.default_cost,
            tuned_seconds=result.best_cost,
            speedup=result.default_cost / max(result.best_cost, 1e-12),
            tuned_schedule=result.best_schedule.describe(),
            backend=objective.effective_backend,
            evaluations=objective.evaluations,
            verified=objective.all_verified,
            schedule=result.best_schedule,
            pruned_illegal=result.pruned_illegal,
            pruned_duplicate=result.pruned_duplicate,
        )


def _mark_reduction(workload: KernelWorkload) -> KernelWorkload:
    from dataclasses import replace

    return replace(workload, is_reduction_like=True)
