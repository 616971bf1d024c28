"""Objectives for the schedule tuner: modeled and measured.

The tuner (:class:`repro.autotune.MultiArmedBanditTuner`) only sees the
``Objective`` protocol — ``schedule -> cost`` — and does not care where
the cost comes from.  Two implementations exist:

* :func:`modeled_objective` wraps the analytical roofline model of
  :mod:`repro.perfmodel` (deterministic, instantaneous; what the
  pipeline's Table 1 columns use); and
* :class:`MeasuredObjective` *runs* the schedule: the (Func, Schedule)
  pair is lowered to a loop nest (:mod:`repro.halide.lower`), executed
  on one of the loop-nest backends, and timed.  Every measured run is
  differentially checked against the schedule-blind reference
  ``realize`` — a schedule reorders traversal, never the arithmetic per
  cell, so the output buffer must be **bit-identical**; any deviation
  raises :class:`DifferentialCheckError` instead of silently tuning a
  miscompiled nest.

This is the paper's missing half made concrete: OpenTuner optimised
real Halide binaries, and with a measured objective this reproduction
optimises real executions too, not just the model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Tuple

import numpy as np

from repro.halide.executor import realize
from repro.halide.lang import Func
from repro.halide.lower import build_runner, lower
from repro.halide.schedule import Schedule
from repro.native.toolchain import resolve_backend
from repro.perfmodel.compiler import HALIDE_CPU
from repro.perfmodel.machine import MachineModel, XEON_NODE
from repro.perfmodel.workload import KernelWorkload

Objective = Callable[[Schedule], float]


class DifferentialCheckError(AssertionError):
    """A measured schedule produced output differing from the reference."""


def modeled_objective(
    workload: KernelWorkload,
    machine: MachineModel = XEON_NODE,
) -> Objective:
    """The analytic objective: estimated runtime under the roofline model."""

    def objective(schedule: Schedule) -> float:
        return HALIDE_CPU.runtime(workload, schedule, machine)

    return objective


@dataclass
class Measurement:
    """One timed evaluation of a schedule.

    ``repeats_run`` counts the timed repeats actually executed and
    ``aborted`` is true when the early-abort cut the repeat loop short:
    the candidate's best-so-far already exceeded the incumbent minimum,
    so its reported ``seconds`` — a valid upper bound on its true min —
    could never have displaced the incumbent anyway.
    """

    schedule: Schedule
    seconds: float
    verified: bool
    repeats_run: int = 1
    aborted: bool = False


@dataclass
class PreparedSchedule:
    """A schedule lowered and compiled, ready to be timed.

    Produced by :meth:`MeasuredObjective.prepare` — the expensive,
    thread-safe half of a measurement (lowering, code generation, the
    external C compiler).  :meth:`MeasuredObjective.measure_prepared`
    consumes it on the timing thread.
    """

    schedule: Schedule
    run: Callable[[], np.ndarray]
    backend: str


class MeasuredObjective:
    """Wall-clock objective: lower, execute and time a schedule.

    Parameters
    ----------
    func, domain, inputs, input_origins, params:
        The workload, exactly as :func:`repro.halide.executor.realize`
        takes it.  The schedule-blind reference output is computed once
        at construction and every measured output is checked
        bit-identical to it: a mismatch raises
        :class:`DifferentialCheckError`, so every recorded
        :class:`Measurement` is ``verified``.
    backend:
        ``"codegen"`` (generated-Python, the default), ``"native"``
        (compiled C via :mod:`repro.native`), or ``"auto"`` (native
        when a C toolchain is present, codegen otherwise); any other
        name raises :class:`~repro.halide.lang.HalideError` on the
        first measurement.  When native compilation is unavailable for
        a schedule's nest — no toolchain, or the definition falls
        outside the bit-identical C fragment — the measurement uses
        codegen; :attr:`effective_backend` records what actually ran
        last.
    repeats:
        Timed runs per schedule; the *minimum* is reported (standard
        practice for microbenchmarks — noise only ever adds time).
    warmup:
        Discarded runs before the timed window.  The first call of a
        freshly lowered nest pays one-time costs that are not steady
        state (allocator warm-up, branch history, ``dlopen``/page
        faults for the native backend); timing it used to leak that
        cost into the min-of-repeats, biasing the tuner against
        whichever schedule it happened to evaluate first.
    artifacts:
        Optional :class:`~repro.cache.artifacts.ArtifactStore` so the
        native backend reuses compiled kernels across processes.
    threads:
        Native worker-thread count for measured runs (``None`` → the
        process default).  Ignored by codegen.
    early_abort:
        When true (default), the repeat loop of a candidate stops as
        soon as its best-so-far exceeds the incumbent minimum across
        all previous candidates.  The partial minimum it reports is an
        upper bound on the candidate's true minimum that is *already*
        worse than the incumbent, so the incumbent never changes —
        under a deterministic clock the selected winner is provably
        identical to the non-aborting run (the regression tests assert
        this); under real noise the abort trades the tail chance that
        a slow first repeat was a fluke for substantially less timing
        work per losing candidate.
    """

    def __init__(
        self,
        func: Func,
        domain,
        inputs: Mapping[str, np.ndarray],
        input_origins: Optional[Mapping[str, Tuple[int, ...]]] = None,
        params: Optional[Mapping[str, float]] = None,
        backend: str = "codegen",
        repeats: int = 1,
        strict_bounds: bool = False,
        parallel_chunks: int = 8,
        warmup: int = 1,
        artifacts=None,
        threads: Optional[int] = None,
        early_abort: bool = True,
    ):
        self.func = func
        self.domain = list(domain)
        self.inputs = inputs
        self.input_origins = dict(input_origins or {})
        self.params = dict(params or {})
        self.backend = resolve_backend(backend)
        self.effective_backend = self.backend
        self.repeats = max(1, repeats)
        self.warmup = max(0, warmup)
        self.strict_bounds = strict_bounds
        self.parallel_chunks = parallel_chunks
        self.artifacts = artifacts
        self.threads = threads
        self.early_abort = early_abort
        self.reference = realize(
            func, self.domain, inputs, self.input_origins, self.params, strict_bounds
        )
        self.history: List[Measurement] = []
        self.evaluations = 0
        # Incumbent minimum across every candidate measured so far; the
        # early-abort threshold.  Only measure_prepared updates it.
        self.best_seconds = float("inf")

    def _build(self, schedule: Schedule):
        """Lower + compile one schedule; returns ``(run, backend_used)``.

        ``run`` is a zero-argument callable and ``backend_used`` the
        backend :func:`~repro.halide.lower.build_runner` actually chose
        (native falls back to codegen).  Pure with respect to objective
        state (no mutation), so the pipelined tuner may call it — via
        :meth:`prepare` — from a background thread while the timing
        thread measures an earlier candidate.  Each call lowers a fresh
        nest, so per-nest runner memoisation never crosses threads, and
        the dominant cost on the native backend (the external C
        compiler) releases the GIL.
        """
        nest = lower(self.func, schedule, self.parallel_chunks)
        runner, backend_used = build_runner(
            nest, self.backend, self.strict_bounds, self.artifacts, self.threads
        )

        def run():
            return runner(self.domain, self.inputs, self.input_origins, self.params)

        return run, backend_used

    def prepare(self, schedule: Schedule) -> PreparedSchedule:
        """The compile half of a measurement (safe off the timing thread)."""
        run, backend_used = self._build(schedule)
        return PreparedSchedule(schedule=schedule, run=run, backend=backend_used)

    def measure_prepared(self, prepared: PreparedSchedule) -> Measurement:
        """Time an already-compiled schedule and differentially check it.

        ``warmup`` runs are executed and *discarded* first, so the
        min-of-``repeats`` window times only steady-state calls.  With
        :attr:`early_abort`, the repeat loop stops once the candidate's
        best-so-far exceeds the incumbent minimum.
        """
        schedule = prepared.schedule
        run = prepared.run
        self.effective_backend = prepared.backend
        best = float("inf")
        out = None
        for _ in range(self.warmup):
            out = run()
        repeats_run = 0
        aborted = False
        for _ in range(self.repeats):
            start = time.perf_counter()
            out = run()
            best = min(best, time.perf_counter() - start)
            repeats_run += 1
            if (
                self.early_abort
                and repeats_run < self.repeats
                and best > self.best_seconds
            ):
                aborted = True
                break
        if not np.array_equal(out, self.reference):
            raise DifferentialCheckError(
                f"schedule [{schedule.describe()}] on backend {self.backend!r} "
                f"produced output differing from the schedule-blind reference "
                f"(max abs diff {float(np.max(np.abs(out - self.reference)))})"
            )
        measurement = Measurement(
            schedule=schedule,
            seconds=best,
            verified=True,
            repeats_run=repeats_run,
            aborted=aborted,
        )
        self.history.append(measurement)
        self.evaluations += 1
        self.best_seconds = min(self.best_seconds, best)
        return measurement

    def measure(self, schedule: Schedule) -> Measurement:
        """Compile, then time: :meth:`prepare` + :meth:`measure_prepared`."""
        return self.measure_prepared(self.prepare(schedule))

    def __call__(self, schedule: Schedule) -> float:
        return self.measure(schedule).seconds

    @property
    def all_verified(self) -> bool:
        """Did every measured schedule pass the differential check?"""
        return bool(self.history) and all(m.verified for m in self.history)
