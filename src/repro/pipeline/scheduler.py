"""Parallel batch lifting of whole benchmark suites.

The paper ran its per-kernel synthesis strategies "in parallel on a
cluster"; this module is the reproduction's equivalent for a single
machine.  A :class:`BatchScheduler` fans the suite registry's kernels
out over a :class:`concurrent.futures.ProcessPoolExecutor`, optionally
backed by the content-addressed synthesis cache (:mod:`repro.cache`),
and aggregates the per-kernel :class:`~repro.pipeline.stng.KernelReport`
objects deterministically regardless of completion order.

Parallelism is over kernels (:meth:`BatchScheduler.lift_cases` and
friends): one pool task per kernel case; each worker runs the full
sequential pipeline for its case, so results are identical to a
sequential :meth:`~repro.pipeline.stng.STNGPipeline.lift_source` sweep.

Cache discipline under parallelism: workers read the store but never
write it.  Each worker accumulates its newly-computed entries in memory
and ships them back with its reports; the parent merges them into its
cache and saves once, so concurrent workers cannot corrupt or clobber
the store.

Fault discipline: a worker crash, hang or exception is *contained* to
its job.  ``_run_jobs`` catches failures per future under a
:class:`~repro.pipeline.faults.FaultPolicy` — the pool is rebuilt on
breakage, the lost jobs are re-submitted with deterministic backoff up
to the policy's attempt budget, hung workers are killed at the policy
deadline, and a job that exhausts its attempts yields a structured
failure report instead of aborting the batch.  Completed results and
merged cache entries are saved even when the batch itself is
interrupted.  See ``docs/fault_tolerance.md``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cache.store import SynthesisCache
from repro.pipeline.faults import (
    CAUSE_CRASH,
    CAUSE_DEADLINE,
    FaultPolicy,
    JobAttempt,
    JobFailure,
    classify_exception,
    failure_report,
    format_traceback,
)
from repro.pipeline.report import SuiteSummary, summarize_suite
from repro.pipeline.stng import KernelReport, PipelineOptions, STNGPipeline
from repro.suites.base import KernelCase
from repro.suites.registry import all_cases, cases_for_suite
from repro.testing import faultinject


@dataclass(frozen=True)
class BatchJob:
    """One schedulable unit: a kernel case plus its submission index."""

    index: int
    name: str
    suite: str
    source: str
    procedure: str
    is_stencil: bool
    points: Optional[int]
    reduction_like: bool


@dataclass(frozen=True)
class KernelJob:
    """A pre-lowered IR kernel as a schedulable unit.

    Whole-application translation scans and lowers candidates itself
    (it needs the enclosing statement spans), so its jobs carry the IR
    kernel directly instead of Fortran source; expressions re-intern on
    arrival in the worker via their pickle hooks.
    """

    index: int
    kernel: Any
    suite: str = ""
    is_stencil: bool = True
    points: Optional[int] = None
    reduction_like: bool = False

    @property
    def name(self) -> str:
        return getattr(self.kernel, "name", "")


@dataclass
class BatchResult:
    """Aggregated outcome of one batch run.

    ``failures`` lists every job that exhausted its fault-policy
    attempts; each such job also contributes a ``LIFT_FAILED`` report
    to ``reports`` at its submission index, so aggregation order and
    one-report-per-job pairing hold even under partial failure.
    """

    reports: List[KernelReport]
    cache_hits: int = 0
    cache_misses: int = 0
    failures: List[JobFailure] = field(default_factory=list)

    def by_suite(self) -> Dict[str, List[KernelReport]]:
        grouped: Dict[str, List[KernelReport]] = {}
        for report in self.reports:
            grouped.setdefault(report.suite, []).append(report)
        return grouped

    def summaries(self) -> Dict[str, SuiteSummary]:
        """Per-suite Table 2 rows, in first-appearance order."""
        return {
            suite: summarize_suite(suite, reports)
            for suite, reports in self.by_suite().items()
        }


def jobs_from_cases(cases: Sequence[KernelCase]) -> List[BatchJob]:
    """Submission-ordered jobs for a list of kernel cases."""
    return [
        BatchJob(
            index=index,
            name=case.name,
            suite=case.suite,
            source=case.source,
            procedure=case.procedure_name,
            is_stencil=case.is_stencil,
            points=case.points,
            reduction_like=case.reduction_like,
        )
        for index, case in enumerate(cases)
    ]


def _lift_job(job: BatchJob, options: PipelineOptions, cache: Optional[SynthesisCache]) -> List[KernelReport]:
    """Lift one job with the plain sequential pipeline (shared by both paths)."""
    pipeline = STNGPipeline(options, cache=cache)
    reports = pipeline.lift_source(
        job.source,
        suite=job.suite,
        stencil_flags={job.procedure: job.is_stencil},
        points=job.points,
    )
    for report in reports:
        report.name = job.name
    return reports


def lift_cases_sequential(
    cases: Sequence[KernelCase],
    options: Optional[PipelineOptions] = None,
    cache: Optional[SynthesisCache] = None,
) -> List[KernelReport]:
    """The in-process reference sweep the batch scheduler must reproduce."""
    options = options or PipelineOptions()
    reports: List[KernelReport] = []
    for job in jobs_from_cases(cases):
        reports.extend(_lift_job(job, options, cache))
    return reports


# One cache per worker process, built by the pool initializer: the store
# (or in-memory snapshot) is parsed once per worker, not once per job.
_WORKER_CACHE: Optional[SynthesisCache] = None


def _worker_init(
    cache_path: Optional[str],
    cache_entries: Optional[Dict[str, Dict[str, Any]]],
    cache_failures: bool,
    code_version: Optional[str],
) -> None:
    global _WORKER_CACHE
    _WORKER_CACHE = None
    if cache_path is None and cache_entries is None:
        return
    kwargs: Dict[str, Any] = {}
    if code_version is not None:
        kwargs["code_version"] = code_version
    cache = SynthesisCache(cache_path, autosave=False, cache_failures=cache_failures, **kwargs)
    if cache_entries:
        cache.preload(cache_entries)
    _WORKER_CACHE = cache


def _worker_lift_job(
    job: BatchJob,
    options_payload: Dict[str, Any],
) -> Tuple[int, List[KernelReport], Dict[str, Dict[str, Any]], int, int]:
    """Process-pool entry point: lift one job, return reports + new cache entries."""
    faultinject.fire("worker-job", job.name)
    options = PipelineOptions(**options_payload)
    cache = _WORKER_CACHE
    hits_before = cache.hits if cache is not None else 0
    misses_before = cache.misses if cache is not None else 0
    reports = _lift_job(job, options, cache)
    new_entries = cache.drain_new_entries() if cache is not None else {}
    hits = cache.hits - hits_before if cache is not None else 0
    misses = cache.misses - misses_before if cache is not None else 0
    return job.index, reports, new_entries, hits, misses


def _lift_kernel_job(job: KernelJob, options: PipelineOptions, cache: Optional[SynthesisCache]) -> List[KernelReport]:
    """Lift one pre-lowered kernel with the plain sequential pipeline."""
    pipeline = STNGPipeline(options, cache=cache)
    report = pipeline.lift_kernel(
        job.kernel,
        suite=job.suite,
        is_stencil=job.is_stencil,
        points=job.points,
        reduction_like=job.reduction_like,
    )
    return [report]


def _worker_lift_kernel_job(
    job: KernelJob,
    options_payload: Dict[str, Any],
) -> Tuple[int, List[KernelReport], Dict[str, Dict[str, Any]], int, int]:
    """Process-pool entry point for :class:`KernelJob` units."""
    faultinject.fire("worker-job", job.name)
    options = PipelineOptions(**options_payload)
    cache = _WORKER_CACHE
    hits_before = cache.hits if cache is not None else 0
    misses_before = cache.misses if cache is not None else 0
    reports = _lift_kernel_job(job, options, cache)
    new_entries = cache.drain_new_entries() if cache is not None else {}
    hits = cache.hits - hits_before if cache is not None else 0
    misses = cache.misses - misses_before if cache is not None else 0
    return job.index, reports, new_entries, hits, misses


class _JobState:
    """Mutable retry bookkeeping for one job across its attempts."""

    __slots__ = ("job", "attempts", "ready_at")

    def __init__(self, job) -> None:
        self.job = job
        self.attempts: List[JobAttempt] = []
        self.ready_at: float = 0.0


def _job_name(job) -> str:
    return getattr(job, "name", "")


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly tear a pool down, hung or dead workers included.

    ``shutdown(wait=True)`` would block forever on a hung worker, so
    terminate the processes first, then reap them with a bounded join.
    Every step tolerates a pool that is already broken.
    """
    try:
        processes = list(getattr(pool, "_processes", {}).values())
    except Exception:
        processes = []
    for proc in processes:
        try:
            proc.terminate()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for proc in processes:
        try:
            proc.join(timeout=5.0)
        except Exception:
            pass


class BatchScheduler:
    """Fan kernels out over a process pool; aggregate deterministically.

    Parameters
    ----------
    options:
        Pipeline tunables, shipped to every worker.
    pool_size:
        Worker process count (defaults to ``os.cpu_count()``).
    cache:
        Optional :class:`SynthesisCache`.  Workers open a store-backed
        cache's directory read-only; in-memory caches are snapshotted
        into the workers.  New entries always flow back through the
        parent, which saves once per batch.
    """

    def __init__(
        self,
        options: Optional[PipelineOptions] = None,
        pool_size: Optional[int] = None,
        cache: Optional[SynthesisCache] = None,
        fault_policy: Optional[FaultPolicy] = None,
    ):
        self.options = options or PipelineOptions()
        self.pool_size = max(1, pool_size if pool_size is not None else (os.cpu_count() or 1))
        self.cache = cache
        self.fault_policy = fault_policy or FaultPolicy()

    # ------------------------------------------------------------------
    # Batch mode: one pool task per kernel case
    # ------------------------------------------------------------------
    def lift_cases(self, cases: Sequence[KernelCase]) -> BatchResult:
        """Lift every case on the pool; reports come back in submission order."""
        return self._run_jobs(jobs_from_cases(cases), _worker_lift_job)

    def lift_kernels(self, jobs: Sequence[KernelJob]) -> BatchResult:
        """Lift pre-lowered IR kernels on the pool (whole-application path).

        Same cache discipline and deterministic submission-order
        aggregation as :meth:`lift_cases`; one report per job.
        """
        return self._run_jobs(list(jobs), _worker_lift_kernel_job)

    def _run_jobs(self, jobs, worker) -> BatchResult:
        """Fan jobs over the pool under the fault policy; save once, always.

        The loop keeps at most ``pool_size`` jobs in flight (so a
        per-attempt deadline measured from submission approximates the
        actual run time), waits with ``FIRST_COMPLETED``, and contains
        every failure to its job:

        * a worker *exception* charges one attempt and re-queues the job
          with deterministic backoff;
        * a worker *crash* breaks the whole pool — blame cannot be
          pinned, so every in-flight job is charged one crash attempt,
          the pool is killed and rebuilt, and all of them retry;
        * a job still running at ``deadline_seconds`` has the pool
          killed (the only way to stop a hung worker), is charged a
          deadline attempt, and the innocent in-flight jobs re-queue
          *uncharged*;
        * a job that exhausts ``max_attempts`` settles into a
          ``LIFT_FAILED`` report carrying its :class:`JobFailure`.

        Completed results and merged cache entries survive everything:
        entries merge into the parent cache as each future resolves, and
        the save happens in ``finally`` so even an interrupted batch
        persists its partial progress.
        """
        policy = self.fault_policy
        options_payload = asdict(self.options)
        cache_path = str(self.cache.path) if self.cache is not None and self.cache.path else None
        cache_entries = None
        if self.cache is not None and cache_path is None:
            cache_entries = self.cache.snapshot_entries()
        cache_failures = self.cache.cache_failures if self.cache is not None else True
        code_version = self.cache.code_version if self.cache is not None else None

        hits = misses = 0
        results: Dict[int, List[KernelReport]] = {}
        failures: List[JobFailure] = []
        # Merge entries without autosaving per job: one atomic save per batch.
        previous_autosave = self.cache.autosave if self.cache is not None else False
        if self.cache is not None:
            self.cache.autosave = False

        def make_pool() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=self.pool_size,
                initializer=_worker_init,
                initargs=(cache_path, cache_entries, cache_failures, code_version),
            )

        def settle(state: "_JobState", cause: str, message: str, tb: Optional[str] = None) -> None:
            """Charge one failed attempt; retry or emit the final failure."""
            job = state.job
            attempt = JobAttempt(
                attempt=len(state.attempts) + 1, cause=cause, message=message, traceback=tb
            )
            state.attempts.append(attempt)
            if len(state.attempts) >= policy.max_attempts:
                failure = JobFailure(
                    index=job.index, name=_job_name(job), attempts=tuple(state.attempts)
                )
                failures.append(failure)
                results[job.index] = [
                    failure_report(
                        failure,
                        suite=getattr(job, "suite", ""),
                        is_stencil=getattr(job, "is_stencil", True),
                    )
                ]
            else:
                state.ready_at = time.monotonic() + policy.retry_delay(
                    _job_name(job), len(state.attempts)
                )
                pending.append(state)

        pending: List[_JobState] = [_JobState(job) for job in jobs]
        inflight: Dict[Any, _JobState] = {}
        started: Dict[Any, float] = {}
        pool = make_pool()
        broken_pool = False
        try:
            while pending or inflight:
                # Fill the submission window with whatever is ready.
                now = time.monotonic()
                pending.sort(key=lambda s: s.job.index)
                for state in list(pending):
                    if len(inflight) >= self.pool_size:
                        break
                    if state.ready_at > now:
                        continue
                    pending.remove(state)
                    try:
                        future = pool.submit(worker, state.job, options_payload)
                    except Exception:
                        # The pool died between waits; re-queue uncharged.
                        pending.append(state)
                        broken_pool = True
                        break
                    inflight[future] = state
                    started[future] = time.monotonic()

                if not inflight:
                    if broken_pool:
                        _kill_pool(pool)
                        pool = make_pool()
                        broken_pool = False
                        continue
                    if pending:
                        # Everything is backing off; sleep until the first retry.
                        ready = min(s.ready_at for s in pending)
                        delay = ready - time.monotonic()
                        if delay > 0:
                            time.sleep(delay)
                        continue
                    break

                # Wait for a completion, a deadline expiry, or a retry slot.
                timeout: Optional[float] = None
                now = time.monotonic()
                if policy.deadline_seconds is not None:
                    expiry = min(started[f] for f in inflight) + policy.deadline_seconds - now
                    timeout = max(0.0, expiry)
                if pending and len(inflight) < self.pool_size:
                    ready = min(s.ready_at for s in pending) - now
                    ready = max(0.0, ready)
                    timeout = ready if timeout is None else min(timeout, ready)
                done, _ = wait(list(inflight), timeout=timeout, return_when=FIRST_COMPLETED)

                crashed: List[_JobState] = []
                for future in sorted(done, key=lambda f: inflight[f].job.index):
                    state = inflight.pop(future)
                    started.pop(future, None)
                    try:
                        index, reports, new_entries, job_hits, job_misses = future.result()
                    except Exception as exc:
                        cause = classify_exception(exc)
                        if cause == CAUSE_CRASH:
                            # The pool broke under this job; blame is shared
                            # with everything in flight — handle below.
                            broken_pool = True
                            crashed.append(state)
                        else:
                            settle(
                                state,
                                cause,
                                str(exc) or type(exc).__name__,
                                format_traceback(exc),
                            )
                        continue
                    results[index] = reports
                    hits += job_hits
                    misses += job_misses
                    if self.cache is not None and new_entries:
                        self.cache.merge_entries(new_entries)

                if broken_pool:
                    # One dead worker poisons every in-flight future; charge
                    # each in-flight job one crash attempt and rebuild.
                    survivors = sorted(
                        crashed + list(inflight.values()), key=lambda s: s.job.index
                    )
                    inflight.clear()
                    started.clear()
                    _kill_pool(pool)
                    for state in survivors:
                        settle(
                            state,
                            CAUSE_CRASH,
                            "worker process died abruptly (pool breakage)",
                        )
                    pool = make_pool()
                    broken_pool = False
                    continue

                # Parent-enforced hard deadline: kill hung workers.
                if policy.deadline_seconds is not None and inflight:
                    now = time.monotonic()
                    hung = [
                        f
                        for f in inflight
                        if now - started[f] >= policy.deadline_seconds
                    ]
                    if hung:
                        innocent = [
                            inflight[f] for f in inflight if f not in hung
                        ]
                        overdue = sorted(
                            (inflight[f] for f in hung), key=lambda s: s.job.index
                        )
                        inflight.clear()
                        started.clear()
                        _kill_pool(pool)
                        for state in overdue:
                            settle(
                                state,
                                CAUSE_DEADLINE,
                                "no result within the "
                                f"{policy.deadline_seconds:g}s scheduler deadline",
                            )
                        for state in innocent:
                            # Collateral of the pool kill: retry uncharged.
                            state.ready_at = 0.0
                            pending.append(state)
                        pool = make_pool()
        finally:
            if inflight or broken_pool:
                _kill_pool(pool)
            else:
                pool.shutdown(wait=True)
            if self.cache is not None:
                self.cache.autosave = previous_autosave
                self.cache.hits += hits
                self.cache.misses += misses
                # Save in ``finally``: partial progress survives interruption.
                self.cache.save()

        ordered = [report for index in sorted(results) for report in results[index]]
        return BatchResult(
            reports=ordered, cache_hits=hits, cache_misses=misses, failures=failures
        )

    def lift_suite(self, suite: str) -> BatchResult:
        return self.lift_cases(cases_for_suite(suite))

    def lift_all(self) -> BatchResult:
        return self.lift_cases(all_cases())
