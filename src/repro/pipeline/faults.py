"""Fault policy, crash classification and failure records for batch lifting.

One segfaulting native ``.so``, one OOM-killed worker or one CEGIS bug
on one kernel used to abort an entire batch: the scheduler called
``future.result()`` bare, so the first exception threw away every
completed report and every merged cache entry.  This module is the
policy layer the rewritten :meth:`BatchScheduler._run_jobs` is built
around:

* :class:`FaultPolicy` — how many attempts a job gets, the per-attempt
  wall-clock deadline enforced *from the parent* (the only time limit
  on a lift), and deterministic exponential backoff with
  per-``(job, attempt)`` jitter;
* :func:`classify_exception` — sorts a failed future into *crash*
  (the pool broke underneath the job: SIGKILL, OOM, segfault) versus
  *exception* (the worker raised and the pool is still healthy);
* :class:`JobAttempt` / :class:`JobFailure` — the per-attempt record
  and the final structured report for a job that exhausted its
  attempts, carried on the :class:`~repro.pipeline.stng.KernelReport`
  so batch consumers (and the application translator's degradation
  path) see kernel name, attempt count, classified cause and traceback
  instead of a dead batch.

See ``docs/fault_tolerance.md`` for the full degradation ladder.
"""

from __future__ import annotations

import traceback as _traceback
import zlib
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.pipeline.stng import KernelOutcome, KernelReport

#: The worker raised an ordinary exception; the pool survived.
CAUSE_EXCEPTION = "worker-exception"
#: The worker process died (SIGKILL, segfault, OOM, ``os._exit``).
CAUSE_CRASH = "worker-crash"
#: The job produced no result within the scheduler's hard deadline.
CAUSE_DEADLINE = "deadline"


def classify_exception(exc: BaseException) -> str:
    """Classify one failed future: pool breakage versus worker exception."""
    if isinstance(exc, BrokenExecutor):
        return CAUSE_CRASH
    return CAUSE_EXCEPTION


def format_traceback(exc: BaseException) -> str:
    """The full traceback text of a worker exception (remote chain included)."""
    return "".join(_traceback.format_exception(type(exc), exc, exc.__traceback__))


@dataclass(frozen=True)
class FaultPolicy:
    """How the batch scheduler treats failing, crashing or hung workers.

    ``max_attempts`` bounds submissions per job (first try included).
    ``deadline_seconds`` is the per-attempt wall-clock limit measured
    from dispatch to a worker; a job still running at its deadline has
    its worker killed and the attempt charged as :data:`CAUSE_DEADLINE`
    — this is the only time limit on a lift: it catches hung native
    compilers and runaway searches alike, and CEGIS itself has none.
    ``None`` disables parent-side deadlines.

    Retries wait ``backoff_seconds * backoff_factor**(attempt-1)``,
    stretched by up to ``jitter_fraction`` — but the jitter is a CRC32
    hash of ``(job name, attempt)``, not a random draw, so a rerun of
    the same faulted batch backs off identically.
    """

    max_attempts: int = 3
    deadline_seconds: Optional[float] = None
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0
    jitter_fraction: float = 0.25

    def retry_delay(self, job_name: str, attempt: int) -> float:
        """Seconds to wait before re-submitting ``job_name``'s next attempt."""
        if self.backoff_seconds <= 0.0:
            return 0.0
        base = self.backoff_seconds * (self.backoff_factor ** max(0, attempt - 1))
        salt = zlib.crc32(f"{job_name}:{attempt}".encode("utf-8")) / 0xFFFFFFFF
        return base * (1.0 + self.jitter_fraction * salt)


@dataclass(frozen=True)
class JobAttempt:
    """One failed attempt at one job."""

    attempt: int
    cause: str
    message: str
    traceback: Optional[str] = None


@dataclass(frozen=True)
class JobFailure:
    """A job that exhausted its attempt budget, with the full history."""

    index: int
    name: str
    attempts: Tuple[JobAttempt, ...]

    @property
    def attempt_count(self) -> int:
        return len(self.attempts)

    @property
    def cause(self) -> str:
        return self.attempts[-1].cause

    @property
    def message(self) -> str:
        return self.attempts[-1].message


def failure_report(
    failure: JobFailure, suite: str = "", is_stencil: bool = True
) -> KernelReport:
    """The ``KernelOutcome``-level report for a retry-exhausted job.

    The ``failure_reason`` text is deterministic (classified cause,
    attempt count, final message — no pids, no addresses), so a report
    signature containing it is stable across reruns; the traceback
    lives on the attached :class:`JobFailure`, outside the signature.
    """
    return KernelReport(
        name=failure.name,
        suite=suite,
        outcome=KernelOutcome.LIFT_FAILED,
        is_stencil=is_stencil,
        failure_reason=(
            f"{failure.cause} after {failure.attempt_count} attempt(s): "
            f"{failure.message}"
        ),
        fault=failure,
    )
