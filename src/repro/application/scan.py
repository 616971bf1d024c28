"""Whole-program candidate scan (§5.1, applied to every procedure).

Per-kernel lifting starts from one procedure; whole-application
translation must instead walk *every* procedure of the program and
record, for each top-level loop nest, where it sits — because the
translated executor later replaces exactly that statement span with the
generated Halide pipeline.  The filter is the same §5.1 candidate
filter the per-kernel frontend uses, and consecutive passing loops are
merged into a single site exactly as :func:`identify_candidates` merges
them into one candidate fragment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.frontend.ast import DoLoop, Procedure, Program
from repro.frontend.candidates import Candidate, check_loop
from repro.frontend.lowering import LoweringError, lower_candidate
from repro.ir.nodes import Kernel


@dataclass
class LoopSite:
    """One top-level loop-nest span inside a procedure body.

    ``start``/``end`` index the procedure's (declaration-free) statement
    list — the translated executor substitutes the half-open span
    ``[start, end)``.  ``kernel`` is the lowered IR kernel for liftable
    sites; unliftable sites carry the filter's rejection reasons (or the
    lowering error) instead and fall back to interpretation.
    """

    procedure: str
    index: int
    start: int
    end: int
    loops: List[DoLoop]
    liftable: bool
    reasons: Tuple[str, ...] = ()
    kernel: Optional[Kernel] = None

    @property
    def name(self) -> str:
        return f"{self.procedure}_loop{self.index}"

    @property
    def key(self) -> Tuple[str, int]:
        """The substitution key: procedure name plus span start."""
        return (self.procedure, self.start)


@dataclass
class ApplicationScan:
    """Every loop site of a program, in program order."""

    program: Program
    sites: List[LoopSite] = field(default_factory=list)

    @property
    def liftable_sites(self) -> List[LoopSite]:
        return [site for site in self.sites if site.liftable]

    @property
    def fallback_sites(self) -> List[LoopSite]:
        return [site for site in self.sites if not site.liftable]


def _loop_counters(loops: List[DoLoop]) -> set:
    counters = set()

    def collect(loop: DoLoop) -> None:
        counters.add(loop.var)
        for stmt in loop.body:
            if isinstance(stmt, DoLoop):
                collect(stmt)

    for loop in loops:
        collect(loop)
    return counters


def _assigned_scalars(loops: List[DoLoop]) -> set:
    """Non-counter scalars assigned anywhere inside the loop nests."""
    from repro.frontend.ast import Assignment, IfBlock

    names = set()

    def walk(stmts) -> None:
        for stmt in stmts:
            if isinstance(stmt, Assignment) and not stmt.target.subscripts:
                names.add(stmt.target.name)
            elif isinstance(stmt, DoLoop):
                walk(stmt.body)
            elif isinstance(stmt, IfBlock):
                walk(stmt.then_body)
                walk(stmt.else_body)

    for loop in loops:
        walk(loop.body)
    return names - _loop_counters(loops)


def _live_scalar_temporaries(proc: Procedure, loops: List[DoLoop], end: int) -> set:
    """Scalar temporaries whose post-loop values are observable.

    Substitution replays loop *counters* but not scalar temporaries
    (the rotation scalars of hand-optimised kernels); a temporary whose
    value can be seen after the span makes the site unsafe to
    substitute.  The backward liveness pass
    (:mod:`repro.analysis.liveness`) decides it: a temporary merely
    *mentioned* later (say, re-initialised) is dead, and the site lifts.
    """
    assigned = _assigned_scalars(loops)
    if not assigned:
        return set()
    from repro.analysis.liveness import scalars_live_after

    return set(scalars_live_after(proc, end).restrict(assigned))


def _close_site(
    proc: Procedure, pending: List[Tuple[int, DoLoop]], site_index: int
) -> LoopSite:
    """Build the site for a run of consecutive filter-passing loops."""
    start = pending[0][0]
    end = pending[-1][0] + 1
    loops = [loop for _pos, loop in pending]
    live_scalars = _live_scalar_temporaries(proc, loops, end)
    if live_scalars:
        return LoopSite(
            procedure=proc.name,
            index=site_index,
            start=start,
            end=end,
            loops=loops,
            liftable=False,
            reasons=(
                "scalar temporaries live after the loop nest: "
                + ", ".join(sorted(live_scalars)),
            ),
        )
    candidate = Candidate(proc, loops, site_index)
    try:
        kernel = lower_candidate(candidate)
    except LoweringError as exc:
        return LoopSite(
            procedure=proc.name,
            index=site_index,
            start=start,
            end=end,
            loops=loops,
            liftable=False,
            reasons=(f"lowering: {exc}",),
        )
    return LoopSite(
        procedure=proc.name,
        index=site_index,
        start=start,
        end=end,
        loops=loops,
        liftable=True,
        kernel=kernel,
    )


def scan_application(program: Program) -> ApplicationScan:
    """Scan every procedure for loop sites, liftable or not."""
    scan = ApplicationScan(program=program)
    for proc in program.procedures:
        pending: List[Tuple[int, DoLoop]] = []
        site_index = 0

        def flush() -> None:
            nonlocal site_index
            if not pending:
                return
            scan.sites.append(_close_site(proc, pending, site_index))
            site_index += 1
            pending.clear()

        for position, stmt in enumerate(proc.body):
            if isinstance(stmt, DoLoop):
                reasons = check_loop(stmt, proc)
                if reasons:
                    flush()
                    scan.sites.append(
                        LoopSite(
                            procedure=proc.name,
                            index=site_index,
                            start=position,
                            end=position + 1,
                            loops=[stmt],
                            liftable=False,
                            reasons=tuple(reasons),
                        )
                    )
                    site_index += 1
                else:
                    pending.append((position, stmt))
            else:
                flush()
        flush()
    return scan
