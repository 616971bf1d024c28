"""Candidate stencil loop identification (§5.1).

STNG iterates over every outermost loop construct in each procedure and
applies a lightweight filter to decide which loop nests are candidates
for lifting:

* **Array uses** — the loop nest must use arrays, and array indices may
  not be indirect array accesses or function-call results.
* **Pointer uses** — pointers to arrays are allowed (their bounds are
  determined at runtime by glue code).
* **Conditionals, procedure calls, and unstructured control flow** —
  loop nests containing these are rejected (the paper notes this is an
  engineering limitation rather than a fundamental one).
* **Decrementing loops** — the prototype only handles monotonically
  increasing loop variables (§5.4); explicit negative steps are rejected.

Consecutive loop nests that individually pass the filter are merged into
a single code fragment, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.frontend.ast import (
    Assignment,
    BinExpr,
    CallStmt,
    CompareExpr,
    ControlStmt,
    DoLoop,
    FExpr,
    FStmt,
    IfBlock,
    LogicalExpr,
    Num,
    Procedure,
    Program,
    Ref,
    UnaryExpr,
)


class RejectionReason:
    """Enumeration of the filtering criteria a candidate can fail."""

    NO_ARRAYS = "loop nest does not use arrays"
    INDIRECT_INDEX = "array index is an indirect array access or call result"
    CONDITIONAL = "loop nest contains conditional statements"
    PROCEDURE_CALL = "loop nest calls a Fortran procedure"
    UNSTRUCTURED = "loop nest contains unstructured control flow"
    DECREMENTING = "loop variable decrements (negative step)"
    NON_AFFINE_STEP = "loop step is not a constant integer"

    ALL = (
        NO_ARRAYS,
        INDIRECT_INDEX,
        CONDITIONAL,
        PROCEDURE_CALL,
        UNSTRUCTURED,
        DECREMENTING,
        NON_AFFINE_STEP,
    )


@dataclass
class Candidate:
    """One candidate fragment: one or more consecutive top-level loop nests."""

    procedure: Procedure
    loops: List[DoLoop]
    index: int

    @property
    def name(self) -> str:
        return f"{self.procedure.name}_loop{self.index}"


@dataclass
class Rejection:
    """A top-level loop nest that failed the candidate filter."""

    procedure: Procedure
    loop: DoLoop
    reasons: List[str]


@dataclass
class CandidateReport:
    """Result of candidate identification over a whole program."""

    candidates: List[Candidate] = field(default_factory=list)
    rejections: List[Rejection] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Filtering helpers
# ---------------------------------------------------------------------------

_INTRINSICS = {
    "abs", "sqrt", "exp", "log", "sin", "cos", "tan", "min", "max", "mod",
    "sign", "dble", "real", "int", "float", "atan", "sinh", "cosh", "tanh",
}


def _iter_stmts(stmts: List[FStmt]):
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, DoLoop):
            yield from _iter_stmts(stmt.body)
        elif isinstance(stmt, IfBlock):
            yield from _iter_stmts(stmt.then_body)
            yield from _iter_stmts(stmt.else_body)


def _iter_exprs(stmts: List[FStmt]):
    def walk(expr: FExpr):
        yield expr
        if isinstance(expr, (BinExpr, CompareExpr)):
            yield from walk(expr.left)
            yield from walk(expr.right)
        elif isinstance(expr, UnaryExpr):
            yield from walk(expr.operand)
        elif isinstance(expr, LogicalExpr):
            for operand in expr.operands:
                yield from walk(operand)
        elif isinstance(expr, Ref):
            for sub in expr.subscripts:
                yield from walk(sub)

    for stmt in _iter_stmts(stmts):
        if isinstance(stmt, Assignment):
            yield from walk(stmt.target)
            yield from walk(stmt.value)
        elif isinstance(stmt, DoLoop):
            yield from walk(stmt.lower)
            yield from walk(stmt.upper)
            if stmt.step is not None:
                yield from walk(stmt.step)
        elif isinstance(stmt, IfBlock):
            yield from walk(stmt.condition)
        elif isinstance(stmt, CallStmt):
            for arg in stmt.args:
                yield from walk(arg)


def _uses_arrays(loop: DoLoop, proc: Procedure) -> bool:
    array_names = set(proc.array_names())
    for expr in _iter_exprs([loop]):
        if isinstance(expr, Ref) and expr.subscripts and expr.name in array_names:
            return True
    return False


def _has_indirect_index(loop: DoLoop, proc: Procedure) -> bool:
    array_names = set(proc.array_names())
    for expr in _iter_exprs([loop]):
        if isinstance(expr, Ref) and expr.subscripts and expr.name in array_names:
            for sub in expr.subscripts:
                for inner in _iter_exprs([Assignment(Ref("_"), sub)]):
                    if isinstance(inner, Ref) and inner.subscripts:
                        # Index contains an array access or call (intrinsics
                        # included: an index computed by a call is rejected).
                        return True
    return False


def _has_conditionals(loop: DoLoop) -> bool:
    return any(isinstance(s, IfBlock) for s in _iter_stmts([loop]))


def _has_procedure_calls(loop: DoLoop, proc: Procedure) -> bool:
    array_names = set(proc.array_names())
    for stmt in _iter_stmts([loop]):
        if isinstance(stmt, CallStmt):
            return True
    for expr in _iter_exprs([loop]):
        if (
            isinstance(expr, Ref)
            and expr.subscripts
            and expr.name not in array_names
            and expr.name not in _INTRINSICS
        ):
            # A subscripted reference to something that is not a declared
            # array and not a known pure intrinsic is a function call.
            return True
    return False


def _has_unstructured_flow(loop: DoLoop) -> bool:
    for stmt in _iter_stmts([loop]):
        if isinstance(stmt, ControlStmt) and stmt.kind in {"exit", "cycle", "goto", "return"}:
            return True
    return False


def _decrementing(loop: DoLoop) -> Tuple[bool, bool]:
    """Return (is_decrementing, step_is_non_constant) for any loop in the nest."""
    decrementing = False
    non_constant = False
    for stmt in _iter_stmts([loop]):
        if not isinstance(stmt, DoLoop) or stmt.step is None:
            continue
        step = stmt.step
        if isinstance(step, UnaryExpr) and step.op == "-" and isinstance(step.operand, Num):
            decrementing = True
        elif isinstance(step, Num):
            if step.value < 0:
                decrementing = True
        else:
            non_constant = True
    return decrementing, non_constant


def check_loop(loop: DoLoop, proc: Procedure) -> List[str]:
    """Apply the §5.1 filter to one top-level loop nest; return failure reasons."""
    reasons: List[str] = []
    if not _uses_arrays(loop, proc):
        reasons.append(RejectionReason.NO_ARRAYS)
    if _has_indirect_index(loop, proc):
        reasons.append(RejectionReason.INDIRECT_INDEX)
    if _has_conditionals(loop):
        reasons.append(RejectionReason.CONDITIONAL)
    if _has_procedure_calls(loop, proc):
        reasons.append(RejectionReason.PROCEDURE_CALL)
    if _has_unstructured_flow(loop):
        reasons.append(RejectionReason.UNSTRUCTURED)
    decrementing, non_constant = _decrementing(loop)
    if decrementing:
        reasons.append(RejectionReason.DECREMENTING)
    if non_constant:
        reasons.append(RejectionReason.NON_AFFINE_STEP)
    return reasons


def identify_candidates(program: Program) -> CandidateReport:
    """Identify candidate fragments across every procedure in ``program``.

    Consecutive top-level loops that each pass the filter are merged
    into one candidate fragment.
    """
    report = CandidateReport()
    for proc in program.procedures:
        pending: List[DoLoop] = []
        index = 0

        def flush() -> None:
            nonlocal index
            if not pending:
                return
            report.candidates.append(Candidate(proc, list(pending), index))
            index += 1
            pending.clear()

        for stmt in proc.body:
            if isinstance(stmt, DoLoop):
                reasons = check_loop(stmt, proc)
                if reasons:
                    flush()
                    report.rejections.append(Rejection(proc, stmt, reasons))
                else:
                    pending.append(stmt)
            else:
                flush()
        flush()
    return report
