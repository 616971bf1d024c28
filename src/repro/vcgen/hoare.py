"""Hoare-style verification conditions for candidate stencil kernels.

Following §2.1 and Figure 2 of the paper, a kernel with unknown
postcondition ``post`` and one unknown invariant per loop gives rise to
a conjunction of clauses:

* **initialization** — entering a loop (after executing any straight-line
  code before it and initialising the counter) establishes its
  invariant;
* **preservation** — assuming a loop's invariant and its condition,
  executing the body once and incrementing the counter re-establishes
  the invariant; when the body itself contains loops, preservation is
  discharged through the inner loops' initialization and exit clauses;
* **loop exit** — assuming a loop's invariant and the negated loop
  condition, the code following the loop (possibly entering further
  loops) establishes the enclosing obligation, ultimately ``post``.

Clauses are evaluated on *concrete* program states: an implication whose
premises fail on the state holds vacuously.  The same clause objects are
used by CEGIS (checked against a growing set of concrete states) and by
the full verifier (checked against exhaustive/symbolic state families).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ir import nodes as ir
from repro.predicates.evaluate import (
    PredicateEvalError,
    evaluate_invariant,
    evaluate_postcondition,
)
from repro.predicates.language import Invariant, Postcondition
from repro.semantics.evalexpr import EvalError, compare_values, eval_ir_condition, eval_ir_expr
from repro.semantics.exec import ExecutionError, execute_statement
from repro.semantics.state import State, require_int


@dataclass
class CandidateSummary:
    """A candidate solution: one postcondition plus one invariant per loop.

    Every invariant is implicitly strengthened with the counter-alignment
    conjunct ``(counter - lower) mod step == 0`` for every live loop:
    the clause premises enforce it (see :meth:`VCClause._premises_hold`),
    matching what the inductive prover assumes.  For step-1 loops the
    conjunct is a tautology.
    """

    post: Postcondition
    invariants: Dict[str, Invariant] = field(default_factory=dict)

    def invariant_for(self, loop_id: str) -> Invariant:
        if loop_id not in self.invariants:
            raise KeyError(f"candidate has no invariant for loop {loop_id!r}")
        return self.invariants[loop_id]


@dataclass(frozen=True)
class ExitTarget:
    """What a clause must establish after running its straight-line prefix."""

    kind: str  # "post" or "inv"
    loop_id: Optional[str] = None
    counter_update: Optional[Tuple[str, int]] = None  # (counter, step) applied before the check

    def describe(self) -> str:
        if self.kind == "post":
            return "post"
        update = ""
        if self.counter_update is not None:
            counter, step = self.counter_update
            update = f" [{counter} += {step}]"
        return f"inv({self.loop_id}){update}"


@dataclass(frozen=True)
class Assumption:
    """One premise of a clause, evaluated on the concrete state."""

    kind: str  # "pre", "inv", "loop_cond", "loop_exit"
    loop_id: Optional[str] = None
    loop: Optional[ir.Loop] = None

    def describe(self) -> str:
        if self.kind == "pre":
            return "pre"
        if self.kind == "inv":
            return f"inv({self.loop_id})"
        assert self.loop is not None
        rel = "<=" if self.kind == "loop_cond" else ">"
        return f"{self.loop.counter} {rel} {self.loop.upper!r}"


@dataclass
class VCClause:
    """One implication of the verification condition.

    ``aligned_loops`` lists the loops *live* at the clause's program
    point (the loops of its assumptions plus their ancestors); their
    counters are additionally premised to be aligned (``(counter -
    lower) mod step == 0``), which is the strengthened-invariant reading
    the inductive prover uses.
    """

    name: str
    assumptions: Tuple[Assumption, ...]
    counter_init: Optional[Tuple[str, ir.ValueExpr]]
    prefix: Tuple[ir.Stmt, ...]
    target: ExitTarget
    kernel: ir.Kernel
    aligned_loops: Tuple[ir.Loop, ...] = ()

    def describe(self) -> str:
        premises = " and ".join(a.describe() for a in self.assumptions) or "true"
        return f"{self.name}: {premises} -> {self.target.describe()}"

    def candidate_formulas(self, candidate: CandidateSummary):
        """The formulas of ``candidate`` that checking or proving the clause reads.

        ``(((loop_id, invariant), ...), target)``: one pair per ``inv``
        premise, in premise order, then the target formula.  A missing
        invariant reads as ``None``.
        """
        premises = tuple(
            (a.loop_id, candidate.invariants.get(a.loop_id or ""))
            for a in self.assumptions
            if a.kind == "inv"
        )
        if self.target.kind == "post":
            return premises, candidate.post
        return premises, candidate.invariants.get(self.target.loop_id or "")

    # -- evaluation ---------------------------------------------------------
    def holds(self, state: State, candidate: CandidateSummary) -> bool:
        """Check the clause on one concrete state.

        Returns ``True`` when the implication holds (including
        vacuously).  Raises :class:`PredicateEvalError` when the
        candidate cannot even be evaluated on the state — the CEGIS
        driver treats that as a failed candidate.
        """
        work = state.copy()
        if not self._premises_hold(work, candidate):
            return True
        for stmt in self.prefix:
            execute_statement(stmt, work)
        if self.counter_init is not None:
            counter, lower = self.counter_init
            work.set_scalar(counter, require_int(eval_ir_expr(lower, work), context="loop lower bound"))
        if self.target.counter_update is not None:
            counter, step = self.target.counter_update
            work.set_scalar(counter, require_int(work.scalar(counter)) + step)
        return self._target_holds(work, candidate)

    def _premises_hold(self, state: State, candidate: CandidateSummary) -> bool:
        if not self._counters_aligned(state):
            return False
        for assumption in self.assumptions:
            if assumption.kind == "pre":
                for pre in self.kernel.assumptions:
                    try:
                        if not eval_ir_condition(pre, state):
                            return False
                    except EvalError:
                        return False
                if not _bounds_non_degenerate(self.kernel, state):
                    return False
            elif assumption.kind == "inv":
                invariant = candidate.invariant_for(assumption.loop_id or "")
                try:
                    if not evaluate_invariant(invariant, state):
                        return False
                except PredicateEvalError:
                    return False
            elif assumption.kind in {"loop_cond", "loop_exit"}:
                loop = assumption.loop
                assert loop is not None
                try:
                    counter = require_int(state.scalar(loop.counter))
                    upper = require_int(eval_ir_expr(loop.upper, state))
                except (KeyError, EvalError, TypeError):
                    return False
                in_range = counter <= upper
                if assumption.kind == "loop_cond" and not in_range:
                    return False
                if assumption.kind == "loop_exit" and in_range:
                    return False
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown assumption kind {assumption.kind!r}")
        return True

    def _counters_aligned(self, state: State) -> bool:
        """Alignment premise: every live strided counter sits on its grid.

        Execution only ever gives a counter values ``lower + k*step``
        (including the exit value), so this premise is true at every
        state control actually reaches; it exists to discard the
        *unreachable* misaligned states on which the exact strided
        invariants are vacuously weak.  Step-1 loops are trivially
        aligned, hence the check is a no-op for non-strided kernels.
        """
        for loop in self.aligned_loops:
            if loop.step in (1, -1):
                continue
            try:
                counter = require_int(state.scalar(loop.counter))
                lower = require_int(eval_ir_expr(loop.lower, state))
            except (KeyError, EvalError, TypeError):
                return False
            if (counter - lower) % loop.step != 0:
                return False
        return True

    def _target_holds(self, state: State, candidate: CandidateSummary) -> bool:
        if self.target.kind == "post":
            return evaluate_postcondition(candidate.post, state)
        invariant = candidate.invariant_for(self.target.loop_id or "")
        return evaluate_invariant(invariant, state)


def _bounds_non_degenerate(kernel: ir.Kernel, state: State) -> bool:
    """Implicit precondition: loops whose bounds are counter-independent execute.

    The paper's preconditions assume non-trivial grids; without this,
    degenerate states (e.g. ``jmin > jmax + 1``) would falsify any
    invariant of the paper's shape at initialization.  Bounds that
    depend on loop counters (tiled inner loops) are skipped since they
    cannot be evaluated before the enclosing loop runs.
    """
    from repro.ir.analysis import collect_loops, loop_counters

    counters = set(loop_counters(kernel))
    for loop in collect_loops(kernel.body):
        mentioned = {
            node.name
            for bound in (loop.lower, loop.upper)
            for node in bound.walk()
            if isinstance(node, ir.VarRef)
        }
        if mentioned & counters:
            continue
        try:
            lower = require_int(eval_ir_expr(loop.lower, state))
            upper = require_int(eval_ir_expr(loop.upper, state))
        except (EvalError, TypeError, KeyError):
            return False
        if lower > upper:
            return False
    return True


@dataclass
class LoopInfo:
    """Metadata about one loop the synthesizer needs to build invariant templates."""

    loop_id: str
    loop: ir.Loop
    depth: int
    enclosing: Tuple[str, ...]  # loop_ids of enclosing loops, outermost first


@dataclass
class VCProblem:
    """The full verification condition for one kernel."""

    kernel: ir.Kernel
    loops: List[LoopInfo]
    clauses: List[VCClause]

    def loop_ids(self) -> List[str]:
        return [info.loop_id for info in self.loops]

    def loop_info(self, loop_id: str) -> LoopInfo:
        for info in self.loops:
            if info.loop_id == loop_id:
                return info
        raise KeyError(f"unknown loop id {loop_id!r}")

    def check(self, state: State, candidate: CandidateSummary) -> Optional[str]:
        """Check every clause on one state; return the first failing clause name."""
        for clause in self.clauses:
            try:
                if not clause.holds(state, candidate):
                    return clause.name
            except (PredicateEvalError, ExecutionError, EvalError, TypeError) as exc:
                return f"{clause.name} (evaluation error: {exc})"
        return None


class _VCBuilder:
    def __init__(self, kernel: ir.Kernel):
        self.kernel = kernel
        self.loops: List[LoopInfo] = []
        self.clauses: List[VCClause] = []
        self._counter_counts: Dict[str, int] = {}

    def build(self) -> VCProblem:
        statements = list(self.kernel.body.statements)
        entry = (Assumption("pre"),)
        self._process_block(statements, entry, ExitTarget("post"), path=(), enclosing=())
        return VCProblem(kernel=self.kernel, loops=self.loops, clauses=self.clauses)

    # -- helpers -----------------------------------------------------------
    def _fresh_loop_id(self, counter: str) -> str:
        count = self._counter_counts.get(counter, 0)
        self._counter_counts[counter] = count + 1
        return counter if count == 0 else f"{counter}#{count}"

    def _aligned_loops(self, assumptions: Tuple[Assumption, ...]) -> Tuple[ir.Loop, ...]:
        """The clause's live loops (assumption loops plus ancestors)."""
        by_id = {info.loop_id: info for info in self.loops}
        aligned: List[ir.Loop] = []
        for assumption in assumptions:
            loop_id = assumption.loop_id
            info = by_id.get(loop_id or "")
            if info is None:
                continue
            for live_id in info.enclosing + (info.loop_id,):
                loop = by_id[live_id].loop
                if not any(existing is loop for existing in aligned):
                    aligned.append(loop)
        return tuple(aligned)

    def _process_block(
        self,
        statements: Sequence[ir.Stmt],
        entry: Tuple[Assumption, ...],
        target: ExitTarget,
        path: Tuple[str, ...],
        enclosing: Tuple[str, ...],
    ) -> None:
        prefix: List[ir.Stmt] = []
        index = 0
        while index < len(statements) and not isinstance(statements[index], ir.Loop):
            prefix.append(statements[index])
            index += 1

        if index == len(statements):
            # No loop: one straight-line clause from entry to target.
            self.clauses.append(
                VCClause(
                    name=".".join(path + ("straightline",)) if path else "straightline",
                    assumptions=entry,
                    counter_init=None,
                    prefix=tuple(prefix),
                    target=target,
                    kernel=self.kernel,
                    aligned_loops=self._aligned_loops(entry),
                )
            )
            return

        loop = statements[index]
        assert isinstance(loop, ir.Loop)
        rest = list(statements[index + 1:])
        loop_id = self._fresh_loop_id(loop.counter)
        self.loops.append(
            LoopInfo(loop_id=loop_id, loop=loop, depth=len(enclosing), enclosing=enclosing)
        )

        # Initialization: entry assumptions, run prefix, set counter to lower,
        # establish the loop invariant.
        self.clauses.append(
            VCClause(
                name=".".join(path + (loop_id, "init")),
                assumptions=entry,
                counter_init=(loop.counter, loop.lower),
                prefix=tuple(prefix),
                target=ExitTarget("inv", loop_id),
                kernel=self.kernel,
                aligned_loops=self._aligned_loops(entry),
            )
        )

        # Preservation: the loop body, assuming the invariant and the loop
        # condition, must re-establish the invariant with the counter advanced.
        body_entry = (
            Assumption("inv", loop_id=loop_id),
            Assumption("loop_cond", loop_id=loop_id, loop=loop),
        )
        self._process_block(
            list(loop.body.statements),
            body_entry,
            ExitTarget("inv", loop_id, counter_update=(loop.counter, loop.step)),
            path=path + (loop_id,),
            enclosing=enclosing + (loop_id,),
        )

        # Exit: the invariant plus the negated condition flows into the rest
        # of the block (which may itself contain further loops) and must
        # ultimately establish the original target.
        exit_entry = (
            Assumption("inv", loop_id=loop_id),
            Assumption("loop_exit", loop_id=loop_id, loop=loop),
        )
        self._process_block(
            rest,
            exit_entry,
            target,
            path=path + (loop_id, "after"),
            enclosing=enclosing,
        )


def generate_vc(kernel: ir.Kernel) -> VCProblem:
    """Generate the verification condition (Figure 2) for a kernel."""
    return _VCBuilder(kernel).build()
