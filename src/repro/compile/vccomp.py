"""Compiled verification conditions.

:class:`CompiledVC` is the compiled twin of
:class:`repro.vcgen.hoare.VCProblem`: every clause's straight-line
prefix, counter initialisation and premise tests are compiled once
per VC (i.e. once per kernel), while the
candidate-dependent parts — the postcondition and the invariants — are
compiled once per distinct formula through the structurally-memoised
:mod:`repro.compile.predcomp` tables and then evaluated against many
states.  Clause semantics (vacuous-truth handling, exception wrapping,
the work-on-a-copy discipline) are replicated exactly.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.ir import nodes as ir
from repro.ir.analysis import counter_independent_loops
from repro.predicates.evaluate import PredicateEvalError
from repro.semantics.exec import ExecutionError
from repro.semantics.numeric import EvalError
from repro.semantics.state import State, require_int
from repro.vcgen.hoare import CandidateSummary, VCClause, VCProblem
from repro.compile.exprcomp import compile_ir_condition, compile_ir_expr
from repro.compile.predcomp import compile_invariant, compile_postcondition
from repro.compile.stmtcomp import compile_stmt


def _compile_bounds_non_degenerate(kernel: ir.Kernel):
    """Compiled twin of ``repro.vcgen.hoare._bounds_non_degenerate``."""
    checks = tuple(
        (compile_ir_expr(loop.lower), compile_ir_expr(loop.upper))
        for loop in counter_independent_loops(kernel)
    )

    def run(state, _checks=checks):
        for lower_fn, upper_fn in _checks:
            try:
                lower = require_int(lower_fn(state))
                upper = require_int(upper_fn(state))
            except (EvalError, TypeError, KeyError):
                return False
            if lower > upper:
                return False
        return True

    return run


class CompiledClause:
    """Compiled twin of one :class:`~repro.vcgen.hoare.VCClause`."""

    def __init__(
        self,
        clause: VCClause,
        bounds_check: Callable[[State], bool],
        pre_conditions: Tuple[Callable[[State], bool], ...],
    ):
        self.clause = clause
        self.name = clause.name
        self._bounds_check = bounds_check
        self._pre_conditions = pre_conditions
        self._prefix = tuple(compile_stmt(stmt) for stmt in clause.prefix)
        self._counter_init: Optional[Tuple[str, Callable]] = None
        if clause.counter_init is not None:
            counter, lower = clause.counter_init
            self._counter_init = (counter, compile_ir_expr(lower))
        self._counter_update = clause.target.counter_update
        # Premises: (kind, loop_id, counter name, compiled loop-upper).
        premises = []
        for assumption in clause.assumptions:
            if assumption.kind == "pre":
                premises.append(("pre", None, None, None))
            elif assumption.kind == "inv":
                premises.append(("inv", assumption.loop_id or "", None, None))
            else:
                loop = assumption.loop
                assert loop is not None
                premises.append(
                    (assumption.kind, None, loop.counter, compile_ir_expr(loop.upper))
                )
        self._premises = tuple(premises)
        # Alignment premises: (counter name, compiled lower bound, step)
        # for every live strided loop.
        self._alignment = tuple(
            (loop.counter, compile_ir_expr(loop.lower), loop.step)
            for loop in clause.aligned_loops
            if loop.step not in (1, -1)
        )
        target = clause.target
        self._target_is_post = target.kind == "post"
        self._target_loop_id = target.loop_id or ""

    # -- evaluation ---------------------------------------------------------
    def premises_hold(self, state: State, candidate: CandidateSummary) -> bool:
        """Compiled twin of ``VCClause.premises_hold``."""
        for counter_name, lower_fn, step in self._alignment:
            try:
                value = require_int(state.scalar(counter_name))
                lower = require_int(lower_fn(state))
            except (KeyError, EvalError, TypeError):
                return False
            if (value - lower) % step != 0:
                return False
        for kind, loop_id, counter, upper_fn in self._premises:
            if kind == "pre":
                for pre_fn in self._pre_conditions:
                    try:
                        if not pre_fn(state):
                            return False
                    except EvalError:
                        return False
                if not self._bounds_check(state):
                    return False
            elif kind == "inv":
                invariant = candidate.invariant_for(loop_id)
                try:
                    if not compile_invariant(invariant)(state):
                        return False
                except PredicateEvalError:
                    return False
            else:  # loop_cond / loop_exit
                try:
                    value = require_int(state.scalar(counter))
                    upper = require_int(upper_fn(state))
                except (KeyError, EvalError, TypeError):
                    return False
                in_range = value <= upper
                if kind == "loop_cond" and not in_range:
                    return False
                if kind == "loop_exit" and in_range:
                    return False
        return True

    def holds(self, state: State, candidate: CandidateSummary) -> bool:
        """Compiled twin of ``VCClause.holds`` (vacuous truth included).

        Premises are evaluated on the caller's state *before* copying:
        they never write scalars or cells (lazily-drawn random cells
        land in the array's shared default cache, identically from the
        original or a copy), so vacuous clauses — the common case —
        skip the state copy entirely.
        """
        if not self.premises_hold(state, candidate):
            return True
        return self.holds_after_premises(state, candidate)

    def holds_after_premises(self, state: State, candidate: CandidateSummary) -> bool:
        """Compiled twin of ``VCClause.holds_after_premises``."""
        work = state.copy()
        for stmt_fn in self._prefix:
            stmt_fn(work)
        if self._counter_init is not None:
            counter, lower_fn = self._counter_init
            work.set_scalar(
                counter, require_int(lower_fn(work), context="loop lower bound")
            )
        if self._counter_update is not None:
            counter, step = self._counter_update
            work.set_scalar(counter, require_int(work.scalar(counter)) + step)
        return self._target_holds(work, candidate)

    def _target_holds(self, state: State, candidate: CandidateSummary) -> bool:
        if self._target_is_post:
            return compile_postcondition(candidate.post)(state)
        invariant = candidate.invariant_for(self._target_loop_id)
        return compile_invariant(invariant)(state)


class CompiledVC:
    """Compiled twin of a whole :class:`~repro.vcgen.hoare.VCProblem`."""

    def __init__(self, vc: VCProblem):
        self.vc = vc
        bounds_check = _compile_bounds_non_degenerate(vc.kernel)
        pre_conditions = tuple(compile_ir_condition(pre) for pre in vc.kernel.assumptions)
        self.clauses: List[CompiledClause] = [
            CompiledClause(clause, bounds_check, pre_conditions) for clause in vc.clauses
        ]

    def check(self, state: State, candidate: CandidateSummary) -> Optional[str]:
        """Compiled twin of ``VCProblem.check``: first failing clause name."""
        for clause in self.clauses:
            try:
                if not clause.holds(state, candidate):
                    return clause.name
            except (PredicateEvalError, ExecutionError, EvalError, TypeError) as exc:
                return f"{clause.name} (evaluation error: {exc})"
        return None
