"""Unbounded inductive verification of candidate summaries (Tier 3).

The bounded verifier (:mod:`repro.verification.bounded`) is exact only
for the grid sizes it explores; this module discharges the Hoare VC
clauses of :mod:`repro.vcgen.hoare` *symbolically over the integers*, so
a ``Proved`` verdict holds for **all** array sizes.  It is the
reproduction's substitute for the paper's theorem-prover step, built —
in the spirit of template/abstract-domain proof search — entirely from
machinery the repository already has: the restricted invariant shapes of
:mod:`repro.synthesis.invariants`, canonicalising :func:`simplify`, and
a small linear-arithmetic engine (Fourier–Motzkin elimination with
integer tightening) over symbolic loop bounds.

Per clause the prover:

1. builds a *symbolic premise context*: every scalar is a free symbol,
   ``pre`` contributes the kernel's annotations and the non-degenerate
   bound facts, ``loop_cond``/``loop_exit`` contribute counter
   inequalities, and an ``inv`` premise contributes its scalar
   inequalities, its scalar equalities (as substitutions) and its
   quantified conjuncts (as *facts* about the pre-state arrays);
2. additionally assumes each live loop counter is *aligned*:
   ``counter = lower + step·m`` for a fresh integer ``m ≥ 0``.  This
   proves the VC with every invariant strengthened by the alignment
   conjunct — the strengthening is itself inductive (initialisation
   sets ``m = 0``, preservation increments it, enclosing counters are
   never written by inner bodies), so the end-to-end Hoare argument is
   unaffected;
3. executes the clause's straight-line prefix symbolically, recording
   array stores in per-array update chains;
4. proves the target: scalar goals by congruence (canonical-form
   equality after substitution), quantified goals by taking a *generic
   point* of the target region and showing its cell is covered either
   by a store of the prefix (value equal by congruence) or by a premise
   fact (quantifier instantiation found by index matching plus a
   boundary-witness search), case-splitting on comparisons linear
   arithmetic cannot decide and on the argument order of ``min``/``max``
   bounds.

The prover is deliberately *sound but incomplete*: every ``proved``
answer is a real proof; anything it cannot establish within its budget
degrades to ``bounded_only``, meaning the summary is exactly as
trustworthy as it was before this tier existed.  ``Refuted`` verdicts
come from the bounded tier below (which produces concrete
counterexamples).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.cache.fingerprint import fingerprint_kernel
from repro.ir import nodes as ir
from repro.predicates.language import Bound, QuantifiedConstraint
from repro.symbolic.expr import ArrayCell, Call, Const, Expr, Sym, as_expr, sym
from repro.symbolic.simplify import _linearize, collect_affine, simplify, substitute
from repro.templates.irsym import ConversionError, ir_to_sym
from repro.vcgen.hoare import CandidateSummary, VCClause, VCProblem

# Bump whenever the proof rules change in a way that affects which
# summaries are provable: stored certificates from older provers are
# revalidated (re-proved) on replay, so a version skew merely costs a
# re-proof, never a wrong "proved" label.
INDUCTIVE_PROVER_VERSION = "inductive-1"


class Verdict(str, Enum):
    """Outcome of the verification hierarchy for one candidate summary."""

    PROVED = "proved"            # all VC clauses discharged for every array size
    BOUNDED_ONLY = "bounded_only"  # bounded tiers passed; inductive proof incomplete
    REFUTED = "refuted"          # a concrete counterexample exists


@dataclass(frozen=True)
class ClauseProof:
    """Per-clause result of the inductive prover."""

    clause: str
    status: str  # "proved" or "bounded_only"
    reason: str = ""

    @property
    def proved(self) -> bool:
        return self.status == "proved"


@dataclass
class InductiveOutcome:
    """What the prover established about one candidate summary."""

    verdict: Verdict
    clauses: Tuple[ClauseProof, ...]
    subgoals: int = 0

    @property
    def proved(self) -> bool:
        return self.verdict is Verdict.PROVED


class _Budget(Exception):
    """Raised internally when a clause's proof-search budget is exhausted."""


# ClauseProof.reason for budget exhaustion — a *non-definitive* failure:
# the clause might prove under a larger budget, which the CEGIS
# pre-filter must treat differently from a genuine coverage failure.
REASON_BUDGET = "proof budget exhausted"


# ---------------------------------------------------------------------------
# Linear arithmetic: Fourier–Motzkin with integer tightening
# ---------------------------------------------------------------------------
#
# The engine lives in :mod:`repro.analysis.presburger` (it is shared
# with the static dependence/legality analyses); the prover uses it
# under its historical local names.  Throughout the prover a constraint
# is an ``(expr, strict)`` pair meaning ``expr >= 0`` (``> 0`` when
# strict); expressions keep substitution and min/max expansion trivial,
# and are linearised only at the FM boundary.

from repro.analysis.presburger import (
    Constraint,
    FMEngine as _FMEngine,
    LinearConstraint as _Lin,
    find_minmax as _find_minmax,
    is_int_atom as _is_int_atom,
    linearize_ge0 as _linearize_ge0,
    negate_constraint as _negate,
    substitute_constraints as _subst_constraints,
)


# ---------------------------------------------------------------------------
# The per-clause proof context
# ---------------------------------------------------------------------------


@dataclass
class _Fact:
    """One quantified premise conjunct, quantifiers renamed fresh."""

    array: str
    vars: Tuple[str, ...]
    bounds: Tuple[Bound, ...]
    indices: Tuple[Expr, ...]
    rhs: Expr


@dataclass
class _CellGoal:
    array: str
    indices: Tuple[Expr, ...]
    rhs: Expr

    def substituted(self, mapping: Mapping[Expr, Expr]) -> "_CellGoal":
        from repro.symbolic.expr import substitute_map

        return _CellGoal(
            self.array,
            tuple(simplify(substitute_map(i, mapping)) for i in self.indices),
            simplify(substitute_map(self.rhs, mapping)),
        )


class _ClauseProver:
    """Proof search for a single VC clause."""

    def __init__(self, vc: VCProblem, clause: VCClause, candidate: CandidateSummary,
                 max_ops: int, max_depth: int):
        self.vc = vc
        self.clause = clause
        self.candidate = candidate
        self.max_ops = max_ops
        self.max_depth = max_depth
        self.ops = 0
        self.int_syms: Set[str] = set()
        self.facts: List[_Fact] = []
        self.base: List[Constraint] = []
        self.env: Dict[str, Expr] = {}
        self.chains: Dict[str, List[Tuple[Tuple[Expr, ...], Expr]]] = {}
        self._fresh = 0
        self._goal_syms: Tuple[Sym, ...] = ()
        self._decide_cache: Dict[Tuple, str] = {}
        self._infeasible_cache: Dict[frozenset, bool] = {}
        self._lin_cache: Dict[Constraint, _Lin] = {}
        self.fm = _FMEngine(self.int_syms, self._charge)
        kernel = vc.kernel
        for decl in kernel.scalars:
            if decl.scalar_type == "integer":
                self.int_syms.add(decl.name)
        self._counters = {info.loop.counter for info in vc.loops}
        self.int_syms |= self._counters

    # -- bookkeeping ------------------------------------------------------
    def _charge(self) -> None:
        self.ops += 1
        if self.ops > self.max_ops:
            raise _Budget()

    def _fresh_sym(self, prefix: str) -> Sym:
        self._fresh += 1
        name = f"{prefix}.{self._fresh}"
        self.int_syms.add(name)
        return sym(name)

    # -- context construction --------------------------------------------
    def _add_ge0(self, constraints: List[Constraint], expr: Expr, strict: bool = False) -> None:
        """Add ``expr >= 0`` plus its conjunctive min/max consequences.

        ``min(a, b) <= a`` and ``min(a, b) <= b``, so a constraint with a
        *positive* coefficient on a ``min`` atom implies both
        substituted variants (dually for ``max`` with negative
        coefficients).  The original constraint is kept too so that
        syntactically matching conditions still cancel exactly.
        """
        expr = simplify(expr)
        constraints.append((expr, strict))
        atom = _find_minmax(iter([expr]))
        if atom is None:
            return
        combo = _linearize(expr)
        coeff = None
        for _k, (at, c) in combo.terms.items():
            if at is atom or at == atom:
                coeff = c
                break
        if coeff is None:
            return
        implied = (atom.func == "min" and coeff > 0) or (atom.func == "max" and coeff < 0)
        if implied:
            from repro.symbolic.expr import substitute_map

            for arg in atom.args:
                self._add_ge0(constraints, substitute_map(expr, {atom: arg}), strict)

    def _convert_compare(self, constraints: List[Constraint], expr: ir.ValueExpr) -> None:
        if not isinstance(expr, ir.Compare):
            return
        try:
            left = simplify(substitute(ir_to_sym(expr.left), self.env))
            right = simplify(substitute(ir_to_sym(expr.right), self.env))
        except ConversionError:
            return
        op = expr.op
        if op == "<":
            self._add_ge0(constraints, right - left, strict=True)
        elif op == "<=":
            self._add_ge0(constraints, right - left)
        elif op == ">":
            self._add_ge0(constraints, left - right, strict=True)
        elif op == ">=":
            self._add_ge0(constraints, left - right)
        elif op == "==":
            self._add_ge0(constraints, left - right)
            self._add_ge0(constraints, right - left)
            self._orient_equality(simplify(left - right))
        # "/=" carries only disjunctive information; dropping a premise
        # is sound (the proof obligation just gets harder).

    def _orient_equality(self, diff: Expr) -> None:
        """Turn an assumed equality into a substitution when solvable.

        ``assume(sz0 - sz1 == 1)`` becomes ``sz0 -> sz1 + 1``, which
        linearises otherwise-opaque products such as ``i*(sz0 - sz1)``
        in store indices.  Only never-written integer scalars are
        eliminated, so the substitution is valid at every program point.
        """
        for name in sorted(diff.symbols()):
            if name in self._counters or name in self.env or name not in self.int_syms:
                continue
            decomposition = collect_affine(diff, (name,))
            if decomposition is None:
                continue
            coeff, rest = decomposition[0][name], decomposition[1]
            if coeff == 1:
                self.env[name] = simplify(as_expr(0) - rest)
                return
            if coeff == -1:
                self.env[name] = simplify(rest)
                return

    def _counter_independent_bounds(self, constraints: List[Constraint]) -> None:
        """The implicit precondition: counter-independent loops execute.

        This mirrors ``_bounds_non_degenerate`` in :mod:`repro.vcgen.hoare`.
        Like the counter-alignment facts it is an implicit conjunct of
        *every* invariant — the scalars appearing in such bounds are
        never written by the kernel (loops whose bounds mention an
        assigned scalar are skipped), so the fact is trivially preserved
        and is sound to assume in every clause, not just at entry.
        """
        from repro.ir.analysis import bound_scalars, counter_independent_loops, iter_statements

        assigned = {
            stmt.target
            for stmt in iter_statements(self.vc.kernel.body)
            if isinstance(stmt, ir.Assign)
        }
        for loop in counter_independent_loops(self.vc.kernel):
            if bound_scalars(loop) & assigned:
                continue
            try:
                lower = simplify(substitute(ir_to_sym(loop.lower), self.env))
                upper = simplify(substitute(ir_to_sym(loop.upper), self.env))
            except ConversionError:
                continue
            self._add_ge0(constraints, simplify(upper - lower))

    def _alignment(self, constraints: List[Constraint], loop_id: str) -> None:
        """``counter = lower + step*m, m >= 0`` for the loop and its ancestors."""
        info = self.vc.loop_info(loop_id)
        for lid in info.enclosing + (loop_id,):
            loop = self.vc.loop_info(lid).loop
            try:
                lower = simplify(substitute(ir_to_sym(loop.lower), self.env))
            except ConversionError:
                continue
            counter = sym(loop.counter)
            if loop.step == 1:
                self._add_ge0(constraints, counter - lower)
            elif loop.step > 1:
                m = self._fresh_sym(f"it_{lid}")
                self._add_ge0(constraints, m)
                diff = simplify(counter - lower - as_expr(loop.step) * m)
                self._add_ge0(constraints, diff)
                self._add_ge0(constraints, simplify(as_expr(0) - diff))
            # negative steps never reach the VC (frontend rejects them)

    def _add_invariant_premise(self, constraints: List[Constraint], loop_id: str) -> bool:
        invariant = self.candidate.invariants.get(loop_id)
        if invariant is None:
            return False
        # Scalar equalities pin temporaries to their cached cells; apply
        # them as substitutions so congruence sees through the rotation.
        for eq in invariant.equalities:
            try:
                self.env[eq.var] = simplify(substitute(eq.rhs, self.env))
            except ConversionError:
                return False
        for ineq in invariant.inequalities:
            upper = simplify(substitute(ineq.upper, self.env))
            self._add_ge0(constraints, upper - sym(ineq.var), strict=ineq.strict)
        for conjunct in invariant.conjuncts:
            fact = self._make_fact(conjunct)
            if fact is not None:
                self.facts.append(fact)
        return True

    def _make_fact(self, conjunct: QuantifiedConstraint) -> Optional[_Fact]:
        if conjunct.guard is not None:
            return None
        mapping: Dict[str, Expr] = dict(self.env)
        new_vars: List[str] = []
        new_bounds: List[Bound] = []
        for bound in conjunct.bounds:
            fresh = self._fresh_sym("u")
            lower = simplify(substitute(bound.lower, mapping))
            upper = simplify(substitute(bound.upper, mapping))
            mapping[bound.var] = fresh
            new_vars.append(fresh.name)
            new_bounds.append(
                Bound(fresh.name, lower, upper, bound.lower_strict, bound.upper_strict)
            )
        indices = tuple(simplify(substitute(i, mapping)) for i in conjunct.out_eq.indices)
        rhs = simplify(substitute(conjunct.out_eq.rhs, mapping))
        return _Fact(
            array=conjunct.out_eq.array,
            vars=tuple(new_vars),
            bounds=tuple(new_bounds),
            indices=indices,
            rhs=rhs,
        )

    def build_context(self) -> Optional[str]:
        """Premises -> (int syms, base constraints, facts, entry env)."""
        self.env = {}
        # Implicit preconditions on never-written scalars hold at every
        # program point, not just at entry.
        from repro.ir.analysis import iter_statements

        assigned = {
            stmt.target
            for stmt in iter_statements(self.vc.kernel.body)
            if isinstance(stmt, ir.Assign)
        }
        for pre in self.vc.kernel.assumptions:
            mentioned = {n.name for n in pre.walk() if isinstance(n, ir.VarRef)}
            if mentioned & assigned:
                continue
            self._convert_compare(self.base, pre)
        self._counter_independent_bounds(self.base)
        for assumption in self.clause.assumptions:
            if assumption.kind == "pre":
                pass  # already assumed above
            elif assumption.kind in ("loop_cond", "loop_exit"):
                loop = assumption.loop
                assert loop is not None
                if loop.step < 0:
                    return "negative-step loop"
                try:
                    upper = simplify(substitute(ir_to_sym(loop.upper), self.env))
                except ConversionError:
                    return "loop bound not convertible"
                counter = sym(loop.counter)
                if assumption.kind == "loop_cond":
                    self._add_ge0(self.base, upper - counter)
                else:
                    self._add_ge0(self.base, counter - upper, strict=True)
                self._alignment(self.base, assumption.loop_id or loop.counter)
            elif assumption.kind == "inv":
                self._alignment(self.base, assumption.loop_id or "")
                if not self._add_invariant_premise(self.base, assumption.loop_id or ""):
                    return f"no invariant for loop {assumption.loop_id!r}"
        return None

    # -- symbolic prefix execution ---------------------------------------
    def _eval_ir(self, expr: ir.ValueExpr) -> Optional[Expr]:
        if isinstance(expr, ir.VarRef):
            return self.env.get(expr.name, sym(expr.name))
        if isinstance(expr, ir.ArrayLoad):
            indices = []
            for index in expr.indices:
                value = self._eval_ir(index)
                if value is None:
                    return None
                indices.append(simplify(value))
            return self._read_array(expr.array, tuple(indices))
        if isinstance(expr, ir.IntConst):
            return as_expr(expr.value)
        if isinstance(expr, ir.RealConst):
            return as_expr(expr.value)
        if isinstance(expr, ir.BinOp):
            left = self._eval_ir(expr.left)
            right = self._eval_ir(expr.right)
            if left is None or right is None:
                return None
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                return left / right
            return None
        if isinstance(expr, ir.UnaryOp):
            operand = self._eval_ir(expr.operand)
            if operand is None:
                return None
            return -operand if expr.op == "-" else operand
        if isinstance(expr, ir.FuncCall):
            args = []
            for arg in expr.args:
                value = self._eval_ir(arg)
                if value is None:
                    return None
                args.append(value)
            return Call(expr.func, tuple(args))
        return None

    def _read_array(self, array: str, indices: Tuple[Expr, ...]) -> Optional[Expr]:
        """Resolve a read through the store chain; None when undecidable."""
        for stored_idx, stored_val in reversed(self.chains.get(array, [])):
            relation = self._match_indices(self.base, indices, stored_idx)
            if relation == "match":
                return stored_val
            if relation == "disjoint":
                continue
            return None
        return ArrayCell(array, indices)

    def exec_prefix(self) -> Optional[str]:
        for stmt in self.clause.prefix:
            if isinstance(stmt, ir.Assign):
                value = self._eval_ir(stmt.value)
                if value is None:
                    return f"cannot evaluate assignment to {stmt.target!r}"
                self.env[stmt.target] = simplify(value)
            elif isinstance(stmt, ir.ArrayStore):
                indices = []
                for index in stmt.indices:
                    value = self._eval_ir(index)
                    if value is None:
                        return f"cannot evaluate store index of {stmt.array!r}"
                    indices.append(simplify(value))
                value = self._eval_ir(stmt.value)
                if value is None:
                    return f"cannot evaluate store to {stmt.array!r}"
                self.chains.setdefault(stmt.array, []).append(
                    (tuple(indices), simplify(value))
                )
            else:
                return f"unsupported prefix statement {type(stmt).__name__}"
        if self.clause.counter_init is not None:
            counter, lower = self.clause.counter_init
            try:
                self.env[counter] = simplify(substitute(ir_to_sym(lower), self.env))
            except ConversionError:
                return "loop lower bound not convertible"
        if self.clause.target.counter_update is not None:
            counter, step = self.clause.target.counter_update
            current = self.env.get(counter, sym(counter))
            self.env[counter] = simplify(current + as_expr(step))
        return None

    # -- comparisons and congruence --------------------------------------
    def _decide(self, gamma: Sequence[Constraint], goal: Constraint, depth: int = 0) -> str:
        """'yes' (entailed), 'no' (refuted) or 'unknown', expanding min/max."""
        key = (frozenset(gamma), goal)
        cached = self._decide_cache.get(key)
        if cached is not None:
            return cached
        result = self._decide_uncached(gamma, goal, depth)
        if len(self._decide_cache) < 100_000:
            self._decide_cache[key] = result
        return result

    def _decide_uncached(self, gamma: Sequence[Constraint], goal: Constraint, depth: int) -> str:
        self._charge()
        expr, strict = goal
        atom = _find_minmax(iter([expr]))
        if atom is None:
            atom = _find_minmax(e for e, _s in gamma)
        if atom is not None and depth < 4:
            from repro.symbolic.expr import substitute_map

            a, b = atom.args
            results = []
            for winner, cond in (
                ((a, (simplify(b - a), False)) if atom.func == "min" else (a, (simplify(a - b), False))),
                ((b, (simplify(a - b), False)) if atom.func == "min" else (b, (simplify(b - a), False))),
            ):
                branch_gamma = _subst_constraints(gamma, {atom: winner}) + [cond]
                branch_goal = (simplify(substitute_map(expr, {atom: winner})), strict)
                if self._infeasible(branch_gamma):
                    results.append("any")
                else:
                    results.append(self._decide(branch_gamma, branch_goal, depth + 1))
            if all(r in ("yes", "any") for r in results):
                return "yes"
            if all(r in ("no", "any") for r in results):
                return "no"
            return "unknown"
        lins = [self._lin(e, s) for e, s in gamma]
        if self.fm.infeasible(lins + [self._lin(*_negate(goal))], focus_last=True):
            return "yes"
        if self.fm.infeasible(lins + [self._lin(expr, strict)], focus_last=True):
            return "no"
        return "unknown"

    def _lin(self, expr: Expr, strict: bool) -> _Lin:
        key = (expr, strict)
        lin = self._lin_cache.get(key)
        if lin is None:
            lin = _linearize_ge0(expr, strict)
            if len(self._lin_cache) < 100_000:
                self._lin_cache[key] = lin
        return lin

    def _infeasible(self, gamma: Sequence[Constraint]) -> bool:
        key = frozenset(gamma)
        cached = self._infeasible_cache.get(key)
        if cached is not None:
            return cached
        lins = [self._lin(e, s) for e, s in gamma]
        # Contexts grow one constraint at a time from a feasible parent,
        # so a fresh contradiction must involve the newest (last)
        # constraint — try its cone of influence first, then the full
        # system (which may give up under the elimination caps).
        result = self.fm.infeasible(lins, focus_last=True) or self.fm.infeasible(lins)
        if len(self._infeasible_cache) < 100_000:
            self._infeasible_cache[key] = result
        return result

    def _match_indices(
        self, gamma: Sequence[Constraint], left: Tuple[Expr, ...], right: Tuple[Expr, ...]
    ):
        """'match' / 'disjoint' / index of the first undecided dimension."""
        if len(left) != len(right):
            return "disjoint"
        undecided = None
        for dim, (a, b) in enumerate(zip(left, right)):
            diff = simplify(a - b)
            if isinstance(diff, Const):
                if diff.value == 0:
                    continue
                return "disjoint"
            eq = self._decide(gamma, (diff, False)) == "yes" and self._decide(
                gamma, (simplify(as_expr(0) - diff), False)
            ) == "yes"
            if eq:
                continue
            if (
                self._decide(gamma, (diff, True)) == "yes"
                or self._decide(gamma, (simplify(as_expr(0) - diff), True)) == "yes"
            ):
                return "disjoint"
            if undecided is None:
                undecided = dim
        if undecided is None:
            return "match"
        return undecided

    def _pin_mapping(self, left: Tuple[Expr, ...], right: Tuple[Expr, ...]) -> Dict[Expr, Expr]:
        """Substitutions making index vectors syntactically equal where solvable.

        For each dimension whose difference is affine in exactly one
        generic-point symbol with coefficient ±1, solve for that symbol.
        Congruence needs this: entailed equality of ``g_i`` and ``i``
        does not make ``uold[g_i+1]`` and ``uold[i+1]`` structurally
        equal, substitution does.
        """
        mapping: Dict[Expr, Expr] = {}
        for a, b in zip(left, right):
            diff = simplify(substitute_many(a, mapping) - substitute_many(b, mapping))
            candidates = sorted(
                name for name in diff.symbols() if name.startswith("g.")
            )
            for name in candidates:
                decomposition = collect_affine(diff, (name,))
                if decomposition is None:
                    continue
                coeffs, rest = decomposition
                coeff = coeffs[name]
                if coeff == 1:
                    mapping[sym(name)] = simplify(as_expr(0) - rest)
                    break
                if coeff == -1:
                    mapping[sym(name)] = simplify(rest)
                    break
        return mapping

    def _values_equal(self, gamma: Sequence[Constraint], a: Expr, b: Expr) -> bool:
        diff = simplify(a - b)
        if isinstance(diff, Const):
            return diff.value == 0
        combo = _linearize(diff)
        if all(_is_int_atom(atom, self.int_syms) for atom, _c in combo.terms.values()):
            return (
                self._decide(gamma, (diff, False)) == "yes"
                and self._decide(gamma, (simplify(as_expr(0) - diff), False)) == "yes"
            )
        return False

    # -- the region proof -------------------------------------------------
    def prove_cell(self, gamma: List[Constraint], goal: _CellGoal, depth: int) -> bool:
        self._charge()
        if depth > self.max_depth:
            return False
        if self._infeasible(gamma):
            return True
        for stored_idx, stored_val in reversed(self.chains.get(goal.array, [])):
            relation = self._match_indices(gamma, goal.indices, stored_idx)
            if relation == "disjoint":
                continue
            if relation == "match":
                pins = self._pin_mapping(goal.indices, stored_idx)
                pinned_goal = goal.substituted(pins) if pins else goal
                pinned_gamma = _subst_constraints(gamma, pins) if pins else gamma
                return self._values_equal(pinned_gamma, pinned_goal.rhs, stored_val)
            # Undecided dimension: split <, =, > and prove each branch.
            dim = relation
            diff = simplify(goal.indices[dim] - stored_idx[dim])
            branches: List[List[Constraint]] = [
                gamma + [(simplify(as_expr(0) - diff), True)],  # goal < store
                gamma + [(diff, True)],                          # goal > store
                gamma + [(diff, False), (simplify(as_expr(0) - diff), False)],  # equal
            ]
            return all(self.prove_cell(branch, goal, depth + 1) for branch in branches)
        return self._prove_via_facts(gamma, goal, depth)

    def _prove_via_facts(self, gamma: List[Constraint], goal: _CellGoal, depth: int) -> bool:
        split_candidate: Optional[Constraint] = None
        for fact in self.facts:
            if fact.array != goal.array:
                continue
            for conditions, rhs in self._fact_assignments(fact, goal):
                first_unknown: Optional[Constraint] = None
                refuted = False
                for condition in conditions:
                    result = self._decide(gamma, condition)
                    if result == "no":
                        refuted = True
                        break
                    if result == "unknown" and first_unknown is None:
                        first_unknown = condition
                if refuted:
                    continue
                if first_unknown is None:
                    if self._values_equal(gamma, goal.rhs, rhs):
                        return True
                    continue
                if split_candidate is None:
                    split_candidate = first_unknown
        if split_candidate is not None and depth < self.max_depth:
            split_candidate = self._resolve_split(gamma, split_candidate)
            return self.prove_cell(
                gamma + [split_candidate], goal, depth + 1
            ) and self.prove_cell(gamma + [_negate(split_candidate)], goal, depth + 1)
        return False

    def _resolve_split(self, gamma: Sequence[Constraint], candidate: Constraint) -> Constraint:
        """Reduce an undecided condition to a min/max-free split constraint.

        ``min``/``max`` atoms whose argument order is already entailed by
        the context are substituted by their winner (re-splitting on the
        known order would make no progress); the first genuinely
        undecided atom becomes the split itself.  What remains is a
        plain linear comparison partitioning the goal region.
        """
        from repro.symbolic.expr import substitute_map

        expr, strict = candidate
        for _ in range(4):
            atom = _find_minmax(iter([expr]))
            if atom is None:
                break
            a, b = atom.args
            order = (simplify(b - a), False) if atom.func == "min" else (simplify(a - b), False)
            decision = self._decide([c for c in gamma], order)
            if decision == "yes":
                expr = simplify(substitute_map(expr, {atom: a}))
            elif decision == "no":
                expr = simplify(substitute_map(expr, {atom: b}))
            else:
                return order  # splitting on the order itself makes progress
        return (expr, strict)

    def _fact_assignments(
        self, fact: _Fact, goal: _CellGoal
    ) -> Iterator[Tuple[List[Constraint], Expr]]:
        """Quantifier instantiations of a fact covering the goal cell.

        Index matching binds quantified variables appearing in the
        fact's index expressions; variables constrained only through the
        bounds (the partial dimension of a strided slab) get a small set
        of boundary witnesses.  Each yielded assignment carries the
        conditions under which the fact applies.
        """
        if len(fact.indices) != len(goal.indices):
            return
        sigma: Dict[Expr, Expr] = {}
        verify: List[Constraint] = []
        pending = list(range(len(fact.indices)))
        for _ in range(len(pending) + 1):
            progressed = False
            remaining = []
            for dim in pending:
                index = substitute_many(fact.indices[dim], sigma)
                free = [v for v in fact.vars if v in index.symbols()]
                if not free:
                    diff = simplify(goal.indices[dim] - index)
                    verify.append((diff, False))
                    verify.append((simplify(as_expr(0) - diff), False))
                    progressed = True
                    continue
                if len(free) == 1:
                    decomposition = collect_affine(index, (free[0],))
                    if decomposition is not None:
                        coeff = decomposition[0][free[0]]
                        rest = decomposition[1]
                        if coeff in (1, -1):
                            solved = simplify((goal.indices[dim] - rest) / as_expr(coeff))
                            sigma[sym(free[0])] = solved
                            progressed = True
                            continue
                remaining.append(dim)
            pending = remaining
            if not pending or not progressed:
                break
        if pending:
            return  # a dimension we cannot match
        unbound = [v for v in fact.vars if sym(v) not in sigma]
        witness_lists: List[List[Expr]] = []
        for var in unbound:
            witnesses = self._witness_candidates(fact, var, sigma)
            if not witnesses:
                return
            witness_lists.append(witnesses[:8])
        import itertools

        count = 0
        for combo in itertools.product(*witness_lists) if witness_lists else [()]:
            count += 1
            if count > 32:
                return
            assignment = dict(sigma)
            for var, value in zip(unbound, combo):
                assignment[sym(var)] = simplify(substitute_many(value, assignment))
            conditions = list(verify)
            usable = True
            for bound in fact.bounds:
                value = assignment.get(sym(bound.var))
                if value is None:
                    usable = False
                    break
                lower = substitute_many(bound.lower, assignment)
                upper = substitute_many(bound.upper, assignment)
                conditions.append((simplify(value - lower), bound.lower_strict))
                conditions.append((simplify(upper - value), bound.upper_strict))
            if not usable:
                continue
            rhs = simplify(substitute_many(fact.rhs, assignment))
            yield conditions, rhs

    def _witness_candidates(
        self, fact: _Fact, var: str, sigma: Mapping[Expr, Expr]
    ) -> List[Expr]:
        """Witnesses for a quantified variable not fixed by index matching.

        The goal's own generic-point symbols come first: when the goal
        conjunct is (a sub-region of) the same slab shape as the fact —
        by far the common case in initiation and exit clauses — the
        goal's partial-dimension variable instantiates the fact
        directly and every region condition is entailed outright.
        Boundary values of the fact's bounds follow, for the genuinely
        partial coverages (consecution across a strided loop).
        """
        candidates: List[Expr] = []
        used = set()
        for value in sigma.values():
            used |= value.symbols()
        for goal_sym in self._goal_syms:
            if goal_sym.name not in used:
                candidates.append(goal_sym)

        def note(expr: Optional[Expr]) -> None:
            if expr is None:
                return
            free = {v for v in fact.vars if v in expr.symbols() and sym(v) not in sigma and v != var}
            if free:
                return
            expr = simplify(substitute_many(expr, sigma))
            if all(repr(expr) != repr(existing) for existing in candidates):
                candidates.append(expr)

        for bound in fact.bounds:
            for raw, from_lower, strict in (
                (bound.lower, True, bound.lower_strict),
                (bound.upper, False, bound.upper_strict),
            ):
                exprs = [raw]
                atom = _find_minmax(iter([raw]))
                if atom is not None:
                    exprs.extend(atom.args)
                for expr in exprs:
                    if bound.var == var and var not in expr.symbols():
                        # The variable's own range endpoints.
                        if strict:
                            offset = as_expr(1) if from_lower else as_expr(-1)
                            note(simplify(expr + offset))
                        else:
                            note(expr)
                    elif var in expr.symbols():
                        # A bound of another variable mentioning ours:
                        # make it tight and solve.
                        anchor = sigma.get(sym(bound.var))
                        if anchor is None:
                            continue
                        decomposition = collect_affine(expr, (var,))
                        if decomposition is None:
                            continue
                        coeff, rest = decomposition[0][var], decomposition[1]
                        if coeff in (1, -1):
                            note(simplify((anchor - rest) / as_expr(coeff)))
        return candidates

    # -- targets ----------------------------------------------------------
    def prove_target(self) -> Optional[str]:
        target = self.clause.target
        if target.kind == "post":
            conjuncts = self.candidate.post.conjuncts
            inequalities: Tuple = ()
            equalities: Tuple = ()
        else:
            invariant = self.candidate.invariants.get(target.loop_id or "")
            if invariant is None:
                return f"no invariant for loop {target.loop_id!r}"
            conjuncts = invariant.conjuncts
            inequalities = invariant.inequalities
            equalities = invariant.equalities
        for ineq in inequalities:
            upper = simplify(substitute(ineq.upper, self.env))
            var = simplify(substitute(sym(ineq.var), self.env))
            if self._decide(self.base, (simplify(upper - var), ineq.strict)) != "yes":
                return f"inequality {ineq.describe()}"
        for eq in equalities:
            lhs = self.env.get(eq.var, sym(eq.var))
            rhs = self._resolve_reads(simplify(substitute(eq.rhs, self.env)))
            if rhs is None or not self._values_equal(self.base, lhs, rhs):
                return f"equality {eq.describe()}"
        for position, conjunct in enumerate(conjuncts):
            reason = self._prove_conjunct(conjunct)
            if reason is not None:
                return f"conjunct #{position}: {reason}"
        return None

    def _resolve_reads(self, expr: Expr) -> Optional[Expr]:
        """Rewrite reads of prefix-modified arrays through the chains."""
        if not (expr.arrays() & set(self.chains)):
            return expr
        if isinstance(expr, ArrayCell):
            indices = []
            for index in expr.indices:
                resolved = self._resolve_reads(index)
                if resolved is None:
                    return None
                indices.append(resolved)
            if expr.array in self.chains:
                return self._read_array(expr.array, tuple(indices))
            return ArrayCell(expr.array, tuple(indices))
        children = expr.children()
        if not children:
            return expr
        new_children = []
        for child in children:
            resolved = self._resolve_reads(child)
            if resolved is None:
                return None
            new_children.append(resolved)
        return expr.with_children(new_children)

    def _prove_conjunct(self, conjunct: QuantifiedConstraint) -> Optional[str]:
        if conjunct.guard is not None:
            return "guarded constraint"
        mapping: Dict[str, Expr] = dict(self.env)
        gamma = list(self.base)
        goal_syms: List[Sym] = []
        for bound in conjunct.bounds:
            fresh = self._fresh_sym("g")
            goal_syms.append(fresh)
            lower = simplify(substitute(bound.lower, mapping))
            upper = simplify(substitute(bound.upper, mapping))
            mapping[bound.var] = fresh
            self._add_ge0(gamma, simplify(fresh - lower), strict=bound.lower_strict)
            self._add_ge0(gamma, simplify(upper - fresh), strict=bound.upper_strict)
        self._goal_syms = tuple(goal_syms)
        indices = tuple(simplify(substitute(i, mapping)) for i in conjunct.out_eq.indices)
        rhs = self._resolve_reads(simplify(substitute(conjunct.out_eq.rhs, mapping)))
        if rhs is None:
            return "right-hand side reads a modified array ambiguously"
        goal = _CellGoal(conjunct.out_eq.array, indices, rhs)
        if self.prove_cell(gamma, goal, depth=0):
            return None
        return f"cell {conjunct.out_eq.array}{[repr(i) for i in indices]} not covered"

    # -- entry point -------------------------------------------------------
    def run(self) -> ClauseProof:
        name = self.clause.name
        try:
            reason = self.build_context()
            if reason is None:
                reason = self.exec_prefix()
            if reason is None:
                reason = self.prove_target()
        except _Budget:
            return ClauseProof(name, "bounded_only", REASON_BUDGET)
        except (ZeroDivisionError, ConversionError) as exc:
            return ClauseProof(name, "bounded_only", f"symbolic evaluation failed: {exc}")
        if reason is None:
            return ClauseProof(name, "proved")
        return ClauseProof(name, "bounded_only", reason)


def substitute_many(expr: Expr, mapping: Mapping[Expr, Expr]) -> Expr:
    """``substitute_map`` that tolerates an empty mapping cheaply."""
    if not mapping:
        return expr
    from repro.symbolic.expr import substitute_map

    return substitute_map(expr, mapping)


# ---------------------------------------------------------------------------
# Public prover
# ---------------------------------------------------------------------------


# Clause proofs one prover keeps (see ``InductiveProver._prove_clause``).
_PROOF_MEMO_MAX = 1 << 14


class InductiveProver:
    """Tier 3: discharge a candidate's VC for all array sizes.

    ``max_ops`` bounds the FM/decision work per clause and ``max_depth``
    the case-split nesting; exhausting either degrades the clause to
    ``bounded_only``, never to a wrong answer.

    One prover serves every candidate of one kernel, and clause proofs
    are memoised across them (see :meth:`_prove_clause`).
    """

    def __init__(self, vc: VCProblem, max_ops: int = 200_000, max_depth: int = 12):
        self.vc = vc
        self.max_ops = max_ops
        self.max_depth = max_depth
        # Clause key -> (formulas, ops, proof) of a search that finished;
        # (clause key, budget) -> the same for one that exhausted it.
        # The stored formulas keep the ids inside the key valid.
        self._proofs: Dict[tuple, Tuple[tuple, int, ClauseProof]] = {}

    def prove(
        self,
        candidate: CandidateSummary,
        fail_fast: bool = False,
        only=None,
        max_ops: Optional[int] = None,
    ) -> InductiveOutcome:
        """Prove every VC clause (or the subset selected by ``only``).

        ``fail_fast`` stops at the first unproved clause, marking the
        remaining ones ``skipped`` — used while CEGIS is still searching,
        where any failure already disqualifies the candidate.  ``only``
        is a clause predicate; unselected clauses are ``skipped`` and do
        not affect the verdict (used for the cheap postcondition-clause
        pre-filter).  ``max_ops`` overrides the per-clause budget.
        """
        budget = self.max_ops if max_ops is None else max_ops
        proofs: List[ClauseProof] = []
        subgoals = 0
        failed = False
        for index, clause in enumerate(self.vc.clauses):
            if (failed and fail_fast) or (only is not None and not only(clause)):
                proofs.append(ClauseProof(clause.name, "skipped"))
                continue
            proof, ops = self._prove_clause(index, clause, candidate, budget)
            proofs.append(proof)
            subgoals += ops
            if not proof.proved:
                failed = True
        verdict = Verdict.BOUNDED_ONLY if failed else Verdict.PROVED
        return InductiveOutcome(verdict=verdict, clauses=tuple(proofs), subgoals=subgoals)

    def _prove_clause(
        self, index: int, clause: VCClause, candidate: CandidateSummary, budget: int
    ) -> Tuple[ClauseProof, int]:
        """One clause's ``(proof, ops)``, memoised across candidates.

        A clause proof reads only ``clause.candidate_formulas`` of the
        candidate, so their shapes key it.  The search is deterministic
        and the budget only cuts it short: a search that finished within
        ``ops`` answers every budget of at least ``ops``, one that
        exhausted its budget only that budget.
        """
        from repro.compile.predcomp import _shape

        formulas = clause.candidate_formulas(candidate)
        key = (index, _shape(formulas))
        hit = self._proofs.get(key)
        if hit is not None and hit[1] <= budget:
            return hit[2], hit[1]
        hit = self._proofs.get((key, budget))
        if hit is not None:
            return hit[2], hit[1]
        prover = _ClauseProver(self.vc, clause, candidate, budget, self.max_depth)
        proof = prover.run()
        if len(self._proofs) < _PROOF_MEMO_MAX:
            finished = proof.reason != REASON_BUDGET
            self._proofs[key if finished else (key, budget)] = (formulas, prover.ops, proof)
        return proof, prover.ops

    def proves_postcondition(self, candidate: CandidateSummary) -> bool:
        """Cheap pre-filter: do the postcondition clauses alone prove?

        Candidates whose truth depends on the sampled grid sizes
        (vacuous or wrong quantifier bounds) typically die here, before
        any bounded verification is spent on them.  The budget is
        deliberately small, and exhausting it is *not* treated as a
        rejection: a post clause that merely needs more work than the
        quick budget allows keeps its candidate in the running (the full
        prove decides later), so the filter only ever discards
        definitive fast failures.
        """
        outcome = self.prove(
            candidate,
            fail_fast=True,
            only=lambda c: c.target.kind == "post",
            max_ops=min(self.max_ops, 25_000),
        )
        if outcome.proved:
            return True
        return any(c.reason == REASON_BUDGET for c in outcome.clauses)


# ---------------------------------------------------------------------------
# Proof certificates
# ---------------------------------------------------------------------------


@dataclass
class ProofCertificate:
    """A replayable record of what the inductive prover established.

    The certificate pins the prover version, the kernel's structural
    fingerprint and a digest of the candidate summary it proved;
    :func:`revalidate_certificate` re-runs the (fast, deterministic)
    prover against the rehydrated candidate so a cache replay never
    trusts a stale proof.
    """

    prover_version: str
    kernel_fingerprint: str
    candidate_digest: str
    proved: bool
    clauses: Tuple[ClauseProof, ...]

    @property
    def level(self) -> str:
        return "proved" if self.proved else "bounded_only"


def candidate_digest(candidate: CandidateSummary) -> str:
    """Stable content digest of a candidate's postcondition and invariants."""
    from repro.cache.serialize import invariant_to_json, postcondition_to_json

    payload = {
        "post": postcondition_to_json(candidate.post),
        "invariants": {
            loop_id: invariant_to_json(inv)
            for loop_id, inv in sorted(candidate.invariants.items())
        },
        # A constant entry; it keeps the digests of stored certificates valid.
        "strided_exact": True,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def make_certificate(
    kernel: ir.Kernel, candidate: CandidateSummary, outcome: InductiveOutcome
) -> ProofCertificate:
    # A certificate only claims "proved" when every clause was actually
    # evaluated and proved — outcomes from filtered (``only``) or
    # fail-fast runs with skipped clauses can never be promoted.
    fully_proved = outcome.proved and all(c.status == "proved" for c in outcome.clauses)
    return ProofCertificate(
        prover_version=INDUCTIVE_PROVER_VERSION,
        kernel_fingerprint=fingerprint_kernel(kernel),
        candidate_digest=candidate_digest(candidate),
        proved=fully_proved,
        clauses=outcome.clauses,
    )


def certificate_to_json(certificate: ProofCertificate) -> Dict:
    return {
        "prover_version": certificate.prover_version,
        "kernel": certificate.kernel_fingerprint,
        "candidate": certificate.candidate_digest,
        "proved": certificate.proved,
        "clauses": [
            {"clause": c.clause, "status": c.status, "reason": c.reason}
            for c in certificate.clauses
        ],
    }


def certificate_from_json(data: Mapping) -> ProofCertificate:
    return ProofCertificate(
        prover_version=str(data["prover_version"]),
        kernel_fingerprint=str(data["kernel"]),
        candidate_digest=str(data["candidate"]),
        proved=bool(data["proved"]),
        clauses=tuple(
            ClauseProof(str(c["clause"]), str(c["status"]), str(c.get("reason", "")))
            for c in data["clauses"]
        ),
    )


def revalidate_certificate(
    certificate: ProofCertificate,
    kernel: ir.Kernel,
    candidate: CandidateSummary,
    prover: Optional[InductiveProver] = None,
    reprove: bool = True,
) -> bool:
    """Check a stored certificate against a rehydrated candidate.

    Digest checks always run: a certificate recorded for a different
    kernel, a different candidate summary, or by an older prover never
    revalidates.  With ``reprove`` (the default) a ``proved``
    certificate is additionally re-proved by the deterministic prover,
    so even a forged "proved" label inside the store is caught.  The
    cache's warm-replay path passes ``reprove=False`` — the digests pin
    the certificate to the exact summary being replayed, and re-proving
    every warm hit would forfeit the cache's raison d'être (the test
    suite exercises the full re-proof instead).
    """
    if certificate.prover_version != INDUCTIVE_PROVER_VERSION:
        return False
    if certificate.kernel_fingerprint != fingerprint_kernel(kernel):
        return False
    if certificate.candidate_digest != candidate_digest(candidate):
        return False
    if not certificate.proved or not reprove:
        return True
    if prover is None:
        from repro.vcgen.hoare import generate_vc

        prover = InductiveProver(generate_vc(kernel))
    outcome = prover.prove(candidate, fail_fast=True)
    return outcome.proved
