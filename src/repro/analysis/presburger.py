"""Linear integer arithmetic: Fourier–Motzkin elimination with tightening.

This is the integer-arithmetic engine the Tier-3 inductive prover
(:mod:`repro.verification.inductive`) was built on, extracted so the
static analyses (:mod:`repro.analysis.dependence`,
:mod:`repro.analysis.legality`) share exactly the same decision
procedure instead of growing a second, subtly different one.

A constraint is ``sum_i coeff_i * atom_i + const >= 0`` (``> 0`` when
strict).  Atoms are the non-linear basis terms of ``simplify``'s
canonical form, keyed by repr; atoms known to be integer-valued allow
the classic tightenings (strict -> ``>= 1`` i.e. ``const - 1``, gcd
rounding), which is what lets the engine conclude e.g. ``kt = klo + 4m
∧ kt > klo  ⟹  kt >= klo + 4``.

The engine answers exactly one question — :meth:`FMEngine.infeasible` —
and answers it *soundly but incompletely*: ``True`` means the
conjunction is definitely unsatisfiable over the rationals/integers
(with the integer tightenings applied to all-integer constraints);
``False`` means "could not refute", never "satisfiable".  Every client
must treat ``False`` conservatively — the prover degrades to
``bounded_only``, the dependence analyzer reports ``Unknown``, the
legality checker refuses to certify.

Verdicts are memoised in one process-wide table that every engine
shares, so the prover's clause searches, dependence queries and
legality queries of all kernels lifted in a process reuse each other's
answers.  The key is exact (each row's atoms, coefficients by numeric
type, constant and strictness, in the order given; which atoms are
integer symbols; both caps), and the value is the verdict plus the
number of ``charge`` ticks its search made.  A hit replays those ticks,
so a budgeted caller runs out at exactly the tick where an engine that
remembers nothing would.  ``clear_simplify_cache`` empties the table.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.symbolic.expr import Call, Expr, Sym, _key_part, as_expr
from repro.symbolic.simplify import _DERIVED_TABLES, _linearize, simplify


class LinearConstraint:
    """One linear constraint over opaque atoms (``>= 0``, ``> 0`` if strict)."""

    __slots__ = ("terms", "const", "strict", "tight", "memo_row")

    def __init__(self, terms: Dict[str, Tuple[Expr, Fraction]], const: Fraction, strict: bool):
        self.terms = terms
        self.const = const
        self.strict = strict
        self.tight = False
        self.memo_row: Optional[Tuple[int, Tuple[str, ...]]] = None

    def key(self) -> Tuple:
        return (
            tuple(sorted((k, c) for k, (_a, c) in self.terms.items())),
            self.const,
            self.strict,
        )


def linearize_ge0(expr: Expr, strict: bool) -> LinearConstraint:
    """Linearise ``expr >= 0`` (``> 0`` when strict) into a constraint."""
    combo = _linearize(expr)
    terms = {k: (atom, coeff) for k, (atom, coeff) in combo.terms.items() if coeff != 0}
    return LinearConstraint(terms, combo.constant, strict)


def is_int_atom(atom: Expr, int_syms: Set[str]) -> bool:
    return isinstance(atom, Sym) and atom.name in int_syms


def tighten(lin: LinearConstraint, int_syms: Set[str]) -> LinearConstraint:
    """Integer tightening: strict removal and gcd rounding when sound.

    ``lin.tight`` marks a row that tightens to itself under any
    ``int_syms``, so a row not all-integer here is never marked: the
    result then depends only on the row and which atoms are integers,
    which is what the verdict memo keys on.
    """
    if lin.tight:
        return lin
    if not all(is_int_atom(atom, int_syms) for atom, _c in lin.terms.values()):
        return lin
    coeffs = [c for _a, c in lin.terms.values()]
    if not coeffs:
        if lin.strict and lin.const == int(lin.const):
            result = LinearConstraint({}, lin.const - 1, False)
            result.tight = True
            return result
        lin.tight = True
        return lin
    from math import floor, gcd

    scale = 1
    for c in coeffs:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    if lin.const.denominator != 1:
        scale = scale * lin.const.denominator // gcd(scale, lin.const.denominator)
    const = lin.const * scale
    terms = {k: (a, c * scale) for k, (a, c) in lin.terms.items()}
    strict = lin.strict
    if strict:
        # integral form: f > 0  <=>  f >= 1
        const -= 1
        strict = False
    g = 0
    for _a, c in terms.values():
        g = gcd(g, int(c))
    if g > 1:
        # sum(a_i/g * x_i) >= -c/g  <=>  ... >= ceil(-c/g): floor the constant.
        const = Fraction(floor(Fraction(const, g)))
        terms = {k: (a, Fraction(int(c), g)) for k, (a, c) in terms.items()}
    if scale == 1 and g <= 1 and strict == lin.strict and const == lin.const:
        lin.tight = True
        return lin
    result = LinearConstraint(terms, const, strict)
    result.tight = True
    return result


def _no_charge() -> None:
    return None


# ---------------------------------------------------------------------------
# The process-wide verdict memo
# ---------------------------------------------------------------------------
#
# ``_VERDICTS`` maps a query key to ``(verdict, ticks)``.  A key is the
# two caps, an integer mask, then one row id per row in the order given.
# ``_ROW_IDS`` interns a row's exact content (its sorted ``(atom key, Sym
# name or None, coefficient)`` triples, constant and strictness, numbers
# keyed by ``_key_part`` so ``2``, ``Fraction(2)`` and ``2.0`` stay
# apart) to an id that is never reused, so a key stays exact after
# either table is cleared.  The row ids fix every Sym atom of the query
# in order, and the mask has one bit per Sym atom, set when its name is
# in the engine's ``int_syms``: the only thing the search reads of an
# atom besides its key.  Both tables are cleared whole at
# ``_VERDICTS_MAX`` entries and by ``clear_simplify_cache``.  Lift
# threads share them through single dict operations only: a race can
# drop an entry or compute one twice, and every entry stored is exact.

_VERDICTS: Dict[Tuple, Tuple[bool, int]] = {}
_ROW_IDS: Dict[Tuple, int] = {}
_NEXT_ROW_ID = itertools.count()
_VERDICTS_MAX = 1 << 12
_DERIVED_TABLES.extend((_VERDICTS, _ROW_IDS))


def _memo_row(lin: LinearConstraint) -> Tuple[int, Tuple[str, ...]]:
    """Set and return ``lin.memo_row``: its row id and its Sym names in key order."""
    atoms = []
    for key in sorted(lin.terms):
        atom, coeff = lin.terms[key]
        atoms.append((key, atom.name if isinstance(atom, Sym) else None, _key_part(coeff)))
    content = (tuple(atoms), _key_part(lin.const), lin.strict)
    row_id = _ROW_IDS.get(content)
    if row_id is None:
        if len(_ROW_IDS) >= _VERDICTS_MAX:
            _ROW_IDS.clear()
        row_id = _ROW_IDS.setdefault(content, next(_NEXT_ROW_ID))
    lin.memo_row = (row_id, tuple(name for _k, name, _c in atoms if name is not None))
    return lin.memo_row


def _query_key(
    lins: Sequence[LinearConstraint], int_syms: Set[str], max_constraints: int, focus_last: bool
) -> Tuple:
    row_ids = []
    mask = bit = 0
    for lin in lins:
        row_id, names = lin.memo_row or _memo_row(lin)
        row_ids.append(row_id)
        for name in names:
            if name in int_syms:
                mask |= 1 << bit
            bit += 1
    return (max_constraints, focus_last, mask, *row_ids)


class FMEngine:
    """Feasibility/entailment of conjunctions of linear constraints.

    ``charge`` is an optional callable ticking a caller-owned budget
    (the inductive prover raises its ``_Budget`` exception from it);
    analyses without a budget omit it.
    """

    def __init__(self, int_syms: Set[str], charge=None):
        self.int_syms = int_syms
        self._charge = charge if charge is not None else _no_charge

    def infeasible(
        self,
        lins: Sequence[LinearConstraint],
        max_constraints: int = 256,
        focus_last: bool = False,
    ) -> bool:
        """True only when the conjunction is definitely unsatisfiable.

        With ``focus_last`` the system is restricted to the cone of
        influence of the *last* constraint (the negated goal of an
        entailment query): constraints transitively sharing atoms with
        it.  Any Fourier–Motzkin refutation only ever combines
        constraints along shared atoms, so the restriction loses no
        refutations while keeping the system small enough to stay under
        the elimination caps.

        A query answered before, by any engine, replays the recorded
        number of ``charge`` ticks and returns the recorded verdict.  A
        search that raises out of ``charge`` records nothing.
        """
        key = _query_key(lins, self.int_syms, max_constraints, focus_last)
        charge = self._charge
        known = _VERDICTS.get(key)
        if known is not None:
            verdict, ticks = known
            for _ in range(ticks):
                charge()
            return verdict
        ticks = 0

        def counted() -> None:
            nonlocal ticks
            ticks += 1
            charge()

        verdict = self._search(lins, max_constraints, focus_last, counted)
        if len(_VERDICTS) >= _VERDICTS_MAX:
            _VERDICTS.clear()
        _VERDICTS[key] = (verdict, ticks)
        return verdict

    def _search(
        self,
        lins: Sequence[LinearConstraint],
        max_constraints: int,
        focus_last: bool,
        charge,
    ) -> bool:
        charge()
        work: List[LinearConstraint] = []
        seen = set()
        for lin in lins:
            lin = tighten(lin, self.int_syms)
            if not lin.terms:
                if lin.const < 0 or (lin.strict and lin.const == 0):
                    return True
                continue
            key = lin.key()
            if key not in seen:
                seen.add(key)
                work.append(lin)
        if focus_last and work:
            relevant = set(work[-1].terms)
            selected = [work[-1]]
            remaining = work[:-1]
            changed = True
            while changed:
                changed = False
                still = []
                for lin in remaining:
                    if relevant & set(lin.terms):
                        selected.append(lin)
                        relevant |= set(lin.terms)
                        changed = True
                    else:
                        still.append(lin)
                remaining = still
            work = selected
        atoms = sorted({k for lin in work for k in lin.terms})
        if len(atoms) > 24:
            return False
        while atoms:
            # Eliminate the atom with the cheapest pos*neg product.
            # Alignment auxiliaries (``it_*``) go last: the integer
            # (gcd) tightening that makes ``counter = lower + step*m``
            # facts bite only fires on combinations still mentioning
            # them, so eliminating them early loses integer-only
            # contradictions that are rationally feasible.
            candidates = [a for a in atoms if not a.startswith("it_")] or atoms
            pos_counts: Dict[str, int] = {}
            neg_counts: Dict[str, int] = {}
            for lin in work:
                for key, (_atom, coeff) in lin.terms.items():
                    if coeff > 0:
                        pos_counts[key] = pos_counts.get(key, 0) + 1
                    else:
                        neg_counts[key] = neg_counts.get(key, 0) + 1
            best, best_cost = None, None
            for atom in candidates:
                cost = pos_counts.get(atom, 0) * neg_counts.get(atom, 0)
                if best_cost is None or cost < best_cost:
                    best, best_cost = atom, cost
            atom = best
            atoms.remove(atom)
            pos = [lin for lin in work if lin.terms.get(atom, (None, Fraction(0)))[1] > 0]
            neg = [lin for lin in work if lin.terms.get(atom, (None, Fraction(0)))[1] < 0]
            rest = [lin for lin in work if atom not in lin.terms]
            if len(rest) + len(pos) * len(neg) > max_constraints:
                return False  # give up: cannot prove infeasibility
            charge()
            work = list(rest)
            seen = {lin.key() for lin in work}
            for p in pos:
                charge()
                a = p.terms[atom][1]
                for n in neg:
                    b = n.terms[atom][1]  # b < 0
                    terms: Dict[str, Tuple[Expr, Fraction]] = {}
                    for k, (at, c) in p.terms.items():
                        terms[k] = (at, c * (-b))
                    for k, (at, c) in n.terms.items():
                        if k in terms:
                            total = terms[k][1] + c * a
                            if total == 0:
                                del terms[k]
                            else:
                                terms[k] = (at, total)
                        else:
                            terms[k] = (at, c * a)
                    combined = tighten(
                        LinearConstraint(
                            terms, p.const * (-b) + n.const * a, p.strict or n.strict
                        ),
                        self.int_syms,
                    )
                    if not combined.terms:
                        if combined.const < 0 or (combined.strict and combined.const == 0):
                            return True
                        continue
                    key = combined.key()
                    if key not in seen:
                        seen.add(key)
                        work.append(combined)
        return False


# ---------------------------------------------------------------------------
# Constraints as expressions
# ---------------------------------------------------------------------------
#
# Above the FM boundary a constraint is an ``(expr, strict)`` pair
# meaning ``expr >= 0`` (``> 0`` when strict); expressions keep
# substitution and min/max expansion trivial, and are linearised only at
# the FM boundary.

Constraint = Tuple[Expr, bool]


def negate_constraint(constraint: Constraint) -> Constraint:
    expr, strict = constraint
    return (simplify(as_expr(0) - expr), not strict)


def substitute_constraints(
    constraints: Sequence[Constraint], mapping: Mapping[Expr, Expr]
) -> List[Constraint]:
    from repro.symbolic.expr import substitute_map

    # Only rewrite constraints that actually contain a mapped node —
    # identity checks over the cached walk tuples make the common
    # (unaffected) case nearly free.
    ids = {id(key) for key in mapping}
    out: List[Constraint] = []
    for expr, strict in constraints:
        if any(id(node) in ids for node in expr.walk()):
            out.append((simplify(substitute_map(expr, mapping)), strict))
        else:
            out.append((expr, strict))
    return out


def find_minmax(exprs: Iterator[Expr]) -> Optional[Call]:
    for expr in exprs:
        for node in expr.walk():
            if isinstance(node, Call) and node.func in ("min", "max") and len(node.args) == 2:
                return node
    return None


def constraints_infeasible(
    constraints: Sequence[Constraint],
    int_syms: Set[str],
    max_constraints: int = 256,
    focus_last: bool = False,
) -> bool:
    """Convenience entry for the analyses: linearise then run the engine.

    Soundly incomplete like :meth:`FMEngine.infeasible`: ``True`` is a
    proof of unsatisfiability, ``False`` says nothing.
    """
    engine = FMEngine(int_syms)
    lins = [linearize_ge0(expr, strict) for expr, strict in constraints]
    return engine.infeasible(lins, max_constraints=max_constraints, focus_last=focus_last)
