"""Simplification, expansion and affine analysis of symbolic expressions.

STNG needs only a narrow slice of computer algebra:

* affine normalisation of index expressions (flattened array accessors
  are affine in the loop counters and grid dimensions), used by
  accessor recovery (:mod:`repro.backend.accessors`);
* substitution of symbols by expressions, used by the concrete-symbolic
  interpreter and the verifier; and
* a canonicalising ``simplify`` so that two computations that differ
  only by reassociation or constant folding compare equal, used when
  checking a candidate summary against observed symbolic outputs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from repro.symbolic.expr import (
    Add,
    ArrayCell,
    Call,
    Const,
    Div,
    Expr,
    Mul,
    Neg,
    Sub,
    Sym,
    add,
    as_expr,
    const,
    div,
    mul,
    sub,
)

Number = Fraction


def substitute(expr: Expr, bindings: Mapping[str, "Expr | int | float"]) -> Expr:
    """Replace symbols by name with the given expressions.

    Array cells are descended into so that index expressions are also
    substituted, but the array *name* itself is never rewritten.
    Shared (interned) subtrees are rewritten once per call via an
    identity-keyed memo.
    """
    memo: Dict[int, Expr] = {}

    def rec(node: Expr) -> Expr:
        done = memo.get(id(node))
        if done is not None:
            return done
        if isinstance(node, Sym):
            result = as_expr(bindings[node.name]) if node.name in bindings else node
        else:
            children = node.children()
            if not children:
                result = node
            else:
                new_children = [rec(c) for c in children]
                if all(n is o for n, o in zip(new_children, children)):
                    result = node
                else:
                    result = node.with_children(new_children)
        memo[id(node)] = result
        return result

    return rec(expr)


# ---------------------------------------------------------------------------
# Linear-combination canonical form
# ---------------------------------------------------------------------------
#
# ``simplify`` works by flattening an expression into a linear combination
#     sum_i  coeff_i * basis_i  +  constant
# where each basis term is a non-linear atom (symbol, array cell, call,
# product of atoms, or a division).  Atoms are recursively simplified
# first, so nested structures canonicalise bottom-up.


# Canonical forms keyed by the *identity* of the (interned) input node,
# with the node kept alive so its id stays valid.  Structural keying
# would conflate a float constant with a numerically-equal Fraction
# constant — they compare equal but canonicalise differently — making
# the result depend on which twin warmed the cache.  ``simplify`` is
# pure, so identity memoisation is behaviour-preserving; the
# deterministic size cap keeps long batch runs bounded.
_SIMPLIFY_CACHE: Dict[int, Tuple[Expr, Expr]] = {}
_SIMPLIFY_CACHE_MAX = 1 << 17

# Memo tables of other modules whose keys are built from these canonical
# forms (the Fourier–Motzkin verdict memo of
# ``repro.analysis.presburger`` appends its tables on import), so one
# call forgets everything a lift warmed without this package importing
# theirs.
_DERIVED_TABLES: List[dict] = []


def clear_simplify_cache() -> None:
    """Drop memoised canonical forms and the tables derived from them."""
    _SIMPLIFY_CACHE.clear()
    for table in _DERIVED_TABLES:
        table.clear()


def simplify(expr: Expr) -> Expr:
    """Return a canonical form of ``expr``.

    Two expressions that are equal as polynomial/affine combinations of
    the same atoms simplify to structurally identical trees.  Division
    is only folded when the divisor is a constant.
    """
    cached = _SIMPLIFY_CACHE.get(id(expr))
    if cached is not None:
        return cached[1]
    result = _rebuild(_linearize(expr))
    if len(_SIMPLIFY_CACHE) >= _SIMPLIFY_CACHE_MAX:
        _SIMPLIFY_CACHE.clear()
    _SIMPLIFY_CACHE[id(expr)] = (expr, result)
    return result


def expand(expr: Expr) -> Expr:
    """Distribute products over sums and simplify.

    This is sufficient for the affine index expressions produced by
    flattening multidimensional arrays (e.g. ``(i - imin) * ncols + j``).
    """
    return simplify(expr)


def _atom_key(expr: Expr) -> str:
    return repr(expr)


class _Combo:
    """A linear combination of atomic terms plus a constant."""

    __slots__ = ("terms", "constant")

    def __init__(self) -> None:
        self.terms: Dict[str, Tuple[Expr, Number]] = {}
        self.constant: Number = Fraction(0)

    def add_const(self, value: Number) -> None:
        self.constant = self.constant + value

    def add_term(self, atom: Expr, coeff: Number) -> None:
        if coeff == 0:
            return
        key = _atom_key(atom)
        if key in self.terms:
            existing_atom, existing = self.terms[key]
            total = existing + coeff
            if total == 0:
                del self.terms[key]
            else:
                self.terms[key] = (existing_atom, total)
        else:
            self.terms[key] = (atom, coeff)

    def merge(self, other: "_Combo", sign: int = 1) -> None:
        self.add_const(other.constant * sign)
        for atom, coeff in other.terms.values():
            self.add_term(atom, coeff * sign)

    def scale(self, factor: Number) -> "_Combo":
        result = _Combo()
        result.constant = self.constant * factor
        for key, (atom, coeff) in self.terms.items():
            if coeff * factor != 0:
                result.terms[key] = (atom, coeff * factor)
        return result

    def is_constant(self) -> bool:
        return not self.terms


def _as_number(value) -> Optional[Number]:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if value == int(value):
            return Fraction(int(value))
        return Fraction(value).limit_denominator(10**9)
    return None


def _linearize(expr: Expr) -> _Combo:
    combo = _Combo()
    if isinstance(expr, Const):
        num = _as_number(expr.value)
        if num is None:
            combo.add_term(expr, Fraction(1))
        else:
            combo.add_const(num)
        return combo
    if isinstance(expr, Add):
        combo.merge(_linearize(expr.left))
        combo.merge(_linearize(expr.right))
        return combo
    if isinstance(expr, Sub):
        combo.merge(_linearize(expr.left))
        combo.merge(_linearize(expr.right), sign=-1)
        return combo
    if isinstance(expr, Neg):
        combo.merge(_linearize(expr.operand), sign=-1)
        return combo
    if isinstance(expr, Mul):
        left = _linearize(expr.left)
        right = _linearize(expr.right)
        if left.is_constant():
            return right.scale(left.constant)
        if right.is_constant():
            return left.scale(right.constant)
        atom = mul(_rebuild(left), _rebuild(right))
        combo.add_term(atom, Fraction(1))
        return combo
    if isinstance(expr, Div):
        numer = _linearize(expr.left)
        denom = _linearize(expr.right)
        if denom.is_constant() and denom.constant != 0:
            return numer.scale(Fraction(1) / denom.constant)
        atom = div(_rebuild(numer), _rebuild(denom))
        combo.add_term(atom, Fraction(1))
        return combo
    if isinstance(expr, ArrayCell):
        atom = ArrayCell(expr.array, tuple(simplify(i) for i in expr.indices))
        combo.add_term(atom, Fraction(1))
        return combo
    if isinstance(expr, Call):
        atom = Call(expr.func, tuple(simplify(a) for a in expr.args))
        combo.add_term(atom, Fraction(1))
        return combo
    # Unknown atoms (symbols and anything future) are kept opaque.
    combo.add_term(expr, Fraction(1))
    return combo


def _coeff_expr(coeff: Number) -> Expr:
    if coeff.denominator == 1:
        return const(int(coeff))
    return const(coeff)


def _rebuild(combo: _Combo) -> Expr:
    # Deterministic ordering keeps canonical forms stable across runs.
    parts = []
    for key in sorted(combo.terms):
        atom, coeff = combo.terms[key]
        if coeff == 1:
            parts.append(atom)
        elif coeff == -1:
            parts.append(("neg", atom))
        else:
            parts.append(mul(_coeff_expr(coeff), atom))
    result: Optional[Expr] = None
    for part in parts:
        if isinstance(part, tuple):
            _, atom = part
            if result is None:
                result = sub(const(0), atom)
            else:
                result = sub(result, atom)
        else:
            result = part if result is None else add(result, part)
    if combo.constant != 0 or result is None:
        const_expr = _coeff_expr(combo.constant)
        if result is None:
            result = const_expr
        elif combo.constant > 0:
            result = add(result, const_expr)
        else:
            result = sub(result, _coeff_expr(-combo.constant))
    return result


# ---------------------------------------------------------------------------
# Affine analysis
# ---------------------------------------------------------------------------

def collect_affine(expr: Expr, variables: Tuple[str, ...]) -> Optional[Tuple[Dict[str, Fraction], Expr]]:
    """Decompose ``expr`` as ``sum_i c_i * v_i + rest``.

    ``variables`` names the symbols to collect coefficients for.  The
    remainder ``rest`` must not mention any of those variables; if it
    would (e.g. the expression is quadratic in a variable), ``None`` is
    returned.  Used by accessor recovery to match flattened index
    expressions against multidimensional strides.
    """
    combo = _linearize(expr)
    coeffs: Dict[str, Fraction] = {v: Fraction(0) for v in variables}
    rest = _Combo()
    rest.constant = combo.constant
    for atom, coeff in combo.terms.values():
        if isinstance(atom, Sym) and atom.name in coeffs:
            coeffs[atom.name] += coeff
            continue
        if atom.symbols() & set(variables):
            return None
        rest.add_term(atom, coeff)
    return coeffs, _rebuild(rest)


def is_affine_in(expr: Expr, variables: Tuple[str, ...]) -> bool:
    """True when ``expr`` is an affine combination of ``variables``."""
    return collect_affine(expr, variables) is not None
