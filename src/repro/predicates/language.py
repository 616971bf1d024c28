"""AST of the predicate language (stylised grammar of Figure 4).

The grammar, restricted to stencil-like operations on multidimensional
arrays, is::

    post      := AND_i  forall lb1 (<|<=) v1 (<|<=) ub1, ... . outEq_i
    invariant := AND_i ineq_i  AND  forall v1..vN. (AND_k bound_k) -> outEq_i
    outEq     := out[v1, ..., vN] = exp
    exp       := term op exp
    term      := w * in[idx...] | floatvar | f(term)
    idx       := v_i + c | intvar | c | in[idx...]

Right-hand sides (``exp``) and bound expressions (``bndExp``) are
represented with the symbolic expression trees of
:mod:`repro.symbolic.expr`; the classes here add the quantifier
structure around them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.symbolic.expr import ArrayCell, Expr, Sym


@dataclass(frozen=True)
class Bound:
    """One quantifier bound ``lower (<|<=) var (<|<=) upper``.

    ``lower_strict``/``upper_strict`` select ``<`` versus ``<=`` on each
    side.  The bounds themselves are ``bndExp`` expressions — integer
    variables, constants, sums, ``min``/``max`` (encoded as calls).
    """

    var: str
    lower: Expr
    upper: Expr
    lower_strict: bool = False
    upper_strict: bool = False

    def describe(self) -> str:
        lo_op = "<" if self.lower_strict else "<="
        hi_op = "<" if self.upper_strict else "<="
        return f"{self.lower!r} {lo_op} {self.var} {hi_op} {self.upper!r}"


@dataclass(frozen=True)
class OutEq:
    """``out[v1, ..., vN] = rhs`` — the body of one quantified constraint."""

    array: str
    indices: Tuple[Expr, ...]
    rhs: Expr

    def describe(self) -> str:
        idx = ", ".join(repr(i) for i in self.indices)
        return f"{self.array}[{idx}] = {self.rhs!r}"

    def ast_size(self) -> int:
        """Number of AST nodes (indices plus right-hand side plus the equality)."""
        return 1 + sum(i.size() for i in self.indices) + self.rhs.size()


@dataclass(frozen=True)
class QuantifiedConstraint:
    """``forall bounds. outEq`` — one conjunct of a post/invariant.

    ``guard`` optionally restricts the constraint further (used for the
    conditional-stencil extension of §6.6, where the right-hand side is
    selected by a condition on data or location).
    """

    bounds: Tuple[Bound, ...]
    out_eq: OutEq
    guard: Optional[Expr] = None

    def quantified_vars(self) -> Tuple[str, ...]:
        return tuple(b.var for b in self.bounds)

    def ast_size(self) -> int:
        size = self.out_eq.ast_size()
        for bound in self.bounds:
            size += 1 + bound.lower.size() + bound.upper.size()
        if self.guard is not None:
            size += self.guard.size()
        return size


@dataclass(frozen=True)
class ScalarInequality:
    """``var (<|<=) bndExp`` — scalar conjunct of an invariant (e.g. ``j <= jmax+1``)."""

    var: str
    upper: Expr
    strict: bool = False

    def describe(self) -> str:
        op = "<" if self.strict else "<="
        return f"{self.var} {op} {self.upper!r}"


@dataclass(frozen=True)
class ScalarEquality:
    """``floatvar = exp`` — scalar conjunct of an invariant.

    Hand-optimised stencils commonly rotate values through scalar
    temporaries (the running example's ``t``); proving preservation of
    the quantified part requires the invariant to pin such temporaries
    to the array cells they cache.  Figure 4's stylised grammar elides
    this form, but it is required to lift the paper's own running
    example, so we include it explicitly.
    """

    var: str
    rhs: Expr

    def describe(self) -> str:
        return f"{self.var} = {self.rhs!r}"


@dataclass(frozen=True)
class Postcondition:
    """A conjunction of universally quantified ``outEq`` constraints."""

    conjuncts: Tuple[QuantifiedConstraint, ...]

    def output_arrays(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for conjunct in self.conjuncts:
            if conjunct.out_eq.array not in seen:
                seen.append(conjunct.out_eq.array)
        return tuple(seen)

    def ast_size(self) -> int:
        """Total AST node count — the paper's "Postcon AST Nodes" metric."""
        return sum(c.ast_size() for c in self.conjuncts)

    def conjunct_for(self, array: str) -> QuantifiedConstraint:
        for conjunct in self.conjuncts:
            if conjunct.out_eq.array == array:
                return conjunct
        raise KeyError(f"no conjunct for output array {array!r}")


@dataclass(frozen=True)
class Invariant:
    """A loop invariant: scalar conjuncts plus quantified constraints.

    For the running example's outer loop this is
    ``j <= jmax+1  AND  forall imin+1 <= i <= imax, jmin <= j' < j.
    a[i,j'] = b[i-1,j'] + b[i,j']``; the inner loop's invariant
    additionally carries the partial-row conjunct and the scalar
    equality ``t = b[i-1, j]``.
    """

    loop_counter: str
    inequalities: Tuple[ScalarInequality, ...]
    conjuncts: Tuple[QuantifiedConstraint, ...]
    equalities: Tuple[ScalarEquality, ...] = ()

    def ast_size(self) -> int:
        size = sum(c.ast_size() for c in self.conjuncts)
        for ineq in self.inequalities:
            size += 1 + ineq.upper.size()
        for eq in self.equalities:
            size += 1 + eq.rhs.size()
        return size


# ---------------------------------------------------------------------------
# Structural helpers shared by the synthesizer and the restriction checker
# ---------------------------------------------------------------------------

def rhs_has_non_output_term(
    rhs: Expr,
    output_arrays: Iterable[str],
    quantified_vars: Iterable[str] = (),
) -> bool:
    """True when the right-hand side has at least one non-output term.

    This is the restriction that rules out trivial postconditions such
    as ``a[i,j] = a[i,j]`` (§4.1).  Quantified index variables do not
    count as terms: they only select cells.
    """
    outputs = set(output_arrays)
    quantified = set(quantified_vars)
    for node in rhs.walk():
        if isinstance(node, ArrayCell) and node.array not in outputs:
            return True
        if isinstance(node, Sym) and node.name not in quantified:
            return True
    return False
