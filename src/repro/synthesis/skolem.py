"""Partial Skolemization (§4.3).

Synthesis is an exists-forall problem, but the universally quantified
invariants occurring *negatively* (as clause premises) introduce an
extra existential alternation: to use a premise ``forall v. bounds(v) ->
out[v] = rhs(v)`` the checker must pick which instantiations ``v`` to
rely on.  Full Skolemization would synthesize a function computing the
needed ``v`` from the other variables; partial Skolemization instead
supplies a *small set* of candidate instantiations and lets the check
try each.

In our evaluation-based setting the corresponding optimisation is to
instantiate a premise invariant only at a witness set of index points
(the cells the conclusion and the loop body can possibly touch) instead
of over its whole quantified range.  The witness set is derived from
the stencil's radius, so it is a sound over-approximation for the
clauses our VCs produce; the synthesizer uses it during candidate
checking (where the paper allows unsound shortcuts — any mistake is
caught by full verification), and an ablation benchmark measures the
speed-up it buys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.predicates.language import Invariant, Postcondition, QuantifiedConstraint
from repro.symbolic.expr import ArrayCell, Const, Expr, Sym
from repro.symbolic.simplify import collect_affine, simplify


@dataclass(frozen=True)
class WitnessSet:
    """Per-array index offsets a premise instantiation must cover."""

    array: str
    offsets: Tuple[Tuple[int, ...], ...]

    def radius(self) -> int:
        if not self.offsets:
            return 0
        return max(max(abs(component) for component in offset) for offset in self.offsets)


def _constraint_offsets(constraint: QuantifiedConstraint) -> Dict[str, Set[Tuple[int, ...]]]:
    """Offsets (relative to the quantified point) of every array read in a conjunct."""
    quantified = list(constraint.quantified_vars())
    result: Dict[str, Set[Tuple[int, ...]]] = {}
    for node in constraint.out_eq.rhs.walk():
        if not isinstance(node, ArrayCell):
            continue
        offsets: List[int] = []
        usable = True
        for index in node.indices:
            decomposition = collect_affine(simplify(index), tuple(quantified))
            if decomposition is None:
                usable = False
                break
            coeffs, rest = decomposition
            nonzero = [(name, c) for name, c in coeffs.items() if c != 0]
            if len(nonzero) > 1:
                usable = False
                break
            rest_const = simplify(rest)
            if isinstance(rest_const, Const) and not rest_const.symbols():
                offsets.append(int(rest_const.value))
            else:
                offsets.append(0)
        if not usable:
            continue
        result.setdefault(node.array, set()).add(tuple(offsets))
    return result


def partial_skolem_witnesses(
    post: Postcondition,
    invariants: Optional[Dict[str, Invariant]] = None,
) -> List[WitnessSet]:
    """Compute the witness offset sets for a candidate summary.

    The returned sets name, per input array, the neighbourhood offsets
    the summary reads; instantiating a premise invariant at the cells
    the conclusion mentions *plus* these offsets is sufficient for the
    clause checks our VCs generate.
    """
    collected: Dict[str, Set[Tuple[int, ...]]] = {}
    constraints: List[QuantifiedConstraint] = list(post.conjuncts)
    for invariant in (invariants or {}).values():
        constraints.extend(invariant.conjuncts)
    for constraint in constraints:
        for array, offsets in _constraint_offsets(constraint).items():
            collected.setdefault(array, set()).update(offsets)
    return [
        WitnessSet(array=array, offsets=tuple(sorted(offsets)))
        for array, offsets in sorted(collected.items())
    ]


def skolem_radius(post: Postcondition, invariants: Optional[Dict[str, Invariant]] = None) -> int:
    """The stencil radius implied by a candidate summary (0 for pointwise maps)."""
    witnesses = partial_skolem_witnesses(post, invariants)
    if not witnesses:
        return 0
    return max(w.radius() for w in witnesses)
