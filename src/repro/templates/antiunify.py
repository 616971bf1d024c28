"""Anti-unification of symbolic observations (§4.2, template generation step).

Given the symbolic values observed for different output cells, we
compute their *intersection*: positions where all observations agree
are kept, positions where they disagree are replaced by holes
(``MakeHole`` in the paper).  The result is a template such as
``b[pt()] + b[pt()]`` for the running example — it fixes the shape of
the computation (the sum of two reads of ``b``) while leaving the exact
accesses to be discovered by synthesis.

Unlike the paper's binary ``u(e1, e2)`` we generalise an arbitrary list
of expressions at once, which lets each hole remember the full column
of sub-expressions it replaced; the synthesizer uses those columns to
compute candidate completions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.symbolic.expr import ArrayCell, Call, Const, Expr, Sym


@dataclass(frozen=True)
class Hole(Expr):
    """A position to be discovered by synthesis (``pt()`` in the paper).

    ``kind`` is ``"index"`` when the hole sits inside an array
    subscript (its completions are index expressions such as
    ``v0 - 1``) and ``"value"`` otherwise (completions are scalar
    inputs or constants).
    """

    hole_id: int
    kind: str

    def __repr__(self) -> str:
        return f"?{self.kind}{self.hole_id}"


@dataclass
class GeneralizationResult:
    """A template plus, for every hole, the column of replaced sub-expressions."""

    template: Expr
    hole_observations: Dict[int, List[Expr]] = field(default_factory=dict)

    def holes(self) -> List[Hole]:
        return [node for node in self.template.walk() if isinstance(node, Hole)]


class _HoleFactory:
    def __init__(self) -> None:
        self.next_id = 0
        self.observations: Dict[int, List[Expr]] = {}

    def make(self, kind: str, observations: Sequence[Expr]) -> Hole:
        hole = Hole(self.next_id, kind)
        self.observations[self.next_id] = list(observations)
        self.next_id += 1
        return hole


def _same_head(exprs: Sequence[Expr]) -> bool:
    """True when all expressions share the same constructor and head symbol."""
    first = exprs[0]
    cls = type(first)
    if not all(type(e) is cls for e in exprs):
        return False
    if isinstance(first, Const):
        return all(e.value == first.value for e in exprs)  # type: ignore[attr-defined]
    if isinstance(first, Sym):
        return all(e.name == first.name for e in exprs)  # type: ignore[attr-defined]
    if isinstance(first, ArrayCell):
        return all(
            e.array == first.array and len(e.indices) == len(first.indices)  # type: ignore[attr-defined]
            for e in exprs
        )
    if isinstance(first, Call):
        return all(
            e.func == first.func and len(e.args) == len(first.args)  # type: ignore[attr-defined]
            for e in exprs
        )
    # Binary operators and Neg: same class suffices.
    return True


def _generalize(exprs: Sequence[Expr], factory: _HoleFactory, in_index: bool) -> Expr:
    first = exprs[0]
    # Hash-consed construction makes structurally equal observations the
    # same object, so the all-equal column — the overwhelmingly common
    # case — is an identity scan; the structural comparison remains as
    # the fallback for numerically-equal-but-distinct constant nodes.
    if all(e is first for e in exprs) or all(e == first for e in exprs):
        return first
    if _same_head(exprs):
        if isinstance(first, (Const, Sym)):
            # Same head for leaves means equal, handled above; keep for safety.
            return first
        children_lists = [e.children() for e in exprs]
        arity = len(children_lists[0])
        new_children: List[Expr] = []
        child_in_index = in_index or isinstance(first, ArrayCell)
        for position in range(arity):
            column = [children[position] for children in children_lists]
            new_children.append(_generalize(column, factory, child_in_index))
        return first.with_children(new_children)
    kind = "index" if in_index else "value"
    return factory.make(kind, exprs)


def generalize(exprs: Sequence[Expr]) -> GeneralizationResult:
    """Compute the anti-unification of a non-empty list of expressions."""
    if not exprs:
        raise ValueError("cannot generalize an empty list of observations")
    factory = _HoleFactory()
    template = _generalize(list(exprs), factory, in_index=False)
    return GeneralizationResult(template=template, hole_observations=factory.observations)


def anti_unify(left: Expr, right: Expr) -> Expr:
    """Binary anti-unification ``u(e1, e2)`` as defined in the paper."""
    return generalize([left, right]).template
