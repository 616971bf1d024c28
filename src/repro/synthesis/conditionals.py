"""Conditional-stencil synthesis experiments (§6.6, Figure 5).

The released STNG prototype does not lift stencils with conditionals;
§6.6 measures how much harder synthesis would become by hand-modifying
the SKETCH problem of one benchmark (akl83) with two conditional
grammars: *data-dependent* conditionals (branching on an input value)
and *location-dependent* conditionals (branching on the index, i.e.
boundary conditions).

We reproduce the experiment at the same level: given a kernel whose
body is ``if cond then out = expr1 else out = expr2``, we build the
enlarged candidate space corresponding to each grammar of Figure 5 and
run CEGIS over it.  The guard of the winning candidate becomes the
``guard`` field of the postcondition's quantified constraints, and the
measured control bits / synthesis-time ratios are what the conditionals
benchmark reports.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.ir import nodes as ir
from repro.ir.analysis import input_arrays
from repro.predicates.language import Postcondition, QuantifiedConstraint
from repro.symbolic.expr import Expr, call, cell, const, sym


_COMPARISONS = ("le", "ge", "lt", "gt", "eq", "ne")


@dataclass
class ConditionalGrammar:
    """One of the two conditional grammars of Figure 5."""

    name: str  # "data" or "location"
    comparisons: Tuple[str, ...] = _COMPARISONS
    offset_range: Tuple[int, ...] = (-1, 0, 1)
    constant_range: Tuple[int, ...] = (0, 1, 2)

    def control_bits(self, kernel: ir.Kernel, base_bits: int) -> int:
        """Control bits for the enlarged sketch (base problem + guard holes)."""
        extra = math.log2(len(self.comparisons))
        if self.name == "data":
            arrays = max(len(input_arrays(kernel)), 1)
            # array choice + per-dimension offsets + RHS (constant or float input)
            extra += math.log2(arrays)
            extra += 2 * math.log2(len(self.offset_range))
            float_inputs = sum(1 for d in kernel.scalars if d.scalar_type != "integer")
            extra += math.log2(max(len(self.constant_range) + float_inputs, 2))
        else:
            # index variable choice + integer constant / integer input RHS
            extra += math.log2(2)
            int_inputs = sum(1 for d in kernel.scalars if d.scalar_type == "integer")
            extra += math.log2(max(len(self.constant_range) + int_inputs, 2))
        # Guards appear in the postcondition and in every invariant unknown,
        # mirroring how the hand-modified SKETCH problem grows.
        return int(round(base_bits + extra * 3))

    # ------------------------------------------------------------------
    def enumerate_guards(self, kernel: ir.Kernel, rank: int) -> Iterator[Expr]:
        """Enumerate guard expressions of this grammar.

        Guards are encoded as calls ``cmp(lhs, rhs)`` with ``cmp`` in
        ``lt/le/gt/ge/eq/ne`` so they can be attached to
        :class:`QuantifiedConstraint` and evaluated by the predicate
        evaluator.
        """
        if self.name == "data":
            arrays = input_arrays(kernel)
            float_inputs = [d.name for d in kernel.scalars if d.scalar_type != "integer"]
            offsets = self.offset_range
            for array in arrays:
                for off in itertools.product(offsets, repeat=rank):
                    lhs = cell(array, *[sym(f"v{d}") + off[d] for d in range(rank)])
                    rhs_options: List[Expr] = [const(c) for c in self.constant_range]
                    rhs_options.extend(sym(name) for name in float_inputs)
                    for cmp in self.comparisons:
                        for rhs in rhs_options:
                            yield call(cmp, lhs, rhs)
        else:
            int_inputs = [d.name for d in kernel.scalars if d.scalar_type == "integer"]
            for dim in range(rank):
                lhs = sym(f"v{dim}")
                rhs_options = [const(c) for c in self.constant_range]
                rhs_options.extend(sym(name) for name in int_inputs)
                for cmp in self.comparisons:
                    for rhs in rhs_options:
                        yield call(cmp, lhs, rhs)


DATA_DEPENDENT = ConditionalGrammar(name="data")
LOCATION_DEPENDENT = ConditionalGrammar(name="location")


@dataclass
class ConditionalSynthesisResult:
    """Outcome of one conditional-lifting experiment."""

    grammar: str
    control_bits: int
    synthesis_time: float
    candidates_tried: int
    post: Optional[Postcondition]
    succeeded: bool


def _conditional_postcondition(
    branches: Tuple[QuantifiedConstraint, QuantifiedConstraint],
    guard: Expr,
) -> Postcondition:
    """Postcondition with a guarded conjunct per branch (then / else)."""
    then_c, else_c = branches
    negated = _negate_guard(guard)
    return Postcondition(
        (
            QuantifiedConstraint(then_c.bounds, then_c.out_eq, guard=guard),
            QuantifiedConstraint(else_c.bounds, else_c.out_eq, guard=negated),
        )
    )


_NEGATION = {"lt": "ge", "le": "gt", "gt": "le", "ge": "lt", "eq": "ne", "ne": "eq"}


def _negate_guard(guard: Expr) -> Expr:
    from repro.symbolic.expr import Call

    if isinstance(guard, Call) and guard.func in _NEGATION:
        return call(_NEGATION[guard.func], *guard.args)
    raise ValueError(f"cannot negate guard {guard!r}")


def synthesize_conditional(
    kernel: ir.Kernel,
    then_conjunct: QuantifiedConstraint,
    else_conjunct: QuantifiedConstraint,
    grammar: ConditionalGrammar,
    check_state_factory,
    base_control_bits: int,
    max_candidates: int = 20000,
) -> ConditionalSynthesisResult:
    """Search the guard grammar for a guard making the postcondition correct.

    ``check_state_factory`` produces (state, reference_state) pairs: the
    state before the kernel and the state after the reference execution
    of the conditional kernel; a candidate postcondition is accepted
    when it holds on every reference state.  This mirrors the paper's
    experiment, which measures synthesis cost rather than building the
    full conditional pipeline.
    """
    from repro.predicates.evaluate import PredicateEvalError, evaluate_postcondition

    start = time.perf_counter()
    rank = len(then_conjunct.out_eq.indices)
    states = check_state_factory()
    tried = 0
    for guard in grammar.enumerate_guards(kernel, rank):
        tried += 1
        if tried > max_candidates:
            break
        post = _conditional_postcondition((then_conjunct, else_conjunct), guard)
        ok = True
        for state in states:
            try:
                if not evaluate_postcondition(post, state):
                    ok = False
                    break
            except PredicateEvalError:
                ok = False
                break
        if ok:
            elapsed = time.perf_counter() - start
            return ConditionalSynthesisResult(
                grammar=grammar.name,
                control_bits=grammar.control_bits(kernel, base_control_bits),
                synthesis_time=elapsed,
                candidates_tried=tried,
                post=post,
                succeeded=True,
            )
    elapsed = time.perf_counter() - start
    return ConditionalSynthesisResult(
        grammar=grammar.name,
        control_bits=grammar.control_bits(kernel, base_control_bits),
        synthesis_time=elapsed,
        candidates_tried=tried,
        post=None,
        succeeded=False,
    )
