"""Candidate spaces and SKETCH-style control-bit accounting.

A :class:`SynthesisProblem` packages everything CEGIS needs for one
kernel: the verification condition, the template-derived candidate
space, and a control-bit estimate of how large the corresponding
SKETCH encoding would be.

Control bits model the size of the synthesis problem *before* inductive
template generation narrows it: every array-read index position could be
any ``v_i + c`` / integer input / constant allowed by the grammar, every
quantifier bound could be any ``intvar + c``, and an equally-sized
unknown must be solved per loop invariant.  This is the quantity the
paper's Table 1 reports, and it grows with dimensionality, the number of
reads, and the loop-nest depth exactly as the paper describes, even
though our absolute values are not SKETCH's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.compile.predcomp import _shape
from repro.ir import nodes as ir
from repro.ir.analysis import loop_counters, output_arrays
from repro.predicates.language import (
    Bound,
    Invariant,
    OutEq,
    Postcondition,
    QuantifiedConstraint,
    ScalarEquality,
)
from repro.symbolic.expr import Expr, substitute_map, sym
from repro.templates.antiunify import Hole
from repro.templates.generator import (
    MAX_OFFSET,
    ArrayTemplate,
    ScalarEqualityCandidate,
    TemplateSet,
)
from repro.templates.writes import WriteSiteInfo
from repro.vcgen.hoare import CandidateSummary, VCProblem
from repro.synthesis.invariants import build_invariants


@dataclass
class CandidateSpace:
    """The finite space of candidate summaries for one kernel."""

    template_set: TemplateSet
    vc: VCProblem

    def enumerate(self, limit: Optional[int] = None) -> Iterator[CandidateSummary]:
        """Yield candidate summaries in deterministic order.

        The enumeration is the cartesian product of every hole's
        candidates, every bound's candidates and every scalar equality's
        candidates (with "omit the equality" as a final option).
        Candidates that agree on everything :func:`build_invariants`
        reads (see :func:`invariant_key`) share one invariants dict.
        """
        per_array_choices: List[List[Tuple[str, QuantifiedConstraint]]] = []
        for template in self.template_set.arrays:
            per_array_choices.append(list(self._array_conjuncts(template)))
        equality_choices = self._equality_choices()
        earlier = earlier_nest_arrays(self.template_set.write_sites)
        # Key -> (post, invariants); the entry keeps the post alive so
        # that no id in a key can be recycled.
        built: Dict[tuple, Tuple[Postcondition, Dict[str, Invariant]]] = {}

        produced = 0
        for conjunct_combo in itertools.product(*per_array_choices) if per_array_choices else [()]:
            post = Postcondition(tuple(choice for _, choice in conjunct_combo))
            for choice, equalities in enumerate(equality_choices):
                key = invariant_key(post, earlier, choice)
                entry = built.get(key)
                if entry is None:
                    invariants = build_invariants(
                        self.vc,
                        post,
                        self.template_set.write_sites,
                        scalar_equalities=equalities,
                    )
                    entry = built[key] = (post, invariants)
                yield CandidateSummary(post=post, invariants=entry[1])
                produced += 1
                if limit is not None and produced >= limit:
                    return

    # ------------------------------------------------------------------
    def _array_conjuncts(self, template: ArrayTemplate) -> Iterator[Tuple[str, QuantifiedConstraint]]:
        hole_lists = [space.candidates for space in template.holes]
        holes = [space.hole for space in template.holes]
        bound_lists: List[List[Tuple[Expr, Expr]]] = []
        for bound in template.bounds:
            bound_lists.append(list(itertools.product(bound.lower, bound.upper)))
        for hole_combo in itertools.product(*hole_lists) if hole_lists else [()]:
            mapping: Dict[Expr, Expr] = {hole: value for hole, value in zip(holes, hole_combo)}
            rhs = substitute_map(template.template, mapping)
            for bound_combo in itertools.product(*bound_lists) if bound_lists else [()]:
                bounds = tuple(
                    Bound(var=f"v{dim}", lower=lower, upper=upper)
                    for dim, (lower, upper) in enumerate(bound_combo)
                )
                indices = tuple(sym(f"v{dim}") for dim in range(template.rank))
                out_eq = OutEq(array=template.array, indices=indices, rhs=rhs)
                yield template.array, QuantifiedConstraint(bounds=bounds, out_eq=out_eq)

    def _equality_choices(self) -> List[Dict[str, List[ScalarEquality]]]:
        """Every way of choosing (or omitting) the candidate scalar equalities."""
        candidates = self.template_set.scalar_equalities
        if not candidates:
            return [{}]
        per_candidate: List[List[Optional[ScalarEquality]]] = []
        for candidate in candidates:
            options: List[Optional[ScalarEquality]] = [
                ScalarEquality(var=candidate.var, rhs=rhs) for rhs in candidate.rhs_candidates
            ]
            options.append(None)  # omit
            per_candidate.append(options)
        choices: List[Dict[str, List[ScalarEquality]]] = []
        for combo in itertools.product(*per_candidate):
            grouped: Dict[str, List[ScalarEquality]] = {}
            for candidate, chosen in zip(candidates, combo):
                if chosen is not None:
                    grouped.setdefault(candidate.loop_id, []).append(chosen)
            choices.append(grouped)
        return choices


def earlier_nest_arrays(write_sites: Sequence[WriteSiteInfo]) -> FrozenSet[str]:
    """Arrays written by a nest that a later nest follows.

    :func:`build_invariants` copies the whole postcondition conjunct of
    each such array into the invariants of the later nests.
    """
    last = max((site.nest_index for site in write_sites), default=0)
    return frozenset(site.array for site in write_sites if site.nest_index < last)


def invariant_key(post: Postcondition, earlier: FrozenSet[str], equality_choice: int) -> tuple:
    """Everything :func:`build_invariants` reads of one candidate.

    That is each conjunct's right-hand side (interned, so keyed by
    identity), the whole conjunct of every array in ``earlier`` (by
    its structural shape) and the index of the scalar-equality choice.
    The bounds of the last nest's conjuncts, where candidates mostly
    differ, are not read.  Ids in the key are only meaningful while
    ``post`` is alive.
    """
    return (
        tuple(
            (c.out_eq.array, _shape(c) if c.out_eq.array in earlier else id(c.out_eq.rhs))
            for c in post.conjuncts
        ),
        equality_choice,
    )


@dataclass
class SynthesisProblem:
    """One synthesis problem: VC, candidate space and difficulty metrics."""

    kernel: ir.Kernel
    vc: VCProblem
    space: CandidateSpace
    strategy_name: str = "default"
    control_bits: int = 0
    grammar_space_bits: int = 0

    @property
    def template_set(self) -> TemplateSet:
        return self.space.template_set


def _grammar_index_choices(kernel: ir.Kernel, rank: int) -> int:
    """How many completions the raw grammar allows for one index position."""
    int_inputs = sum(1 for decl in kernel.scalars if decl.scalar_type == "integer")
    offsets = 2 * MAX_OFFSET + 1
    constants = 2 * MAX_OFFSET + 1
    return max(rank * offsets + int_inputs + constants, 2)


def _grammar_bound_choices(kernel: ir.Kernel) -> int:
    int_inputs = sum(1 for decl in kernel.scalars if decl.scalar_type == "integer")
    offsets = 2 * MAX_OFFSET + 1
    return max(int_inputs * offsets, 2)


def compute_control_bits(kernel: ir.Kernel, template_set: TemplateSet, num_loops: int) -> int:
    """SKETCH-style control-bit estimate for the un-narrowed synthesis problem.

    Each index hole of the postcondition costs ``log2`` of the raw
    grammar's choices for an index expression; each quantifier bound
    costs ``log2`` of the bndExp choices; and every loop invariant is an
    unknown of the same shape as the postcondition, as in the paper
    (invariant sizes "are almost exactly the same" as the
    postcondition's).
    """
    bits_per_predicate = 0.0
    for template in template_set.arrays:
        index_choices = _grammar_index_choices(kernel, template.rank)
        for hole_space in template.holes:
            if hole_space.hole.kind == "index":
                bits_per_predicate += math.log2(index_choices)
            else:
                bits_per_predicate += math.log2(max(len(hole_space.candidates) + 4, 2))
        bound_choices = _grammar_bound_choices(kernel)
        bits_per_predicate += 2 * template.rank * math.log2(bound_choices)
    equality_bits = 0.0
    for eq in template_set.scalar_equalities:
        equality_bits += math.log2(max(len(eq.rhs_candidates) + 1, 2)) + math.log2(
            _grammar_index_choices(kernel, 2)
        )
    total = bits_per_predicate * (1 + num_loops) + equality_bits
    return max(int(round(total)), 1)


def compute_narrowed_bits(template_set: TemplateSet) -> int:
    """Bits of the space after inductive template generation (ablation A1)."""
    size = template_set.space_size()
    for eq in template_set.scalar_equalities:
        size *= len(eq.rhs_candidates) + 1
    return max(int(math.ceil(math.log2(max(size, 2)))), 1)


def build_problem(
    kernel: ir.Kernel,
    template_set: TemplateSet,
    vc: Optional[VCProblem] = None,
    strategy_name: str = "default",
) -> SynthesisProblem:
    """Assemble a synthesis problem from a kernel and its template set."""
    from repro.vcgen.hoare import generate_vc

    vc = vc or generate_vc(kernel)
    space = CandidateSpace(template_set=template_set, vc=vc)
    control_bits = compute_control_bits(kernel, template_set, num_loops=len(vc.loops))
    grammar_bits = compute_narrowed_bits(template_set)
    return SynthesisProblem(
        kernel=kernel,
        vc=vc,
        space=space,
        strategy_name=strategy_name,
        control_bits=control_bits,
        grammar_space_bits=grammar_bits,
    )
