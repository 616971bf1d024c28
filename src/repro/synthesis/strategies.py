"""Synthesis strategies (§4.5).

For each stencil STNG generates multiple synthesis problems with
different optimisation strategies and runs them all, keeping any that
verify.  Our strategies transform the template set before the candidate
space is built:

* ``default`` — the space exactly as template generation produced it;
* ``cross`` — every index hole keeps only the candidates at most 2
  away from the output point's index in that dimension (constant and
  integer-input candidates are always kept);
* ``box`` — the same with a bound of 1.  Neither strategy restricts a
  candidate to axis-aligned offsets: each hole bounds the offset of one
  index on its own.  The names are kept because they are part of every
  synthesis-store key;
* ``perfect_nest`` — only applicable to perfectly nested kernels; drops
  the scalar-equality search entirely (perfect nests have no rotating
  temporaries), shrinking the space.

A strategy may be inapplicable to a kernel (it returns ``None``), and a
strategy that over-prunes simply produces candidates that fail
verification — exactly the failure mode the paper tolerates because the
full verifier backstops every strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.ir import nodes as ir
from repro.ir.analysis import is_perfect_nest
from repro.symbolic.expr import Const, Expr
from repro.symbolic.simplify import collect_affine, simplify
from repro.templates.generator import ArrayTemplate, HoleSpace, TemplateSet


@dataclass
class Strategy:
    """A named transformation of the template set."""

    name: str
    transform: Callable[[ir.Kernel, TemplateSet], Optional[TemplateSet]]

    def apply(self, kernel: ir.Kernel, template_set: TemplateSet) -> Optional[TemplateSet]:
        return self.transform(kernel, template_set)


def _offset_of(candidate: Expr, rank: int) -> Optional[tuple]:
    """Decompose a candidate index expression as an offset from an output var."""
    variables = tuple(f"v{d}" for d in range(rank))
    decomposition = collect_affine(simplify(candidate), variables)
    if decomposition is None:
        return None
    coeffs, rest = decomposition
    nonzero = [(name, c) for name, c in coeffs.items() if c != 0]
    rest = simplify(rest)
    if len(nonzero) != 1 or not isinstance(rest, Const):
        return None
    name, coeff = nonzero[0]
    if coeff != 1:
        return None
    return name, int(rest.value)


def _filter_holes(template: ArrayTemplate, keep: Callable[[Expr], bool]) -> Optional[ArrayTemplate]:
    new_holes: List[HoleSpace] = []
    for hole_space in template.holes:
        kept = [c for c in hole_space.candidates if keep(c)]
        if not kept:
            return None
        new_holes.append(HoleSpace(hole=hole_space.hole, candidates=kept))
    return ArrayTemplate(
        array=template.array,
        rank=template.rank,
        template=template.template,
        holes=new_holes,
        bounds=template.bounds,
        observation_count=template.observation_count,
    )


def _pattern_strategy(max_offset: int):
    def transform(kernel: ir.Kernel, template_set: TemplateSet) -> Optional[TemplateSet]:
        new_arrays: List[ArrayTemplate] = []
        for template in template_set.arrays:

            def keep(candidate: Expr, rank=template.rank) -> bool:
                decomposed = _offset_of(candidate, rank)
                if decomposed is None:
                    # Keep integer-input and constant candidates: patterns only
                    # restrict the offsets relative to the output point.
                    return True
                _, offset = decomposed
                return abs(offset) <= max_offset

            filtered = _filter_holes(template, keep)
            if filtered is None:
                return None
            new_arrays.append(filtered)
        return TemplateSet(
            kernel=template_set.kernel,
            runs=template_set.runs,
            arrays=new_arrays,
            scalar_equalities=template_set.scalar_equalities,
            write_sites=template_set.write_sites,
        )

    return transform


def _default(kernel: ir.Kernel, template_set: TemplateSet) -> Optional[TemplateSet]:
    return template_set


def _perfect_nest(kernel: ir.Kernel, template_set: TemplateSet) -> Optional[TemplateSet]:
    if not is_perfect_nest(kernel):
        return None
    return TemplateSet(
        kernel=template_set.kernel,
        runs=template_set.runs,
        arrays=template_set.arrays,
        scalar_equalities=[],
        write_sites=template_set.write_sites,
    )


STRATEGIES: List[Strategy] = [
    Strategy("perfect_nest", _perfect_nest),
    Strategy("cross", _pattern_strategy(max_offset=2)),
    Strategy("box", _pattern_strategy(max_offset=1)),
    Strategy("default", _default),
]
