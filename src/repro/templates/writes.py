"""Analysis of array write sites, used to shape invariants and bounds.

For every ``ArrayStore`` in a kernel we record the chain of enclosing
loops and the symbolic form of each index expression.  The invariant
builder uses this to construct the "completed region" slabs of each
loop's invariant, and the template generator uses the affine
decomposition of the indices (counter + offset) to relate output cells
back to iteration points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.ir import nodes as ir
from repro.ir.analysis import collect_loops
from repro.symbolic.expr import Expr
from repro.symbolic.simplify import collect_affine, simplify
from repro.templates.irsym import ir_to_sym


@dataclass(frozen=True)
class AffineIndex:
    """Decomposition of one write index as ``sum_i coeff_i * counter_i + rest``."""

    coefficients: Tuple[Tuple[str, Fraction], ...]  # (counter, coefficient), non-zero only
    rest: Expr

    def single_counter(self) -> Optional[Tuple[str, Fraction]]:
        """If the index involves exactly one counter, return (counter, coefficient)."""
        if len(self.coefficients) == 1:
            return self.coefficients[0]
        return None


@dataclass
class WriteSiteInfo:
    """One array store with its loop context."""

    array: str
    indices: Tuple[Expr, ...]          # symbolic index expressions
    affine: Tuple[Optional[AffineIndex], ...]  # per-dimension affine decomposition (None if non-affine)
    enclosing_loop_ids: Tuple[str, ...]        # outermost first
    nest_index: int                            # which top-level loop nest the site belongs to


def _loop_id_map(kernel: ir.Kernel) -> Dict[int, str]:
    ids: Dict[int, str] = {}
    counts: Dict[str, int] = {}
    for loop in collect_loops(kernel.body):
        count = counts.get(loop.counter, 0)
        counts[loop.counter] = count + 1
        ids[id(loop)] = loop.counter if count == 0 else f"{loop.counter}#{count}"
    return ids


def analyze_write_sites(kernel: ir.Kernel) -> List[WriteSiteInfo]:
    """Collect write-site information for every array store in the kernel."""
    loop_ids = _loop_id_map(kernel)
    counters = [loop.counter for loop in collect_loops(kernel.body)]
    sites: List[WriteSiteInfo] = []

    def visit(stmt: ir.Stmt, enclosing: Tuple[str, ...], nest_index: int) -> None:
        if isinstance(stmt, ir.Block):
            top_nest = nest_index
            for inner in stmt.statements:
                visit(inner, enclosing, top_nest)
        elif isinstance(stmt, ir.Loop):
            visit(stmt.body, enclosing + (loop_ids[id(stmt)],), nest_index)
        elif isinstance(stmt, ir.If):
            visit(stmt.then_body, enclosing, nest_index)
            if stmt.else_body is not None:
                visit(stmt.else_body, enclosing, nest_index)
        elif isinstance(stmt, ir.ArrayStore):
            indices = tuple(simplify(ir_to_sym(i)) for i in stmt.indices)
            affine: List[Optional[AffineIndex]] = []
            for index in indices:
                decomposition = collect_affine(index, tuple(counters))
                if decomposition is None:
                    affine.append(None)
                    continue
                coeffs, rest = decomposition
                nonzero = tuple(
                    (name, coeff) for name, coeff in coeffs.items() if coeff != 0
                )
                affine.append(AffineIndex(coefficients=nonzero, rest=rest))
            sites.append(
                WriteSiteInfo(
                    array=stmt.array,
                    indices=indices,
                    affine=tuple(affine),
                    enclosing_loop_ids=enclosing,
                    nest_index=nest_index,
                )
            )

    # Top-level statements define the nests: number them in order.
    nest = 0
    for stmt in kernel.body.statements:
        if isinstance(stmt, ir.Loop):
            visit(stmt, (), nest)
            nest += 1
        else:
            visit(stmt, (), nest)
    return sites
