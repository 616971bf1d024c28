"""Construction of loop-invariant candidates from a candidate postcondition.

The paper restricts the structure of invariants: they are quantified
over different subsets of loop variables depending on the nesting
structure of the loops and the position of operations within them
(§4.1).  We realise that restriction constructively.  For a loop nest
``L1 ... Lm`` enclosing the writes to an output array, the invariant of
loop ``Lk`` asserts that the *completed region* of the iteration space
already satisfies the (candidate) per-cell equation.  The completed
region at counters ``(c1 .. ck)`` is the union of ``k`` slabs::

    slab_d = { (w1 .. wm) : w_e = c_e for e < d,
                            lower_d <= w_d < c_d,
                            lower_f <= w_f <= upper_f for f > d }

(a loop of step ``s > 1`` bounds its partial slab by ``w_d < c_d - (s - 1)``,
see :func:`_slab_bounds`).  Each slab becomes one universally quantified conjunct whose bounds are
written in the bndExp grammar (loop bounds with enclosing counters
substituted by the quantified variables).  On top of the quantified
conjuncts the invariant carries scalar inequalities on the counters and
the scalar equalities discovered by template generation (rotating
temporaries such as ``t = b[i-1, j]``).

Earlier loop nests of a merged code fragment are already complete when
a later nest runs, so invariants of later nests also carry the full
postcondition conjuncts of the arrays written by earlier nests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir import nodes as ir
from repro.predicates.language import (
    Bound,
    Invariant,
    OutEq,
    Postcondition,
    QuantifiedConstraint,
    ScalarEquality,
    ScalarInequality,
)
from repro.symbolic.expr import Expr, sym
from repro.symbolic.simplify import simplify, substitute
from repro.templates.irsym import ir_to_sym
from repro.templates.writes import WriteSiteInfo
from repro.vcgen.hoare import LoopInfo, VCProblem


def _quant_var(loop_id: str) -> str:
    """Name of the quantified variable standing for one loop's counter."""
    return "w_" + loop_id.replace("#", "_")


def _loop_bounds_sym(loop: ir.Loop) -> Tuple[Expr, Expr]:
    return ir_to_sym(loop.lower), ir_to_sym(loop.upper)


def _substitute_counters(expr: Expr, mapping: Dict[str, Expr]) -> Expr:
    return simplify(substitute(expr, mapping)) if mapping else simplify(expr)


def _slab_bounds(
    nest: Sequence[LoopInfo],
    slab_depth: int,
    counter_exprs: Dict[str, Expr],
) -> Tuple[Bound, ...]:
    """Quantifier bounds of one slab (see module docstring).

    ``slab_depth`` is the index (0-based) of the loop whose dimension is
    partial in this slab; loops shallower than it are pinned to their
    current counter value, loops deeper than it range over their full
    extent (with enclosing counters replaced by the quantified
    variables of the slab).

    The partial dimension of a *strided* loop (step ``s > 1``) is
    ``lower <= w <= counter - s`` rather than ``lower <= w < counter``.
    The quantifier ranges over **every** integer in the partial range:
    at tile counter ``kt`` only the tiles ``lower, lower+s, ..., kt-s``
    are complete, and an intermediate ``w`` with ``kt-s < w < kt`` would
    drag the *next* tile's cells into the region via the inner loop's
    ``w``-dependent bounds.  The bound therefore describes exactly the
    completed region, on grids with any number of tiles; the clause
    premises supply the counter alignment it relies on (see
    :meth:`repro.vcgen.hoare.VCClause._counters_aligned`).
    """
    bounds: List[Bound] = []
    substitution: Dict[str, Expr] = {}
    for depth, info in enumerate(nest):
        var = _quant_var(info.loop_id)
        lower, upper = _loop_bounds_sym(info.loop)
        lower = _substitute_counters(lower, substitution)
        upper = _substitute_counters(upper, substitution)
        counter_value = counter_exprs[info.loop_id]
        if depth < slab_depth:
            bounds.append(Bound(var, counter_value, counter_value))
        elif depth == slab_depth:
            partial_upper = counter_value
            if info.loop.step > 1:
                partial_upper = simplify(counter_value - (info.loop.step - 1))
            bounds.append(Bound(var, lower, partial_upper, upper_strict=True))
        else:
            bounds.append(Bound(var, lower, upper))
        substitution[info.loop.counter] = sym(var)
    return tuple(bounds)


def _site_out_eq(
    site: WriteSiteInfo,
    post_conjunct: QuantifiedConstraint,
    nest: Sequence[LoopInfo],
) -> OutEq:
    """The per-cell equation of one write site in loop-variable space.

    The postcondition's right-hand side is written in terms of the
    output-point variables ``v0 .. v{N-1}``; within the invariant we
    substitute each ``v_d`` by the site's index expression with loop
    counters renamed to the slab's quantified variables.
    """
    counter_to_var = {info.loop.counter: sym(_quant_var(info.loop_id)) for info in nest}
    site_indices = tuple(_substitute_counters(idx, counter_to_var) for idx in site.indices)
    v_mapping = {
        f"v{d}": site_indices[d] for d in range(len(site_indices))
    }
    rhs = simplify(substitute(post_conjunct.out_eq.rhs, v_mapping))
    return OutEq(array=site.array, indices=site_indices, rhs=rhs)


def build_invariants(
    vc: VCProblem,
    post: Postcondition,
    write_sites: Sequence[WriteSiteInfo],
    scalar_equalities: Optional[Dict[str, List[ScalarEquality]]] = None,
) -> Dict[str, Invariant]:
    """Build one invariant per loop for a candidate postcondition.

    ``scalar_equalities`` maps loop ids to the equalities chosen for
    that loop (possibly empty).  Loops that do not enclose any write
    site (e.g. initialisation loops in merged fragments writing other
    arrays) still receive invariants describing the nests that complete
    before them.  Strided loops get the exact completed-region bounds
    of :func:`_slab_bounds`.
    """
    scalar_equalities = scalar_equalities or {}
    loops = vc.loops
    by_id: Dict[str, LoopInfo] = {info.loop_id: info for info in loops}

    # Group write sites by top-level nest and map arrays to nests.
    nest_of_loop: Dict[str, int] = {}
    for site in write_sites:
        if site.enclosing_loop_ids:
            for loop_id in site.enclosing_loop_ids:
                nest_of_loop.setdefault(loop_id, site.nest_index)
    # Top-level order of nests equals their index.
    sites_by_nest: Dict[int, List[WriteSiteInfo]] = {}
    for site in write_sites:
        sites_by_nest.setdefault(site.nest_index, []).append(site)

    # Arrays fully written by nests strictly before a given nest.
    def completed_conjuncts(nest_index: int) -> List[QuantifiedConstraint]:
        conjuncts: List[QuantifiedConstraint] = []
        done_arrays: List[str] = []
        for earlier in sorted(sites_by_nest):
            if earlier >= nest_index:
                break
            for site in sites_by_nest[earlier]:
                if site.array not in done_arrays:
                    done_arrays.append(site.array)
        for array in done_arrays:
            try:
                conjuncts.append(post.conjunct_for(array))
            except KeyError:
                continue
        return conjuncts

    invariants: Dict[str, Invariant] = {}
    for info in loops:
        loop_id = info.loop_id
        nest_index = nest_of_loop.get(loop_id)
        if nest_index is None:
            # A loop that writes nothing relevant: its invariant only records
            # progress of earlier nests and the counter inequality.
            nest_index_guess = 0
            conjuncts = tuple(completed_conjuncts(nest_index_guess))
            invariants[loop_id] = Invariant(
                loop_counter=info.loop.counter,
                inequalities=_counter_inequalities(info, by_id),
                conjuncts=conjuncts,
                equalities=tuple(scalar_equalities.get(loop_id, ())),
            )
            continue

        # The chain of loops from the outermost of this nest down to this loop.
        chain: List[LoopInfo] = [
            by_id[lid] for lid in info.enclosing if nest_of_loop.get(lid) == nest_index
        ] + [info]

        counter_exprs = {li.loop_id: sym(li.loop.counter) for li in chain}
        conjuncts: List[QuantifiedConstraint] = list(completed_conjuncts(nest_index))

        for site in sites_by_nest.get(nest_index, []):
            # Only sites nested inside (or equal to) this loop's chain matter;
            # a site whose enclosing loops diverge from the chain would need a
            # more general region description than the slab decomposition.
            site_chain = [lid for lid in site.enclosing_loop_ids]
            if not _chain_prefix_matches(site_chain, [li.loop_id for li in chain]):
                continue
            try:
                post_conjunct = post.conjunct_for(site.array)
            except KeyError:
                continue
            site_nest = [by_id[lid] for lid in site_chain]
            depth_of_this_loop = [li.loop_id for li in site_nest].index(loop_id)
            for slab_depth in range(depth_of_this_loop + 1):
                bounds = _slab_bounds(site_nest, slab_depth, _counter_values(site_nest, loop_id))
                out_eq = _site_out_eq(site, post_conjunct, site_nest)
                conjuncts.append(QuantifiedConstraint(bounds=bounds, out_eq=out_eq))

        invariants[loop_id] = Invariant(
            loop_counter=info.loop.counter,
            inequalities=_counter_inequalities(info, by_id),
            conjuncts=tuple(conjuncts),
            equalities=tuple(scalar_equalities.get(loop_id, ())),
        )
    return invariants


def _chain_prefix_matches(site_chain: List[str], loop_chain: List[str]) -> bool:
    """True when the loop's chain is a prefix of the write site's chain."""
    if len(loop_chain) > len(site_chain):
        return False
    return site_chain[: len(loop_chain)] == loop_chain


def _counter_values(nest: Sequence[LoopInfo], current_loop_id: str) -> Dict[str, Expr]:
    """Counter expressions used when pinning slab dimensions.

    For loops at or above the current loop the counter's current value
    is used directly.  Loops *deeper* than the current one have no
    meaningful counter value at this program point; they never appear
    pinned because slabs are only generated up to the current depth.
    """
    return {info.loop_id: sym(info.loop.counter) for info in nest}


def _counter_inequalities(info: LoopInfo, by_id: Dict[str, LoopInfo]) -> Tuple[ScalarInequality, ...]:
    """Scalar inequalities of an invariant: counter upper bounds.

    The loop's own counter may reach ``upper + step`` (the exit value);
    enclosing counters are still within their ranges.
    """
    inequalities: List[ScalarInequality] = []
    own_upper = ir_to_sym(info.loop.upper)
    inequalities.append(ScalarInequality(info.loop.counter, simplify(own_upper + info.loop.step)))
    for enclosing_id in info.enclosing:
        enclosing = by_id.get(enclosing_id)
        if enclosing is None:
            continue
        inequalities.append(
            ScalarInequality(enclosing.loop.counter, simplify(ir_to_sym(enclosing.loop.upper)))
        )
    return tuple(inequalities)
