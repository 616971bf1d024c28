"""Accessor recovery: from flattened indices back to logical grid accesses.

Our intermediate representation (like STNG's) can operate on flattened
one-dimensional arrays, but Halide operates on logical multidimensional
grids with implicit bounds (§5.3).  Given the flattening information of
an array (per-dimension lower bounds and extents) and a synthesized
one-dimensional index expression, ``recover_multidim_access`` performs
the symbolic interpretation the paper describes: it matches the
expression against the column-major linearisation and returns the
per-dimension logical index expressions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.flatten import FlattenInfo
from repro.symbolic.expr import Const, Expr, sym
from repro.symbolic.simplify import simplify, substitute
from repro.templates.irsym import ir_to_sym


class AccessorRecoveryError(Exception):
    """Raised when a flattened index cannot be matched to grid coordinates."""


def _extent_values(info: FlattenInfo, env: Dict[str, int]) -> List[int]:
    values = []
    for extent in info.dim_extents:
        folded = simplify(substitute(ir_to_sym(extent), {k: v for k, v in env.items()}))
        if not isinstance(folded, Const):
            raise AccessorRecoveryError(
                f"extent {extent!r} does not evaluate under the sample environment"
            )
        values.append(int(folded.value))
    return values


def recover_multidim_access(
    flat_index: Expr,
    info: FlattenInfo,
    index_vars: Sequence[str],
    sample_envs: Sequence[Dict[str, int]],
) -> Tuple[Expr, ...]:
    """Recover per-dimension index expressions from a flattened index.

    The flattened index is assumed affine in the quantified variables
    ``index_vars``; we evaluate it over a neighbourhood of points in
    each sample environment, decode each value against the column-major
    layout, and fit per-dimension expressions of the form
    ``var + offset`` (or a constant).  Mirroring §5.3, the recovery uses
    symbolic evaluation rather than algebraic division so it also works
    when the extents are symbolic.
    """
    if not sample_envs:
        raise AccessorRecoveryError("at least one sample environment is required")

    rank = len(info.dim_extents)
    lowers_sym = [ir_to_sym(lo) for lo in info.dim_lowers]

    observations: List[Tuple[Dict[str, int], Tuple[int, ...]]] = []
    for env in sample_envs:
        extents = _extent_values(info, env)
        lowers = []
        for lower in lowers_sym:
            folded = simplify(substitute(lower, {k: v for k, v in env.items()}))
            if not isinstance(folded, Const):
                raise AccessorRecoveryError("lower bound does not evaluate under the sample env")
            lowers.append(int(folded.value))
        # Probe a few points of the quantified space.
        for probe in _probe_points(index_vars):
            bindings = {**env, **probe}
            folded = simplify(substitute(flat_index, bindings))
            if not isinstance(folded, Const):
                raise AccessorRecoveryError(
                    f"flattened index {flat_index!r} does not evaluate at {bindings}"
                )
            linear = int(folded.value)
            coords = _decode_column_major(linear, extents, lowers)
            observations.append((probe, coords))

    result: List[Expr] = []
    for dim in range(rank):
        values = [coords[dim] for _, coords in observations]
        probes = [probe for probe, _ in observations]
        expr = _fit_dimension(values, probes, index_vars)
        if expr is None:
            raise AccessorRecoveryError(
                f"could not fit dimension {dim} of the flattened access"
            )
        result.append(expr)
    return tuple(result)


def _probe_points(index_vars: Sequence[str]) -> List[Dict[str, int]]:
    base = {var: 1 + i for i, var in enumerate(index_vars)}
    probes = [dict(base)]
    for var in index_vars:
        shifted = dict(base)
        shifted[var] += 1
        probes.append(shifted)
    return probes


def _decode_column_major(linear: int, extents: List[int], lowers: List[int]) -> Tuple[int, ...]:
    coords = []
    remaining = linear
    # Column-major: first dimension varies fastest.
    for dim, extent in enumerate(extents[:-1]):
        coords.append(remaining % extent + lowers[dim])
        remaining //= extent
    coords.append(remaining + lowers[-1])
    return tuple(coords)


def _fit_dimension(
    values: Sequence[int],
    probes: Sequence[Dict[str, int]],
    index_vars: Sequence[str],
) -> Optional[Expr]:
    """Fit ``var + c`` or a constant to the decoded coordinates."""
    for var in index_vars:
        offsets = {value - probe[var] for value, probe in zip(values, probes)}
        if len(offsets) == 1:
            return simplify(sym(var) + next(iter(offsets)))
    if len(set(values)) == 1:
        return Const(Fraction(values[0]))
    return None
