"""Flattening of multidimensional array accesses.

§4.1 of the paper notes that although the presentation uses
multidimensional arrays, STNG actually operates on *flattened* arrays —
the hand-optimised codes it targets index flat buffers through custom
macros.  This module performs the corresponding lowering on our IR:
an access ``a(i, j)`` on an array declared ``dimension(ilo:ihi,
jlo:jhi)`` becomes ``a_flat((j - jlo) * (ihi - ilo + 1) + (i - ilo))``
(column-major, as in Fortran).

Flattening is optional in the pipeline: the synthesizer can work on
either representation, and the flattened form is what makes accessor
recovery (:mod:`repro.backend.accessors`) a non-trivial problem, as in
the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.ir.nodes import (
    ArrayDecl,
    ArrayLoad,
    ArrayStore,
    Assign,
    BinOp,
    Block,
    Compare,
    FuncCall,
    If,
    IntConst,
    Kernel,
    Loop,
    Stmt,
    UnaryOp,
    ValueExpr,
)


@dataclass(frozen=True)
class FlattenInfo:
    """Record of how one array was flattened.

    ``dim_lowers`` and ``dim_extents`` are the per-dimension lower
    bounds and extents (as IR expressions); accessor recovery inverts
    the flattening using these.
    """

    original: ArrayDecl
    flat_name: str
    dim_lowers: Tuple[ValueExpr, ...]
    dim_extents: Tuple[ValueExpr, ...]


def _extent(lower: ValueExpr, upper: ValueExpr) -> ValueExpr:
    """Extent of one dimension: ``upper - lower + 1``."""
    return BinOp("+", BinOp("-", upper, lower), IntConst(1))


def flatten_index(
    indices: Tuple[ValueExpr, ...],
    lowers: Tuple[ValueExpr, ...],
    extents: Tuple[ValueExpr, ...],
) -> ValueExpr:
    """Column-major linearisation of a multidimensional index tuple."""
    if len(indices) != len(lowers):
        raise ValueError("index arity does not match declaration rank")
    # Fortran column-major: first index varies fastest.
    flat: ValueExpr = BinOp("-", indices[-1], lowers[-1])
    for dim in range(len(indices) - 2, -1, -1):
        flat = BinOp(
            "+",
            BinOp("*", flat, extents[dim]),
            BinOp("-", indices[dim], lowers[dim]),
        )
    return flat


def flatten_kernel(kernel: Kernel, suffix: str = "_flat") -> Tuple[Kernel, Dict[str, FlattenInfo]]:
    """Return a copy of ``kernel`` with every array access flattened.

    Arrays of rank 1 are renamed but keep their single index shifted to
    a zero base, so downstream code can treat every array uniformly.
    The mapping from original array names to :class:`FlattenInfo` is
    returned alongside the new kernel.
    """
    infos: Dict[str, FlattenInfo] = {}
    for decl in kernel.arrays:
        lowers = tuple(lo for lo, _hi in decl.bounds)
        extents = tuple(_extent(lo, hi) for lo, hi in decl.bounds)
        infos[decl.name] = FlattenInfo(
            original=decl,
            flat_name=decl.name + suffix,
            dim_lowers=lowers,
            dim_extents=extents,
        )

    def rewrite_expr(expr: ValueExpr) -> ValueExpr:
        if isinstance(expr, ArrayLoad):
            info = infos.get(expr.array)
            new_indices = tuple(rewrite_expr(i) for i in expr.indices)
            if info is None:
                return ArrayLoad(expr.array, new_indices)
            flat = flatten_index(new_indices, info.dim_lowers, info.dim_extents)
            return ArrayLoad(info.flat_name, (flat,))
        if isinstance(expr, BinOp):
            return BinOp(expr.op, rewrite_expr(expr.left), rewrite_expr(expr.right))
        if isinstance(expr, UnaryOp):
            return UnaryOp(expr.op, rewrite_expr(expr.operand))
        if isinstance(expr, FuncCall):
            return FuncCall(expr.func, tuple(rewrite_expr(a) for a in expr.args))
        if isinstance(expr, Compare):
            return Compare(expr.op, rewrite_expr(expr.left), rewrite_expr(expr.right))
        return expr

    def rewrite_stmt(stmt: Stmt) -> Stmt:
        if isinstance(stmt, Block):
            return Block([rewrite_stmt(s) for s in stmt.statements])
        if isinstance(stmt, Loop):
            return Loop(
                counter=stmt.counter,
                lower=rewrite_expr(stmt.lower),
                upper=rewrite_expr(stmt.upper),
                body=rewrite_stmt(stmt.body),  # type: ignore[arg-type]
                step=stmt.step,
            )
        if isinstance(stmt, If):
            return If(
                condition=rewrite_expr(stmt.condition),
                then_body=rewrite_stmt(stmt.then_body),  # type: ignore[arg-type]
                else_body=(
                    rewrite_stmt(stmt.else_body)  # type: ignore[arg-type]
                    if stmt.else_body is not None
                    else None
                ),
            )
        if isinstance(stmt, Assign):
            return Assign(stmt.target, rewrite_expr(stmt.value))
        if isinstance(stmt, ArrayStore):
            info = infos.get(stmt.array)
            new_indices = tuple(rewrite_expr(i) for i in stmt.indices)
            new_value = rewrite_expr(stmt.value)
            if info is None:
                return ArrayStore(stmt.array, new_indices, new_value)
            flat = flatten_index(new_indices, info.dim_lowers, info.dim_extents)
            return ArrayStore(info.flat_name, (flat,), new_value)
        raise TypeError(f"unhandled statement {stmt!r}")

    new_arrays: List[ArrayDecl] = []
    for decl in kernel.arrays:
        info = infos[decl.name]
        total: ValueExpr = info.dim_extents[0]
        for extent in info.dim_extents[1:]:
            total = BinOp("*", total, extent)
        new_arrays.append(
            ArrayDecl(
                name=info.flat_name,
                bounds=((IntConst(0), BinOp("-", total, IntConst(1))),),
                element_type=decl.element_type,
                is_pointer=decl.is_pointer,
            )
        )

    new_kernel = Kernel(
        name=kernel.name,
        params=list(kernel.params),
        arrays=new_arrays,
        scalars=list(kernel.scalars),
        body=rewrite_stmt(kernel.body),  # type: ignore[arg-type]
        assumptions=list(kernel.assumptions),
        source_name=kernel.source_name,
    )
    return new_kernel, infos
