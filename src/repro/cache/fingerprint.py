"""Structural fingerprints of kernels and synthesis configurations.

A fingerprint is a SHA-256 digest over a canonical, JSON-serialisable
encoding of the kernel IR (:mod:`repro.ir.nodes`).  The encoding is
purely structural: statement and expression trees are walked
recursively, array and scalar declarations are sorted by name, and the
kernel's display ``name``/``source_name`` are excluded so that two
structurally identical kernels extracted from different files share one
cache entry.

``fingerprint_synthesis`` extends the kernel digest with the
synthesis-relevant options and :data:`CODE_VERSION`, producing the key
under which verified summaries are stored.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, List, Mapping

from repro.ir import nodes as ir

# Bump whenever template generation, the strategy roster, the candidate
# space, or the verifier change in a way that affects which summary is
# synthesized for a given kernel: every cached entry is invalidated.
# "stng-cache-2": the synthesis configuration grew a "compile" section
# (whether the compiled evaluation path ran; today the ``compiled``
# flag, still written as {"enabled": ...}), so entries recorded before
# the compile layer existed must not be replayed.
# "stng-cache-3": interpreter MOD semantics changed from Python's
# flooring ``%`` to Fortran truncation-toward-zero (trunc_mod), so
# summaries verified under the old semantics must not be replayed.
# "stng-cache-4": the bounded verifier's loop-counter enumeration moved
# to exact Fortran trip-count semantics (degenerate and strided ranges
# enumerate different states), the verifier hierarchy gained the Tier-3
# inductive prover with proof certificates in the payload, and strided
# slab invariants can take the exact completed-region shape — entries
# recorded before any of this must not be replayed.
# "stng-cache-5": strided slab invariants always take the exact
# completed-region shape, with the prover off too; the prover-off
# invariants of heat27b1 and heat27b2, the corpus kernels with a strided
# loop, changed.
CODE_VERSION = "stng-cache-5"


# ---------------------------------------------------------------------------
# Canonical IR encoding
# ---------------------------------------------------------------------------

def encode_value_expr(expr: ir.ValueExpr) -> List[Any]:
    """Encode one IR value expression as a canonical nested list."""
    if isinstance(expr, ir.IntConst):
        return ["int", expr.value]
    if isinstance(expr, ir.RealConst):
        return ["real", repr(expr.value)]
    if isinstance(expr, ir.VarRef):
        return ["var", expr.name]
    if isinstance(expr, ir.ArrayLoad):
        return ["load", expr.array, [encode_value_expr(i) for i in expr.indices]]
    if isinstance(expr, ir.BinOp):
        return ["bin", expr.op, encode_value_expr(expr.left), encode_value_expr(expr.right)]
    if isinstance(expr, ir.UnaryOp):
        return ["unary", expr.op, encode_value_expr(expr.operand)]
    if isinstance(expr, ir.FuncCall):
        return ["call", expr.func, [encode_value_expr(a) for a in expr.args]]
    if isinstance(expr, ir.Compare):
        return ["cmp", expr.op, encode_value_expr(expr.left), encode_value_expr(expr.right)]
    raise TypeError(f"cannot fingerprint IR expression {expr!r}")


def encode_stmt(stmt: ir.Stmt) -> List[Any]:
    """Encode one IR statement as a canonical nested list."""
    if isinstance(stmt, ir.Block):
        return ["block", [encode_stmt(s) for s in stmt.statements]]
    if isinstance(stmt, ir.Assign):
        return ["assign", stmt.target, encode_value_expr(stmt.value)]
    if isinstance(stmt, ir.ArrayStore):
        return [
            "store",
            stmt.array,
            [encode_value_expr(i) for i in stmt.indices],
            encode_value_expr(stmt.value),
        ]
    if isinstance(stmt, ir.Loop):
        return [
            "loop",
            stmt.counter,
            encode_value_expr(stmt.lower),
            encode_value_expr(stmt.upper),
            stmt.step,
            encode_stmt(stmt.body),
        ]
    if isinstance(stmt, ir.If):
        return [
            "if",
            encode_value_expr(stmt.condition),
            encode_stmt(stmt.then_body),
            encode_stmt(stmt.else_body) if stmt.else_body is not None else None,
        ]
    raise TypeError(f"cannot fingerprint IR statement {stmt!r}")


def encode_kernel(kernel: ir.Kernel) -> List[Any]:
    """The canonical encoding hashed by :func:`fingerprint_kernel`.

    The display ``name`` and ``source_name`` are deliberately omitted:
    the fingerprint addresses the kernel's *content*.
    """
    arrays = sorted(
        [
            [
                decl.name,
                [[encode_value_expr(lo), encode_value_expr(hi)] for lo, hi in decl.bounds],
                decl.element_type,
                decl.is_pointer,
            ]
            for decl in kernel.arrays
        ]
    )
    scalars = sorted([[decl.name, decl.scalar_type] for decl in kernel.scalars])
    return [
        "kernel",
        list(kernel.params),
        arrays,
        scalars,
        encode_stmt(kernel.body),
        [encode_value_expr(a) for a in kernel.assumptions],
    ]


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint_kernel(kernel: ir.Kernel) -> str:
    """Content address of one kernel's IR (hex SHA-256)."""
    return _digest(encode_kernel(kernel))


def options_signature(config: Mapping[str, Any]) -> List[Any]:
    """Canonical, sorted encoding of a synthesis configuration mapping."""
    encoded: List[Any] = []
    for key in sorted(config):
        value = config[key]
        if isinstance(value, (list, tuple)):
            value = list(value)
        encoded.append([key, value])
    return encoded


def fingerprint_synthesis(
    kernel: ir.Kernel,
    config: Mapping[str, Any],
    code_version: str = CODE_VERSION,
) -> str:
    """Cache key for one (kernel, options, code version) synthesis run."""
    return _digest(
        [
            "synthesis",
            code_version,
            fingerprint_kernel(kernel),
            options_signature(config),
        ]
    )
