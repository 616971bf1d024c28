"""Fortran glue-code generation (§5.1, §5.3).

For every translated kernel STNG replaces the original loop nest with a
call into the generated Halide object and emits glue code that converts
loop bounds and Fortran arrays into Halide buffers with the right
logical bounds.  The user only has to define one preprocessor macro,
``STNG_USE_HALIDE``; when it is undefined the original loops are kept.
We reproduce the text generation so examples and tests can inspect the
integration artifacts.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Union

from repro.backend.halidegen import GeneratedStencil
from repro.ir import nodes as ir
from repro.ir.nodes import Kernel
from repro.symbolic import expr as sx
from repro.symbolic.simplify import simplify
from repro.templates.irsym import ir_to_sym


class GlueGenerationError(Exception):
    """Raised when a bound expression cannot be printed as Fortran."""


def bound_to_fortran(expr: Union[sx.Expr, ir.ValueExpr]) -> str:
    """Print a bound expression (symbolic or IR) as simplified Fortran text.

    The single printer used for both array-declaration bounds (IR value
    expressions from the frontend) and stencil domain bounds (symbolic
    expressions from the generated summary): IR expressions are first
    converted to symbolic form, then everything is canonicalised by
    :func:`simplify` — so text like ``(n - (-1))`` comes out as
    ``(n + 1)`` — and printed structurally, with ``min``/``max`` kept as
    Fortran intrinsics and integer division parenthesised.
    """
    if isinstance(expr, ir.ValueExpr):
        expr = ir_to_sym(expr)
    return _print(simplify(_protect_divisions(expr)))


# ``simplify`` folds constant divisors into exact rational coefficients
# (``(n + 1) / 2`` becomes ``1/2·n + 1/2``, and ``n/2 + m/2`` would merge
# into ``(n + m)/2``) — exact over the rationals but wrong for Fortran's
# *truncating* integer division.  Every division is therefore wrapped in
# an opaque call before simplification: simplify still canonicalises the
# numerator and denominator (and everything around the division), but
# never folds across the ``/`` itself.
_DIV_MARKER = "$div"


def _protect_divisions(expr: sx.Expr) -> sx.Expr:
    if isinstance(expr, sx.Div):
        return sx.call(
            _DIV_MARKER, _protect_divisions(expr.left), _protect_divisions(expr.right)
        )
    children = expr.children()
    if not children:
        return expr
    replaced = [_protect_divisions(child) for child in children]
    if all(new is old for new, old in zip(replaced, children)):
        return expr
    return expr.with_children(replaced)


def _fortran_double(value: float) -> str:
    if not math.isfinite(value):
        raise GlueGenerationError(f"non-finite bound constant {value!r}")
    text = repr(value)
    text = text.replace("e", "d") if "e" in text else f"{text}d0"
    return f"({text})" if value < 0 else text


def _print(expr: sx.Expr) -> str:
    if isinstance(expr, sx.Const):
        value = expr.value
        if hasattr(value, "denominator") and getattr(value, "denominator") == 1:
            value = int(value)
        if isinstance(value, int):
            return str(value) if value >= 0 else f"({value})"
        # Divisions never reach simplify (see _protect_divisions), so a
        # surviving non-integer rational is a genuine real-valued
        # constant and prints as a Fortran double.
        return _fortran_double(float(value))
    if isinstance(expr, sx.Sym):
        return expr.name
    if isinstance(expr, sx.Add):
        return f"({_print(expr.left)} + {_print(expr.right)})"
    if isinstance(expr, sx.Sub):
        return f"({_print(expr.left)} - {_print(expr.right)})"
    if isinstance(expr, sx.Mul):
        return f"({_print(expr.left)} * {_print(expr.right)})"
    if isinstance(expr, sx.Div):
        return f"({_print(expr.left)} / {_print(expr.right)})"
    if isinstance(expr, sx.Neg):
        return f"(-{_print(expr.operand)})"
    if isinstance(expr, sx.Call):
        if expr.func == _DIV_MARKER:
            return f"({_print(expr.args[0])} / {_print(expr.args[1])})"
        if expr.func in {"min", "max", "abs", "mod"}:
            args = ", ".join(_print(a) for a in expr.args)
            return f"{expr.func}({args})"
        raise GlueGenerationError(f"cannot print call to {expr.func!r} in a Fortran bound")
    if isinstance(expr, sx.ArrayCell):
        indices = ", ".join(_print(i) for i in expr.indices)
        return f"{expr.array}({indices})"
    raise GlueGenerationError(f"cannot print bound expression {expr!r}")


def emit_fortran_glue(kernel: Kernel, stencils: Sequence[GeneratedStencil]) -> str:
    """Generate the Fortran wrapper that dispatches to the Halide kernels."""
    lines: List[str] = []
    lines.append(f"! Generated by STNG for kernel {kernel.name}")
    lines.append("#ifdef STNG_USE_HALIDE")
    lines.append(f"subroutine {kernel.name}_halide({', '.join(kernel.params)})")
    lines.append("  use iso_c_binding")
    lines.append("  implicit none")
    for decl in kernel.arrays:
        dims = ", ".join(
            f"{bound_to_fortran(lo)}:{bound_to_fortran(hi)}" for lo, hi in decl.bounds
        )
        lines.append(f"  real (kind=8), dimension({dims}) :: {decl.name}")
    for decl in kernel.scalars:
        ftype = "integer" if decl.scalar_type == "integer" else "real (kind=8)"
        lines.append(f"  {ftype} :: {decl.name}")
    for stencil in stencils:
        buffer_args = ", ".join(stencil.input_arrays)
        bounds = []
        for lower, upper in stencil.domain_bounds:
            bounds.append(bound_to_fortran(lower))
            bounds.append(bound_to_fortran(upper))
        bound_args = ", ".join(bounds)
        scalar_args = ", ".join(stencil.scalar_params)
        call_args = ", ".join(arg for arg in (bound_args, buffer_args, scalar_args, stencil.array) if arg)
        lines.append(f"  call {stencil.func.name}_wrapper({call_args})")
    lines.append(f"end subroutine {kernel.name}_halide")
    lines.append("#else")
    lines.append(f"! original loops for {kernel.name} retained")
    lines.append("#endif")
    return "\n".join(lines) + "\n"
