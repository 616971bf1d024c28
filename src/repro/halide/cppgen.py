"""Emission of C++ Halide source text (the paper's Figure 1(d)).

STNG produces a small C++ program that, when compiled and executed,
writes an object file and header for the lifted stencil.  We reproduce
the text generation: given a :class:`~repro.halide.lang.Func` and its
schedule, ``emit_cpp`` returns the C++ source a user would feed to the
real Halide toolchain.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.halide.lang import (
    BinOp,
    Call,
    Const,
    Expr,
    Func,
    FuncRef,
    ImageRef,
    Param,
    Var,
)
from repro.halide.schedule import Schedule


class LiteralError(ValueError):
    """Raised when a constant has no valid C++ literal spelling."""


def cpp_double_literal(value: float) -> str:
    """Round-trippable C++ ``double`` literal for ``value``.

    Python's ``repr`` is shortest-round-trip for IEEE doubles but emits
    text like ``1e-05`` (no decimal point) and ``inf``/``nan`` (not C++
    at all).  This printer guarantees the result parses as a C++
    floating literal that reads back bit-identically: a decimal point is
    forced when the mantissa has none, and non-finite values are
    rejected with a clear error instead of producing invalid source.
    """
    value = float(value)
    if not math.isfinite(value):
        raise LiteralError(
            f"cannot emit non-finite constant {value!r} as a C++ double literal"
        )
    text = repr(value)
    if "e" in text:
        mantissa, exponent = text.split("e", 1)
        if "." not in mantissa:
            mantissa += ".0"
        return f"{mantissa}e{exponent}"
    if "." not in text:
        text += ".0"
    return text


def _expr_to_cpp(expr: Expr) -> str:
    if isinstance(expr, Const):
        value = expr.value
        if isinstance(value, float):
            return cpp_double_literal(value)
        return str(value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Param):
        return expr.name
    if isinstance(expr, BinOp):
        return f"({_expr_to_cpp(expr.left)} {expr.op} {_expr_to_cpp(expr.right)})"
    if isinstance(expr, Call):
        args = ", ".join(_expr_to_cpp(a) for a in expr.args)
        return f"{expr.func}({args})"
    if isinstance(expr, ImageRef):
        args = ", ".join(_expr_to_cpp(i) for i in expr.indices)
        return f"{expr.image.name}({args})"
    if isinstance(expr, FuncRef):
        args = ", ".join(_expr_to_cpp(i) for i in expr.indices)
        return f"{expr.func.name}({args})"
    raise TypeError(f"cannot emit C++ for {expr!r}")


def _schedule_lines(func: Func, schedule: Schedule) -> List[str]:
    lines: List[str] = []
    vars_ = [v.name for v in func.vars]
    if schedule.tile_sizes and any(schedule.tile_sizes) and len(vars_) >= 2:
        tx = schedule.tile_sizes[0] or 32
        ty = schedule.tile_sizes[1] or 8
        lines.append(
            f"    func.tile({vars_[0]}, {vars_[1]}, "
            f"{vars_[0]}o, {vars_[1]}o, {vars_[0]}i, {vars_[1]}i, {tx}, {ty});"
        )
    if schedule.parallel_dim is not None and vars_:
        parallel_var = vars_[min(schedule.parallel_dim, len(vars_) - 1)]
        lines.append(f"    func.parallel({parallel_var});")
    if schedule.vector_width > 1 and vars_:
        lines.append(f"    func.vectorize({vars_[0]}, {schedule.vector_width});")
    if schedule.unroll > 1 and vars_:
        lines.append(f"    func.unroll({vars_[0]}, {schedule.unroll});")
    return lines


def emit_cpp(func: Func, output_name: str, schedule: Optional[Schedule] = None) -> str:
    """Generate the C++ Halide generator program for one lifted stencil."""
    if func.definition is None:
        raise ValueError("cannot emit C++ for an undefined Func")
    schedule = schedule or func.schedule
    inputs = func.inputs()
    params = func.params()
    lines: List[str] = []
    lines.append("#include \"Halide.h\"")
    lines.append("using namespace Halide;")
    lines.append("")
    lines.append("int main() {")
    for image in inputs:
        lines.append(
            f"    ImageParam {image.name}(type_of<double>(), {image.dimensions});"
        )
    for param in params:
        lines.append(f"    Param<double> {param.name};")
    var_decl = ", ".join(v.name for v in func.vars)
    lines.append(f"    Func func; Var {var_decl};")
    index = ", ".join(v.name for v in func.vars)
    lines.append(f"    func({index}) = {_expr_to_cpp(func.definition)};")
    schedule_lines = _schedule_lines(func, schedule)
    if schedule_lines:
        lines.append("    // schedule (from autotuning)")
        lines.extend(schedule_lines)
    args = ", ".join([image.name for image in inputs] + [param.name for param in params])
    lines.append(f"    func.compile_to_file(\"{output_name}\", {{{args}}});")
    lines.append("    return 0;")
    lines.append("}")
    return "\n".join(lines) + "\n"
