"""Expression evaluation over program states.

Two expression languages are evaluated against the same
:class:`~repro.semantics.state.State`:

* IR value expressions (:mod:`repro.ir.nodes`) — used when executing a
  kernel body; and
* symbolic predicate expressions (:mod:`repro.symbolic.expr`) — used
  when evaluating postcondition / invariant right-hand sides, where
  quantified variables are supplied through an extra ``bindings`` map.

Pure function calls are evaluated numerically when a concrete
implementation is known (``sqrt``, ``exp``...) and kept as uninterpreted
symbolic calls otherwise, mirroring §4.4.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Mapping, Optional

from repro.ir import nodes as ir
from repro.semantics import numeric
from repro.semantics.numeric import EvalError, compare_values
from repro.semantics.state import (
    State,
    Value,
    require_int,
    value_add,
    value_div,
    value_mul,
    value_neg,
    value_sub,
)
from repro.symbolic.expr import (
    Add,
    ArrayCell,
    Call,
    Const,
    Div,
    Expr,
    Mul,
    Neg,
    Sub,
    Sym,
)


_CONCRETE_FUNCS = {
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "abs": abs,
    "atan": math.atan,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
}

_VARIADIC_FUNCS = {
    "min": min,
    "max": max,
    # Fortran MOD truncates toward zero (remainder takes the sign of the
    # dividend); Python's ``%`` floors.  The Halide executor routes its
    # ``mod`` calls through the same helper so both agree on negatives.
    "mod": numeric.trunc_mod,
    "pow": lambda a, b: a ** b,
    "sign": lambda a, b: abs(a) if b >= 0 else -abs(a),
    "dble": float,
}


def _apply_func(name: str, args) -> Value:
    """Apply a pure function to evaluated arguments.

    If any argument is symbolic the call stays uninterpreted; otherwise
    a concrete implementation is used when available, and the call is
    treated as an opaque error if the function is unknown.
    """
    if any(isinstance(a, Expr) for a in args):
        from repro.symbolic.expr import as_expr, call

        return call(name, *[as_expr(a) for a in args])
    fn = _CONCRETE_FUNCS.get(name)
    if fn is not None and len(args) == 1:
        return fn(float(args[0]))
    fn = _VARIADIC_FUNCS.get(name)
    if fn is not None:
        result = fn(*args)
        return result
    raise EvalError(f"no concrete model for pure function {name!r}")


# ---------------------------------------------------------------------------
# IR expressions
# ---------------------------------------------------------------------------

def eval_ir_expr(expr: ir.ValueExpr, state: State) -> Value:
    """Evaluate an IR value expression in ``state``."""
    if isinstance(expr, ir.IntConst):
        return expr.value
    if isinstance(expr, ir.RealConst):
        return expr.value
    if isinstance(expr, ir.VarRef):
        try:
            return state.scalar(expr.name)
        except KeyError as exc:
            raise EvalError(str(exc)) from exc
    if isinstance(expr, ir.ArrayLoad):
        indices = tuple(
            require_int(eval_ir_expr(i, state), context=f"index of {expr.array}")
            for i in expr.indices
        )
        return state.array(expr.array).load(indices)
    if isinstance(expr, ir.BinOp):
        left = eval_ir_expr(expr.left, state)
        right = eval_ir_expr(expr.right, state)
        if expr.op == "+":
            return value_add(left, right)
        if expr.op == "-":
            return value_sub(left, right)
        if expr.op == "*":
            return value_mul(left, right)
        if expr.op == "/":
            return value_div(left, right)
        raise EvalError(f"unknown binary operator {expr.op!r}")
    if isinstance(expr, ir.UnaryOp):
        operand = eval_ir_expr(expr.operand, state)
        if expr.op == "-":
            return value_neg(operand)
        return operand
    if isinstance(expr, ir.FuncCall):
        args = [eval_ir_expr(a, state) for a in expr.args]
        return _apply_func(expr.func, args)
    if isinstance(expr, ir.Compare):
        return eval_ir_condition(expr, state)
    raise EvalError(f"cannot evaluate IR expression {expr!r}")


def eval_ir_condition(expr: ir.ValueExpr, state: State) -> bool:
    """Evaluate an IR comparison to a Python boolean (concrete values only)."""
    if isinstance(expr, ir.Compare):
        left = eval_ir_expr(expr.left, state)
        right = eval_ir_expr(expr.right, state)
        return compare_values(expr.op, left, right)
    value = eval_ir_expr(expr, state)
    if isinstance(value, Expr):
        raise EvalError("condition evaluated to a symbolic value")
    return bool(value)


# ---------------------------------------------------------------------------
# Symbolic predicate expressions
# ---------------------------------------------------------------------------

def eval_sym_expr(
    expr: Expr,
    state: State,
    bindings: Optional[Mapping[str, Value]] = None,
) -> Value:
    """Evaluate a predicate-language expression in ``state``.

    ``bindings`` supplies values for quantified variables; symbols not
    found there are looked up as scalars in the state.  Array reads use
    the *current* contents of the state's arrays.
    """
    bindings = bindings or {}
    if isinstance(expr, Const):
        value = expr.value
        if isinstance(value, Fraction) and value.denominator == 1:
            return int(value)
        return value
    if isinstance(expr, Sym):
        if expr.name in bindings:
            return bindings[expr.name]
        try:
            return state.scalar(expr.name)
        except KeyError as exc:
            raise EvalError(str(exc)) from exc
    if isinstance(expr, ArrayCell):
        indices = tuple(
            require_int(eval_sym_expr(i, state, bindings), context=f"index of {expr.array}")
            for i in expr.indices
        )
        return state.array(expr.array).load(indices)
    if isinstance(expr, Add):
        return value_add(eval_sym_expr(expr.left, state, bindings), eval_sym_expr(expr.right, state, bindings))
    if isinstance(expr, Sub):
        return value_sub(eval_sym_expr(expr.left, state, bindings), eval_sym_expr(expr.right, state, bindings))
    if isinstance(expr, Mul):
        return value_mul(eval_sym_expr(expr.left, state, bindings), eval_sym_expr(expr.right, state, bindings))
    if isinstance(expr, Div):
        return value_div(eval_sym_expr(expr.left, state, bindings), eval_sym_expr(expr.right, state, bindings))
    if isinstance(expr, Neg):
        return value_neg(eval_sym_expr(expr.operand, state, bindings))
    if isinstance(expr, Call):
        args = [eval_sym_expr(a, state, bindings) for a in expr.args]
        return _apply_func(expr.func, args)
    raise EvalError(f"cannot evaluate predicate expression {expr!r}")
