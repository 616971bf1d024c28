"""Shared numeric coercion and comparison for every evaluation path.

Both expression interpreters (:mod:`repro.semantics.evalexpr`) and the
generated code of :mod:`repro.compile` must agree bit-for-bit on how a
possibly-symbolic value is forced to a concrete number and on how two
values compare.  Keeping the single implementation here guarantees
that: the interpreted and compiled evaluators literally call the same
functions, so toggling compilation cannot change a single comparison.
"""

from __future__ import annotations

import numpy as np

from repro.symbolic.expr import Const, Expr


class EvalError(Exception):
    """Raised when an expression cannot be evaluated in the given state."""


def trunc_div(a, b):
    """Fortran integer division: the quotient is truncated toward zero.

    Python's ``//`` (and numpy's) floor instead, which differs for
    operands of opposite sign: Fortran ``(-3)/2`` is ``-1`` while
    ``-3 // 2`` is ``-2``.  Works elementwise on numpy integer arrays
    and on plain Python ints, so the vectorised Halide executor and the
    scalar code generated by :mod:`repro.halide.lower` share one
    definition.
    """
    quotient = abs(a) // abs(b)
    negative = (a < 0) ^ (b < 0)
    if isinstance(quotient, np.ndarray):
        return np.where(negative, -quotient, quotient)
    return -quotient if negative else quotient


def trunc_mod(a, b):
    """Fortran ``mod(a, p)``: remainder with the sign of ``a``.

    Defined as ``a - trunc_div(a, b) * b``; Python's ``%`` and
    ``np.mod`` floor, giving the divisor's sign instead.  Elementwise on
    numpy arrays, exact on ints.
    """
    return a - b * trunc_div(a, b)


def coerce_number(value):
    """Force a value to a concrete number.

    Symbolic values must simplify to constants; anything else raises
    :class:`EvalError`.  Concrete numbers (including :class:`Mod7`
    field elements) pass through untouched.
    """
    if isinstance(value, Expr):
        from repro.symbolic.simplify import simplify

        folded = simplify(value)
        if isinstance(folded, Const):
            return folded.value
        raise EvalError(f"expected a concrete number, got symbolic value {value!r}")
    return value


def compare_values(op: str, left, right) -> bool:
    """Compare two values; symbolic operands must simplify to constants."""
    left = coerce_number(left)
    right = coerce_number(right)
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    if op == "==":
        return left == right
    if op in {"/=", "!="}:
        return left != right
    raise EvalError(f"unknown comparison operator {op!r}")
