"""Program states over which kernels, predicates and VCs are evaluated.

A :class:`State` maps scalar names to values and array names to
:class:`ArrayValue` cell maps.  Values can be:

* Python ints / floats / :class:`fractions.Fraction` — used during
  counterexample search and when modelling floats as a small integer
  field (§4.4);
* symbolic expressions (:class:`repro.symbolic.expr.Expr`) — used during
  concrete-symbolic execution (§4.2) and during final verification over
  the reals, where array contents stay fully symbolic.

Array *indices* are always concrete integers; the paper's observation
that quantifiers range only over array indices of bounded loop-free
blocks is what makes this finite-index treatment adequate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.symbolic.expr import Expr, cell as sym_cell
from repro.symbolic.simplify import simplify

Value = Union[int, float, Fraction, Expr]
Index = Tuple[int, ...]


class ArrayValue:
    """A (conceptually unbounded) array represented as a sparse cell map.

    Cells that have never been written return the value produced by the
    ``default`` factory, which receives the array name and index.  For
    symbolic arrays the default is a fresh :class:`ArrayCell` expression
    naming the *initial* contents (so reads of unwritten cells refer to
    the original input array); for concrete arrays it is typically a
    pseudo-random number drawn by the counterexample generator.
    """

    def __init__(
        self,
        name: str,
        default: Optional[Callable[[str, Index], Value]] = None,
    ) -> None:
        self.name = name
        self.cells: Dict[Index, Value] = {}
        self._default = default or (lambda arr, idx: sym_cell(arr, *idx))

    def load(self, index: Index) -> Value:
        # Fast path: callers overwhelmingly pass true integer tuples
        # (``require_int``-coerced); mixed float/int tuples hash and
        # compare equal to their integer forms, so the probe is exact.
        hit = self.cells.get(index)
        if hit is not None:
            return hit
        index = tuple(int(i) for i in index)
        if index in self.cells:
            return self.cells[index]
        return self._default(self.name, index)

    def default_for(self, index: Index) -> Value:
        """Unwritten-cell value for an already-int-coerced missing index.

        Used by generated code after an inline ``cells.get`` miss; the
        index is guaranteed to be a true integer tuple, so ``load``'s
        re-coercion and re-probe are skipped.
        """
        return self._default(self.name, index)

    def store(self, index: Index, value: Value) -> None:
        index = tuple(int(i) for i in index)
        self.cells[index] = value

    def written_indices(self) -> Tuple[Index, ...]:
        return tuple(sorted(self.cells.keys()))

    def copy(self) -> "ArrayValue":
        clone = ArrayValue(self.name, self._default)
        clone.cells = dict(self.cells)
        return clone

    def __repr__(self) -> str:
        return f"ArrayValue({self.name}, {len(self.cells)} cells written)"


def fresh_symbolic_array(name: str) -> ArrayValue:
    """Array whose unwritten cells read back as symbolic references to ``name``.

    The fresh :class:`ArrayCell` for a given index is memoised: repeated
    reads of the same unwritten cell are frequent in verification, and
    hash-consing makes the cached node the one every reader shares.
    """
    cells: Dict[Index, Expr] = {}

    def default(arr: str, idx: Index, _cells=cells) -> Expr:
        node = _cells.get(idx)
        if node is None:
            node = sym_cell(arr, *idx)
            _cells[idx] = node
        return node

    return ArrayValue(name, default=default)


def constant_array(name: str, value: Value) -> ArrayValue:
    """Array whose unwritten cells all hold ``value``."""
    return ArrayValue(name, default=lambda arr, idx: value)


def function_array(name: str, fn: Callable[[Index], Value]) -> ArrayValue:
    """Array whose unwritten cells are computed from the index by ``fn``."""
    return ArrayValue(name, default=lambda arr, idx: fn(idx))


@dataclass
class State:
    """A program state: scalar environment plus named arrays."""

    scalars: Dict[str, Value] = field(default_factory=dict)
    arrays: Dict[str, ArrayValue] = field(default_factory=dict)

    def copy(self) -> "State":
        return State(
            scalars=dict(self.scalars),
            arrays={name: arr.copy() for name, arr in self.arrays.items()},
        )

    def scalar(self, name: str) -> Value:
        if name not in self.scalars:
            raise KeyError(f"scalar {name!r} is not bound in this state")
        return self.scalars[name]

    def set_scalar(self, name: str, value: Value) -> None:
        self.scalars[name] = value

    def array(self, name: str) -> ArrayValue:
        if name not in self.arrays:
            self.arrays[name] = fresh_symbolic_array(name)
        return self.arrays[name]


# ---------------------------------------------------------------------------
# Value arithmetic with concrete/symbolic dispatch
# ---------------------------------------------------------------------------

def _is_symbolic(value: Value) -> bool:
    return isinstance(value, Expr)


def _to_expr(value: Value) -> Expr:
    from repro.symbolic.expr import as_expr

    if isinstance(value, Expr):
        return value
    return as_expr(value)


def value_add(a: Value, b: Value) -> Value:
    if isinstance(a, Expr) or isinstance(b, Expr):
        return _to_expr(a) + _to_expr(b)
    return a + b


def value_sub(a: Value, b: Value) -> Value:
    if isinstance(a, Expr) or isinstance(b, Expr):
        return _to_expr(a) - _to_expr(b)
    return a - b


def value_mul(a: Value, b: Value) -> Value:
    if isinstance(a, Expr) or isinstance(b, Expr):
        return _to_expr(a) * _to_expr(b)
    return a * b


def value_div(a: Value, b: Value) -> Value:
    if isinstance(a, Expr) or isinstance(b, Expr):
        return _to_expr(a) / _to_expr(b)
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


def value_neg(a: Value) -> Value:
    if isinstance(a, Expr):
        return -_to_expr(a)
    return -a


def value_equal(a: Value, b: Value) -> bool:
    """Equality of two values; symbolic values compare after canonicalisation."""
    if _is_symbolic(a) or _is_symbolic(b):
        return simplify(_to_expr(a) - _to_expr(b)) == simplify(_to_expr(0))
    if isinstance(a, float) or isinstance(b, float):
        return abs(float(a) - float(b)) <= 1e-9 * max(1.0, abs(float(a)), abs(float(b)))
    return a == b


def value_equal_interned(a: Value, b: Value) -> bool:
    """``value_equal`` with the hash-consing identity shortcut.

    Interned construction shares structurally equal expressions, so the
    common case — a candidate reproducing an observed symbolic value
    exactly — is an identity hit, short-circuiting the canonicalising
    subtraction (``simplify(x - x)`` is ``0`` by construction, so the
    decisions are identical).  Used by the compiled evaluation layer;
    the interpreted fallback keeps the original comparison.
    """
    if a is b:
        return True
    return value_equal(a, b)


def require_int(value: Value, context: str = "index") -> int:
    """Coerce a value to an integer index, failing loudly for symbolic values."""
    if type(value) is int:
        return value
    if isinstance(value, Expr):
        folded = simplify(value)
        from repro.symbolic.expr import Const

        if isinstance(folded, Const):
            value = folded.value
        else:
            raise TypeError(f"{context} is symbolic and cannot be used as an array index: {value!r}")
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise TypeError(f"{context} is not an integer: {value}")
        return int(value)
    if isinstance(value, float):
        if value != int(value):
            raise TypeError(f"{context} is not an integer: {value}")
        return int(value)
    return int(value)
