"""Immutable, hash-consed symbolic expression trees.

The expression language is deliberately small: constants, symbols,
array cells (a named array indexed by a tuple of index expressions),
the four arithmetic operators, unary negation and calls to pure
(uninterpreted) functions.  This mirrors the value language of the
paper's intermediate representation, where every value a stencil kernel
can compute is a combination of input-array cells, scalars and pure
math functions.

Expressions are hashable and compare structurally, which the
anti-unification algorithm (:mod:`repro.templates.antiunify`) and the
verifier rely on.

Construction is *interned* (hash-consed): building a node whose class
and field values match an already-live node returns that same object,
so structurally equal subtrees are shared.  Derived data — the node's
hash, its pre-order ``walk()`` tuple, ``symbols()``/``arrays()``/
``size()`` and ``repr`` — is computed once per node and cached, which
is what makes identity-keyed memoisation (``simplify``, the compiled
evaluators in :mod:`repro.compile`) effective.  Numeric field values are
type-tagged in the intern key so ``Const(Fraction(2))`` and
``Const(2.0)`` remain distinct objects (they print differently), even
though they still compare equal structurally, exactly as before.

Pickling reconstructs nodes *through their constructors* (see
:meth:`Expr.__reduce__`), so expressions shipped to process-pool
workers are re-interned on arrival and cached attributes never travel.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, Mapping, Sequence, Tuple, Union

Number = Union[int, float, Fraction]


# ---------------------------------------------------------------------------
# Interning machinery
# ---------------------------------------------------------------------------

_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def _field_names(cls: type) -> Tuple[str, ...]:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = tuple(f.name for f in dataclasses.fields(cls))
        _FIELD_NAMES[cls] = names
    return names


class _Uninternable(Exception):
    """Raised while keying a node whose child escaped interning."""


def _key_part(value):
    """Intern-key encoding of one field value.

    Numbers are tagged with their concrete type (``2``, ``Fraction(2)``
    and ``2.0`` hash and compare equal in Python, but produce different
    ``repr`` output, so they must not share an interned node).  Floats
    additionally carry their IEEE hex form so ``0.0`` and ``-0.0`` stay
    distinct deterministically.

    Child *expressions* are keyed by identity, not equality: interned
    children make identity equivalent to structural equality at the
    right granularity, whereas structural dict equality would conflate
    ``Const(0.0)`` with ``Const(Fraction(0))`` children — and because
    the dataclass ``__init__`` re-runs on an interned instance, such a
    conflation would overwrite the shared node's fields in place.  A
    node whose child somehow escaped interning is not interned either.
    """
    if isinstance(value, Expr):
        if "_interned" not in value.__dict__:
            raise _Uninternable
        # A bare id() is unambiguous here: within one node class a field
        # is either always expression-valued or never is.
        return id(value)
    if isinstance(value, tuple):
        return tuple(_key_part(v) for v in value)
    if isinstance(value, float):
        return (float, value.hex())
    if isinstance(value, Fraction):
        return (Fraction, value.numerator, value.denominator)
    return value


# Reset threshold for the intern table: far above any single kernel's
# synthesis (a few hundred thousand nodes) so identity sharing holds
# within a problem, while bounding multi-suite batch runs.
_INTERN_MAX = 1 << 21


def clear_intern_table() -> None:
    """Drop the intern table (tests / long-running batch hygiene).

    Existing nodes stay valid; equal nodes built before and after a
    clear are no longer identical, merely structurally equal.  The
    small-integer constant memo is dropped too — it must never hand out
    nodes that are no longer in the table, or identity would silently
    fracture for everything built on top of them.
    """
    Expr._INTERN.clear()
    _INT_CONSTS.clear()


class Expr:
    """Base class for all symbolic expressions.

    Sub-classes are frozen dataclasses; instances are immutable,
    hashable and interned, so they can be stored in sets and used as
    dictionary keys (both anti-unification and counterexample caching
    rely on this).
    """

    _INTERN: Dict[tuple, "Expr"] = {}

    def __new__(cls, *args, **kwargs):
        if not args and not kwargs:
            # copy/pickle protocols create bare instances; never intern them.
            return object.__new__(cls)
        try:
            if kwargs:
                names = _field_names(cls)
                merged = dict(zip(names, args))
                merged.update(kwargs)
                values = tuple(merged[name] for name in names)
            else:
                values = args
            if cls is Const and len(values) == 1:
                # Specialised key: hashing a Fraction computes a modular
                # inverse, so key Const nodes by (numerator, denominator)
                # integers instead.  The leading tag keeps the numeric
                # types apart (``2``, ``Fraction(2)`` and ``2.0`` hash
                # equal but must stay distinct nodes).
                value = values[0]
                tv = value.__class__
                if tv is Fraction:
                    key = (cls, 0, value.numerator, value.denominator)
                elif tv is float:
                    key = (cls, 1, value.hex())
                elif tv is int:
                    key = (cls, 2, value)
                else:
                    key = (cls, tuple(_key_part(v) for v in values))
            else:
                key = (cls,) + tuple(_key_part(v) for v in values)
        except (_Uninternable, TypeError, KeyError):
            return object.__new__(cls)
        try:
            existing = Expr._INTERN.get(key)
        except TypeError:
            return object.__new__(cls)
        if existing is not None:
            return existing
        if len(Expr._INTERN) >= _INTERN_MAX:
            # Deterministic (size-based) reset bounds long batch runs:
            # live nodes stay valid, equal nodes built before and after
            # merely stop being identical, and every identity fast path
            # has a structural fallback.
            clear_intern_table()
        self = object.__new__(cls)
        object.__setattr__(self, "_interned", True)
        Expr._INTERN[key] = self
        return self

    def __reduce__(self):
        fields = tuple(getattr(self, name) for name in _field_names(self.__class__))
        return (self.__class__, fields)

    def _cached_hash(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            fields = tuple(getattr(self, name) for name in _field_names(self.__class__))
            h = hash((self.__class__,) + fields)
            object.__setattr__(self, "_hash", h)
        return h

    __hash__ = _cached_hash

    # -- operator sugar ---------------------------------------------------
    def __add__(self, other: "Expr | Number") -> "Expr":
        return add(self, as_expr(other))

    def __radd__(self, other: "Expr | Number") -> "Expr":
        return add(as_expr(other), self)

    def __sub__(self, other: "Expr | Number") -> "Expr":
        return sub(self, as_expr(other))

    def __rsub__(self, other: "Expr | Number") -> "Expr":
        return sub(as_expr(other), self)

    def __mul__(self, other: "Expr | Number") -> "Expr":
        return mul(self, as_expr(other))

    def __rmul__(self, other: "Expr | Number") -> "Expr":
        return mul(as_expr(other), self)

    def __truediv__(self, other: "Expr | Number") -> "Expr":
        return div(self, as_expr(other))

    def __rtruediv__(self, other: "Expr | Number") -> "Expr":
        return div(as_expr(other), self)

    def __neg__(self) -> "Expr":
        return neg(self)

    # -- structural helpers -----------------------------------------------
    def children(self) -> Tuple["Expr", ...]:
        """Return the direct sub-expressions of this node."""
        return ()

    def with_children(self, children: Sequence["Expr"]) -> "Expr":
        """Rebuild this node with ``children`` replacing its current ones."""
        if children:
            raise ValueError(f"{type(self).__name__} takes no children")
        return self

    def _walk_nodes(self) -> Tuple["Expr", ...]:
        nodes = self.__dict__.get("_nodes")
        if nodes is None:
            acc = [self]
            for child in self.children():
                acc.extend(child._walk_nodes())
            nodes = tuple(acc)
            object.__setattr__(self, "_nodes", nodes)
        return nodes

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and every descendant, pre-order."""
        return iter(self._walk_nodes())

    def symbols(self) -> frozenset:
        """Return the set of symbol names appearing in the expression."""
        cached = self.__dict__.get("_symbols")
        if cached is None:
            cached = frozenset(n.name for n in self._walk_nodes() if isinstance(n, Sym))
            object.__setattr__(self, "_symbols", cached)
        return cached

    def arrays(self) -> frozenset:
        """Return the set of array names appearing in the expression."""
        cached = self.__dict__.get("_arrays")
        if cached is None:
            cached = frozenset(n.array for n in self._walk_nodes() if isinstance(n, ArrayCell))
            object.__setattr__(self, "_arrays", cached)
        return cached

    def size(self) -> int:
        """Number of AST nodes in the expression."""
        return len(self._walk_nodes())


@dataclass(frozen=True)
class Const(Expr):
    """A numeric literal.  Values are normalised to ``Fraction`` when exact."""

    value: Number

    def __repr__(self) -> str:
        if isinstance(self.value, Fraction) and self.value.denominator == 1:
            return str(self.value.numerator)
        return str(self.value)


@dataclass(frozen=True)
class Sym(Expr):
    """A free scalar symbol (loop bound, loop counter, scalar input)."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArrayCell(Expr):
    """A read of one cell of a named array: ``array[index_0, ..., index_k]``."""

    array: str
    indices: Tuple[Expr, ...]

    def children(self) -> Tuple[Expr, ...]:
        return self.indices

    def with_children(self, children: Sequence[Expr]) -> "ArrayCell":
        return ArrayCell(self.array, tuple(children))

    def __repr__(self) -> str:
        cached = self.__dict__.get("_repr")
        if cached is None:
            inner = ", ".join(repr(i) for i in self.indices)
            cached = f"{self.array}[{inner}]"
            object.__setattr__(self, "_repr", cached)
        return cached


@dataclass(frozen=True)
class Call(Expr):
    """A call to a pure (side-effect free) function, e.g. ``sqrt`` or ``exp``.

    The paper models Fortran intrinsics and pure math functions as
    uninterpreted functions; the verifier treats two calls as equal iff
    the function names match and the arguments are equal.
    """

    func: str
    args: Tuple[Expr, ...]

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def with_children(self, children: Sequence[Expr]) -> "Call":
        return Call(self.func, tuple(children))

    def __repr__(self) -> str:
        cached = self.__dict__.get("_repr")
        if cached is None:
            inner = ", ".join(repr(a) for a in self.args)
            cached = f"{self.func}({inner})"
            object.__setattr__(self, "_repr", cached)
        return cached


@dataclass(frozen=True)
class _BinOp(Expr):
    left: Expr
    right: Expr

    OP = "?"

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[Expr]) -> "_BinOp":
        left, right = children
        return type(self)(left, right)

    def __repr__(self) -> str:
        cached = self.__dict__.get("_repr")
        if cached is None:
            cached = f"({self.left!r} {self.OP} {self.right!r})"
            object.__setattr__(self, "_repr", cached)
        return cached


@dataclass(frozen=True, repr=False)
class Add(_BinOp):
    OP = "+"


@dataclass(frozen=True, repr=False)
class Sub(_BinOp):
    OP = "-"


@dataclass(frozen=True, repr=False)
class Mul(_BinOp):
    OP = "*"


@dataclass(frozen=True, repr=False)
class Div(_BinOp):
    OP = "/"


@dataclass(frozen=True)
class Neg(Expr):
    """Unary negation."""

    operand: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def with_children(self, children: Sequence[Expr]) -> "Neg":
        (operand,) = children
        return Neg(operand)

    def __repr__(self) -> str:
        cached = self.__dict__.get("_repr")
        if cached is None:
            cached = f"(-{self.operand!r})"
            object.__setattr__(self, "_repr", cached)
        return cached


# Frozen dataclasses regenerate ``__hash__`` per class; rebind them all to
# the base's cached implementation (consistent with the structural ``__eq__``
# the dataclasses keep).
for _cls in (Const, Sym, ArrayCell, Call, _BinOp, Add, Sub, Mul, Div, Neg):
    _cls.__hash__ = Expr._cached_hash  # type: ignore[assignment]
del _cls


# ---------------------------------------------------------------------------
# Constructor helpers
# ---------------------------------------------------------------------------

# Small-integer constants dominate coercions (array indices, offsets);
# memoise them to skip both the Fraction construction and the intern probe.
_INT_CONSTS: Dict[int, "Const"] = {}


def as_expr(value: "Expr | Number | str") -> Expr:
    """Coerce a Python value into an :class:`Expr`.

    Integers and fractions become exact :class:`Const` nodes, floats are
    kept as floats, and strings become symbols.
    """
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not symbolic values")
    if isinstance(value, int):
        node = _INT_CONSTS.get(value)
        if node is None:
            node = Const(Fraction(value))
            if len(_INT_CONSTS) < 4096:
                _INT_CONSTS[value] = node
        return node
    if isinstance(value, Fraction):
        return Const(value)
    if isinstance(value, float):
        return Const(value)
    if isinstance(value, str):
        return Sym(value)
    raise TypeError(f"cannot convert {value!r} to a symbolic expression")


def const(value: Number) -> Const:
    """Build a constant node."""
    coerced = as_expr(value)
    assert isinstance(coerced, Const)
    return coerced


def sym(name: str) -> Sym:
    """Build a symbol node."""
    return Sym(name)


def cell(array: str, *indices: "Expr | Number | str") -> ArrayCell:
    """Build an array-cell read node."""
    return ArrayCell(array, tuple(as_expr(i) for i in indices))


def call(func: str, *args: "Expr | Number | str") -> Call:
    """Build a pure-function call node."""
    return Call(func, tuple(as_expr(a) for a in args))


def add(left: Expr, right: Expr) -> Expr:
    """Build ``left + right`` with trivial constant folding."""
    if isinstance(left, Const) and isinstance(right, Const):
        return Const(_num_add(left.value, right.value))
    if isinstance(left, Const) and left.value == 0:
        return right
    if isinstance(right, Const) and right.value == 0:
        return left
    return Add(left, right)


def sub(left: Expr, right: Expr) -> Expr:
    """Build ``left - right`` with trivial constant folding."""
    if isinstance(left, Const) and isinstance(right, Const):
        return Const(_num_sub(left.value, right.value))
    if isinstance(right, Const) and right.value == 0:
        return left
    if left is right or left == right:
        return Const(Fraction(0))
    return Sub(left, right)


def mul(left: Expr, right: Expr) -> Expr:
    """Build ``left * right`` with trivial constant folding."""
    if isinstance(left, Const) and isinstance(right, Const):
        return Const(_num_mul(left.value, right.value))
    for a, b in ((left, right), (right, left)):
        if isinstance(a, Const):
            if a.value == 0:
                return Const(Fraction(0))
            if a.value == 1:
                return b
    return Mul(left, right)


def div(left: Expr, right: Expr) -> Expr:
    """Build ``left / right``; division by literal zero raises."""
    if isinstance(right, Const):
        if right.value == 0:
            raise ZeroDivisionError("symbolic division by constant zero")
        if right.value == 1:
            return left
        if isinstance(left, Const):
            return Const(_num_div(left.value, right.value))
    return Div(left, right)


def neg(operand: Expr) -> Expr:
    """Build ``-operand`` with constant folding and double-negation removal."""
    if isinstance(operand, Const):
        return Const(_num_mul(operand.value, Fraction(-1)))
    if isinstance(operand, Neg):
        return operand.operand
    return Neg(operand)


# ---------------------------------------------------------------------------
# Exact-when-possible numeric helpers
# ---------------------------------------------------------------------------

def _num_add(a: Number, b: Number) -> Number:
    return a + b


def _num_sub(a: Number, b: Number) -> Number:
    return a - b


def _num_mul(a: Number, b: Number) -> Number:
    return a * b


def _num_div(a: Number, b: Number) -> Number:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a / b
    return a / b


def substitute_map(expr: Expr, mapping: Mapping[Expr, Expr]) -> Expr:
    """Replace every occurrence of a key expression with its mapped value.

    The substitution is simultaneous and structural: once a node matches
    a key, its subtree is not descended into further.  Shared (interned)
    subtrees are rewritten once per call via an identity-keyed memo.
    """
    memo: Dict[int, Expr] = {}

    def rec(node: Expr) -> Expr:
        done = memo.get(id(node))
        if done is not None:
            return done
        if node in mapping:
            result = mapping[node]
        else:
            children = node.children()
            if not children:
                result = node
            else:
                new_children = [rec(c) for c in children]
                if all(n is o for n, o in zip(new_children, children)):
                    result = node
                else:
                    result = node.with_children(new_children)
        memo[id(node)] = result
        return result

    return rec(expr)
