"""Front-end objects of the Halide-like DSL.

The programming model mirrors Halide's: ``Var`` objects name the
dimensions of the output domain, ``ImageParam`` objects are the input
buffers, ``Param`` objects are scalar inputs, and a ``Func`` is defined
by assigning an expression to ``func[vars]``.  Expressions are built
with ordinary Python operators and support calls to pure math
functions.  A ``Func`` definition is a pure function of its inputs, so
it can be evaluated (by :mod:`repro.halide.executor`), printed as C++
(by :mod:`repro.halide.cppgen`) and scheduled freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

Number = Union[int, float]


class HalideError(Exception):
    """Raised for malformed pipeline definitions."""


class Expr:
    """Base class of DSL expressions."""

    def __add__(self, other):
        return BinOp("+", self, wrap(other))

    def __radd__(self, other):
        return BinOp("+", wrap(other), self)

    def __sub__(self, other):
        return BinOp("-", self, wrap(other))

    def __rsub__(self, other):
        return BinOp("-", wrap(other), self)

    def __mul__(self, other):
        return BinOp("*", self, wrap(other))

    def __rmul__(self, other):
        return BinOp("*", wrap(other), self)

    def __truediv__(self, other):
        return BinOp("/", self, wrap(other))

    def __rtruediv__(self, other):
        return BinOp("/", wrap(other), self)

    def __neg__(self):
        return BinOp("-", Const(0.0), self)

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def walk(self):
        yield self
        for child in self.children():
            yield from child.walk()


def wrap(value: "Expr | Number") -> "Expr":
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value) if isinstance(value, float) else value)
    raise HalideError(f"cannot use {value!r} in a Halide expression")


@dataclass(frozen=True)
class Const(Expr):
    """Numeric literal."""

    value: Number

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    """A dimension variable of the output domain (Halide ``Var``)."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Param(Expr):
    """A scalar pipeline parameter (Halide ``Param<double>``)."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class Call(Expr):
    """Call to a pure math function (``sqrt``, ``exp``, ``pow``, ``min``...)."""

    func: str
    args: Tuple[Expr, ...]

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def __repr__(self) -> str:
        return f"{self.func}({', '.join(map(repr, self.args))})"


@dataclass(frozen=True)
class ImageRef(Expr):
    """A read of an input buffer at the given index expressions."""

    image: "ImageParam"
    indices: Tuple[Expr, ...]

    def children(self) -> Tuple[Expr, ...]:
        return self.indices

    def __repr__(self) -> str:
        idx = ", ".join(map(repr, self.indices))
        return f"{self.image.name}({idx})"


class ImageParam:
    """An input buffer with a fixed number of dimensions."""

    def __init__(self, name: str, dimensions: int):
        if dimensions < 1:
            raise HalideError("an ImageParam needs at least one dimension")
        self.name = name
        self.dimensions = dimensions

    def __call__(self, *indices: "Expr | Number") -> ImageRef:
        if len(indices) != self.dimensions:
            raise HalideError(
                f"{self.name} has {self.dimensions} dimensions, got {len(indices)} indices"
            )
        return ImageRef(self, tuple(wrap(i) for i in indices))

    def __getitem__(self, indices) -> ImageRef:
        if not isinstance(indices, tuple):
            indices = (indices,)
        return self(*indices)

    def __repr__(self) -> str:
        return f"ImageParam({self.name!r}, {self.dimensions})"


class FuncRef(Expr):
    """A reference to another Func's value at an index (producer/consumer chains)."""

    def __init__(self, func: "Func", indices: Tuple[Expr, ...]):
        if func.defined() and len(indices) != func.dimensions:
            raise HalideError(
                f"Func {func.name!r} has {func.dimensions} dimensions, "
                f"got {len(indices)} indices"
            )
        self.func = func
        self.indices = indices

    def children(self) -> Tuple[Expr, ...]:
        return self.indices

    def __repr__(self) -> str:
        idx = ", ".join(map(repr, self.indices))
        return f"{self.func.name}({idx})"


class Func:
    """A pure function from output coordinates to a value.

    Define it by assignment: ``func[x, y] = b(x-1, y) + b(x, y)``.
    """

    _counter = 0

    def __init__(self, name: Optional[str] = None):
        if name is None:
            Func._counter += 1
            name = f"f{Func._counter}"
        self.name = name
        self.vars: Tuple[Var, ...] = ()
        self.definition: Optional[Expr] = None
        from repro.halide.schedule import Schedule

        self.schedule = Schedule()

    # -- definition ----------------------------------------------------------
    def __setitem__(self, vars_, value) -> None:
        if not isinstance(vars_, tuple):
            vars_ = (vars_,)
        if not all(isinstance(v, Var) for v in vars_):
            raise HalideError("Func definitions must be indexed by Var objects")
        names = [v.name for v in vars_]
        if len(set(names)) != len(names):
            raise HalideError("Func definition uses a Var twice")
        self.vars = tuple(vars_)
        self.definition = wrap(value)

    def __getitem__(self, indices) -> FuncRef:
        if not isinstance(indices, tuple):
            indices = (indices,)
        return FuncRef(self, tuple(wrap(i) for i in indices))

    def __call__(self, *indices) -> FuncRef:
        return self[tuple(indices)]

    # -- scheduling ------------------------------------------------------------
    def set_schedule(self, schedule) -> "Func":
        """Attach an execution schedule, validated against the Func's rank."""
        if self.definition is not None:
            schedule.validate(self.dimensions)
        self.schedule = schedule
        return self

    def compute_inline(self) -> "Func":
        """Schedule this stage to be inlined into its consumers (Halide's
        ``compute_inline``); only meaningful for producers in multi-stage
        pipelines."""
        self.schedule = self.schedule.with_inline()
        return self

    # -- introspection ---------------------------------------------------------
    def defined(self) -> bool:
        return self.definition is not None

    @property
    def dimensions(self) -> int:
        return len(self.vars)

    def inputs(self) -> List[ImageParam]:
        if self.definition is None:
            return []
        seen: Dict[str, ImageParam] = {}
        for node in self.definition.walk():
            if isinstance(node, ImageRef) and node.image.name not in seen:
                seen[node.image.name] = node.image
        return list(seen.values())

    def params(self) -> List[Param]:
        if self.definition is None:
            return []
        seen: Dict[str, Param] = {}
        for node in self.definition.walk():
            if isinstance(node, Param) and node.name not in seen:
                seen[node.name] = node
        return list(seen.values())

    def arith_ops(self) -> int:
        """Arithmetic operations per output point (used by the cost models)."""
        if self.definition is None:
            return 0
        ops = 0
        for node in self.definition.walk():
            if isinstance(node, BinOp):
                ops += 1
            elif isinstance(node, Call):
                ops += 4  # transcendental calls cost several flops
        return ops

    def loads_per_point(self) -> int:
        """Input-buffer reads per output point (used by the cost models)."""
        if self.definition is None:
            return 0
        return sum(1 for node in self.definition.walk() if isinstance(node, (ImageRef, FuncRef)))

    def __repr__(self) -> str:
        if self.definition is None:
            return f"Func({self.name!r}, undefined)"
        vars_ = ", ".join(v.name for v in self.vars)
        return f"{self.name}({vars_}) = {self.definition!r}"


def minimum(a, b) -> Expr:
    """Halide's ``min`` intrinsic."""
    return Call("min", (wrap(a), wrap(b)))


def maximum(a, b) -> Expr:
    """Halide's ``max`` intrinsic."""
    return Call("max", (wrap(a), wrap(b)))


def sqrt(a) -> Expr:
    return Call("sqrt", (wrap(a),))


def exp(a) -> Expr:
    return Call("exp", (wrap(a),))


def pow(a, b) -> Expr:  # noqa: A001 - mirrors Halide's name
    return Call("pow", (wrap(a), wrap(b)))
