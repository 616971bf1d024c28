"""IR node definitions.

The IR is a small structured imperative language:

* value expressions: integer/real constants, variable references,
  array loads, binary operations (``+ - * /``), unary negation and
  calls to pure functions;
* statements: scalar assignment, array store, counted loops (already
  normalised so the counter, lower bound, upper bound and step are
  explicit), and conditional statements (kept in the IR so that the
  conditional-lifting experiment of §6.6 can be expressed, even though
  the default pipeline rejects kernels containing them);
* a :class:`Kernel` wraps the body together with array/scalar
  declarations and the preconditions gathered from ``STNG: assume``
  annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple


# ---------------------------------------------------------------------------
# Value expressions
# ---------------------------------------------------------------------------

class ValueExpr:
    """Base class of IR value expressions."""

    def children(self) -> Tuple["ValueExpr", ...]:
        return ()

    def walk(self):
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class IntConst(ValueExpr):
    """Integer literal."""

    value: int

    def __repr__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class RealConst(ValueExpr):
    """Floating-point literal."""

    value: float

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class VarRef(ValueExpr):
    """Reference to a scalar variable or loop counter."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArrayLoad(ValueExpr):
    """Read of ``array(index_1, ..., index_k)``."""

    array: str
    indices: Tuple[ValueExpr, ...]

    def children(self) -> Tuple[ValueExpr, ...]:
        return self.indices

    def __repr__(self) -> str:
        return f"{self.array}({', '.join(map(repr, self.indices))})"


@dataclass(frozen=True)
class BinOp(ValueExpr):
    """Binary arithmetic operation; ``op`` is one of ``+ - * /``."""

    op: str
    left: ValueExpr
    right: ValueExpr

    def children(self) -> Tuple[ValueExpr, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class UnaryOp(ValueExpr):
    """Unary operation; ``op`` is ``-`` (negation) or ``+`` (identity)."""

    op: str
    operand: ValueExpr

    def children(self) -> Tuple[ValueExpr, ...]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"({self.op}{self.operand!r})"


@dataclass(frozen=True)
class FuncCall(ValueExpr):
    """Call to a pure function / Fortran intrinsic (sqrt, exp, abs, ...)."""

    func: str
    args: Tuple[ValueExpr, ...]

    def children(self) -> Tuple[ValueExpr, ...]:
        return self.args

    def __repr__(self) -> str:
        return f"{self.func}({', '.join(map(repr, self.args))})"


@dataclass(frozen=True)
class Compare(ValueExpr):
    """Comparison expression used only inside :class:`If` conditions."""

    op: str  # one of < <= > >= == /=
    left: ValueExpr
    right: ValueExpr

    def children(self) -> Tuple[ValueExpr, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Stmt:
    """Base class of IR statements."""


@dataclass
class Assign(Stmt):
    """Scalar assignment ``target = value``."""

    target: str
    value: ValueExpr

    def __repr__(self) -> str:
        return f"{self.target} = {self.value!r}"


@dataclass
class ArrayStore(Stmt):
    """Array element assignment ``array(indices) = value``."""

    array: str
    indices: Tuple[ValueExpr, ...]
    value: ValueExpr

    def __repr__(self) -> str:
        idx = ", ".join(map(repr, self.indices))
        return f"{self.array}({idx}) = {self.value!r}"


@dataclass
class Block(Stmt):
    """A sequence of statements."""

    statements: List[Stmt] = field(default_factory=list)

    def __iter__(self):
        return iter(self.statements)

    def __len__(self) -> int:
        return len(self.statements)

    def __repr__(self) -> str:
        return "Block(" + "; ".join(map(repr, self.statements)) + ")"


@dataclass
class Loop(Stmt):
    """Counted loop, normalised from Fortran ``do``.

    Executes ``body`` for ``counter`` ranging from ``lower`` to
    ``upper`` inclusive with the given positive integer ``step``
    (the paper's prototype only handles monotonically increasing
    loop variables, §5.4; decrementing loops are rejected by the
    frontend).
    """

    counter: str
    lower: ValueExpr
    upper: ValueExpr
    body: Block
    step: int = 1

    def __repr__(self) -> str:
        return (
            f"for {self.counter} = {self.lower!r} .. {self.upper!r} "
            f"step {self.step}: {self.body!r}"
        )


@dataclass
class If(Stmt):
    """Conditional statement (only produced for the §6.6 experiments)."""

    condition: ValueExpr
    then_body: Block
    else_body: Optional[Block] = None

    def __repr__(self) -> str:
        text = f"if {self.condition!r} then {self.then_body!r}"
        if self.else_body is not None:
            text += f" else {self.else_body!r}"
        return text


# ---------------------------------------------------------------------------
# Declarations and the kernel container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArrayDecl:
    """Array declaration with symbolic per-dimension bounds.

    ``bounds`` is a tuple of ``(lower, upper)`` pairs of value
    expressions, following Fortran's ``dimension(lo:hi, ...)`` syntax.
    """

    name: str
    bounds: Tuple[Tuple[ValueExpr, ValueExpr], ...]
    element_type: str = "real"
    is_pointer: bool = False

    @property
    def rank(self) -> int:
        return len(self.bounds)


@dataclass(frozen=True)
class ScalarDecl:
    """Scalar declaration (loop bound, temporary, coefficient)."""

    name: str
    scalar_type: str = "integer"  # "integer" or "real"


@dataclass
class Kernel:
    """A candidate stencil kernel extracted from the source program.

    Attributes
    ----------
    name:
        Identifier used in reports (derived from the enclosing
        procedure and the loop's position).
    params:
        Ordered names of the formal parameters of the extracted
        procedure (loop bounds, arrays, scalar inputs).
    arrays / scalars:
        Declarations for every array and scalar the kernel mentions.
    body:
        The loop nest itself.
    assumptions:
        Preconditions supplied via ``!STNG: assume(...)`` annotations
        (§5.2), as IR comparison expressions.
    source_name:
        Name of the suite/application the kernel came from, for
        reporting.
    """

    name: str
    params: List[str]
    arrays: List[ArrayDecl]
    scalars: List[ScalarDecl]
    body: Block
    assumptions: List[ValueExpr] = field(default_factory=list)
    source_name: str = ""

    def array_decl(self, name: str) -> ArrayDecl:
        """Look up the declaration of array ``name``."""
        for decl in self.arrays:
            if decl.name == name:
                return decl
        raise KeyError(f"no array named {name!r} in kernel {self.name}")
