"""Reference interpreter for whole Fortran programs (numpy arrays).

The per-kernel pipeline already has an IR interpreter
(:mod:`repro.semantics.exec`), but it deliberately rejects everything
the candidate filter rejects — procedure calls, conditionals with
array-dependent conditions, decrementing loops.  Translating a whole
application needs the opposite: a total executor for the *original*
program that handles every construct the frontend parses, so it can
serve as the differential baseline and as the fallback for unliftable
loops inside the translated program.

Arrays are dense numpy buffers with a logical origin (Fortran arrays
declare arbitrary lower bounds); scalars are Python ints, floats and
bools typed by declaration or Fortran implicit typing (``logical``
scalars hold ``bool`` and refuse any other value).  Scalar arithmetic is
plain IEEE double arithmetic — the same operations, in the same order,
that numpy's elementwise kernels perform — which is what makes
bit-for-bit comparison against the vectorised translated execution
meaningful.  Where Python's float arithmetic refuses an operand (real
``/`` by zero, ``sqrt`` of a negative, a negative base to a real
power), the real ``/``, ``**``, ``mod`` and math intrinsics return
numpy float64's result (±inf or nan) instead; integer ``/`` and ``mod``
by zero raise :class:`InterpreterError`.

This tree-walker is the reference.  :mod:`repro.application.compiled`
runs the same semantics as generated code, and the helpers below
(``as_index``, ``as_logical``, ``divide``, ``power``,
``counter_values``) are shared by both so that neither can drift.

Argument passing follows Fortran: arrays are passed by reference (the
callee sees the caller's buffer through its own declared bounds),
scalars are copied in and — when the actual argument is a plain
variable — copied back on return.  ``exit`` leaves the innermost ``do``
with its counter at its current value and ``cycle`` starts its next
iteration; either one outside a loop, and any ``goto``, raises
:class:`InterpreterError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.frontend.ast import (
    Assignment,
    BinExpr,
    CallStmt,
    CompareExpr,
    ControlStmt,
    DoLoop,
    FExpr,
    FStmt,
    IfBlock,
    LogicalExpr,
    Num,
    Procedure,
    Program,
    Ref,
    UnaryExpr,
)
from repro.semantics.exec import loop_counter_values
from repro.semantics.numeric import trunc_div, trunc_mod

Scalar = Union[int, float]


class InterpreterError(Exception):
    """Raised when the program cannot be executed in the given state."""


class _Return(Exception):
    """Internal signal: a ``return`` statement unwound the procedure."""


class _LoopControl(Exception):
    """Internal signal: ``exit`` or ``cycle`` left the innermost loop's iteration."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


# Total per-run iteration budget across all loops (hang protection).
MAX_TOTAL_ITERATIONS = 100_000_000


@dataclass
class FArray:
    """A Fortran array: dense buffer plus the logical origin per dimension."""

    name: str
    data: np.ndarray
    origin: Tuple[int, ...]

    def _offset(self, indices: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(indices) != self.data.ndim:
            raise InterpreterError(
                f"array {self.name!r} has rank {self.data.ndim}, indexed with {len(indices)} subscripts"
            )
        offset = tuple(int(i) - o for i, o in zip(indices, self.origin))
        for dim, (position, extent) in enumerate(zip(offset, self.data.shape)):
            if not 0 <= position < extent:
                raise InterpreterError(
                    f"index {indices[dim]} of array {self.name!r} out of bounds in "
                    f"dimension {dim} (origin {self.origin[dim]}, extent {extent})"
                )
        return offset

    def load(self, indices: Tuple[int, ...]) -> float:
        return float(self.data[self._offset(indices)])

    def store(self, indices: Tuple[int, ...], value: float) -> None:
        self.data[self._offset(indices)] = value


@dataclass
class Scope:
    """One procedure activation: scalar environment plus bound arrays."""

    procedure: Procedure
    scalars: Dict[str, Scalar] = field(default_factory=dict)
    arrays: Dict[str, FArray] = field(default_factory=dict)

    def scalar(self, name: str) -> Scalar:
        if name in self.arrays:
            raise InterpreterError(
                f"array {name!r} used as a scalar in {self.procedure.name!r}"
            )
        if name not in self.scalars:
            raise InterpreterError(
                f"scalar {name!r} read before assignment in {self.procedure.name!r}"
            )
        return self.scalars[name]

    def array(self, name: str) -> FArray:
        if name not in self.arrays:
            raise InterpreterError(
                f"array {name!r} is not bound in {self.procedure.name!r}"
            )
        return self.arrays[name]

    def scalar_type(self, name: str) -> str:
        declared = self.procedure.declared_type(name)
        if declared is None:
            declared = "integer" if name[0] in "ijklmn" else "real"
        return declared

    def assign_scalar(self, name: str, value: Scalar) -> None:
        declared = self.scalar_type(name)
        if declared == "integer":
            self.scalars[name] = _truncate_int(value)
        elif declared == "logical":
            if not isinstance(value, (bool, np.bool_)):
                raise InterpreterError(
                    f"logical {name!r} assigned the non-logical value {value!r} "
                    f"in {self.procedure.name!r}"
                )
            self.scalars[name] = bool(value)
        else:
            self.scalars[name] = float(value)


def _truncate_int(value: Scalar) -> int:
    # Fortran real-to-integer conversion truncates toward zero; Python's
    # int() on floats does the same.
    return int(value)


def eval_static_expr(expr: FExpr, scalars: Mapping[str, Scalar]) -> int:
    """Evaluate a declaration-bound expression over scalar values only."""
    if isinstance(expr, Num):
        if expr.is_real:
            raise InterpreterError(f"array bound {expr!r} is not an integer")
        return int(expr.value)
    if isinstance(expr, Ref) and not expr.subscripts:
        if expr.name not in scalars:
            raise InterpreterError(f"array bound references unbound scalar {expr.name!r}")
        return _truncate_int(scalars[expr.name])
    if isinstance(expr, BinExpr):
        left = eval_static_expr(expr.left, scalars)
        right = eval_static_expr(expr.right, scalars)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            return trunc_div(left, right)
        if expr.op == "**":
            return left ** right
    if isinstance(expr, UnaryExpr):
        operand = eval_static_expr(expr.operand, scalars)
        return -operand if expr.op == "-" else operand
    raise InterpreterError(f"cannot evaluate array bound {expr!r}")


def allocate_arrays(
    program: Program,
    proc_name: str,
    scalars: Mapping[str, Scalar],
    seed: int = 0,
    low: int = -8,
    high: int = 8,
) -> Dict[str, np.ndarray]:
    """Integer-valued initial buffers for a procedure's array parameters.

    Filling the arrays with small integers (stored as doubles) keeps
    every kernel built from dyadic coefficients *exact* in IEEE
    arithmetic, so reassociation by summary synthesis cannot perturb
    results and the differential check can demand bitwise equality.
    """
    proc = program.procedure(proc_name)
    rng = np.random.default_rng(seed)
    buffers: Dict[str, np.ndarray] = {}
    for name in proc.array_names():
        dims = proc.dimension_of(name)
        extents = []
        for lower, upper in dims:
            lo = eval_static_expr(lower, scalars)
            hi = eval_static_expr(upper, scalars)
            if hi < lo:
                raise InterpreterError(
                    f"array {name!r} has empty extent {lo}:{hi} in {proc_name!r}"
                )
            extents.append(hi - lo + 1)
        buffers[name] = rng.integers(low, high + 1, size=tuple(extents)).astype(float)
    return buffers


# Each math intrinsic with the numpy ufunc that answers where it refuses.
_MATH_INTRINSICS: Dict[str, Tuple[Callable[..., float], np.ufunc]] = {
    "sqrt": (math.sqrt, np.sqrt),
    "exp": (math.exp, np.exp),
    "log": (math.log, np.log),
    "sin": (math.sin, np.sin),
    "cos": (math.cos, np.cos),
    "tan": (math.tan, np.tan),
    "atan": (math.atan, np.arctan),
    "sinh": (math.sinh, np.sinh),
    "cosh": (math.cosh, np.cosh),
    "tanh": (math.tanh, np.tanh),
}

# What Python's float arithmetic raises where IEEE returns inf or nan.
_IEEE_ERRORS = (ZeroDivisionError, ValueError, OverflowError)


def _ieee(ufunc: np.ufunc, *operands) -> float:
    """numpy float64's result for operands Python's float arithmetic refuses."""
    with np.errstate(all="ignore"):
        return float(ufunc(*[np.float64(x) for x in operands]))


def as_index(value, expr: FExpr) -> int:
    """An evaluated subscript or loop bound as an ``int``."""
    if isinstance(value, float) and value != int(value):
        raise InterpreterError(f"index expression {expr!r} is not an integer")
    return int(value)


def as_logical(value, expr: FExpr) -> bool:
    """An evaluated condition; anything but a ``bool`` raises."""
    if isinstance(value, bool):
        return value
    raise InterpreterError(f"condition {expr!r} did not evaluate to a logical")


def divide(left, right, expr: BinExpr):
    """Fortran ``/``: truncating on two ints, IEEE on reals."""
    if isinstance(left, int) and isinstance(right, int):
        if right == 0:
            raise InterpreterError(f"integer division by zero in {expr!r}")
        return trunc_div(left, right)
    try:
        return left / right
    except _IEEE_ERRORS:
        return _ieee(np.divide, left, right)


def power(left, right):
    """Fortran ``**``: exact on ints with a non-negative exponent, else IEEE."""
    if isinstance(left, int) and isinstance(right, int) and right >= 0:
        return left ** right
    base, exponent = float(left), float(right)
    try:
        result = base ** exponent
    except _IEEE_ERRORS:
        result = None
    # A negative base to a fractional power gives a complex number.
    return result if isinstance(result, float) else _ieee(np.power, base, exponent)


def counter_values(loop: DoLoop, lower: int, upper: int, step: int) -> range:
    """One entry's counter values plus the exit value; a zero step raises."""
    if step == 0:
        raise InterpreterError(f"loop over {loop.var!r} has zero step")
    return loop_counter_values(lower, upper, step)


# A site hook intercepts execution of a procedure's top-level statement
# span (the translated-kernel substitution); it receives the interpreter,
# the current scope and the statement index, and returns the index of the
# first statement *after* the span it handled.
SiteHook = Callable[["FortranInterpreter", Scope, int], int]


class FortranInterpreter:
    """Execute a parsed multi-procedure program.

    ``site_hooks`` maps ``(procedure_name, statement_index)`` to a
    :data:`SiteHook`; the translated-application executor installs one
    hook per substituted kernel, and an interpreter with no hooks is
    the pure reference semantics.
    """

    def __init__(
        self,
        program: Program,
        site_hooks: Optional[Mapping[Tuple[str, int], SiteHook]] = None,
    ):
        self.program = program
        self.site_hooks = dict(site_hooks or {})
        self._iterations = 0

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(
        self,
        proc_name: str,
        scalars: Mapping[str, Scalar],
        arrays: Mapping[str, np.ndarray],
    ) -> Scope:
        """Execute ``proc_name`` with the given arguments; return its scope.

        ``arrays`` buffers are mutated in place (Fortran by-reference
        semantics); callers wanting a pristine copy must pass copies.
        """
        self._iterations = 0
        try:
            proc = self.program.procedure(proc_name)
        except KeyError as exc:
            raise InterpreterError(str(exc)) from exc
        scope = self._enter(proc, dict(scalars), dict(arrays))
        self._exec_body(proc, scope)
        return scope

    # ------------------------------------------------------------------
    # Procedure activation
    # ------------------------------------------------------------------
    def _enter(
        self,
        proc: Procedure,
        scalar_args: Dict[str, Scalar],
        array_args: Dict[str, np.ndarray],
    ) -> Scope:
        scope = Scope(procedure=proc)
        array_names = set(proc.array_names())
        for param in proc.params:
            if param in array_names:
                if param not in array_args:
                    raise InterpreterError(
                        f"call to {proc.name!r} is missing array argument {param!r}"
                    )
            else:
                if param not in scalar_args:
                    raise InterpreterError(
                        f"call to {proc.name!r} is missing scalar argument {param!r}"
                    )
                scope.assign_scalar(param, scalar_args[param])
        for name in array_names:
            dims = proc.dimension_of(name)
            origin = []
            extents = []
            for lower, upper in dims:
                lo = eval_static_expr(lower, scope.scalars)
                hi = eval_static_expr(upper, scope.scalars)
                origin.append(lo)
                extents.append(max(hi - lo + 1, 0))
            if name in array_args:
                data = array_args[name]
                if data.shape != tuple(extents):
                    raise InterpreterError(
                        f"array argument {name!r} of {proc.name!r} has shape "
                        f"{data.shape}, declared extents are {tuple(extents)}"
                    )
            else:
                if name in proc.params:
                    raise InterpreterError(
                        f"array parameter {name!r} of {proc.name!r} was not passed"
                    )
                # Fortran local arrays are uninitialized; zero-fill is the
                # deterministic stand-in.
                data = np.zeros(tuple(extents), dtype=float)
            scope.arrays[name] = FArray(name=name, data=data, origin=tuple(origin))
        return scope

    def _exec_body(self, proc: Procedure, scope: Scope) -> None:
        body = proc.body
        index = 0
        while index < len(body):
            hook = self.site_hooks.get((proc.name, index))
            if hook is not None:
                next_index = hook(self, scope, index)
                if next_index <= index:
                    raise InterpreterError(
                        f"site hook at {proc.name!r}:{index} did not advance"
                    )
                index = next_index
                continue
            try:
                self._exec(body[index], scope)
            except _Return:
                return
            except _LoopControl as signal:
                raise InterpreterError(
                    f"{signal.kind!r} outside a do loop in {proc.name!r}"
                ) from None
            index += 1

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _exec(self, stmt: FStmt, scope: Scope) -> None:
        if isinstance(stmt, Assignment):
            target = stmt.target
            if target.subscripts:
                indices = tuple(
                    self._index(sub, scope) for sub in target.subscripts
                )
                value = self._eval(stmt.value, scope)
                scope.array(target.name).store(indices, float(value))
            else:
                scope.assign_scalar(target.name, self._eval(stmt.value, scope))
            return
        if isinstance(stmt, DoLoop):
            self._exec_loop(stmt, scope)
            return
        if isinstance(stmt, IfBlock):
            if self._condition(stmt.condition, scope):
                for inner in stmt.then_body:
                    self._exec(inner, scope)
            else:
                for inner in stmt.else_body:
                    self._exec(inner, scope)
            return
        if isinstance(stmt, CallStmt):
            self._exec_call(stmt, scope)
            return
        if isinstance(stmt, ControlStmt):
            if stmt.kind == "continue":
                return
            if stmt.kind == "return":
                raise _Return()
            if stmt.kind in ("exit", "cycle"):
                raise _LoopControl(stmt.kind)
            raise InterpreterError(
                f"unsupported control statement {stmt.kind!r} in {scope.procedure.name!r}"
            )
        raise InterpreterError(f"cannot execute statement {stmt!r}")

    def _exec_loop(self, loop: DoLoop, scope: Scope) -> None:
        lower = self._index(loop.lower, scope)
        upper = self._index(loop.upper, scope)
        step = 1 if loop.step is None else self._index(loop.step, scope)
        values = counter_values(loop, lower, upper, step)
        for counter in values[: len(values) - 1]:
            scope.scalars[loop.var] = counter
            self._count_iteration()
            try:
                for inner in loop.body:
                    self._exec(inner, scope)
            except _LoopControl as signal:
                if signal.kind == "exit":
                    return  # the counter keeps its current value
        # Fortran: after the loop the counter holds the first value that
        # failed the iteration test.
        scope.scalars[loop.var] = values[len(values) - 1]

    def _count_iteration(self) -> None:
        self._iterations += 1
        if self._iterations > MAX_TOTAL_ITERATIONS:
            raise InterpreterError("iteration budget exhausted")

    def _exec_call(self, stmt: CallStmt, scope: Scope) -> None:
        try:
            callee = self.program.procedure(stmt.name)
        except KeyError as exc:
            raise InterpreterError(
                f"call to undefined procedure {stmt.name!r} from {scope.procedure.name!r}"
            ) from exc
        if len(stmt.args) != len(callee.params):
            raise InterpreterError(
                f"call to {callee.name!r} passes {len(stmt.args)} arguments, "
                f"expected {len(callee.params)}"
            )
        callee_arrays = set(callee.array_names())
        scalar_args: Dict[str, Scalar] = {}
        array_args: Dict[str, np.ndarray] = {}
        writebacks: List[Tuple[str, str]] = []
        for param, arg in zip(callee.params, stmt.args):
            if param in callee_arrays:
                if not (isinstance(arg, Ref) and not arg.subscripts):
                    raise InterpreterError(
                        f"array argument {param!r} of {callee.name!r} must be a "
                        f"plain array name, got {arg!r}"
                    )
                array_args[param] = scope.array(arg.name).data
            else:
                scalar_args[param] = self._eval(arg, scope)
                if (
                    isinstance(arg, Ref)
                    and not arg.subscripts
                    and arg.name not in scope.arrays
                ):
                    writebacks.append((arg.name, param))
        callee_scope = self._enter(callee, scalar_args, array_args)
        self._exec_body(callee, callee_scope)
        for caller_name, param in writebacks:
            scope.assign_scalar(caller_name, callee_scope.scalars[param])

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _index(self, expr: FExpr, scope: Scope) -> int:
        return as_index(self._eval(expr, scope), expr)

    def _condition(self, expr: FExpr, scope: Scope) -> bool:
        return as_logical(self._eval(expr, scope), expr)

    def _eval(self, expr: FExpr, scope: Scope):
        if isinstance(expr, Num):
            return float(expr.value) if expr.is_real else int(expr.value)
        if isinstance(expr, Ref):
            if not expr.subscripts:
                return scope.scalar(expr.name)
            if expr.name in scope.arrays:
                indices = tuple(self._index(sub, scope) for sub in expr.subscripts)
                return scope.array(expr.name).load(indices)
            return self._intrinsic(
                expr, [self._eval(sub, scope) for sub in expr.subscripts]
            )
        if isinstance(expr, BinExpr):
            left = self._eval(expr.left, scope)
            right = self._eval(expr.right, scope)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                return divide(left, right, expr)
            if expr.op == "**":
                return power(left, right)
            raise InterpreterError(f"unknown operator {expr.op!r}")
        if isinstance(expr, UnaryExpr):
            operand = self._eval(expr.operand, scope)
            return -operand if expr.op == "-" else operand
        if isinstance(expr, CompareExpr):
            left = self._eval(expr.left, scope)
            right = self._eval(expr.right, scope)
            if expr.op == "<":
                return left < right
            if expr.op == "<=":
                return left <= right
            if expr.op == ">":
                return left > right
            if expr.op == ">=":
                return left >= right
            if expr.op == "==":
                return left == right
            if expr.op == "/=":
                return left != right
            raise InterpreterError(f"unknown comparison {expr.op!r}")
        if isinstance(expr, LogicalExpr):
            if expr.op == ".not.":
                return not self._condition(expr.operands[0], scope)
            if expr.op == ".and.":
                return all(self._condition(op, scope) for op in expr.operands)
            if expr.op == ".or.":
                return any(self._condition(op, scope) for op in expr.operands)
            raise InterpreterError(f"unknown logical operator {expr.op!r}")
        raise InterpreterError(f"cannot evaluate expression {expr!r}")

    def _intrinsic(self, call: Ref, args: List[Scalar]):
        name = call.name
        if name == "abs":
            return abs(args[0])
        if name in {"min", "max"}:
            result = min(args) if name == "min" else max(args)
            if all(isinstance(a, int) for a in args):
                return int(result)
            return float(result)
        if name == "mod":
            if isinstance(args[0], int) and isinstance(args[1], int):
                if args[1] == 0:
                    raise InterpreterError(f"integer mod by zero in {call!r}")
                return trunc_mod(args[0], args[1])
            dividend, divisor = float(args[0]), float(args[1])
            try:
                return math.fmod(dividend, divisor)
            except _IEEE_ERRORS:
                return _ieee(np.fmod, dividend, divisor)
        if name == "sign":
            magnitude = abs(args[0])
            return magnitude if args[1] >= 0 else -magnitude
        if name in {"dble", "real", "float"}:
            return float(args[0])
        if name == "int":
            return _truncate_int(args[0])
        pair = _MATH_INTRINSICS.get(name)
        if pair is not None:
            fn, ufunc = pair
            operands = [float(a) for a in args]
            try:
                return fn(*operands)
            except _IEEE_ERRORS:
                if len(operands) != ufunc.nin:
                    raise
                return _ieee(ufunc, *operands)
        raise InterpreterError(f"no interpretation for intrinsic {name!r}")
