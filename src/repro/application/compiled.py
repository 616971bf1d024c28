"""Generated Python for the interpreted remainder of a translated program.

A translated application runs each lifted kernel through its site hook
(:mod:`repro.application.execute`) and every other statement — drivers,
calls, the unliftable fallback loops — as the original Fortran.  The
reference :class:`~repro.application.interp.FortranInterpreter` walks
those statements node by node; :class:`CompiledInterpreter` runs each
top-level statement of a procedure body as one ``compile()``-ed Python
function, generated once and memoised by statement identity (a
statement belongs to one procedure, whose declarations the code bakes
in).

Fidelity rules (checked against the reference by
``tests/test_application.py``):

* subscripts, operands and statements run in the reference's order, each
  into its own temporary, and ``.and.``/``.or.`` stop where its
  ``all``/``any`` stop;
* every failing or unusual path calls the reference's own code
  (``Scope.scalar``/``array``/``assign_scalar``, ``FArray.load``/``store``,
  ``as_index``, ``as_logical``, ``divide``, ``power``, ``counter_values``,
  ``_count_iteration``, ``_intrinsic``, ``_exec_call``, and ``_eval`` or
  ``_exec`` for any node the generator does not know), so exception types,
  messages and their precedence cannot drift;
* a check is left out only where the declarations decide it: integer
  scalars and loop counters hold exact ``int``s, real and logical scalars
  that are never loop counters hold ``float`` and ``bool``, array loads
  give ``float``, and an array's rank is its declared rank;
* a loop counter is read from a Python local only when its body can never
  write it (no assignment, call writeback or inner loop over the name); it
  is still stored in the scope on every iteration;
* ``exit`` and ``cycle`` inside a generated loop are ``break`` and
  ``continue`` (the exit value is stored in the loop's ``else``); outside
  one they run on the reference, whose signal reaches the loop or the
  procedure that handles it.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import repro.application.interp as _interp
from repro.application.interp import (
    FortranInterpreter, Scope, _Return, as_index, as_logical, counter_values, divide, power,
)
from repro.compile.exprcomp import memoise_by_id
from repro.frontend.ast import (
    Assignment, BinExpr, CallStmt, CompareExpr, ControlStmt, DoLoop, FExpr, FStmt, IfBlock,
    LogicalExpr, Num, Procedure, Ref, UnaryExpr,
)

StmtFn = Callable[[FortranInterpreter, Scope], None]

# id(statement) -> (statement, generated function); see memoise_by_id.
_STMT_FNS: Dict[int, Tuple[FStmt, StmtFn]] = {}
_CACHE_MAX = 1 << 12

_KIND = {"integer": int, "real": float, "logical": bool}
_LOOP_CONTROL = {"exit": "break", "cycle": "continue"}
_COMPARE = {"<": "<", "<=": "<=", ">": ">", ">=": ">=", "==": "==", "/=": "!="}

# Globals of every generated function.
_ENV = dict(
    _interp=_interp, _Return=_Return, _reference_exec=FortranInterpreter._exec, as_index=as_index,
    as_logical=as_logical, counter_values=counter_values, divide=divide, power=power,
)


def compile_statement(stmt: FStmt, proc: Procedure) -> StmtFn:
    """One statement of ``proc``'s body as an ``(interp, scope) -> None`` function."""
    return memoise_by_id(_STMT_FNS, stmt, lambda node: _generate(node, proc), _CACHE_MAX)


class CompiledInterpreter(FortranInterpreter):
    """The reference interpreter with every statement run as generated code.

    Only ``_exec`` differs: procedure entry, site hooks, calls with their
    writebacks, ``return`` and intrinsics stay the reference's own.  Code
    for every statement of the program is generated here, so a caller
    timing :meth:`run` times execution alone.
    """

    def __init__(self, program, site_hooks=None):
        super().__init__(program, site_hooks)
        for proc in program.procedures:
            for stmt in proc.body:
                compile_statement(stmt, proc)

    def _exec(self, stmt: FStmt, scope: Scope) -> None:
        compile_statement(stmt, scope.procedure)(self, scope)


def _generate(stmt: FStmt, proc: Procedure) -> StmtFn:
    try:
        return _Emitter(proc).function(stmt)
    except (SyntaxError, RecursionError):
        # Past Python's nesting limits (20 nested loops): the reference
        # runs this statement and hands each nested statement back to
        # ``_exec``, which generates code for it alone.
        return lambda interp, scope: FortranInterpreter._exec(interp, stmt, scope)


def _statements(body: Sequence[FStmt]) -> Iterator[FStmt]:
    for stmt in body:
        yield stmt
        if isinstance(stmt, DoLoop):
            yield from _statements(stmt.body)
        elif isinstance(stmt, IfBlock):
            yield from _statements(stmt.then_body)
            yield from _statements(stmt.else_body)


def _writes_scalar(body: Sequence[FStmt], name: str) -> bool:
    """Can running ``body`` store into the scalar ``name``?"""
    return any(
        (isinstance(stmt, Assignment) and stmt.target == Ref(name))
        or (isinstance(stmt, DoLoop) and stmt.var == name)
        or (isinstance(stmt, CallStmt) and Ref(name) in stmt.args)  # a writeback
        for stmt in _statements(body)
    )


class _Emitter:
    """Python source for one statement of ``proc`` (one temporary per value)."""

    def __init__(self, proc: Procedure):
        self.proc = proc
        self.types = Scope(procedure=proc)
        self.ranks = {name: len(proc.dimension_of(name)) for name in proc.array_names()}
        self.counters = {s.var for s in _statements(proc.body) if isinstance(s, DoLoop)}
        self.lines: List[str] = []
        self.env: Dict[str, object] = dict(_ENV)
        self.arrays: Dict[str, int] = {}  # array name -> number of its prologue locals
        self.local: Dict[str, str] = {}  # loop counter -> the local holding it
        self.count = 0
        self.loops = False
        self.open_loops = 0  # generated loops around the statement being emitted

    def function(self, stmt: FStmt) -> StmtFn:
        self.statement(stmt, 1)
        prologue = ["    S = scope.scalars"]
        if self.loops:
            prologue.append("    L = _interp.MAX_TOTAL_ITERATIONS")
        for name, n in self.arrays.items():
            dims = range(self.ranks[name])
            prologue += [
                f"    a{n} = scope.arrays[{name!r}]",
                f"    d{n} = a{n}.data",
                f"    {''.join(f'o{n}_{k}, ' for k in dims)}= a{n}.origin",
                f"    {''.join(f'n{n}_{k}, ' for k in dims)}= d{n}.shape",
            ]
        source = "def _stmt(interp, scope):\n" + "\n".join(prologue + self.lines)
        tag = f"<repro.application.compiled:{self.proc.name}>"
        exec(compile(source, tag, "exec"), self.env)
        return self.env["_stmt"]

    # -- plumbing ----------------------------------------------------------
    def name(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def const(self, value: object) -> str:
        name = self.name("k")
        self.env[name] = value
        return name

    def emit(self, line: str, depth: int) -> None:
        self.lines.append("    " * depth + line)

    def assign(self, code: str, depth: int) -> str:
        temp = self.name("t")
        self.emit(f"{temp} = {code}", depth)
        return temp

    def bind(self, array: str) -> int:
        return self.arrays.setdefault(array, len(self.arrays) + 1)

    # -- statements --------------------------------------------------------
    def block(self, body: Sequence[FStmt], depth: int) -> None:
        for stmt in body or [ControlStmt("continue")]:
            self.statement(stmt, depth)

    def statement(self, stmt: FStmt, depth: int) -> None:
        if isinstance(stmt, Assignment):
            self.assignment(stmt, depth)
        elif isinstance(stmt, DoLoop):
            self.loop(stmt, depth)
        elif isinstance(stmt, IfBlock):
            self.emit(f"if {self.condition(stmt.condition, depth)}:", depth)
            self.block(stmt.then_body, depth + 1)
            if stmt.else_body:
                self.emit("else:", depth)
                self.block(stmt.else_body, depth + 1)
        elif isinstance(stmt, CallStmt):
            self.emit(f"interp._exec_call({self.const(stmt)}, scope)", depth)
        elif isinstance(stmt, ControlStmt) and stmt.kind == "continue":
            self.emit("pass", depth)
        elif isinstance(stmt, ControlStmt) and stmt.kind == "return":
            self.emit("raise _Return()", depth)
        elif isinstance(stmt, ControlStmt) and stmt.kind in _LOOP_CONTROL and self.open_loops:
            self.emit(_LOOP_CONTROL[stmt.kind], depth)
        else:
            self.emit(f"_reference_exec(interp, {self.const(stmt)}, scope)", depth)

    def assignment(self, stmt: Assignment, depth: int) -> None:
        target = stmt.target
        if not target.subscripts:
            value, kind = self.expr(stmt.value, depth)
            if kind is not None and kind is _KIND.get(self.types.scalar_type(target.name)):
                self.emit(f"S[{target.name!r}] = {value}", depth)
            else:
                self.emit(f"scope.assign_scalar({target.name!r}, {value})", depth)
            return
        indices = [self.index(sub, depth) for sub in target.subscripts]
        value, kind = self.expr(stmt.value, depth)
        if target.name not in self.ranks:
            self.emit(f"scope.array({target.name!r})", depth)  # raises: not an array
            return
        if kind is not float:
            value = self.assign(f"float({value})", depth)
        n = self.bind(target.name)
        listed = "".join(f"{index}, " for index in indices)
        if len(indices) != self.ranks[target.name]:
            self.emit(f"a{n}.store(({listed}), {value})", depth)  # raises: rank
            return
        positions, inside = self.positions(n, indices, depth)
        self.emit(f"if {inside}:", depth)
        self.emit(f"d{n}[{positions}] = {value}", depth + 1)
        self.emit("else:", depth)
        self.emit(f"a{n}.store(({listed}), {value})", depth + 1)  # raises: bounds

    def loop(self, loop: DoLoop, depth: int) -> None:
        self.loops = True
        lower = self.index(loop.lower, depth)
        upper = self.index(loop.upper, depth)
        step = "1" if loop.step is None else self.index(loop.step, depth)
        values = self.assign(f"counter_values({self.const(loop)}, {lower}, {upper}, {step})", depth)
        last = self.assign(f"len({values}) - 1", depth)
        counter = self.name("c")
        self.emit(f"for {counter} in {values}[:{last}]:", depth)
        self.emit(f"S[{loop.var!r}] = {counter}", depth + 1)
        # ``_count_iteration`` inlined while it cannot raise; the raise is its own.
        self.emit("if interp._iterations < L:", depth + 1)
        self.emit("interp._iterations += 1", depth + 2)
        self.emit("else:", depth + 1)
        self.emit("interp._count_iteration()", depth + 2)
        outer = dict(self.local)
        if not _writes_scalar(loop.body, loop.var):
            self.local[loop.var] = counter
        self.open_loops += 1
        self.block(loop.body, depth + 1)
        self.open_loops -= 1
        self.local = outer
        # After ``exit`` (a ``break``) the counter keeps its current value.
        self.emit("else:", depth)
        self.emit(f"S[{loop.var!r}] = {values}[{last}]", depth + 1)

    # -- expressions -------------------------------------------------------
    def index(self, expr: FExpr, depth: int) -> str:
        value, kind = self.expr(expr, depth)
        if kind is int:
            return value
        return self.assign(f"as_index({value}, {self.const(expr)})", depth)

    def condition(self, expr: FExpr, depth: int) -> str:
        value, kind = self.expr(expr, depth)
        if kind is bool:
            return value
        return self.assign(f"as_logical({value}, {self.const(expr)})", depth)

    def positions(self, n: int, indices: List[str], depth: int) -> Tuple[str, str]:
        """Zero-based positions of ``indices`` in array ``n``, and their bounds test."""
        names = [self.assign(f"{index} - o{n}_{k}", depth) for k, index in enumerate(indices)]
        inside = " and ".join(f"0 <= {p} < n{n}_{k}" for k, p in enumerate(names))
        return ", ".join(names), inside

    def expr(self, expr: FExpr, depth: int) -> Tuple[str, Optional[type]]:
        """A name or literal holding the value, and its Python type when fixed."""
        if isinstance(expr, Num):
            value = float(expr.value) if expr.is_real else int(expr.value)
            return (repr(value) if math.isfinite(value) else self.const(value)), type(value)
        if isinstance(expr, Ref) and not expr.subscripts:
            return self.scalar(expr.name, depth)
        if isinstance(expr, Ref) and expr.name in self.ranks:
            return self.load(expr, depth)
        if isinstance(expr, Ref):
            args = ", ".join(self.expr(sub, depth)[0] for sub in expr.subscripts)
            return self.assign(f"interp._intrinsic({self.const(expr)}, [{args}])", depth), None
        if isinstance(expr, BinExpr) and expr.op in ("+", "-", "*", "/", "**"):
            left, left_kind = self.expr(expr.left, depth)
            right, right_kind = self.expr(expr.right, depth)
            if expr.op == "/":
                code = f"divide({left}, {right}, {self.const(expr)})"
            elif expr.op == "**":
                code = f"power({left}, {right})"
            else:
                code = f"{left} {expr.op} {right}"
            if left_kind is int and right_kind is int:
                kind = None if expr.op == "**" else int
            else:
                kind = float if float in (left_kind, right_kind) else None
            return self.assign(code, depth), kind
        if isinstance(expr, UnaryExpr):
            operand, kind = self.expr(expr.operand, depth)
            if expr.op != "-":
                return operand, kind
            return self.assign(f"-{operand}", depth), kind if kind in (int, float) else None
        if isinstance(expr, CompareExpr) and expr.op in _COMPARE:
            left, _ = self.expr(expr.left, depth)
            right, _ = self.expr(expr.right, depth)
            return self.assign(f"{left} {_COMPARE[expr.op]} {right}", depth), bool
        if isinstance(expr, LogicalExpr) and expr.op == ".not.":
            return self.assign(f"not {self.condition(expr.operands[0], depth)}", depth), bool
        if isinstance(expr, LogicalExpr) and expr.op in (".and.", ".or."):
            return self.junction(expr, depth), bool
        return self.assign(f"interp._eval({self.const(expr)}, scope)", depth), None

    def scalar(self, name: str, depth: int) -> Tuple[str, Optional[type]]:
        if name in self.ranks:
            return self.assign(f"scope.scalar({name!r})", depth), None  # raises
        if name in self.local:
            return self.local[name], int
        kind = _KIND.get(self.types.scalar_type(name))
        if kind is not int and name in self.counters:
            kind = None  # a loop counter holds an int whatever its declaration
        return self.assign(f"S[{name!r}] if {name!r} in S else scope.scalar({name!r})", depth), kind

    def load(self, ref: Ref, depth: int) -> Tuple[str, type]:
        indices = [self.index(sub, depth) for sub in ref.subscripts]
        n = self.bind(ref.name)
        listed = "".join(f"{index}, " for index in indices)
        if len(indices) != self.ranks[ref.name]:
            return self.assign(f"a{n}.load(({listed}))", depth), float  # raises: rank
        positions, inside = self.positions(n, indices, depth)
        # The fallback branch runs only out of bounds, where load raises.
        code = f"float(d{n}[{positions}]) if {inside} else a{n}.load(({listed}))"
        return self.assign(code, depth), float

    def junction(self, expr: LogicalExpr, depth: int) -> str:
        """``.and.``/``.or.``: each operand runs only while the result is open."""
        result = self.name("t")
        if not expr.operands:
            self.emit(f"{result} = {expr.op == '.and.'}", depth)
        test = f"if {result}:" if expr.op == ".and." else f"if not {result}:"
        for position, operand in enumerate(expr.operands):
            if position:
                self.emit(test, depth)
                depth += 1
            self.emit(f"{result} = {self.condition(operand, depth)}", depth)
        return result
