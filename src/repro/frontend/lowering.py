"""Lowering of candidate Fortran fragments into the IR (§5.1).

This is the "Processing Selected Loops" step: each candidate loop nest
is compiled to a simplified intermediate representation — loops get
explicit integer steps, the Fortran array/function-call ambiguity is
resolved against the procedure's declarations, power operators become
calls to the pure ``pow`` function, and ``STNG: assume`` annotations are
parsed into IR comparison expressions and attached to the kernel as
preconditions.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.frontend.ast import (
    Assignment,
    BinExpr,
    CallStmt,
    CompareExpr,
    ControlStmt,
    Declaration,
    DoLoop,
    FExpr,
    FStmt,
    IfBlock,
    LogicalExpr,
    Num,
    Procedure,
    Ref,
    UnaryExpr,
)
from repro.frontend.candidates import Candidate
from repro.frontend.lexer import tokenize
from repro.frontend.parser import _LineParser
from repro.ir.nodes import (
    ArrayDecl,
    ArrayLoad,
    ArrayStore,
    Assign,
    BinOp,
    Block,
    Compare,
    FuncCall,
    If,
    IntConst,
    Kernel,
    Loop,
    RealConst,
    ScalarDecl,
    Stmt,
    UnaryOp,
    ValueExpr,
    VarRef,
)

_PURE_INTRINSICS = {
    "abs", "sqrt", "exp", "log", "sin", "cos", "tan", "min", "max", "mod",
    "sign", "dble", "atan", "sinh", "cosh", "tanh",
}


class LoweringError(Exception):
    """Raised when a candidate fragment cannot be lowered to the IR."""


class _Lowerer:
    def __init__(self, procedure: Procedure):
        self.procedure = procedure
        self.array_names = set(procedure.array_names())

    # -- expressions -------------------------------------------------------
    def lower_expr(self, expr: FExpr) -> ValueExpr:
        if isinstance(expr, Num):
            if expr.is_real:
                return RealConst(expr.value)
            return IntConst(int(expr.value))
        if isinstance(expr, Ref):
            if not expr.subscripts:
                return VarRef(expr.name)
            indices = tuple(self.lower_expr(s) for s in expr.subscripts)
            if expr.name in self.array_names:
                return ArrayLoad(expr.name, indices)
            if expr.name in _PURE_INTRINSICS:
                return FuncCall(expr.name, indices)
            raise LoweringError(
                f"reference to {expr.name!r} is neither a declared array nor a pure intrinsic"
            )
        if isinstance(expr, BinExpr):
            left = self.lower_expr(expr.left)
            right = self.lower_expr(expr.right)
            if expr.op == "**":
                return FuncCall("pow", (left, right))
            return BinOp(expr.op, left, right)
        if isinstance(expr, UnaryExpr):
            return UnaryOp(expr.op, self.lower_expr(expr.operand))
        if isinstance(expr, CompareExpr):
            return Compare(expr.op, self.lower_expr(expr.left), self.lower_expr(expr.right))
        if isinstance(expr, LogicalExpr):
            raise LoweringError("logical connectives are not supported in kernel bodies")
        raise LoweringError(f"cannot lower expression {expr!r}")

    # -- statements ----------------------------------------------------------
    def lower_stmt(self, stmt: FStmt) -> Optional[Stmt]:
        if isinstance(stmt, Declaration):
            return None
        if isinstance(stmt, Assignment):
            target = stmt.target
            if target.subscripts:
                if target.name not in self.array_names:
                    raise LoweringError(
                        f"assignment to subscripted non-array {target.name!r}"
                    )
                indices = tuple(self.lower_expr(s) for s in target.subscripts)
                return ArrayStore(target.name, indices, self.lower_expr(stmt.value))
            return Assign(target.name, self.lower_expr(stmt.value))
        if isinstance(stmt, DoLoop):
            return self.lower_loop(stmt)
        if isinstance(stmt, IfBlock):
            then_block = self.lower_block(stmt.then_body)
            else_block = self.lower_block(stmt.else_body) if stmt.else_body else None
            return If(self.lower_expr(stmt.condition), then_block, else_block)
        if isinstance(stmt, CallStmt):
            raise LoweringError(f"procedure call to {stmt.name!r} inside candidate loop")
        if isinstance(stmt, ControlStmt):
            if stmt.kind == "continue":
                return None
            raise LoweringError(f"unstructured control flow ({stmt.kind}) inside candidate loop")
        raise LoweringError(f"cannot lower statement {stmt!r}")

    def lower_block(self, stmts: List[FStmt]) -> Block:
        lowered: List[Stmt] = []
        for stmt in stmts:
            result = self.lower_stmt(stmt)
            if result is not None:
                lowered.append(result)
        return Block(lowered)

    def lower_loop(self, loop: DoLoop) -> Loop:
        step = 1
        if loop.step is not None:
            step_expr = loop.step
            if isinstance(step_expr, Num) and not step_expr.is_real:
                step = int(step_expr.value)
            elif (
                isinstance(step_expr, UnaryExpr)
                and step_expr.op == "-"
                and isinstance(step_expr.operand, Num)
            ):
                step = -int(step_expr.operand.value)
            else:
                raise LoweringError("loop step must be an integer constant")
        if step <= 0:
            raise LoweringError("only monotonically increasing loops are supported")
        return Loop(
            counter=loop.var,
            lower=self.lower_expr(loop.lower),
            upper=self.lower_expr(loop.upper),
            body=self.lower_block(loop.body),
            step=step,
        )


def _lower_annotation(text: str, lowerer: _Lowerer) -> ValueExpr:
    """Parse and lower the expression inside a ``STNG: assume(...)`` comment."""
    tokens = [t for t in tokenize(text) if t.kind not in {"NEWLINE", "EOF"}]
    lp = _LineParser(tokens)
    expr = lp.parse_expression()
    if not lp.done():
        raise LoweringError(f"could not parse annotation {text!r}")
    return lowerer.lower_expr(expr)


def _collect_declarations(
    procedure: Procedure, body: Block
) -> Tuple[List[ArrayDecl], List[ScalarDecl]]:
    """Build IR declarations for every name the lowered body mentions."""
    from repro.ir.analysis import (
        free_scalar_inputs,
        input_arrays,
        loop_counters,
        output_arrays,
        scalars_used,
    )

    probe = Kernel(
        name="_probe",
        params=list(procedure.params),
        arrays=[],
        scalars=[],
        body=body,
    )
    lowerer = _Lowerer(procedure)
    mentioned_arrays: List[str] = []
    for name in output_arrays(probe) + input_arrays(probe):
        if name not in mentioned_arrays:
            mentioned_arrays.append(name)

    arrays: List[ArrayDecl] = []
    for name in mentioned_arrays:
        dims = procedure.dimension_of(name)
        decl_type = procedure.declared_type(name) or "real"
        if dims is None:
            raise LoweringError(f"array {name!r} has no dimension declaration")
        bounds = tuple(
            (lowerer.lower_expr(lo), lowerer.lower_expr(hi)) for lo, hi in dims
        )
        is_pointer = any(
            name in decl.names and decl.is_pointer for decl in procedure.declarations
        )
        arrays.append(ArrayDecl(name, bounds, element_type=decl_type, is_pointer=is_pointer))

    scalars: List[ScalarDecl] = []
    seen = set()
    for name in scalars_used(probe) + free_scalar_inputs(probe) + loop_counters(probe):
        if name in seen or any(a.name == name for a in arrays):
            continue
        seen.add(name)
        declared = procedure.declared_type(name)
        if declared is None:
            # Fortran implicit typing: i-n integers, otherwise real.
            declared = "integer" if name[0] in "ijklmn" else "real"
        scalars.append(ScalarDecl(name, declared))
    return arrays, scalars


def lower_candidate(candidate: Candidate) -> Kernel:
    """Lower one candidate fragment into an IR :class:`Kernel`."""
    procedure = candidate.procedure
    lowerer = _Lowerer(procedure)
    statements: List[Stmt] = []
    for loop in candidate.loops:
        statements.append(lowerer.lower_loop(loop))
    body = Block(statements)
    arrays, scalars = _collect_declarations(procedure, body)
    assumptions = [_lower_annotation(text, lowerer) for text in procedure.annotations]
    return Kernel(
        name=candidate.name,
        params=list(procedure.params),
        arrays=arrays,
        scalars=scalars,
        body=body,
        assumptions=assumptions,
        source_name=procedure.name,
    )


def lower_loop_nest(procedure: Procedure, loops: Optional[List[DoLoop]] = None, name: Optional[str] = None) -> Kernel:
    """Convenience wrapper: lower specific loops (default: all top-level loops)."""
    if loops is None:
        loops = [s for s in procedure.body if isinstance(s, DoLoop)]
    candidate = Candidate(procedure, loops, 0)
    kernel = lower_candidate(candidate)
    if name is not None:
        kernel.name = name
    return kernel
