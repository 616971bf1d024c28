"""Static analyses over the IR.

These are the lightweight analyses the pipeline needs: which arrays a
kernel reads and writes, the loop-nest structure (used to shape the
invariants, §4.1), which scalars are live at entry (used as Halide/glue
parameters, §5.3) and a syntactic description of the cells each store
writes (used by inductive template generation and by the syntactic
restriction that the postcondition's index range must match the
modified region).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Set, Tuple

from repro.ir.nodes import (
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
    Stmt,
    UnaryOp,
    ValueExpr,
    VarRef,
)


def iter_statements(stmt: Stmt) -> Iterable[Stmt]:
    """Yield ``stmt`` and every statement nested inside it."""
    yield stmt
    if isinstance(stmt, Block):
        for inner in stmt.statements:
            yield from iter_statements(inner)
    elif isinstance(stmt, Loop):
        yield from iter_statements(stmt.body)
    elif isinstance(stmt, If):
        yield from iter_statements(stmt.then_body)
        if stmt.else_body is not None:
            yield from iter_statements(stmt.else_body)


def iter_expressions(stmt: Stmt) -> Iterable[ValueExpr]:
    """Yield every value expression appearing in ``stmt`` (recursively)."""
    for inner in iter_statements(stmt):
        if isinstance(inner, Assign):
            yield from inner.value.walk()
        elif isinstance(inner, ArrayStore):
            for idx in inner.indices:
                yield from idx.walk()
            yield from inner.value.walk()
        elif isinstance(inner, Loop):
            yield from inner.lower.walk()
            yield from inner.upper.walk()
        elif isinstance(inner, If):
            yield from inner.condition.walk()


def output_arrays(kernel: Kernel) -> List[str]:
    """Arrays written by the kernel, in first-write order."""
    seen: List[str] = []
    for stmt in iter_statements(kernel.body):
        if isinstance(stmt, ArrayStore) and stmt.array not in seen:
            seen.append(stmt.array)
    return seen


def input_arrays(kernel: Kernel) -> List[str]:
    """Arrays read by the kernel (possibly also written), in first-read order."""
    seen: List[str] = []
    for expr in iter_expressions(kernel.body):
        if isinstance(expr, ArrayLoad) and expr.array not in seen:
            seen.append(expr.array)
    return seen


def scalars_used(kernel: Kernel) -> List[str]:
    """Scalar variables referenced anywhere in the kernel body."""
    loop_counters = {loop.counter for loop in collect_loops(kernel.body)}
    seen: List[str] = []
    for expr in iter_expressions(kernel.body):
        if isinstance(expr, VarRef) and expr.name not in seen:
            seen.append(expr.name)
    for stmt in iter_statements(kernel.body):
        if isinstance(stmt, Assign) and stmt.target not in seen:
            seen.append(stmt.target)
    return [name for name in seen if name not in loop_counters]


def collect_loops(stmt: Stmt) -> List[Loop]:
    """Return every loop in ``stmt``, outermost first (pre-order)."""
    return [s for s in iter_statements(stmt) if isinstance(s, Loop)]


def loop_nest_depth(stmt: Stmt) -> int:
    """Maximum loop nesting depth of ``stmt``."""
    if isinstance(stmt, Loop):
        return 1 + loop_nest_depth(stmt.body)
    if isinstance(stmt, Block):
        return max((loop_nest_depth(s) for s in stmt.statements), default=0)
    if isinstance(stmt, If):
        depths = [loop_nest_depth(stmt.then_body)]
        if stmt.else_body is not None:
            depths.append(loop_nest_depth(stmt.else_body))
        return max(depths)
    return 0


@dataclass(frozen=True)
class WriteSite:
    """One syntactic array store together with its enclosing loop counters."""

    array: str
    indices: Tuple[ValueExpr, ...]
    enclosing_counters: Tuple[str, ...]


def written_cells(kernel: Kernel) -> List[WriteSite]:
    """Describe every array store site with its enclosing loop counters."""
    sites: List[WriteSite] = []

    def visit(stmt: Stmt, counters: Tuple[str, ...]) -> None:
        if isinstance(stmt, Block):
            for inner in stmt.statements:
                visit(inner, counters)
        elif isinstance(stmt, Loop):
            visit(stmt.body, counters + (stmt.counter,))
        elif isinstance(stmt, If):
            visit(stmt.then_body, counters)
            if stmt.else_body is not None:
                visit(stmt.else_body, counters)
        elif isinstance(stmt, ArrayStore):
            sites.append(WriteSite(stmt.array, stmt.indices, counters))

    visit(kernel.body, ())
    return sites


def is_perfect_nest(kernel: Kernel) -> bool:
    """True when the kernel is a single perfectly-nested loop nest.

    A perfect nest is a chain of loops where every loop's body contains
    either exactly one loop (and nothing else) or only non-loop
    statements.  Several of the synthesis strategies (§4.5) assume
    perfect nests to shrink the search space.
    """
    top_loops = [s for s in kernel.body.statements if isinstance(s, Loop)]
    if len(kernel.body.statements) != 1 or len(top_loops) != 1:
        return False

    def check(loop: Loop) -> bool:
        inner_loops = [s for s in loop.body.statements if isinstance(s, Loop)]
        if not inner_loops:
            return True
        if len(inner_loops) == 1 and len(loop.body.statements) == 1:
            return check(inner_loops[0])
        return False

    return check(top_loops[0])


def loop_counters(kernel: Kernel) -> List[str]:
    """Names of all loop counters, outermost first."""
    return [loop.counter for loop in collect_loops(kernel.body)]


def free_scalar_inputs(kernel: Kernel) -> List[str]:
    """Scalars read before being written (i.e. true inputs of the kernel)."""
    written: Set[str] = set()
    inputs: List[str] = []
    counters = set(loop_counters(kernel))

    def expr_reads(expr: ValueExpr) -> Iterable[str]:
        for node in expr.walk():
            if isinstance(node, VarRef):
                yield node.name

    def visit(stmt: Stmt) -> None:
        if isinstance(stmt, Block):
            for inner in stmt.statements:
                visit(inner)
        elif isinstance(stmt, Loop):
            for name in list(expr_reads(stmt.lower)) + list(expr_reads(stmt.upper)):
                note_read(name)
            written.add(stmt.counter)
            visit(stmt.body)
        elif isinstance(stmt, If):
            for name in expr_reads(stmt.condition):
                note_read(name)
            visit(stmt.then_body)
            if stmt.else_body is not None:
                visit(stmt.else_body)
        elif isinstance(stmt, Assign):
            for name in expr_reads(stmt.value):
                note_read(name)
            written.add(stmt.target)
        elif isinstance(stmt, ArrayStore):
            for idx in stmt.indices:
                for name in expr_reads(idx):
                    note_read(name)
            for name in expr_reads(stmt.value):
                note_read(name)

    def note_read(name: str) -> None:
        if name in written or name in counters:
            return
        if name not in inputs:
            inputs.append(name)

    visit(kernel.body)
    return inputs
