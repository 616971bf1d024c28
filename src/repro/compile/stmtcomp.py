"""Compiled IR statements and the bounded verifier's state collector.

``compile_stmt`` translates a statement tree once into one generated
function (:func:`repro.compile.codegen.gen_stmt_fn`) that mirrors
:func:`repro.semantics.exec.execute_statement` exactly: the same
evaluation order (store indices before the stored value), the same
Fortran post-loop counter semantics, the same iteration budget and the
same exception types and messages.

``CompiledCollector`` is the compiled twin of the bounded verifier's
reachable-state collector: it executes a kernel concretely while
snapshotting the state at every cut point (top of each loop iteration,
loop exit, kernel entry/exit), in exactly the interpreter's order.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.ir import nodes as ir
from repro.semantics.state import State
from repro.compile.exprcomp import memoise_by_id

StmtFn = Callable[[State], None]

_STMT_CACHE: Dict[int, Tuple[ir.Stmt, StmtFn]] = {}
_CACHE_MAX = 1 << 14


def clear_stmt_cache() -> None:
    """Drop memoised compiled statements (tests / cache hygiene)."""
    _STMT_CACHE.clear()


def compile_stmt(stmt: ir.Stmt) -> StmtFn:
    """Compile one IR statement to a ``state -> None`` function."""
    from repro.compile.codegen import gen_stmt_fn

    return memoise_by_id(_STMT_CACHE, stmt, gen_stmt_fn, _CACHE_MAX)


class CompiledCollector:
    """Compiled twin of the verifier's reachable-state collector.

    Mirrors :class:`repro.verification.bounded._ReachableStateCollector`:
    the same cut points, the same snapshot order, the same (context-free)
    ``require_int`` coercions on loop bounds, and no iteration budget.
    """

    def __init__(self, kernel: ir.Kernel):
        from repro.compile.codegen import gen_collector_fn

        self.kernel = kernel
        self._run = gen_collector_fn(kernel.body)

    def collect(self, state: State, limit: Optional[int] = None) -> List[State]:
        from repro.verification.bounded import REACHABLE_STATE_LIMIT

        if limit is None:
            limit = REACHABLE_STATE_LIMIT
        states: List[State] = []

        def snapshot(current: State) -> None:
            if len(states) < limit:
                states.append(current.copy())

        snapshot(state)
        self._run(state, snapshot)
        snapshot(state)
        return states
