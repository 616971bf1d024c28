"""Compiled IR statements and the bounded verifier's state collector.

``compile_stmt`` translates a statement tree once into one generated
function (:func:`repro.compile.codegen.gen_stmt_fn`) that mirrors
:func:`repro.semantics.exec.execute_statement` exactly: the same
evaluation order (store indices before the stored value), the same
Fortran post-loop counter semantics, the same iteration budget and the
same exception types and messages.

``CompiledCollector`` runs the same generated statement code with a
snapshot call at every loop cut point (top of each loop iteration, loop
exit): it is ``execute_statement`` with a snapshotting ``cut_point``,
compiled.  Both collectors take their kernel entry/exit snapshots and
their snapshot cap from
:func:`repro.verification.bounded.collect_reachable_states`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

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
    """Compiled twin of the verifier's interpreted reachable-state collector.

    The interpreted collector is ``execute_statement`` with a snapshotting
    cut-point callback; this one runs the generated statement executor
    with the same snapshot calls, so both record the same states in the
    same order and raise the same errors.
    """

    def __init__(self, kernel: ir.Kernel):
        from repro.compile.codegen import gen_collector_fn

        self.kernel = kernel
        self._run = gen_collector_fn(kernel.body)

    def collect(self, state: State) -> List[State]:
        from repro.verification.bounded import collect_reachable_states

        return collect_reachable_states(self._run, state)
