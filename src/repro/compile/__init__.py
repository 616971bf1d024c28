"""Compiled evaluation of the CEGIS inner loop.

This package turns the hot evaluation paths of the pipeline — IR kernel
execution, symbolic predicate evaluation, and whole verification
conditions — into generated Python functions (:mod:`repro.compile.codegen`)
built once and called many times, replacing the per-evaluation tree
dispatch of the interpreters in :mod:`repro.semantics` and
:mod:`repro.predicates`.

The compiled evaluators are required to be *bit-identical* to the
interpreters (same values, same exception types and messages, same
lazily-drawn random array cells); ``PipelineOptions(compiled=False)``
falls back to the interpreters wholesale, and the equivalence
test-suite holds the two modes equal on random expressions and formulas
and every suite kernel.

See :doc:`docs/compiled_evaluation.md` for the design notes.
"""

from repro.compile.exprcomp import (
    clear_expr_caches,
    compile_ir_condition,
    compile_ir_expr,
    compile_sym_expr,
)
from repro.compile.stmtcomp import (
    CompiledCollector,
    clear_stmt_cache,
    compile_stmt,
)
from repro.compile.predcomp import (
    clear_pred_caches,
    compile_invariant,
    compile_invariant_instantiator,
    compile_postcondition,
    compile_quantified,
)
from repro.compile.vccomp import CompiledClause, CompiledVC


def clear_compile_caches() -> None:
    """Drop every compile-layer memo table (tests / cache hygiene)."""
    clear_expr_caches()
    clear_stmt_cache()
    clear_pred_caches()


__all__ = [
    "CompiledClause",
    "CompiledCollector",
    "CompiledVC",
    "clear_compile_caches",
    "clear_expr_caches",
    "clear_pred_caches",
    "clear_stmt_cache",
    "compile_invariant",
    "compile_invariant_instantiator",
    "compile_ir_condition",
    "compile_ir_expr",
    "compile_postcondition",
    "compile_quantified",
    "compile_stmt",
    "compile_sym_expr",
]
