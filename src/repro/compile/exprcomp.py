"""Memoised compilation of IR and symbolic expressions.

``compile_ir_expr`` / ``compile_sym_expr`` translate an expression tree
*once* into a single generated Python function
(:mod:`repro.compile.codegen`); evaluating the result is then one call
with no ``isinstance`` dispatch over the tree.  The generated code calls
exactly the same primitive helpers as the interpreters in
:mod:`repro.semantics.evalexpr` on every slow or failing path, evaluates
operands in the same left-to-right order, and raises the same exception
types with the same messages, so a compiled expression is bit-identical
to its interpreted twin — including the order in which lazily-drawn
random array cells are materialised during counterexample search.

Compiled functions are memoised per node identity.  Symbolic expression
nodes are hash-consed (:mod:`repro.symbolic.expr`), so structurally
equal right-hand sides across thousands of CEGIS candidates share one
compiled function.  The memo keeps a strong reference to the key node,
which both keeps ``id()`` stable and caps recompilation; tables are
cleared deterministically when they reach a size threshold.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Tuple

from repro.ir import nodes as ir
from repro.semantics.state import State, Value
from repro.symbolic.expr import Expr

IRFn = Callable[[State], Value]
SymFn = Callable[[State, Mapping[str, Value]], Value]

_CACHE_MAX = 1 << 16

# id(node) -> (node, compiled); the stored node keeps id() valid.
_IR_CACHE: Dict[int, Tuple[ir.ValueExpr, IRFn]] = {}
_SYM_CACHE: Dict[int, Tuple[Expr, SymFn]] = {}


def clear_expr_caches() -> None:
    """Drop memoised compiled expressions (tests / cache hygiene)."""
    _IR_CACHE.clear()
    _SYM_CACHE.clear()


def memoise_by_id(table: Dict[int, tuple], node, build: Callable, limit: int = _CACHE_MAX):
    """``build(node)``, once per live node; the table is cleared at ``limit``."""
    hit = table.get(id(node))
    if hit is not None:
        return hit[1]
    fn = build(node)
    if len(table) >= limit:
        table.clear()
    table[id(node)] = (node, fn)
    return fn


# ``codegen`` is imported where it is used: it needs the synthesis float
# model, whose package imports this one.

def compile_ir_expr(expr: ir.ValueExpr) -> IRFn:
    """Compile an IR value expression to a ``state -> value`` function."""
    from repro.compile.codegen import gen_ir_fn

    return memoise_by_id(_IR_CACHE, expr, gen_ir_fn)


def compile_ir_condition(expr: ir.ValueExpr) -> Callable[[State], bool]:
    """Compile an IR condition to a ``state -> bool`` function.

    Mirrors :func:`repro.semantics.evalexpr.eval_ir_condition`.
    """
    from repro.compile.codegen import gen_ir_condition_fn

    return gen_ir_condition_fn(expr)


def compile_sym_expr(expr: Expr) -> SymFn:
    """Compile a predicate-language expression to ``(state, bindings) -> value``."""
    from repro.compile.codegen import gen_sym_fn

    return memoise_by_id(_SYM_CACHE, expr, gen_sym_fn)
