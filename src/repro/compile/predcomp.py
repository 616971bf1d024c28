"""Compiled predicate-language formulas.

Compiled twins of :mod:`repro.predicates.evaluate`: a candidate's
postcondition and invariants are translated once per candidate, then
evaluated against many states (the CEGIS example set, the reachable
states of the random checker, the bounded verifier's premise-canonical
states).  Quantifier enumeration, guard handling, error wrapping and
the ``value_equal`` comparison are replicated exactly — only the
per-node tree dispatch is compiled away.

A quantified constraint is evaluated by the interpreter
(:func:`~repro.predicates.evaluate.evaluate_quantified`) until it has
been called ``_CODEGEN_THRESHOLD`` times, and by one generated function
from then on (see :func:`_tiered`); invariant store loops are generated
directly.

Compiled formulas are memoised at two levels: by object identity, the
probe paid on every evaluation, and on a miss by shape (see
:func:`_shape`), because the enumerator builds a fresh formula object
for every candidate even when it is structurally identical to an earlier
one.  Each distinct formula is therefore compiled once.  The tables are
cleared deterministically at a size threshold so month-long batch runs
stay bounded.
"""

from __future__ import annotations

from dataclasses import fields
from functools import partial
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.predicates.evaluate import PredicateEvalError, evaluate_quantified
from repro.predicates.language import (
    Bound,
    Invariant,
    OutEq,
    Postcondition,
    QuantifiedConstraint,
    ScalarEquality,
    ScalarInequality,
)
from repro.semantics.numeric import EvalError, compare_values
from repro.semantics.state import (
    State,
    Value,
    value_equal_interned as value_equal,
)
from repro.symbolic.expr import Expr, _key_part
from repro.compile.exprcomp import compile_sym_expr

StatePredicate = Callable[[State], bool]

_CACHE_MAX = 1 << 13

# First level: id(formula) -> (formula, fn), where the stored formula
# keeps the id stable.  Second level, probed on an id miss: shape ->
# (formula, fn), where the stored formula keeps the child ids inside the
# shape valid.  Store functions of invariant instantiation are memoised
# per conjunct, so invariants sharing a conjunct share its code.
_QUANT_CACHE: Dict[int, Tuple[QuantifiedConstraint, Callable]] = {}
_INV_CACHE: Dict[int, Tuple[Invariant, StatePredicate]] = {}
_POST_CACHE: Dict[int, Tuple[Postcondition, StatePredicate]] = {}
_INST_CACHE: Dict[int, Tuple[Invariant, StatePredicate]] = {}
_STORE_CACHE: Dict[int, Tuple[QuantifiedConstraint, Callable]] = {}
_QUANT_SHAPES: Dict[tuple, Tuple[QuantifiedConstraint, Callable]] = {}
_INV_SHAPES: Dict[tuple, Tuple[Invariant, StatePredicate]] = {}
_POST_SHAPES: Dict[tuple, Tuple[Postcondition, StatePredicate]] = {}
_INST_SHAPES: Dict[tuple, Tuple[Invariant, StatePredicate]] = {}
_STORE_SHAPES: Dict[tuple, Tuple[QuantifiedConstraint, Callable]] = {}

_TABLES = (
    _QUANT_CACHE, _INV_CACHE, _POST_CACHE, _INST_CACHE, _STORE_CACHE,
    _QUANT_SHAPES, _INV_SHAPES, _POST_SHAPES, _INST_SHAPES, _STORE_SHAPES,
)


def clear_pred_caches() -> None:
    """Drop memoised compiled predicates (tests / cache hygiene)."""
    for table in _TABLES:
        table.clear()


_FORMULA_FIELDS = {
    cls: tuple(f.name for f in fields(cls))
    for cls in (
        Bound, OutEq, QuantifiedConstraint, ScalarInequality, ScalarEquality,
        Invariant, Postcondition,
    )
}


def _shape(value):
    """Structural memo key of a formula (or of one of its fields).

    The rule of ``symbolic.expr._key_part``, one level up: child
    expressions key by identity and plain fields by value.  Expressions
    are interned, so identity is structural equality at exactly the
    granularity compiled code needs.  Dataclass ``==`` is coarser: it
    equates ``Const(2)`` with ``Const(2.0)`` and ``0.0`` with ``-0.0``,
    whose compiled functions return different values, so it must never
    key these tables.
    """
    if isinstance(value, Expr):
        return id(value)
    if isinstance(value, tuple):
        return tuple(_shape(v) for v in value)
    names = _FORMULA_FIELDS.get(type(value))
    if names is None:
        return _key_part(value)
    return (type(value),) + tuple(_shape(getattr(value, name)) for name in names)


def _memoise(table, shapes, formula, build):
    """Slow path of a formula table after an id miss: by shape, else build."""
    shape = _shape(formula)
    entry = shapes.get(shape)
    if entry is None:
        entry = (formula, build(formula))
        if len(shapes) >= _CACHE_MAX:
            shapes.clear()
        shapes[shape] = entry
    if len(table) >= _CACHE_MAX:
        table.clear()
    table[id(formula)] = (formula, entry[1])
    return entry[1]


# ---------------------------------------------------------------------------
# Quantified constraints
# ---------------------------------------------------------------------------

def compile_quantified(
    constraint: QuantifiedConstraint,
) -> Callable[[State, Optional[Mapping[str, Value]]], bool]:
    """Compile ``forall bounds. [guard ->] outEq`` to a state predicate."""
    hit = _QUANT_CACHE.get(id(constraint))
    if hit is not None:
        return hit[1]
    return _memoise(_QUANT_CACHE, _QUANT_SHAPES, constraint, _build_quantified)


# Calls before a formula is worth flattening into one code object:
# most CEGIS candidates die after a handful of evaluations (replay or the
# first failing reachable state), so paying ``compile()`` per candidate
# would dominate; the few verify-bound formulas are evaluated against
# hundreds of states and repay the upgrade immediately, so until then the
# interpreter evaluates the formula.  Generating code on first use was
# measured slower (docs/compiled_evaluation.md).
_CODEGEN_THRESHOLD = 8


def _tiered(cheap_fn, upgrade):
    """Run ``cheap_fn`` until hot, then swap in ``upgrade()`` (equivalent)."""
    box = [0, None]

    def run(state, bindings=None):
        fn = box[1]
        if fn is not None:
            return fn(state, bindings)
        box[0] += 1
        if box[0] >= _CODEGEN_THRESHOLD:
            box[1] = upgrade()
        return cheap_fn(state, bindings)

    return run


def _build_quantified(constraint: QuantifiedConstraint):
    from repro.compile.codegen import gen_quantified_fn

    return _tiered(
        partial(evaluate_quantified, constraint), lambda: gen_quantified_fn(constraint)
    )


# ---------------------------------------------------------------------------
# Postconditions and invariants
# ---------------------------------------------------------------------------

def compile_postcondition(post: Postcondition) -> StatePredicate:
    """Compiled twin of ``predicates.evaluate.evaluate_postcondition``."""
    hit = _POST_CACHE.get(id(post))
    if hit is not None:
        return hit[1]
    return _memoise(_POST_CACHE, _POST_SHAPES, post, _build_postcondition)


def _build_postcondition(post: Postcondition) -> StatePredicate:
    conjunct_fns = tuple(compile_quantified(c) for c in post.conjuncts)
    if len(conjunct_fns) == 1:
        (fn0,) = conjunct_fns

        def run_one(state, _fn0=fn0):
            return _fn0(state)

        return run_one

    def run(state, _fns=conjunct_fns):
        for fn in _fns:
            if not fn(state):
                return False
        return True

    return run


def compile_invariant(invariant: Invariant) -> StatePredicate:
    """Compiled twin of ``predicates.evaluate.evaluate_invariant``."""
    hit = _INV_CACHE.get(id(invariant))
    if hit is not None:
        return hit[1]
    return _memoise(_INV_CACHE, _INV_SHAPES, invariant, _build_invariant)


def _compile_inequality(ineq) -> StatePredicate:
    var_fn = _var_lookup(ineq.var)
    upper_fn = compile_sym_expr(ineq.upper)
    op = "<" if ineq.strict else "<="

    def run(state, _var=var_fn, _upper=upper_fn, _op=op):
        try:
            left = _var(state)
            right = _upper(state, _EMPTY_BINDINGS)
            return compare_values(_op, left, right)
        except (EvalError, TypeError) as exc:
            raise PredicateEvalError(str(exc)) from exc

    return run


_EMPTY_BINDINGS: Dict[str, Value] = {}


def _var_lookup(name: str):
    """Scalar lookup matching ``eval_sym_expr(sym(name), state, {})``."""

    def run(state, _name=name):
        try:
            return state.scalar(_name)
        except KeyError as exc:
            raise EvalError(str(exc)) from exc

    return run


def _build_invariant(invariant: Invariant) -> StatePredicate:
    inequality_fns = tuple(_compile_inequality(ineq) for ineq in invariant.inequalities)
    equality_fns = tuple((eq.var, compile_sym_expr(eq.rhs)) for eq in invariant.equalities)
    conjunct_fns = tuple(compile_quantified(c) for c in invariant.conjuncts)

    def run(state):
        for fn in inequality_fns:
            if not fn(state):
                return False
        for var, rhs_fn in equality_fns:
            try:
                left = state.scalar(var)
                right = rhs_fn(state, _EMPTY_BINDINGS)
            except (KeyError, EvalError, TypeError) as exc:
                raise PredicateEvalError(str(exc)) from exc
            if not value_equal(left, right):
                return False
        for fn in conjunct_fns:
            if not fn(state):
                return False
        return True

    return run


# ---------------------------------------------------------------------------
# Invariant instantiation (bounded verifier premise states)
# ---------------------------------------------------------------------------

def compile_invariant_instantiator(invariant: Invariant) -> StatePredicate:
    """Compiled twin of ``predicates.evaluate.instantiate_invariant``.

    Mutates the state so it satisfies the invariant; returns ``False``
    when impossible.  Error handling matches the interpreted function
    (failures are absorbed, not raised).
    """
    hit = _INST_CACHE.get(id(invariant))
    if hit is not None:
        return hit[1]
    return _memoise(_INST_CACHE, _INST_SHAPES, invariant, _build_instantiator)


def _compile_store(conjunct: QuantifiedConstraint) -> Callable:
    """One conjunct's store loop, shared by every invariant containing it.

    The generated function stores every assignment's right-hand side;
    evaluation errors propagate raw for the instantiator to absorb.
    """
    hit = _STORE_CACHE.get(id(conjunct))
    if hit is not None:
        return hit[1]
    from repro.compile.codegen import gen_conjunct_store_fn

    return _memoise(_STORE_CACHE, _STORE_SHAPES, conjunct, gen_conjunct_store_fn)


def _build_instantiator(invariant: Invariant) -> StatePredicate:
    ineq_parts = tuple(
        (_var_lookup(ineq.var), compile_sym_expr(ineq.upper), "<" if ineq.strict else "<=")
        for ineq in invariant.inequalities
    )
    equality_fns = tuple((eq.var, compile_sym_expr(eq.rhs)) for eq in invariant.equalities)
    store_fns = tuple(_compile_store(conjunct) for conjunct in invariant.conjuncts)

    def run(state):
        for var_fn, upper_fn, op in ineq_parts:
            try:
                left = var_fn(state)
                right = upper_fn(state, _EMPTY_BINDINGS)
                if not compare_values(op, left, right):
                    return False
            except (EvalError, TypeError):
                return False
        for var, rhs_fn in equality_fns:
            try:
                state.set_scalar(var, rhs_fn(state, _EMPTY_BINDINGS))
            except (EvalError, TypeError):
                return False
        for fn in store_fns:
            try:
                fn(state)
            except (PredicateEvalError, EvalError, TypeError):
                return False
        return True

    return run
