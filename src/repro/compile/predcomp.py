"""Closure compilation of predicate-language formulas.

Compiled twins of :mod:`repro.predicates.evaluate`: a candidate's
postcondition and invariants are translated once per candidate, then
evaluated against many states (the CEGIS example set, the reachable
states of the random checker, the bounded verifier's premise-canonical
states).  Quantifier enumeration, guard handling, error wrapping and
the ``value_equal`` comparison are replicated exactly — only the
per-node tree dispatch is compiled away.

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
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.predicates.evaluate import GUARD_OPS as _GUARD_OPS, PredicateEvalError
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
    require_int,
    value_equal_interned as value_equal,
)
from repro.symbolic.expr import Call, Expr, _key_part
from repro.compile.exprcomp import compile_sym_expr
from repro.compile.options import CompileOptions

StatePredicate = Callable[[State], bool]
BoundFn = Callable[[State, Mapping[str, Value]], range]

_CACHE_MAX = 1 << 13

# First level: (id(formula), options) -> (formula, fn).  The stored
# formula keeps the id stable, and the frozen options dataclass hashes by
# value so a recycled object id can never serve a function compiled under
# different flags.  Second level, probed on an id miss: (shape, options)
# -> (formula, fn), where the stored formula keeps the child ids inside
# the shape valid.  Store functions of invariant instantiation are
# memoised per conjunct, so invariants sharing a conjunct share its code.
_QUANT_CACHE: Dict[Tuple[int, CompileOptions], Tuple[QuantifiedConstraint, Callable]] = {}
_INV_CACHE: Dict[Tuple[int, CompileOptions], Tuple[Invariant, StatePredicate]] = {}
_POST_CACHE: Dict[Tuple[int, CompileOptions], Tuple[Postcondition, StatePredicate]] = {}
_INST_CACHE: Dict[Tuple[int, CompileOptions], Tuple[Invariant, StatePredicate]] = {}
_STORE_CACHE: Dict[Tuple[int, CompileOptions], Tuple[QuantifiedConstraint, Callable]] = {}
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


def _memoise(table, shapes, formula, options: CompileOptions, build):
    """Slow path of a formula table after an id miss: by shape, else build."""
    shape = (_shape(formula), options)
    entry = shapes.get(shape)
    if entry is None:
        entry = (formula, build(formula, options))
        if len(shapes) >= _CACHE_MAX:
            shapes.clear()
        shapes[shape] = entry
    if len(table) >= _CACHE_MAX:
        table.clear()
    table[(id(formula), options)] = (formula, entry[1])
    return entry[1]


# ---------------------------------------------------------------------------
# Quantifier bounds and assignment enumeration
# ---------------------------------------------------------------------------

def _compile_bound(bound: Bound, options: CompileOptions) -> BoundFn:
    """Compiled twin of ``predicates.evaluate._bound_range``."""
    lower_fn = compile_sym_expr(bound.lower, options)
    upper_fn = compile_sym_expr(bound.upper, options)
    start_adjust = 1 if bound.lower_strict else 0
    stop_adjust = 0 if bound.upper_strict else 1

    def run(
        state,
        bindings,
        _lower=lower_fn,
        _upper=upper_fn,
        _start=start_adjust,
        _stop=stop_adjust,
    ):
        try:
            lower = require_int(_lower(state, bindings), context="quantifier lower bound")
            upper = require_int(_upper(state, bindings), context="quantifier upper bound")
        except (EvalError, TypeError) as exc:
            raise PredicateEvalError(str(exc)) from exc
        return range(lower + _start, upper + _stop)

    return run


def compile_assignment_iterator(
    bounds: Tuple[Bound, ...], options: CompileOptions
) -> Callable[[State, Mapping[str, Value]], Iterator[Dict[str, int]]]:
    """Compiled twin of ``predicates.evaluate.iterate_assignments``.

    Later bounds may refer to earlier quantified variables, so
    assignments are built left to right, exactly as interpreted.
    """
    bound_fns = tuple((b.var, _compile_bound(b, options)) for b in bounds)

    def iterate(state, bindings):
        bindings = dict(bindings or {})

        def rec(index: int, current: Dict[str, int]) -> Iterator[Dict[str, int]]:
            if index == len(bound_fns):
                yield dict(current)
                return
            var, fn = bound_fns[index]
            merged = {**bindings, **current}
            for value in fn(state, merged):
                current[var] = value
                yield from rec(index + 1, current)
            current.pop(var, None)

        yield from rec(0, {})

    return iterate


def _compile_live_iterator(bounds: Tuple[Bound, ...], options: CompileOptions):
    """Assignment enumeration yielding one *live* dict, for internal loops.

    Consumers inside this module use each assignment before advancing
    the generator and never retain it, so the per-assignment dict copy
    of the public iterator can be skipped.  Enumeration order and bound
    evaluation are identical.
    """
    bound_fns = tuple((b.var, _compile_bound(b, options)) for b in bounds)
    count = len(bound_fns)

    def iterate(state, bindings):
        current: Dict[str, int] = {}

        def rec(index: int) -> Iterator[Dict[str, int]]:
            if index == count:
                yield current
                return
            var, fn = bound_fns[index]
            merged = {**bindings, **current} if bindings else current
            for value in fn(state, merged):
                current[var] = value
                yield from rec(index + 1)
            current.pop(var, None)

        return rec(0)

    return iterate


# ---------------------------------------------------------------------------
# Quantified constraints
# ---------------------------------------------------------------------------

def _compile_guard(guard: Expr, options: CompileOptions):
    """Compiled twin of ``predicates.evaluate._evaluate_guard``."""
    if isinstance(guard, Call) and guard.func in _GUARD_OPS:
        op = _GUARD_OPS[guard.func]
        left_fn = compile_sym_expr(guard.args[0], options)
        right_fn = compile_sym_expr(guard.args[1], options)

        def run(state, bindings, _left=left_fn, _right=right_fn, _op=op):
            left = _left(state, bindings)
            right = _right(state, bindings)
            try:
                return compare_values(_op, left, right)
            except EvalError as exc:
                raise PredicateEvalError(str(exc)) from exc

        return run
    message = f"unsupported guard expression {guard!r}"

    def run_unsupported(state, bindings, _msg=message):
        raise PredicateEvalError(_msg)

    return run_unsupported


def compile_quantified(
    constraint: QuantifiedConstraint, options: CompileOptions
) -> Callable[[State, Optional[Mapping[str, Value]]], bool]:
    """Compile ``forall bounds. [guard ->] outEq`` to a state predicate."""
    hit = _QUANT_CACHE.get((id(constraint), options))
    if hit is not None:
        return hit[1]
    return _memoise(_QUANT_CACHE, _QUANT_SHAPES, constraint, options, _build_quantified)


def _compile_index_tuple(indices, options: CompileOptions, context: str):
    """Closure building the (int-coerced) index tuple for an array access."""
    index_fns = tuple(compile_sym_expr(i, options) for i in indices)
    if len(index_fns) == 1:
        (fn0,) = index_fns

        def run1(state, bindings, _fn0=fn0, _ctx=context):
            return (require_int(_fn0(state, bindings), context=_ctx),)

        return run1
    if len(index_fns) == 2:
        fn0, fn1 = index_fns

        def run2(state, bindings, _fn0=fn0, _fn1=fn1, _ctx=context):
            return (
                require_int(_fn0(state, bindings), context=_ctx),
                require_int(_fn1(state, bindings), context=_ctx),
            )

        return run2

    def run(state, bindings, _fns=index_fns, _ctx=context):
        return tuple(require_int(fn(state, bindings), context=_ctx) for fn in _fns)

    return run


# Calls before a formula is worth flattening into one code object:
# most CEGIS candidates die after a handful of evaluations (replay or the
# first failing reachable state), so paying ``compile()`` per candidate
# would dominate; the few verify-bound formulas are evaluated against
# hundreds of states and repay the upgrade immediately.
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


def _build_quantified(constraint: QuantifiedConstraint, options: CompileOptions):
    if options.codegen:
        from repro.compile.codegen import gen_quantified_fn
        from repro.compile.exprcomp import _fold_hook_sym

        fold = _fold_hook_sym(options)
        return _tiered(
            _build_quantified_closures(constraint, options),
            lambda: gen_quantified_fn(constraint, fold=fold),
        )
    return _build_quantified_closures(constraint, options)


def _build_quantified_closures(constraint: QuantifiedConstraint, options: CompileOptions):
    iterate = _compile_live_iterator(constraint.bounds, options)
    guard_fn = (
        _compile_guard(constraint.guard, options) if constraint.guard is not None else None
    )
    out_eq = constraint.out_eq
    array = out_eq.array
    context = f"index of {array}"
    index_fn = _compile_index_tuple(out_eq.indices, options, context)
    rhs_fn = compile_sym_expr(out_eq.rhs, options)

    def check_out_eq(state, bindings):
        try:
            index = index_fn(state, bindings)
            actual = state.array(array).load(index)
            expected = rhs_fn(state, bindings)
        except (EvalError, TypeError) as exc:
            raise PredicateEvalError(str(exc)) from exc
        return value_equal(actual, expected)

    def run(state, bindings=None):
        bindings = bindings or {}
        for assignment in iterate(state, bindings):
            merged = {**bindings, **assignment} if bindings else assignment
            if guard_fn is not None and not guard_fn(state, merged):
                continue
            if not check_out_eq(state, merged):
                return False
        return True

    return run


# ---------------------------------------------------------------------------
# Postconditions and invariants
# ---------------------------------------------------------------------------

def compile_postcondition(post: Postcondition, options: CompileOptions) -> StatePredicate:
    """Compiled twin of ``predicates.evaluate.evaluate_postcondition``."""
    hit = _POST_CACHE.get((id(post), options))
    if hit is not None:
        return hit[1]
    return _memoise(_POST_CACHE, _POST_SHAPES, post, options, _build_postcondition)


def _build_postcondition(post: Postcondition, options: CompileOptions) -> StatePredicate:
    conjunct_fns = tuple(compile_quantified(c, options) for c in post.conjuncts)
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


def compile_invariant(invariant: Invariant, options: CompileOptions) -> StatePredicate:
    """Compiled twin of ``predicates.evaluate.evaluate_invariant``."""
    hit = _INV_CACHE.get((id(invariant), options))
    if hit is not None:
        return hit[1]
    return _memoise(_INV_CACHE, _INV_SHAPES, invariant, options, _build_invariant)


def _compile_inequality(ineq, options: CompileOptions) -> StatePredicate:
    var_fn = _var_lookup(ineq.var)
    upper_fn = compile_sym_expr(ineq.upper, options)
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


def _build_invariant(invariant: Invariant, options: CompileOptions) -> StatePredicate:
    inequality_fns = tuple(_compile_inequality(ineq, options) for ineq in invariant.inequalities)
    equality_fns = tuple(
        (eq.var, compile_sym_expr(eq.rhs, options)) for eq in invariant.equalities
    )
    conjunct_fns = tuple(compile_quantified(c, options) for c in invariant.conjuncts)

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

def compile_invariant_instantiator(
    invariant: Invariant, options: CompileOptions
) -> StatePredicate:
    """Compiled twin of ``BoundedVerifier._instantiate_invariant``.

    Mutates the state so it satisfies the invariant; returns ``False``
    when impossible.  Error handling matches the interpreted method
    (failures are absorbed, not raised).
    """
    hit = _INST_CACHE.get((id(invariant), options))
    if hit is not None:
        return hit[1]
    return _memoise(_INST_CACHE, _INST_SHAPES, invariant, options, _build_instantiator)


def _compile_store(conjunct: QuantifiedConstraint, options: CompileOptions) -> Callable:
    """One conjunct's store loop, shared by every invariant containing it."""
    hit = _STORE_CACHE.get((id(conjunct), options))
    if hit is not None:
        return hit[1]
    return _memoise(_STORE_CACHE, _STORE_SHAPES, conjunct, options, _build_store)


def _build_store(conjunct: QuantifiedConstraint, options: CompileOptions) -> Callable:
    """Store every assignment's right-hand side; errors propagate raw."""
    if options.codegen:
        from repro.compile.codegen import gen_conjunct_store_fn
        from repro.compile.exprcomp import _fold_hook_sym

        return gen_conjunct_store_fn(conjunct, fold=_fold_hook_sym(options))
    iterate = _compile_live_iterator(conjunct.bounds, options)
    index_fn = _compile_index_tuple(conjunct.out_eq.indices, options, "index")
    rhs_fn = compile_sym_expr(conjunct.out_eq.rhs, options)
    array = conjunct.out_eq.array

    def store(state):
        arr = state.arrays.get(array)
        if arr is None:
            arr = state.array(array)
        cells = arr.cells
        for assignment in iterate(state, _EMPTY_BINDINGS):
            index = index_fn(state, assignment)
            value = rhs_fn(state, assignment)
            # ``index`` is require_int-coerced, so this matches
            # ``ArrayValue.store`` without the re-coercion.
            cells[index] = value

    return store


def _build_instantiator(invariant: Invariant, options: CompileOptions) -> StatePredicate:
    ineq_parts = tuple(
        (_var_lookup(ineq.var), compile_sym_expr(ineq.upper, options), "<" if ineq.strict else "<=")
        for ineq in invariant.inequalities
    )
    equality_fns = tuple(
        (eq.var, compile_sym_expr(eq.rhs, options)) for eq in invariant.equalities
    )
    store_fns = tuple(_compile_store(conjunct, options) for conjunct in invariant.conjuncts)

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
