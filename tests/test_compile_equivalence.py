"""Compiled-vs-interpreted equivalence for the compiled evaluation layer.

The compiled evaluators (:mod:`repro.compile`) must be *bit-identical*
to the tree-walking interpreters: same values (including ``Fraction``
vs ``float`` behaviour and GF(7) field elements), same exception types
and messages (division by zero, unbound scalars, symbolic indices).
The properties are checked on random expressions, on random quantified
constraints across the first-tier-to-generated-code upgrade, on every
suite kernel's executable body, and end-to-end through
``synthesize_kernel``.
"""

from __future__ import annotations

import itertools
import math
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.fingerprint import CODE_VERSION
from repro.compile import (
    CompiledCollector,
    CompiledVC,
    clear_compile_caches,
    compile_invariant,
    compile_invariant_instantiator,
    compile_ir_expr,
    compile_postcondition,
    compile_quantified,
    compile_stmt,
    compile_sym_expr,
)
from repro.compile import codegen, predcomp
from repro.frontend import identify_candidates, parse_source
from repro.frontend.lowering import lower_candidate
from repro.ir import nodes as ir
from repro.predicates.evaluate import GUARD_OPS, evaluate_quantified
from repro.predicates.language import (
    Bound,
    Invariant,
    OutEq,
    Postcondition,
    QuantifiedConstraint,
    ScalarInequality,
)
from repro.semantics.evalexpr import EvalError, eval_ir_expr, eval_sym_expr
from repro.semantics.exec import execute_statement
from repro.semantics.numeric import coerce_number, compare_values
from repro.semantics.state import ArrayValue, State, constant_array, function_array
from repro.suites.registry import all_cases
from repro.symbolic.expr import (
    Add,
    ArrayCell,
    Call,
    Const,
    Div,
    Mul,
    Neg,
    Sub,
    Sym,
    cell,
    sym,
)
from repro.synthesis.cegis import synthesis_config, synthesize_kernel
from repro.semantics.floatmodel import Mod7
from repro.vcgen.hoare import generate_vc


def kernel_from_source(source: str):
    return lower_candidate(identify_candidates(parse_source(source)).candidates[0])


RUNNING_EXAMPLE = """
procedure sten(imin,imax,jmin,jmax,a,b)
real (kind=8), dimension(imin:imax,jmin:jmax) :: a
real (kind=8), dimension(imin:imax,jmin:jmax) :: b
do j=jmin,jmax
t = b(imin, j)
do i=imin+1,imax
q = b(i,j)
a(i,j) = q + t
t = q
enddo
enddo
end procedure
"""


def outcome(fn):
    """Result or (exception type, message) — the unit of equivalence."""
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 - parity includes the type
        return ("err", type(exc).__name__, str(exc))


# ---------------------------------------------------------------------------
# Random symbolic expressions
# ---------------------------------------------------------------------------

SYM_NAMES = ("i", "j", "n", "w", "missing")
BOUND_NAMES = ("q1", "q2")


def _leaves():
    # Sevenths and non-finite floats have no GF(7) encoding, so the
    # generated field fast path must leave them to ``Mod7._coerce``.
    consts = st.one_of(
        st.integers(-6, 6).map(lambda n: Const(Fraction(n))),
        st.fractions(min_value=-4, max_value=4, max_denominator=6).map(Const),
        st.floats(-8, 8, allow_nan=False, allow_infinity=False, width=32).map(
            lambda f: Const(float(f))
        ),
        st.integers(-6, 6).map(lambda n: Const(Fraction(n, 7))),
        st.sampled_from([math.inf, -math.inf, 1e300]).map(Const),
    )
    syms = st.sampled_from(SYM_NAMES + BOUND_NAMES).map(Sym)
    return st.one_of(consts, syms)


def _compose(children):
    index = st.integers(-2, 3).map(lambda n: Const(Fraction(n)))
    indexed = st.one_of(index, st.sampled_from(BOUND_NAMES).map(Sym))
    return st.one_of(
        st.tuples(children, children).map(lambda t: Add(*t)),
        st.tuples(children, children).map(lambda t: Sub(*t)),
        st.tuples(children, children).map(lambda t: Mul(*t)),
        st.tuples(children, children).map(lambda t: Div(*t)),
        children.map(Neg),
        st.tuples(st.sampled_from(["a", "b"]), indexed, indexed).map(
            lambda t: ArrayCell(t[0], (t[1], t[2]))
        ),
        st.tuples(st.sampled_from(["sqrt", "abs", "min", "nosuchfn"]), children).map(
            lambda t: Call(t[0], (t[1], t[1]) if t[0] == "min" else (t[1],))
        ),
    )


sym_exprs = st.recursive(_leaves(), _compose, max_leaves=12)


def _make_state() -> State:
    state = State(
        scalars={
            "i": 2,
            "j": 3,
            "n": Fraction(5, 2),
            "w": Mod7(3),
        }
    )
    state.arrays["a"] = function_array("a", lambda idx: Mod7(sum(idx) % 7))
    state.arrays["b"] = constant_array("b", Fraction(1, 3))
    return state


BINDINGS = {"q1": 1, "q2": -2}


# Outcomes compare by ``repr``: ``inf + -inf`` is a nan, which never
# equals itself, and ``repr`` also tells ``2`` from ``2.0``.

@settings(max_examples=300, deadline=None)
@given(expr=sym_exprs)
def test_sym_expr_backends_match_interpreter(expr):
    state = _make_state()
    reference = repr(outcome(lambda: eval_sym_expr(expr, state, BINDINGS)))
    fn = compile_sym_expr(expr)
    assert repr(outcome(lambda: fn(state, BINDINGS))) == reference


@settings(max_examples=150, deadline=None)
@given(expr=sym_exprs)
def test_sym_expr_matches_on_symbolic_state(expr):
    # Fully symbolic arrays/scalars: results are hash-consed Expr trees,
    # compared through their printed form.
    state = State(scalars={"i": 2, "j": 0, "n": sym("n"), "w": sym("w")})
    reference = repr(outcome(lambda: eval_sym_expr(expr, state, BINDINGS)))
    fn = compile_sym_expr(expr)
    assert repr(outcome(lambda: fn(state, BINDINGS))) == reference


class TestSymEdgeCases:
    def test_division_by_zero_parity(self):
        expr = Div(Sym("i"), Sub(Sym("j"), Sym("j")))
        state = State(scalars={"i": 4, "j": 7})
        reference = outcome(lambda: eval_sym_expr(expr, state, {}))
        assert reference[0] == "err" and reference[1] == "ZeroDivisionError"
        fn = compile_sym_expr(expr)
        assert outcome(lambda: fn(state, {})) == reference

    def test_unbound_scalar_message_parity(self):
        expr = Add(Sym("nope"), Const(Fraction(1)))
        state = State()
        reference = outcome(lambda: eval_sym_expr(expr, state, {}))
        assert reference[0] == "err" and reference[1] == "EvalError"
        fn = compile_sym_expr(expr)
        assert outcome(lambda: fn(state, {})) == reference

    @pytest.mark.parametrize(
        "value", [2, Fraction(-3, 2), 0.5, -0.0, 1e300, Fraction(1, 7), math.inf, math.nan]
    )
    def test_field_element_with_constant_operand(self, value):
        state = State(scalars={"w": Mod7(3)})
        for node in (Add, Sub, Mul):
            for expr in (node(Const(value), Sym("w")), node(Sym("w"), Const(value))):
                reference = repr(outcome(lambda: eval_sym_expr(expr, state, {})))
                fn = compile_sym_expr(expr)
                assert repr(outcome(lambda: fn(state, {}))) == reference

    def test_fraction_const_normalises_to_int(self):
        fn = compile_sym_expr(Const(Fraction(4)))
        value = fn(State(), {})
        assert value == 4 and type(value) is int

    def test_float_vs_fraction_division(self):
        state = State(scalars={"x": 1, "y": 3})
        exact = Div(Sym("x"), Sym("y"))
        assert compile_sym_expr(exact)(state, {}) == Fraction(1, 3)
        state_float = State(scalars={"x": 1.0, "y": 3})
        interp = eval_sym_expr(exact, state_float, {})
        value = compile_sym_expr(exact)(state_float, {})
        assert value == interp and type(value) is float

    def test_symbolic_index_error_parity(self):
        expr = ArrayCell("a", (Sym("k"),))
        state = State(scalars={"k": sym("k")})
        reference = outcome(lambda: eval_sym_expr(expr, state, {}))
        assert reference[0] == "err" and reference[1] == "TypeError"
        fn = compile_sym_expr(expr)
        assert outcome(lambda: fn(state, {})) == reference


# ---------------------------------------------------------------------------
# Quantified constraints across the tier upgrade
# ---------------------------------------------------------------------------

GUARD_NAMES = sorted(GUARD_OPS) + ["nosuchop"]
CALLER_BINDINGS = (None, {}, BINDINGS, {"i": 1, "q2": Mod7(2)})
_small_ints = st.integers(-1, 3).map(lambda n: Const(Fraction(n)))


# Bound-end kinds, weighted so most quantifier ranges evaluate.
_END_KINDS = ("literal",) * 6 + ("scalar", "invalid", "earlier", "offset")


def _bound_end(draw, earlier, low, high):
    """One end of a quantifier bound.

    Mostly an integer literal in ``[low, high]`` (lower ends are drawn
    low and upper ends high, so most ranges are not empty), else an
    integer scalar, an earlier quantified variable (plain or offset), or
    an end that is not an integer (``n``), symbolic (``s``) or unbound.
    """
    kind = draw(st.sampled_from(_END_KINDS))
    literal = Const(Fraction(draw(st.integers(low, high))))
    if kind == "scalar":
        return Sym(draw(st.sampled_from(["i", "j"])))
    if kind == "invalid":
        return Sym(draw(st.sampled_from(["n", "s", "missing"])))
    if kind in {"earlier", "offset"} and earlier:
        prior = Sym(draw(st.sampled_from(earlier)))
        return prior if kind == "earlier" else Add(prior, literal)
    return literal


@st.composite
def quantified_constraints(draw):
    bounds = []
    for var in BOUND_NAMES[: draw(st.integers(1, 2))]:
        earlier = [bound.var for bound in bounds]
        bounds.append(
            Bound(
                var,
                _bound_end(draw, earlier, -1, 1),
                _bound_end(draw, earlier, 1, 3),
                lower_strict=draw(st.booleans()),
                upper_strict=draw(st.booleans()),
            )
        )
    operand = st.one_of(st.sampled_from(BOUND_NAMES).map(Sym), _small_ints, _leaves())
    guard = draw(
        st.none()
        | st.tuples(st.sampled_from(GUARD_NAMES), operand, operand).map(
            lambda t: Call(t[0], t[1:])
        )
    )
    array = draw(st.sampled_from(["a", "b"]))
    quantified = st.sampled_from(BOUND_NAMES).map(Sym)
    # Stencil-shaped arithmetic: known-int operands (loop variables, int
    # literals) meet each other and scalars of every value kind.
    scalar = st.sampled_from(["i", "n", "w", "s"]).map(Sym)
    offset = st.one_of(
        st.tuples(quantified, _small_ints).map(lambda t: Add(*t)),
        st.tuples(quantified, _small_ints).map(lambda t: Sub(*t)),
        st.tuples(_small_ints, quantified).map(lambda t: Mul(*t)),
        st.tuples(quantified, scalar).map(lambda t: Add(*t)),
    )
    index = st.one_of(quantified, quantified, _small_ints, _leaves(), offset)
    indices = tuple(draw(st.lists(index, min_size=1, max_size=2)))
    rhs = draw(st.one_of(_leaves(), sym_exprs, offset, st.just(ArrayCell(array, indices))))
    return QuantifiedConstraint(tuple(bounds), OutEq(array, indices, rhs), guard)


def _quantifier_state(field: bool) -> State:
    """A fresh state whose cells are GF(7) elements or rationals."""
    state = State(scalars={"i": 2, "j": 3, "n": Fraction(5, 2), "w": Mod7(3), "s": sym("s")})
    if field:
        state.arrays["a"] = function_array("a", lambda idx: Mod7(sum(idx) % 7))
        state.arrays["b"] = function_array("b", lambda idx: Mod7((2 * sum(idx) + 1) % 7))
    else:
        state.arrays["a"] = function_array("a", lambda idx: Fraction(sum(idx), 3))
        state.arrays["b"] = constant_array("b", Fraction(1, 3))
    return state


@settings(max_examples=150, deadline=None)
@given(
    constraint=quantified_constraints(),
    field=st.booleans(),
    bindings=st.sampled_from(CALLER_BINDINGS),
)
def test_quantified_tiers_match_interpreter(constraint, field, bindings):
    # Cold tables: the first calls run the interpreter tier, the rest the
    # generated function it upgrades to.
    clear_compile_caches()
    check = compile_quantified(constraint)
    reference = repr(
        outcome(lambda: evaluate_quantified(constraint, _quantifier_state(field), bindings))
    )
    for _ in range(2 * predcomp._CODEGEN_THRESHOLD):
        assert repr(outcome(lambda: check(_quantifier_state(field), bindings))) == reference


def _offset_constraint_27() -> QuantifiedConstraint:
    """``forall lo < v_d < hi. a[v] = 2*b[v] + (sum of b over the other 26 offsets)``."""
    point = [Sym(f"v{d}") for d in range(3)]
    bounds = tuple(
        Bound(f"v{d}", Sym("lo"), Sym("hi"), lower_strict=True, upper_strict=True)
        for d in range(3)
    )
    rhs = None
    for offsets in itertools.product((-1, 0, 1), repeat=3):
        index = tuple(
            Add(v, Const(Fraction(1))) if o > 0 else Sub(v, Const(Fraction(1))) if o < 0 else v
            for v, o in zip(point, offsets)
        )
        term = ArrayCell("b", index)
        if not any(offsets):
            term = Mul(Const(Fraction(2)), term)
        rhs = term if rhs is None else Add(rhs, term)
    return QuantifiedConstraint(bounds, OutEq("a", tuple(point), rhs))


def test_offset_constraint_dispatches_only_on_runtime_values(monkeypatch):
    sources = []
    build = codegen._Emitter.build

    def capture(self, signature, tag):
        sources.append("\n".join(self.lines))
        return build(self, signature, tag)

    monkeypatch.setattr(codegen._Emitter, "build", capture)
    constraint = _offset_constraint_27()
    check = codegen.gen_quantified_fn(constraint)
    (source,) = sources

    loop_vars = re.findall(r"for (t\d+) in range\(", source)
    assert len(loop_vars) == 3
    for var in loop_vars:
        assert f"isinstance({var}," not in source
    assert not re.search(r"isinstance\(-?\d+,", source)
    # Only the six bounds, read from the state, are coerced.
    bound_ends = re.findall(r"range\((t\d+)(?: \+ 1)?, (t\d+)(?: \+ 1)?\)", source)
    coerced = re.findall(r"require_int\((t\d+),", source)
    assert sorted(coerced) == sorted(name for pair in bound_ends for name in pair)
    assert len(coerced) == 6

    # Every b cell equal: the right-hand side is 28 cells' worth.
    for cell, total in ((Fraction(1, 3), Fraction(28, 3)), (Mod7(2), Mod7(0))):
        for a_value in (total, cell):
            state = State(scalars={"lo": 0, "hi": 4})
            state.arrays["a"] = constant_array("a", a_value)
            state.arrays["b"] = constant_array("b", cell)
            reference = repr(outcome(lambda: evaluate_quantified(constraint, state, None)))
            assert reference == repr(("ok", a_value is total))
            assert repr(outcome(lambda: check(state, None))) == reference


# ---------------------------------------------------------------------------
# IR expressions and statements
# ---------------------------------------------------------------------------

def _random_ir_expr(rng: random.Random, depth: int = 3) -> ir.ValueExpr:
    if depth == 0 or rng.random() < 0.3:
        choice = rng.randrange(4)
        if choice == 0:
            return ir.IntConst(rng.randint(-5, 5))
        if choice == 1:
            return ir.RealConst(round(rng.uniform(-3, 3), 2))
        if choice == 2:
            return ir.VarRef(rng.choice(["i", "j", "n", "w"]))
        return ir.ArrayLoad("b", (ir.VarRef("i"),))
    choice = rng.randrange(6)
    if choice < 4:
        op = "+-*/"[choice]
        return ir.BinOp(op, _random_ir_expr(rng, depth - 1), _random_ir_expr(rng, depth - 1))
    if choice == 4:
        return ir.UnaryOp("-", _random_ir_expr(rng, depth - 1))
    return ir.FuncCall("abs", (_random_ir_expr(rng, depth - 1),))


def test_ir_expr_backends_match_interpreter():
    rng = random.Random(7)
    for _ in range(300):
        expr = _random_ir_expr(rng)
        state = State(scalars={"i": 1, "j": -2, "n": Fraction(3, 2), "w": 0.75})
        state.arrays["b"] = function_array("b", lambda idx: Fraction(idx[0] + 2, 3))
        reference = outcome(lambda: eval_ir_expr(expr, state))
        fn = compile_ir_expr(expr)
        assert outcome(lambda: fn(state)) == reference


def _states_equal(left: State, right: State) -> bool:
    if left.scalars != right.scalars:
        return False
    if set(left.arrays) != set(right.arrays):
        return False
    for name in left.arrays:
        if left.arrays[name].cells != right.arrays[name].cells:
            return False
    return True


def _concrete_state(kernel, seed: int) -> State:
    rng = random.Random(seed)
    state = State()
    for decl in kernel.scalars:
        if decl.scalar_type == "integer":
            state.scalars[decl.name] = rng.randint(1, 4)
        else:
            state.scalars[decl.name] = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
    for decl in kernel.arrays:
        state.arrays[decl.name] = function_array(
            decl.name, lambda idx: Fraction((sum(idx) * 7 + 3) % 11, 2)
        )
    return state


def test_every_suite_kernel_executes_identically():
    checked = 0
    for case in all_cases():
        report = identify_candidates(parse_source(case.source))
        if not report.candidates:
            continue
        try:
            kernel = lower_candidate(report.candidates[0])
        except Exception:
            continue
        interp_state = _concrete_state(kernel, seed=11)
        compiled_state = _concrete_state(kernel, seed=11)
        reference = outcome(lambda: execute_statement(kernel.body, interp_state))
        fn = compile_stmt(kernel.body)
        result = outcome(lambda: fn(compiled_state))
        assert result[0] == reference[0], f"{case.name}: {result} vs {reference}"
        if reference[0] == "err":
            assert result[1:] == reference[1:], case.name
        else:
            assert _states_equal(interp_state, compiled_state), case.name
        checked += 1
    assert checked >= 50  # the sweep must actually cover the registry


def test_collector_matches_interpreted_collector():
    from repro.verification.bounded import _ReachableStateCollector

    kernel = kernel_from_source(RUNNING_EXAMPLE)
    interp_states = _ReachableStateCollector(kernel).run(_concrete_state(kernel, 3))
    compiled_states = CompiledCollector(kernel).collect(_concrete_state(kernel, 3))
    assert len(interp_states) == len(compiled_states)
    for left, right in zip(interp_states, compiled_states):
        assert _states_equal(left, right)


# ---------------------------------------------------------------------------
# Whole-pipeline equivalence
# ---------------------------------------------------------------------------

class TestSynthesisEquivalence:
    def test_running_example_identical_result(self):
        from repro.cache.serialize import result_to_payload

        compiled = synthesize_kernel(kernel_from_source(RUNNING_EXAMPLE), seed=1)
        interpreted = synthesize_kernel(
            kernel_from_source(RUNNING_EXAMPLE), seed=1, compiled=False
        )
        left = result_to_payload(compiled)
        right = result_to_payload(interpreted)
        left.pop("synthesis_time"), right.pop("synthesis_time")
        assert left == right

    def test_compiled_vc_check_matches_interpreted(self):
        kernel = kernel_from_source(RUNNING_EXAMPLE)
        result = synthesize_kernel(kernel, seed=1)
        vc = generate_vc(kernel)
        compiled_vc = CompiledVC(vc)
        for seed in range(6):
            state = _concrete_state(kernel, seed)
            assert compiled_vc.check(state, result.candidate) == vc.check(
                state, result.candidate
            )


# ---------------------------------------------------------------------------
# Formula memo: object identity first, then shape
# ---------------------------------------------------------------------------

@pytest.fixture
def builds(monkeypatch):
    """Every generated function as ``(tag, source lines, bound constants)``."""
    real = codegen._Emitter.build
    seen = []

    def spy(self, signature, tag):
        env = tuple(sorted((k, type(v).__name__, repr(v)) for k, v in self.env.items()))
        seen.append((tag, tuple(self.lines), env))
        return real(self, signature, tag)

    monkeypatch.setattr(codegen._Emitter, "build", spy)
    clear_compile_caches()
    return seen


def _scaled(weight, array="a"):
    """``forall 0 <= q1 <= 2. array[q1] = weight * b[q1]``, a fresh object."""
    q1 = Sym("q1")
    return QuantifiedConstraint(
        (Bound("q1", Const(Fraction(0)), Const(Fraction(2))),),
        OutEq(array, (q1,), Mul(Const(weight), ArrayCell("b", (q1,)))),
    )


def _invariant(*conjuncts):
    return Invariant("j", (ScalarInequality("j", Sym("n")),), conjuncts)


def _memo_state() -> State:
    state = State(scalars={"j": 1, "n": 3})
    for name in ("a", "c"):
        state.arrays[name] = function_array(name, lambda idx: Fraction(2, 3))
    state.arrays["b"] = constant_array("b", Fraction(1, 3))
    return state


def _interpreted_instantiate(invariant, state):
    from repro.verification.bounded import BoundedVerifier

    verifier = BoundedVerifier(
        generate_vc(kernel_from_source(RUNNING_EXAMPLE)), compiled=False
    )
    return verifier._instantiate_invariant(invariant, state)


def test_rebuilt_formulas_reuse_compiled_functions(builds):
    def compile_all():
        return (
            compile_quantified(_scaled(Fraction(2))),
            compile_postcondition(Postcondition((_scaled(Fraction(2)),))),
            compile_invariant(_invariant(_scaled(Fraction(2)))),
            compile_invariant_instantiator(_invariant(_scaled(Fraction(2)))),
        )

    first = compile_all()
    for fn in first:
        for _ in range(2 * predcomp._CODEGEN_THRESHOLD):  # hot: tiering upgrades
            fn(_memo_state())
    built = len(builds)
    assert built > 0
    again = compile_all()
    assert all(left is right for left, right in zip(first, again))
    for fn in again:
        fn(_memo_state())
    assert len(builds) == built


@pytest.mark.parametrize(
    "weights", [(2, 2.0), (0.0, -0.0)], ids=["int-vs-float", "signed-zero"]
)
def test_numeric_twins_compile_apart(weights):
    # Dataclass equality conflates the twins; their compiled code must not.
    left, right = (_scaled(weight) for weight in weights)
    assert left == right
    checks = [compile_quantified(c) for c in (left, right)]
    assert checks[0] is not checks[1]
    stored = []
    for constraint, check in zip((left, right), checks):
        reference = outcome(lambda: evaluate_quantified(constraint, _memo_state()))
        assert outcome(lambda: check(_memo_state())) == reference
        invariant = _invariant(constraint)
        compiled, interpreted = _memo_state(), _memo_state()
        assert compile_invariant_instantiator(invariant)(compiled)
        assert _interpreted_instantiate(invariant, interpreted)
        assert repr(compiled.arrays["a"].cells) == repr(interpreted.arrays["a"].cells)
        stored.append(repr(compiled.arrays["a"].cells))
    assert stored[0] != stored[1]


def test_invariants_sharing_a_conjunct_share_its_store(builds):
    def store_builds():
        return sum(tag == "store" for tag, _, _ in builds)

    first = _invariant(_scaled(Fraction(2)), _scaled(Fraction(3), array="c"))
    second = _invariant(_scaled(Fraction(2)), _scaled(Fraction(5), array="c"))
    compile_invariant_instantiator(first)
    assert store_builds() == 2
    compile_invariant_instantiator(second)
    assert store_builds() == 3
    shared = predcomp._compile_store(first.conjuncts[0])
    assert predcomp._compile_store(second.conjuncts[0]) is shared


def test_cold_lift_compiles_each_formula_once(builds):
    from repro.pipeline import PipelineOptions, STNGPipeline, report_signature

    case = next(c for c in all_cases() if c.name == "grad0")

    def lift(compiled):
        options = PipelineOptions(
            autotune_budget=20, verifier_environments=1, compiled=compiled
        )
        reports = STNGPipeline(options).lift_source(
            case.source,
            suite=case.suite,
            stencil_flags={case.procedure_name: case.is_stencil},
            points=case.points,
        )
        return [report_signature(report) for report in reports]

    signatures = lift(True)
    formulas = [build for build in builds if build[0] in {"quant", "store"}]
    assert formulas and len(set(formulas)) == len(formulas)
    assert lift(False) == signatures


# ---------------------------------------------------------------------------
# Cache fingerprints and options plumbing
# ---------------------------------------------------------------------------

class TestFingerprints:
    def test_code_version_bumped_for_compile_layer(self):
        # stng-cache-2 added the compile section; stng-cache-3 invalidated
        # entries verified under flooring (pre-truncation) MOD semantics;
        # stng-cache-4 invalidated entries recorded before the exact
        # trip-count enumeration and the Tier-3 inductive prover;
        # stng-cache-5 those recorded with the loose strided invariants.
        assert CODE_VERSION == "stng-cache-5"

    def test_config_contains_compile_options(self):
        config = synthesis_config(
            trials=2,
            seed=0,
            max_candidates=10,
            verifier_environments=1,
            strategies=["dense"],
            compiled=True,
        )
        # The whole compile section of every synthesis-store key: a new
        # field here re-keys every store, so it must be a deliberate change.
        assert config["compile"] == {"enabled": True}
        # Settings that became constants keep their keys and values.
        assert config["quick_samples"] == 2
        assert config["inductive"]["max_proof_attempts"] == 12

    def test_toggling_compilation_changes_fingerprint(self):
        from repro.cache.fingerprint import fingerprint_synthesis

        kernel = kernel_from_source(RUNNING_EXAMPLE)
        base = dict(trials=2, seed=0, max_candidates=10,
                    verifier_environments=1, strategies=["dense"])
        on = fingerprint_synthesis(kernel, synthesis_config(**base, compiled=True))
        off = fingerprint_synthesis(kernel, synthesis_config(**base, compiled=False))
        assert on != off

    def test_pipeline_options_coerce_mapping(self):
        from dataclasses import asdict

        from repro.pipeline import PipelineOptions

        # The batch scheduler sends options to pool workers as a dict.
        options = PipelineOptions(compiled=False)
        rebuilt = PipelineOptions(**asdict(options))
        assert rebuilt.compiled is False
        assert rebuilt == options


# ---------------------------------------------------------------------------
# Hash-consing
# ---------------------------------------------------------------------------

class TestHashConsing:
    def test_structurally_equal_nodes_are_identical(self):
        left = cell("b", sym("i") - 1, "j") + cell("b", sym("i"), "j")
        right = cell("b", sym("i") - 1, "j") + cell("b", sym("i"), "j")
        assert left is right

    def test_pickle_reinterns(self):
        expr = cell("a", sym("i") + 1) * Const(Fraction(3, 2))
        clone = pickle.loads(pickle.dumps(expr))
        assert clone is expr

    def test_numeric_types_stay_distinct(self):
        exact = Const(Fraction(2))
        inexact = Const(2.0)
        assert exact == inexact  # structural equality is unchanged
        assert exact is not inexact
        assert repr(exact) == "2" and repr(inexact) == "2.0"

    def test_signed_zero_consts_stay_distinct(self):
        assert Const(0.0) is not Const(-0.0)

    def test_cached_walk_and_symbols(self):
        expr = (sym("i") + sym("j")) * cell("b", sym("i"))
        assert list(expr.walk()) == list(expr.walk())
        assert expr.symbols() == frozenset({"i", "j"})
        assert expr.arrays() == frozenset({"b"})
        assert expr.size() == 6

    def test_simplify_memo_does_not_conflate_numeric_twins(self):
        # Const(0.1) and Const(Fraction(0.1)) compare equal structurally
        # but canonicalise differently (limit_denominator vs exact); the
        # memo must be identity-keyed so warm order cannot leak one
        # twin's canonical form to the other.
        from repro.symbolic.simplify import simplify

        inexact = sym("x") + Const(0.1)
        exact = sym("x") + Const(Fraction(0.1))
        assert inexact == exact and inexact is not exact
        warm_first = simplify(inexact)
        assert simplify(exact) != warm_first

    def test_shared_numeric_coercion(self):
        # The satellite refactor: one coercion helper for both paths.
        assert coerce_number(Const(Fraction(3)) + Const(Fraction(4))) == 7
        assert compare_values("<", Fraction(1, 2), 0.75)
        with pytest.raises(EvalError):
            coerce_number(sym("x") + 1)
