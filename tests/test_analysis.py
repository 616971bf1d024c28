"""Unit tests for the static-analysis layer (:mod:`repro.analysis`).

The property suite (tests/test_legality_properties.py) checks the
end-to-end contract — legal schedules execute bit-identically, nothing
else lowers.  These tests pin the individual analyses: the shared
Fourier–Motzkin engine's integer tightenings, dependence kinds and
distances over hand-built IR kernels, the backward liveness transfer
functions, legality verdicts and canonical-key dedup, the lint
report's classification/baseline gate, and the autotuner's pruning
(same winner, fewer objective evaluations).
"""

from __future__ import annotations

import zlib

import pytest

from repro.analysis.dependence import analyze_kernel
from repro.analysis.legality import (
    ILLEGAL,
    LEGAL,
    UNKNOWN,
    ScheduleChecker,
    ScheduleLegalityError,
    canonical_key,
    certify,
    order_preserving,
)
from repro.analysis.lint import (
    GATED_TOTALS,
    build_report,
    classify_demotion,
    compare_to_baseline,
)
from repro.analysis.liveness import scalars_live_after
from repro.analysis.presburger import constraints_infeasible
from repro.autotune import MultiArmedBanditTuner, ScheduleSpace, tuner
from repro.autotune.techniques import DEFAULT_TECHNIQUES, Technique
from repro.frontend.parser import parse_source
from repro.halide import Func, ImageParam, Schedule, Var, lower
from repro.ir import nodes as ir
from repro.symbolic.expr import as_expr, sym
from repro.symbolic.simplify import simplify


# ---------------------------------------------------------------------------
# The shared Fourier–Motzkin engine
# ---------------------------------------------------------------------------


def test_fm_proves_a_plain_contradiction():
    x = sym("x")
    # x >= 1 and x <= 0
    assert constraints_infeasible(
        [(simplify(x - 1), False), (simplify(as_expr(0) - x), False)], {"x"}
    )


def test_fm_integer_tightening_closes_the_open_interval():
    x = sym("x")
    # 0 < x < 1: rationally satisfiable (x = 1/2), integrally not.
    system = [(x, True), (simplify(as_expr(1) - x), True)]
    assert constraints_infeasible(system, {"x"})
    assert not constraints_infeasible(system, set())


def test_fm_gcd_rounding_refutes_parity():
    x = sym("x")
    # 2x = 1 has no integer solution; only gcd rounding sees it.
    system = [
        (simplify(as_expr(2) * x - 1), False),
        (simplify(as_expr(1) - as_expr(2) * x), False),
    ]
    assert constraints_infeasible(system, {"x"})


def test_fm_never_claims_satisfiability():
    x = sym("x")
    assert not constraints_infeasible(
        [(x, False), (simplify(as_expr(10) - x), False)], {"x"}
    )


# ---------------------------------------------------------------------------
# Dependence analysis over hand-built IR kernels
# ---------------------------------------------------------------------------

I = ir.VarRef("i")
J = ir.VarRef("j")


def _loop(counter: str, upper: str, body, step: int = 1) -> ir.Loop:
    return ir.Loop(counter, ir.IntConst(1), ir.VarRef(upper), ir.Block(list(body)), step)


def _kernel(name: str, body, arrays) -> ir.Kernel:
    return ir.Kernel(
        name=name,
        params=["n", "m", *arrays],
        arrays=[
            ir.ArrayDecl(a, ((ir.IntConst(1), ir.VarRef("n")),)) for a in arrays
        ],
        scalars=[ir.ScalarDecl("n"), ir.ScalarDecl("m")],
        body=ir.Block(list(body)),
    )


def test_pure_stencil_is_fully_parallel():
    store = ir.ArrayStore(
        "a",
        (I, J),
        ir.BinOp(
            "+",
            ir.ArrayLoad("b", (I, J)),
            ir.ArrayLoad("b", (ir.BinOp("-", I, ir.IntConst(1)), J)),
        ),
    )
    summary = analyze_kernel(
        _kernel("stencil", [_loop("j", "m", [_loop("i", "n", [store])])], ["a", "b"])
    )
    assert not summary.unknown
    assert summary.dependences == []
    assert summary.parallel_counters() == ["j", "i"]


def test_recurrence_carries_flow_dependence_at_distance_one():
    store = ir.ArrayStore(
        "a",
        (I,),
        ir.BinOp(
            "+",
            ir.ArrayLoad("a", (ir.BinOp("-", I, ir.IntConst(1)),)),
            ir.RealConst(1.0),
        ),
    )
    summary = analyze_kernel(_kernel("recur", [_loop("i", "n", [store])], ["a"]))
    assert not summary.unknown
    assert len(summary.dependences) == 1
    dep = summary.dependences[0]
    assert dep.array == "a"
    assert dep.kind == "flow"
    assert dep.carrier == "i"
    assert dep.distance == (1,)
    assert dict(dep.directions)["i"] == "<"
    assert summary.parallel_counters() == []


def test_write_before_read_scalar_is_privatizable():
    body = [
        ir.Assign("t", ir.ArrayLoad("b", (I,))),
        ir.ArrayStore("a", (I,), ir.VarRef("t")),
    ]
    summary = analyze_kernel(_kernel("priv", [_loop("i", "n", body)], ["a", "b"]))
    assert summary.dependences == []
    assert summary.parallel_counters() == ["i"]


def test_accumulator_scalar_carries_a_dependence():
    body = [
        ir.Assign("s", ir.BinOp("+", ir.VarRef("s"), ir.ArrayLoad("b", (I,)))),
        ir.ArrayStore("a", (I,), ir.VarRef("s")),
    ]
    summary = analyze_kernel(_kernel("accum", [_loop("i", "n", body)], ["a", "b"]))
    scalar_deps = [d for d in summary.dependences if d.kind == "scalar"]
    assert [d.array for d in scalar_deps] == ["s"]
    assert scalar_deps[0].carrier == "i"
    assert summary.parallel_counters() == []


def test_stride_alignment_refutes_the_odd_offset():
    # do i = 1, n, 2:  a(i) = a(i+1) — the touched cells are disjoint
    # (writes hit odd cells, reads even), but only the integer
    # alignment constraints i = 1 + 2m can prove it.
    store = ir.ArrayStore(
        "a", (I,), ir.ArrayLoad("a", (ir.BinOp("+", I, ir.IntConst(1)),))
    )
    summary = analyze_kernel(
        _kernel("strided", [_loop("i", "n", [store], step=2)], ["a"])
    )
    assert not summary.unknown
    assert summary.dependences == []
    assert summary.parallel_counters() == ["i"]


def test_nonaffine_subscript_poisons_the_summary():
    store = ir.ArrayStore("a", (ir.BinOp("*", I, I),), ir.ArrayLoad("b", (I,)))
    summary = analyze_kernel(_kernel("sq", [_loop("i", "n", [store])], ["a", "b"]))
    assert summary.unknown
    assert summary.parallel_counters() == []


# ---------------------------------------------------------------------------
# Scalar liveness
# ---------------------------------------------------------------------------


def _procedure(body: str):
    source = f"""
procedure live(n,a)
real (kind=8), dimension(1:n) :: a
{body}
end procedure
"""
    return parse_source(source).procedure("live")


def test_redefinition_after_the_span_is_not_a_read():
    proc = _procedure(
        """
do i=1,n
a(i) = 1.0
enddo
t = 0.0
a(1) = t
"""
    )
    live = scalars_live_after(proc, 1)
    assert not live.top
    assert not live.is_live("t")


def test_read_after_the_span_keeps_the_scalar_live():
    proc = _procedure(
        """
do i=1,n
a(i) = 1.0
enddo
a(1) = t + 1.0
"""
    )
    assert scalars_live_after(proc, 1).is_live("t")


def test_parameters_are_live_at_exit():
    proc = _procedure(
        """
do i=1,n
a(i) = 1.0
enddo
"""
    )
    live = scalars_live_after(proc, len(proc.body))
    assert live.is_live("n") and live.is_live("a")
    assert not live.is_live("t")


def test_unstructured_control_flow_degrades_to_top():
    proc = _procedure(
        """
do i=1,n
a(i) = 1.0
enddo
return
"""
    )
    live = scalars_live_after(proc, 1)
    assert live.top
    assert live.is_live("anything_at_all")


def test_zero_trip_loop_does_not_kill():
    # The inner loop redefines t, but it may run zero times, so the
    # incoming t can still reach the read after it.
    proc = _procedure(
        """
do i=1,n
a(i) = 1.0
enddo
do k=1,m
t = 2.0
enddo
a(1) = t
"""
    )
    assert scalars_live_after(proc, 1).is_live("t")


# ---------------------------------------------------------------------------
# Schedule legality
# ---------------------------------------------------------------------------


def _pure_func() -> Func:
    x, y = Var("x"), Var("y")
    b = ImageParam("b", 2)
    f = Func("pure")
    f[x, y] = (b[x - 1, y] + b[x + 1, y]) * 0.5
    return f


def _self_read_func(offset: int) -> Func:
    x, y = Var("x"), Var("y")
    a = ImageParam("a", 2)
    f = Func("a")  # named like its image: an in-place update
    f[x, y] = a[x + offset, y] * 0.5
    return f


def test_pure_func_certifies_any_valid_schedule():
    report = certify(_pure_func(), Schedule(parallel_dim=1, tile_sizes=(8, 8)))
    assert report.verdict == LEGAL


def test_identity_self_read_certifies():
    report = certify(_self_read_func(0), Schedule(parallel_dim=0))
    assert report.verdict == LEGAL


def test_offset_self_read_is_illegal_and_names_the_race():
    func = _self_read_func(-1)
    report = certify(func, Schedule(parallel_dim=0))
    assert report.verdict == ILLEGAL
    assert any("data race" in reason for reason in report.reasons)
    with pytest.raises(ScheduleLegalityError):
        lower(func, Schedule(parallel_dim=0))


def test_unanalyzable_self_read_is_unknown_and_uncertified():
    x, y = Var("x"), Var("y")
    a = ImageParam("a", 2)
    f = Func("a")
    f[x, y] = a[x * x, y]  # nonlinear: the FM engine cannot decide it
    report = certify(f, Schedule(parallel_dim=0))
    assert report.verdict == UNKNOWN
    assert not ScheduleChecker(f).is_legal(Schedule(parallel_dim=0))


def test_order_preserving_is_exactly_the_reference_traversal():
    assert order_preserving(Schedule(), 2)
    assert order_preserving(Schedule(vector_width=4, unroll=2), 2)
    assert order_preserving(Schedule(dim_order=(0, 1), tile_sizes=(0, 0)), 2)
    assert not order_preserving(Schedule(parallel_dim=0), 2)
    assert not order_preserving(Schedule(tile_sizes=(8, 8)), 2)
    assert not order_preserving(Schedule(dim_order=(1, 0)), 2)


def test_canonical_key_identifies_equivalent_spellings():
    spelled = Schedule(dim_order=(0, 1), tile_sizes=(0, 0))
    assert canonical_key(Schedule(), 2) == canonical_key(spelled, 2)
    assert canonical_key(Schedule(), 2) != canonical_key(Schedule(vector_width=4), 2)


def test_schedule_checker_memoizes_by_canonical_key():
    checker = ScheduleChecker(_pure_func())
    first = checker.check(Schedule())
    second = checker.check(Schedule(dim_order=(0, 1), tile_sizes=(0, 0)))
    assert first is second  # one certify call for one traversal


# ---------------------------------------------------------------------------
# The lint report and its baseline gate
# ---------------------------------------------------------------------------


def test_classify_demotion_buckets():
    assert classify_demotion(["scalar temporaries live after the nest: t"]) == (
        "scalar-observability"
    )
    assert classify_demotion(["lowering: unsupported statement"]) == "lowering"
    assert classify_demotion(["loop body calls a procedure"]) == "filter"


def test_compare_to_baseline_flags_only_regressions():
    baseline = {"totals": {key: 5 for key in GATED_TOTALS}}
    same = {"totals": {key: 5 for key in GATED_TOTALS}}
    better = {"totals": {key: 6 for key in GATED_TOTALS}}
    worse = {"totals": {**{key: 5 for key in GATED_TOTALS}, "app_liftable": 4}}
    assert compare_to_baseline(same, baseline) == []
    assert compare_to_baseline(better, baseline) == []
    problems = compare_to_baseline(worse, baseline)
    assert len(problems) == 1 and "app_liftable" in problems[0]


def test_lint_report_structure_on_the_representative_corpus():
    report = build_report(representative=True)
    for key in GATED_TOTALS:
        assert report["totals"][key] > 0
    for app in report["applications"]:
        assert app["liftable"] + app["fallback"] == app["sites"]
        assert sum(app["demotion_reasons"].values()) == app["fallback"]


# ---------------------------------------------------------------------------
# Autotuner pruning: same winner, fewer objective evaluations
# ---------------------------------------------------------------------------


class _CanonicalCostObjective:
    """Deterministic cost that depends only on the lowered traversal —
    the property real measured objectives have approximately, which is
    what makes replaying a duplicate's cached cost sound."""

    def __init__(self, dimensions: int):
        self.dimensions = dimensions
        self.calls = 0

    def __call__(self, schedule: Schedule) -> float:
        self.calls += 1
        # CRC32 of the repr, not hash(): the key holds None, whose hash
        # is an address on Python 3.11, so it would change per process.
        key = canonical_key(schedule, self.dimensions)
        return 1.0 + (zlib.crc32(repr(key).encode()) % 9973) / 9973.0


class _ExplicitNaturalOrder(Technique):
    """Proposes the default schedule's traversal with its order spelled out."""

    name = "explicit-natural-order"

    def propose(self, space, best, rng) -> Schedule:
        return Schedule(dim_order=(0, 1))


def test_pruning_preserves_the_winner_and_cuts_objective_calls(monkeypatch):
    # A technique that proposes a duplicate of the default traversal on
    # purpose, so the run has something to prune whatever the costs.
    monkeypatch.setattr(
        tuner, "DEFAULT_TECHNIQUES", DEFAULT_TECHNIQUES + (_ExplicitNaturalOrder,)
    )
    func = _pure_func()
    space = ScheduleSpace(func.dimensions)

    unchecked_obj = _CanonicalCostObjective(func.dimensions)
    unchecked = MultiArmedBanditTuner(space, unchecked_obj, seed=7).tune(budget=60)

    checked_obj = _CanonicalCostObjective(func.dimensions)
    checked = MultiArmedBanditTuner(
        space, checked_obj, seed=7, legality=ScheduleChecker(func)
    ).tune(budget=60)

    # Same candidate stream, same incumbent trajectory, same winner...
    assert checked.best_schedule == unchecked.best_schedule
    assert checked.best_cost == unchecked.best_cost
    assert checked.history == unchecked.history
    assert checked.evaluations == unchecked.evaluations
    # ...but duplicate traversals were replayed, not re-evaluated.
    assert checked.pruned_duplicate > 0
    assert checked.pruned_illegal == 0  # every schedule is legal for a pure func
    assert checked_obj.calls < unchecked_obj.calls
    assert checked_obj.calls == unchecked_obj.calls - checked.pruned_duplicate


def test_pruning_rejects_illegal_proposals_before_evaluation():
    func = _self_read_func(-1)
    space = ScheduleSpace(func.dimensions)
    objective = _CanonicalCostObjective(func.dimensions)
    checker = ScheduleChecker(func)
    result = MultiArmedBanditTuner(
        space, objective, seed=7, legality=checker
    ).tune(budget=60)
    assert result.pruned_illegal > 0
    assert certify(func, result.best_schedule).verdict == LEGAL
