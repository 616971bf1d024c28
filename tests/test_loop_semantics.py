"""Fortran trip-count semantics shared by the interpreter, the compiled
backends and the bounded verifier's counter enumeration.

Regression suite for the loop-value enumeration audit: the old
``range(lower, upper + step + 1, step)`` agreed with the executed values
for ordinary ascending loops but dropped the exit state entirely for
ranges empty by more than one step and walked the wrong way for negative
steps.  Everything now goes through ``loop_counter_values``, and these
tests pin the helper against what ``semantics/exec.py`` actually does on
the same loops.
"""

from __future__ import annotations

import pytest

from repro.compile import CompiledCollector
from repro.compile.stmtcomp import compile_stmt
from repro.ir import nodes as ir
from repro.semantics.evalexpr import EvalError
from repro.semantics.exec import (
    ExecutionError,
    execute_statement,
    loop_counter_values,
    loop_trip_count,
)
from repro.semantics.state import ArrayValue, State
from repro.vcgen.hoare import generate_vc
from repro.verification.bounded import BoundedVerifier

RANGES = [
    (0, 5, 1),
    (0, 5, 2),
    (1, 6, 2),
    (0, 4, 2),
    (2, 3, 4),   # single partial tile
    (0, 7, 3),
    (0, 0, 1),
    (3, 2, 1),   # empty by one
    (3, 0, 1),   # empty by more than one step (old enumeration lost the exit state)
    (5, -4, 2),
    (5, 0, -1),  # descending
    (5, 0, -2),
    (0, 5, -1),  # descending but empty
    (-3, 4, 3),
]


def _observe_execution(lower: int, upper: int, step: int, compiled: bool = False):
    """Counter values the body observes plus the final counter, by running."""
    body = ir.Block(
        [
            ir.ArrayStore("trace", (ir.VarRef("cnt"),), ir.VarRef("i")),
            ir.Assign("cnt", ir.BinOp("+", ir.VarRef("cnt"), ir.IntConst(1))),
        ]
    )
    loop = ir.Loop("i", ir.IntConst(lower), ir.IntConst(upper), body, step=step)
    state = State(scalars={"cnt": 0})
    state.arrays["trace"] = ArrayValue("trace")
    if compiled:
        compile_stmt(loop)(state)
    else:
        execute_statement(loop, state)
    count = state.scalar("cnt")
    seen = [state.arrays["trace"].cells[(index,)] for index in range(count)]
    return seen, state.scalar("i")


class TestTripCount:
    @pytest.mark.parametrize("lower,upper,step", RANGES)
    def test_helper_matches_interpreter(self, lower, upper, step):
        executed, exit_value = _observe_execution(lower, upper, step)
        values = list(loop_counter_values(lower, upper, step))
        assert values[:-1] == executed
        assert values[-1] == exit_value
        assert loop_trip_count(lower, upper, step) == len(executed)

    @pytest.mark.parametrize("lower,upper,step", RANGES)
    def test_compiled_backend_matches_interpreter(self, lower, upper, step):
        assert _observe_execution(lower, upper, step, compiled=True) == _observe_execution(
            lower, upper, step
        )

    def test_zero_step_is_rejected_everywhere(self):
        body = ir.Block([])
        loop = ir.Loop("i", ir.IntConst(0), ir.IntConst(3), body, step=0)
        with pytest.raises(ExecutionError):
            execute_statement(loop, State())
        with pytest.raises(ExecutionError):
            compile_stmt(loop)(State())
        with pytest.raises(ExecutionError):
            loop_trip_count(0, 3, 0)

    def test_fortran_reference_counts(self):
        # MAX(INT((m2 - m1 + m3) / m3), 0) with INT truncating toward zero.
        assert loop_trip_count(1, 10, 1) == 10
        assert loop_trip_count(1, 10, 3) == 4
        assert loop_trip_count(10, 1, -3) == 4
        assert loop_trip_count(1, 0, 1) == 0
        assert loop_trip_count(1, -9, 2) == 0


def _nested_kernel(step: int) -> ir.Kernel:
    inner = ir.Loop(
        "i",
        ir.IntConst(0),
        ir.VarRef("n"),
        ir.Block([ir.ArrayStore("out", (ir.VarRef("i"),), ir.VarRef("i"))]),
        step=1,
    )
    outer = ir.Loop("j", ir.IntConst(0), ir.VarRef("m"), ir.Block([inner]), step=step)
    return ir.Kernel(
        name="nest",
        params=["n", "m", "out"],
        arrays=[ir.ArrayDecl("out", ((ir.IntConst(0), ir.VarRef("n")),))],
        scalars=[ir.ScalarDecl("n"), ir.ScalarDecl("m"), ir.ScalarDecl("i"), ir.ScalarDecl("j")],
        body=ir.Block([outer]),
    )


class TestCounterEnumeration:
    """The bounded verifier's counter combinations use exact trip semantics."""

    @pytest.mark.parametrize("step,env", [(1, {"n": 2, "m": 3}), (2, {"n": 2, "m": 3}),
                                          (3, {"n": 1, "m": 4}), (2, {"n": 2, "m": 0})])
    def test_combinations_cover_executed_values_plus_exit(self, step, env):
        kernel = _nested_kernel(step)
        vc = generate_vc(kernel)
        verifier = BoundedVerifier(vc, environments=[dict(env)], seed=0)
        combos = list(verifier._counter_combinations(env))
        j_values = sorted({c["j"] for c in combos})
        expected = sorted(loop_counter_values(0, env["m"], step))
        assert j_values == expected

    def test_degenerate_range_still_enumerates_exit_state(self):
        # With m = -5 the outer loop never runs; the exit state (j = 0)
        # must still be enumerated — the old enumeration produced nothing.
        kernel = _nested_kernel(1)
        env = {"n": 2, "m": -5}
        verifier = BoundedVerifier(generate_vc(kernel), environments=[dict(env)], seed=0)
        combos = list(verifier._counter_combinations(env))
        assert {c["j"] for c in combos} == {0}


def _interpreted_collect(kernel: ir.Kernel, state: State):
    """The interpreted collector of ``quick_check``: ``execute_statement`` plus snapshots."""
    verifier = BoundedVerifier(generate_vc(kernel), environments=[{}], compiled=False)
    return verifier._collect(state)


def _collect_outcome(collect, kernel: ir.Kernel, env):
    """Scalars and cells of every collected state, or the error raised."""
    state = State(scalars=dict(env), arrays={"out": ArrayValue("out")})
    try:
        states = collect(kernel, state)
    except Exception as exc:
        return ("err", type(exc), str(exc))
    return ("ok", [(s.scalars, s.arrays["out"].cells) for s in states])


def _compiled_collect(kernel: ir.Kernel, state: State):
    return CompiledCollector(kernel).collect(state)


def _guarded_kernel() -> ir.Kernel:
    """``do j = 0, m: if (j > 0) then do i = 0, n: out(i) = i * j``."""
    inner = ir.Loop(
        "i",
        ir.IntConst(0),
        ir.VarRef("n"),
        ir.Block([ir.ArrayStore(
            "out", (ir.VarRef("i"),), ir.BinOp("*", ir.VarRef("i"), ir.VarRef("j"))
        )]),
    )
    guarded = ir.If(ir.Compare(">", ir.VarRef("j"), ir.IntConst(0)), ir.Block([inner]))
    outer = ir.Loop("j", ir.IntConst(0), ir.VarRef("m"), ir.Block([guarded]))
    return ir.Kernel(
        name="guarded",
        params=["n", "m", "out"],
        arrays=[ir.ArrayDecl("out", ((ir.IntConst(0), ir.VarRef("n")),))],
        scalars=[ir.ScalarDecl("n"), ir.ScalarDecl("m"), ir.ScalarDecl("i"), ir.ScalarDecl("j")],
        body=ir.Block([outer]),
    )


class TestCollectors:
    def test_collectors_agree_on_strided_and_degenerate_loops(self):
        for step, env in [(2, {"n": 2, "m": 5}), (1, {"n": 2, "m": -4})]:
            kernel = _nested_kernel(step)
            interpreted = _interpreted_collect(
                kernel, State(scalars=dict(env), arrays={"out": ArrayValue("out")})
            )
            compiled = CompiledCollector(kernel).collect(
                State(scalars=dict(env), arrays={"out": ArrayValue("out")})
            )
            assert [s.scalars for s in interpreted] == [s.scalars for s in compiled]

    def test_collectors_descend_into_conditionals(self):
        kernel = _guarded_kernel()
        env = {"n": 1, "m": 2}
        interpreted = _collect_outcome(_interpreted_collect, kernel, env)
        assert interpreted == _collect_outcome(_compiled_collect, kernel, env)
        assert interpreted[0] == "ok"
        # Entry, three tops of j, for j = 1 and 2 two tops of i plus its
        # exit, the exit of j, and kernel exit.
        assert len(interpreted[1]) == 1 + 3 + 2 * 3 + 1 + 1
        assert [scalars.get("i") for scalars, _ in interpreted[1][:7]] == [
            None, None, None, 0, 1, 2, 2
        ]

    @pytest.mark.parametrize(
        "env,error",
        [
            ({"n": 2.5, "m": 1}, TypeError),  # loop upper bound inside the If
            ({"m": 1}, EvalError),  # n unbound inside the If
        ],
        ids=["non-integer-bound", "unbound-bound"],
    )
    def test_collectors_raise_alike_inside_conditionals(self, env, error):
        kernel = _guarded_kernel()
        interpreted = _collect_outcome(_interpreted_collect, kernel, env)
        assert interpreted == _collect_outcome(_compiled_collect, kernel, env)
        assert interpreted[:2] == ("err", error)
