"""Tests for the IR analyses, flattening and the executable semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import identify_candidates, parse_source
from repro.frontend.lowering import lower_candidate
from repro.ir import flatten_kernel
from repro.ir.analysis import (
    collect_loops,
    free_scalar_inputs,
    is_perfect_nest,
    loop_nest_depth,
    written_cells,
)
from repro.ir.nodes import ArrayLoad, ArrayStore, Assign, BinOp, Block, IntConst, Kernel, Loop, VarRef
from repro.semantics import (
    State,
    eval_ir_expr,
    eval_sym_expr,
    execute_kernel,
    fresh_symbolic_array,
    value_equal,
)
from repro.semantics.state import ArrayValue, require_int
from repro.symbolic import cell, sym
from repro.semantics.floatmodel import Mod7, field_encode

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


def running_kernel() -> Kernel:
    return lower_candidate(identify_candidates(parse_source(RUNNING_EXAMPLE)).candidates[0])


class TestAnalysis:
    def test_loop_depth(self):
        assert loop_nest_depth(running_kernel().body) == 2

    def test_collect_loops_order(self):
        loops = collect_loops(running_kernel().body)
        assert [l.counter for l in loops] == ["j", "i"]

    def test_written_cells_records_counters(self):
        sites = written_cells(running_kernel())
        assert sites[0].array == "a"
        assert sites[0].enclosing_counters == ("j", "i")

    def test_free_scalar_inputs(self):
        inputs = free_scalar_inputs(running_kernel())
        assert set(inputs) >= {"imin", "imax", "jmin", "jmax"}
        assert "q" not in inputs

    def test_is_perfect_nest_false_for_running_example(self):
        # The outer body contains the t = b(imin, j) statement.
        assert not is_perfect_nest(running_kernel())

    def test_is_perfect_nest_true_for_simple_nest(self):
        body = Block([
            Loop("j", IntConst(0), VarRef("n"), Block([
                Loop("i", IntConst(0), VarRef("n"), Block([
                    ArrayStore("a", (VarRef("i"), VarRef("j")), ArrayLoad("b", (VarRef("i"), VarRef("j")))),
                ])),
            ])),
        ])
        kernel = Kernel("k", [], [], [], body)
        assert is_perfect_nest(kernel)


class TestFlattening:
    def test_flatten_rewrites_accesses(self):
        flat, infos = flatten_kernel(running_kernel())
        assert "a" in infos and "b" in infos
        sites = written_cells(flat)
        assert sites[0].array == "a_flat"
        assert len(sites[0].indices) == 1

    def test_flattened_semantics_match(self):
        kernel = running_kernel()
        flat, infos = flatten_kernel(kernel)
        env = {"imin": 0, "imax": 3, "jmin": 0, "jmax": 2}

        def input_value(idx):
            return float(1 + idx[0] * 10 + (idx[1] * 100 if len(idx) > 1 else 0))

        original = State(scalars=dict(env))
        original.arrays["b"] = ArrayValue("b", default=lambda n, i: input_value(i))
        original.arrays["a"] = ArrayValue("a", default=lambda n, i: 0.0)
        execute_kernel(kernel, original)

        flat_state = State(scalars=dict(env))
        ncols = env["imax"] - env["imin"] + 1

        def flat_input(idx):
            linear = idx[0]
            return input_value((linear % ncols + env["imin"], linear // ncols + env["jmin"]))

        flat_state.arrays["b_flat"] = ArrayValue("b_flat", default=lambda n, i: flat_input(i))
        flat_state.arrays["a_flat"] = ArrayValue("a_flat", default=lambda n, i: 0.0)
        execute_kernel(flat, flat_state)

        for i in range(1, 4):
            for j in range(0, 3):
                flat_index = (j - env["jmin"]) * ncols + (i - env["imin"])
                assert original.arrays["a"].load((i, j)) == flat_state.arrays["a_flat"].load((flat_index,))


class TestExecution:
    def test_concrete_execution_of_running_example(self):
        kernel = running_kernel()
        state = State(scalars={"imin": 0, "imax": 3, "jmin": 0, "jmax": 1})
        state.arrays["b"] = ArrayValue("b", default=lambda n, idx: float(idx[0] + 10 * idx[1]))
        state.arrays["a"] = ArrayValue("a", default=lambda n, idx: 0.0)
        execute_kernel(kernel, state)
        # a(i,j) = b(i-1,j) + b(i,j)
        assert state.arrays["a"].load((2, 1)) == (1 + 10) + (2 + 10)

    def test_symbolic_execution_produces_formulas(self):
        kernel = running_kernel()
        state = State(scalars={"imin": 0, "imax": 2, "jmin": 0, "jmax": 0})
        state.arrays["b"] = fresh_symbolic_array("b")
        state.arrays["a"] = fresh_symbolic_array("a")
        execute_kernel(kernel, state)
        assert value_equal(state.arrays["a"].load((1, 0)), cell("b", 0, 0) + cell("b", 1, 0))

    def test_counter_value_after_loop(self):
        kernel = running_kernel()
        state = State(scalars={"imin": 0, "imax": 2, "jmin": 0, "jmax": 1})
        state.arrays["b"] = fresh_symbolic_array("b")
        execute_kernel(kernel, state)
        assert state.scalar("j") == 2

    def test_eval_sym_expr_with_bindings(self):
        state = State()
        state.arrays["b"] = ArrayValue("b", default=lambda n, idx: float(sum(idx)))
        value = eval_sym_expr(cell("b", sym("v0") - 1, sym("v1")), state, {"v0": 3, "v1": 4})
        assert value == 6.0

    def test_require_int_rejects_symbolic(self):
        with pytest.raises(TypeError):
            require_int(sym("i"))

    def test_value_equal_symbolic_commutative(self):
        assert value_equal(cell("b", 1) + cell("b", 2), cell("b", 2) + cell("b", 1))


class TestMod7:
    def test_field_encode_fraction(self):
        assert field_encode(0.5) == 4  # inverse of 2 mod 7

    def test_addition_wraps(self):
        assert Mod7(5) + Mod7(4) == Mod7(2)

    def test_division_is_inverse_multiplication(self):
        assert (Mod7(3) / Mod7(5)) * Mod7(5) == Mod7(3)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Mod7(1) / Mod7(0)

    def test_mixed_arithmetic_with_floats(self):
        assert Mod7(3) * 0.5 == Mod7(3) / 2

    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_field_distributivity(self, a, b, c):
        assert Mod7(a) * (Mod7(b) + Mod7(c)) == Mod7(a) * Mod7(b) + Mod7(a) * Mod7(c)

    @given(st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_inverse_law(self, a):
        assert Mod7(a) * Mod7(a).inverse() == Mod7(1)
