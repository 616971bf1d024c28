"""Whole-application translation: scan, interpret, substitute, check."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.application.interp as interp_module
from repro.analysis.liveness import scalars_live_after
from repro.application import (
    FortranInterpreter,
    InterpreterError,
    allocate_arrays,
    differential_check,
    run_application,
    scan_application,
    substitution_hooks,
    translate_application,
)
from repro.application.compiled import CompiledInterpreter
from repro.application.interp import Scope
from repro.cache.store import SynthesisCache
from repro.frontend.ast import (
    Assignment,
    BinExpr,
    CallStmt,
    CompareExpr,
    ControlStmt,
    Declaration,
    DoLoop,
    IfBlock,
    LogicalExpr,
    Num,
    Procedure,
    Program,
    Ref,
    UnaryExpr,
)
from repro.frontend.parser import parse_source
from repro.halide import HalideError
from repro.pipeline.report import report_signature
from repro.pipeline.stng import PipelineOptions
from repro.suites import all_cases
from repro.suites.apps import cloverleaf_mini_app, heat_mini_app, mini_app, mini_apps

FAST_OPTIONS = dict(verifier_environments=1)


def _outcome(scope, error, buffers):
    """What a run leaves observable: arrays, scalars with their types, or the error."""
    arrays = {name: array.data for name, array in scope.arrays.items()} if scope else {}
    arrays.update(buffers)
    observed = {name: (data.shape, data.tobytes()) for name, data in arrays.items()}
    if error is not None:
        return type(error), str(error), observed
    scalars = {
        name: (type(value), value.hex() if isinstance(value, float) else value)
        for name, value in scope.scalars.items()
    }
    return scalars, observed


def _run_both(program, proc, scalars, arrays, site_hooks=None):
    """Run ``proc`` on the reference and on generated code; demand one outcome.

    The generated run gets the passed buffers, the reference a copy.  Both
    must leave the same array bytes and the same scalar values and types,
    or raise the same exception type with the same message.  Returns the
    generated run's scope and error.
    """
    runs = []
    for executor, buffers in (
        (FortranInterpreter, {name: data.copy() for name, data in arrays.items()}),
        (CompiledInterpreter, arrays),
    ):
        scope = error = None
        try:
            scope = executor(program, site_hooks=site_hooks).run(proc, scalars, buffers)
        except Exception as exc:  # compared below
            error = exc
        runs.append((scope, error, buffers))
    assert _outcome(*runs[1]) == _outcome(*runs[0])
    return runs[1][0], runs[1][1]


def run_both(program, proc, scalars, arrays, site_hooks=None):
    """:func:`_run_both`, re-raising the error both executors raised."""
    scope, error = _run_both(program, proc, scalars, arrays, site_hooks)
    if error is not None:
        raise error
    return scope


@pytest.fixture(scope="module")
def bundles():
    """Translate every bundled mini-app once (shared across tests)."""
    return {
        app.name: translate_application(app, PipelineOptions(**FAST_OPTIONS))
        for app in mini_apps()
    }


# ---------------------------------------------------------------------------
# Scan
# ---------------------------------------------------------------------------

class TestScan:
    def test_site_counts_match_app_metadata(self):
        for app in mini_apps():
            scan = scan_application(parse_source(app.source))
            assert len(scan.liftable_sites) == app.expected_liftable, app.name
            assert len(scan.fallback_sites) == app.expected_fallback, app.name

    def test_sites_carry_spans_and_kernels(self):
        app = cloverleaf_mini_app()
        scan = scan_application(parse_source(app.source))
        for site in scan.liftable_sites:
            assert site.end > site.start >= 0
            assert site.kernel is not None
            assert site.kernel.name == site.name
        for site in scan.fallback_sites:
            assert site.reasons

    def test_consecutive_loops_merge_into_one_site(self):
        source = (
            "subroutine two(ilo, ihi, a, b)\n"
            "real (kind=8), dimension(ilo:ihi) :: a\n"
            "real (kind=8), dimension(ilo:ihi) :: b\n"
            "integer :: ilo, ihi\n"
            "do i = ilo+1, ihi\n"
            "  a(i) = b(i) + b(i-1)\n"
            "enddo\n"
            "do i = ilo, ihi\n"
            "  b(i) = a(i)\n"
            "enddo\n"
            "end subroutine two\n"
        )
        scan = scan_application(parse_source(source))
        assert len(scan.sites) == 1
        site = scan.sites[0]
        assert site.liftable and (site.start, site.end) == (0, 2)


# ---------------------------------------------------------------------------
# Reference interpreter
# ---------------------------------------------------------------------------

class TestInterpreter:
    def _run(self, source, proc, scalars, arrays):
        return run_both(parse_source(source), proc, scalars, arrays)

    def test_loop_counter_holds_exit_value(self):
        source = (
            "subroutine s(n, a)\n"
            "real (kind=8), dimension(1:n) :: a\n"
            "integer :: n\n"
            "do i = 1, n\n"
            "  a(i) = 2.0d0\n"
            "enddo\n"
            "end subroutine s\n"
        )
        scope = self._run(source, "s", {"n": 4}, {"a": np.zeros(4)})
        assert scope.scalars["i"] == 5
        assert np.array_equal(scope.arrays["a"].data, np.full(4, 2.0))

    def test_decrementing_loop_and_conditional(self):
        source = (
            "subroutine s(n, a)\n"
            "real (kind=8), dimension(1:n) :: a\n"
            "integer :: n\n"
            "do i = n, 1, -1\n"
            "  if (a(i) < 0.0d0) then\n"
            "    a(i) = 0.0d0\n"
            "  else\n"
            "    a(i) = a(i) + 1.0d0\n"
            "  endif\n"
            "enddo\n"
            "end subroutine s\n"
        )
        data = np.array([-3.0, 5.0, -1.0, 2.0])
        scope = self._run(source, "s", {"n": 4}, {"a": data})
        assert np.array_equal(scope.arrays["a"].data, [0.0, 6.0, 0.0, 3.0])
        assert scope.scalars["i"] == 0

    def test_call_passes_arrays_by_reference_and_scalars_back(self):
        source = (
            "subroutine inner(n, m, a)\n"
            "real (kind=8), dimension(1:n) :: a\n"
            "integer :: n, m\n"
            "a(1) = 7.0d0\n"
            "m = n + 10\n"
            "end subroutine inner\n"
            "subroutine outer(n, m, a)\n"
            "real (kind=8), dimension(1:n) :: a\n"
            "integer :: n, m\n"
            "call inner(n, m, a)\n"
            "end subroutine outer\n"
        )
        scope = self._run(source, "outer", {"n": 3, "m": 0}, {"a": np.zeros(3)})
        assert scope.arrays["a"].data[0] == 7.0
        assert scope.scalars["m"] == 13

    def test_fortran_array_origins(self):
        source = (
            "subroutine s(ilo, ihi, a)\n"
            "real (kind=8), dimension(ilo:ihi) :: a\n"
            "integer :: ilo, ihi\n"
            "do i = ilo, ihi\n"
            "  a(i) = i * 1.0d0\n"
            "enddo\n"
            "end subroutine s\n"
        )
        scope = self._run(source, "s", {"ilo": -2, "ihi": 2}, {"a": np.zeros(5)})
        assert np.array_equal(scope.arrays["a"].data, [-2.0, -1.0, 0.0, 1.0, 2.0])

    def test_out_of_bounds_read_raises(self):
        source = (
            "subroutine s(n, a)\n"
            "real (kind=8), dimension(1:n) :: a\n"
            "integer :: n\n"
            "a(1) = a(n + 1)\n"
            "end subroutine s\n"
        )
        with pytest.raises(InterpreterError, match="out of bounds"):
            self._run(source, "s", {"n": 3}, {"a": np.zeros(3)})

    def test_shape_mismatch_raises(self):
        source = (
            "subroutine s(n, a)\n"
            "real (kind=8), dimension(1:n) :: a\n"
            "integer :: n\n"
            "a(1) = 0.0d0\n"
            "end subroutine s\n"
        )
        with pytest.raises(InterpreterError, match="shape"):
            self._run(source, "s", {"n": 5}, {"a": np.zeros(3)})

    def test_integer_division_truncates_toward_zero(self):
        source = (
            "subroutine s(n, m, a)\n"
            "real (kind=8), dimension(1:3) :: a\n"
            "integer :: n, m\n"
            "m = n / 2\n"
            "a(1) = 1.0d0\n"
            "end subroutine s\n"
        )
        scope = self._run(source, "s", {"n": -3, "m": 0}, {"a": np.zeros(3)})
        assert scope.scalars["m"] == -1  # Python // would give -2

    def test_allocate_arrays_integer_valued(self):
        app = heat_mini_app()
        program = parse_source(app.source)
        buffers = allocate_arrays(program, app.driver, app.grid_scalars(5), seed=3)
        assert set(buffers) == {"uold", "unew"}
        for data in buffers.values():
            assert data.shape == (6, 6)
            assert np.array_equal(data, np.round(data))


    def test_logical_scalar_holds_a_logical(self):
        source = (
            "subroutine s(n, a)\n"
            "real (kind=8), dimension(1:n) :: a\n"
            "logical :: pos\n"
            "integer :: n\n"
            "do i = 1, n\n"
            "  pos = a(i) > 0.0d0\n"
            "  if (pos) then\n"
            "    a(i) = 1.0d0\n"
            "  endif\n"
            "enddo\n"
            "end subroutine s\n"
        )
        scope = self._run(source, "s", {"n": 3}, {"a": np.array([-2.0, 0.0, 5.0])})
        assert scope.scalars["pos"] is True
        assert np.array_equal(scope.arrays["a"].data, [-2.0, 0.0, 1.0])

    def test_logical_parameters_refuse_numbers(self):
        source = (
            "subroutine s(flag, x)\n"
            "logical :: flag\n"
            "real (kind=8) :: x\n"
            "if (flag) then\n"
            "  x = 1.0d0\n"
            "endif\n"
            "flag = x > 0.5d0\n"
            "flag = x\n"
            "end subroutine s\n"
        )
        with pytest.raises(InterpreterError, match="logical 'flag' assigned the non-logical value 1 "):
            self._run(source, "s", {"flag": 1, "x": 0.0}, {})
        with pytest.raises(InterpreterError, match="logical 'flag' assigned the non-logical value 1.0 "):
            self._run(source, "s", {"flag": np.True_, "x": 0.0}, {})

    @pytest.mark.parametrize(
        "value, data, reference",
        [
            ("1.0d0 / b(i)", [2.0, 0.0, -0.0], np.divide),
            ("sqrt(b(i))", [4.0, -1.0, 0.0], np.sqrt),
            ("b(i) ** 0.5d0", [4.0, -4.0, 0.0], lambda b: np.power(b, 0.5)),
            ("log(b(i))", [1.0, 0.0, -1.0], np.log),
            ("mod(b(i), 0.0d0)", [1.0, 0.0, -1.0], lambda b: np.fmod(b, 0.0)),
            ("0 ** (-1) + b(i)", [1.0, 0.0, -1.0], lambda b: np.inf + b),
        ],
    )
    def test_real_arithmetic_is_ieee(self, value, data, reference):
        source = (
            "subroutine s(n, a, b)\n"
            "real (kind=8), dimension(1:n) :: a\n"
            "real (kind=8), dimension(1:n) :: b\n"
            "integer :: n\n"
            "do i = 1, n\n"
            f"  a(i) = {value}\n"
            "enddo\n"
            "end subroutine s\n"
        )
        b = np.array(data)
        scope = self._run(source, "s", {"n": 3}, {"a": np.zeros(3), "b": b})
        with np.errstate(all="ignore"):
            expected = reference(1.0, b) if reference is np.divide else reference(b)
        assert scope.arrays["a"].data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "statement, message",
        [
            ("m = n / k", r"integer division by zero in \(n / k\)"),
            ("m = mod(n, k)", r"integer mod by zero in mod\(n, k\)"),
        ],
    )
    def test_integer_division_by_zero_raises(self, statement, message):
        source = (
            "subroutine s(n, k, m)\n"
            "integer :: n, k, m\n"
            f"{statement}\n"
            "end subroutine s\n"
        )
        with pytest.raises(InterpreterError, match=message):
            self._run(source, "s", {"n": 5, "k": 0, "m": 0}, {})


# ---------------------------------------------------------------------------
# Generated executor: the same outcome as the reference, construct by construct
# ---------------------------------------------------------------------------

_BUMP = (
    "subroutine bump(k)\n"
    "integer :: k\n"
    "k = k + 10\n"
    "end subroutine bump\n"
)


def _corpus_scalars(proc):
    """The fixed scalar rule: integers named like lower bounds 1, other integers 9, reals 0.5."""
    types = Scope(procedure=proc)
    arrays = set(proc.array_names())
    return {
        name: (1 if name.endswith("lo") else 9) if types.scalar_type(name) == "integer" else 0.5
        for name in proc.params
        if name not in arrays
    }


def _small(body, n=3, x=1.5):
    """``s(n, x, a)`` with ``a(1:2, 1:3)`` running ``body``, and its arguments."""
    source = (
        "subroutine s(n, x, a)\n"
        "real (kind=8), dimension(1:2, 1:3) :: a\n"
        "integer :: n\n"
        "real (kind=8) :: x\n"
        f"{body}\n"
        "end subroutine s\n"
    )
    return parse_source(source), {"n": n, "x": x}, {"a": np.arange(6.0).reshape(2, 3)}


class TestGeneratedExecutor:
    def test_call_writeback_lands_in_the_loop_counter(self):
        source = _BUMP + (
            "subroutine s(n, a)\n"
            "real (kind=8), dimension(1:n) :: a\n"
            "integer :: n\n"
            "do i = 1, n\n"
            "  call bump(i)\n"
            "  a(i - 10) = i * 1.0d0\n"
            "enddo\n"
            "end subroutine s\n"
        )
        scope = run_both(parse_source(source), "s", {"n": 3}, {"a": np.zeros(3)})
        assert np.array_equal(scope.arrays["a"].data, [11.0, 12.0, 13.0])
        assert scope.scalars["i"] == 4  # the exit value comes from the entry range

    def test_return_inside_a_nested_loop(self):
        source = (
            "subroutine s(n, m, a)\n"
            "real (kind=8), dimension(1:n, 1:n) :: a\n"
            "integer :: n, m\n"
            "do j = 1, n\n"
            "  do i = 1, n\n"
            "    a(i, j) = 1.0d0\n"
            "    if (i * j >= m) then\n"
            "      return\n"
            "    endif\n"
            "  enddo\n"
            "enddo\n"
            "m = -1\n"
            "end subroutine s\n"
        )
        scope = run_both(parse_source(source), "s", {"n": 3, "m": 4}, {"a": np.zeros((3, 3))})
        assert (scope.scalars["i"], scope.scalars["j"], scope.scalars["m"]) == (2, 2, 4)
        assert scope.arrays["a"].data.sum() == 5.0

    def test_exit_keeps_the_counter_and_cycle_skips_the_rest(self):
        source = (
            "subroutine s(n, m, a)\n"
            "real (kind=8), dimension(1:n) :: a\n"
            "integer :: n, m\n"
            "do i = 1, n\n"
            "  if (a(i) < 0.0d0) exit\n"
            "  if (a(i) > 2.0d0) cycle\n"
            "  a(i) = a(i) * 2.0d0\n"
            "  m = m + 1\n"
            "enddo\n"
            "end subroutine s\n"
        )
        scope = run_both(
            parse_source(source), "s", {"n": 5, "m": 0},
            {"a": np.array([1.0, 3.0, 0.5, -1.0, 1.0])},
        )
        assert (scope.scalars["i"], scope.scalars["m"]) == (4, 2)
        assert list(scope.arrays["a"].data) == [2.0, 3.0, 1.0, -1.0, 1.0]

    def test_exit_and_cycle_leave_only_the_innermost_loop(self):
        source = (
            "subroutine s(n, a)\n"
            "real (kind=8), dimension(1:n, 1:n) :: a\n"
            "integer :: n\n"
            "do j = 1, n\n"
            "  do i = 1, n\n"
            "    if (i > j) then\n"
            "      exit\n"
            "    endif\n"
            "    if (i == 1) cycle\n"
            "    a(i, j) = 1.0d0\n"
            "  enddo\n"
            "  a(1, j) = i * 1.0d0\n"
            "enddo\n"
            "end subroutine s\n"
        )
        scope = run_both(parse_source(source), "s", {"n": 3}, {"a": np.zeros((3, 3))})
        assert (scope.scalars["i"], scope.scalars["j"]) == (4, 4)
        # Column j: rows 2..j set, row 1 holds the inner counter after the
        # exit (j + 1), or its exit value n + 1 when the loop ran out.
        assert scope.arrays["a"].data.tolist() == [[2.0, 3.0, 4.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]

    def test_exit_past_pythons_nesting_limit(self):
        depth = 21
        lines = [f"do i{d} = 1, 1" for d in range(depth - 1)] + [
            "do i20 = 1, 3",
            "a(1, 1) = a(1, 1) + 1.0d0",
            "if (i20 == 2) exit",
        ]
        program, scalars, arrays = _small("\n".join(lines + ["enddo"] * depth))
        scope = run_both(program, "s", scalars, arrays)
        assert scope.arrays["a"].data[0, 0] == 2.0
        assert (scope.scalars["i20"], scope.scalars["i19"]) == (2, 2)

    def test_exit_outside_a_loop_in_a_callee_is_not_the_callers(self):
        source = (
            "subroutine quit(k)\n"
            "integer :: k\n"
            "exit\n"
            "end subroutine quit\n"
            "subroutine s(n)\n"
            "integer :: n\n"
            "do i = 1, n\n"
            "  call quit(i)\n"
            "enddo\n"
            "end subroutine s\n"
        )
        with pytest.raises(InterpreterError, match="'exit' outside a do loop in 'quit'"):
            run_both(parse_source(source), "s", {"n": 2}, {})

    def test_zero_trip_negative_and_strided_loops(self):
        source = (
            "subroutine s(n, a)\n"
            "real (kind=8), dimension(1:n) :: a\n"
            "integer :: n\n"
            "do i = n, 1\n"
            "  a(1) = -1.0d0\n"
            "enddo\n"
            "do j = n, 1, -2\n"
            "  a(j) = a(j) + j\n"
            "enddo\n"
            "do k = 1, n, 3\n"
            "  a(k) = a(k) * 2.0d0\n"
            "enddo\n"
            "end subroutine s\n"
        )
        scope = run_both(parse_source(source), "s", {"n": 7}, {"a": np.zeros(7)})
        assert (scope.scalars["i"], scope.scalars["j"], scope.scalars["k"]) == (7, -1, 10)
        assert np.array_equal(scope.arrays["a"].data, [2.0, 0.0, 3.0, 0.0, 5.0, 0.0, 14.0])

    def test_integer_division_mod_and_negative_power(self):
        source = (
            "subroutine s(n, m, k, p, x)\n"
            "integer :: n, m, k, p\n"
            "real (kind=8) :: x\n"
            "m = n / 2\n"
            "k = mod(n, 3)\n"
            "p = n ** 2\n"
            "x = 2 ** (-2)\n"
            "end subroutine s\n"
        )
        scalars = {"n": -7, "m": 0, "k": 0, "p": 0, "x": 0.0}
        scope = run_both(parse_source(source), "s", scalars, {})
        assert [scope.scalars[name] for name in "mkpx"] == [-3, -1, 49, 0.25]
        assert type(scope.scalars["x"]) is float

    def test_every_intrinsic(self):
        names = ["sqrt", "exp", "log", "sin", "cos", "tan", "atan", "sinh", "cosh", "tanh"]
        lines = [
            "a(1) = abs(n)", "a(2) = abs(-x)", "a(3) = min(x, 2.0d0, n)",
            "a(4) = max(x, 2.0d0)", "a(5) = mod(7.5d0, 2.0d0)", "a(6) = sign(x, -1.0d0)",
            "a(7) = dble(n)", "a(8) = real(n)", "a(9) = float(n)",
        ] + [f"a({10 + k}) = {name}(x)" for k, name in enumerate(names)] + [
            "i1 = min(n, 4)", "i2 = max(n, 4)", "i3 = mod(n, 2)", "i4 = int(-2.7d0)",
            "i5 = sign(n, 1)", "i6 = abs(n)",
        ]
        source = (
            "subroutine s(n, x, a, i1, i2, i3, i4, i5, i6)\n"
            "real (kind=8), dimension(1:19) :: a\n"
            "integer :: n, i1, i2, i3, i4, i5, i6\n"
            "real (kind=8) :: x\n" + "\n".join(lines) + "\nend subroutine s\n"
        )
        scalars = {"n": -3, "x": 0.5, **{f"i{k}": 0 for k in range(1, 7)}}
        scope = run_both(parse_source(source), "s", scalars, {"a": np.zeros(19)})
        assert [scope.scalars[f"i{k}"] for k in range(1, 7)] == [-3, 4, -1, -2, 3, 3]
        assert list(scope.arrays["a"].data[:9]) == [3.0, 0.5, -3.0, 2.0, 1.5, -0.5, -3.0, -3.0, -3.0]
        assert scope.arrays["a"].data[9] == 0.5 ** 0.5

    def test_and_or_short_circuit_past_a_non_logical_operand(self):
        program, scalars, arrays = _small(
            "if (n > 0 .or. x) then\n"
            "  a(1, 1) = -1.0d0\n"
            "endif\n"
            "if (n < 0 .and. x) then\n"
            "  a(1, 2) = -1.0d0\n"
            "else\n"
            "  a(1, 2) = -2.0d0\n"
            "endif"
        )
        scope = run_both(program, "s", scalars, arrays)
        assert list(scope.arrays["a"].data[0]) == [-1.0, -2.0, 2.0]

    @pytest.mark.parametrize(
        "body, message",
        [
            ("x = a(0, 1)", r"index 0 of array 'a' out of bounds in dimension 0 \(origin 1, extent 2\)"),
            ("a(1, n + 1) = 1.0d0", r"index 4 of array 'a' out of bounds in dimension 1 \(origin 1, extent 3\)"),
            ("x = a(1, 1, 1)", "array 'a' has rank 2, indexed with 3 subscripts"),
            ("a(1) = 0.0d0", "array 'a' has rank 2, indexed with 1 subscripts"),
            ("a(x, 1) = 1.0d0", "index expression x is not an integer"),
            ("do i = 1, n, 0\n  x = 1.0d0\nenddo", "loop over 'i' has zero step"),
            ("x = q + 1.0d0", "scalar 'q' read before assignment in 's'"),
            ("x = a + 1.0d0", "array 'a' used as a scalar in 's'"),
            ("if (n < 0 .or. x) then\n  x = 1.0d0\nendif", "condition x did not evaluate to a logical"),
            ("x = foo(1.0d0)", "no interpretation for intrinsic 'foo'"),
            ("call nothere(n)", "call to undefined procedure 'nothere' from 's'"),
            ("q(1) = x", "array 'q' is not bound in 's'"),
            # Precedence: subscripts, then the value, then the array, float()
            # and the rank and bounds checks.
            ("a(1, n + 1) = q", "scalar 'q' read before assignment"),
            ("a(1, 1, 1) = q", "scalar 'q' read before assignment"),
            ("q(1) = y", "scalar 'y' read before assignment"),
            ("x = a(n + 5, q)", "scalar 'q' read before assignment"),
            ("a(x, n + 5) = 1.0d0", "index expression x is not an integer"),
            ("a(n + 5, 1) = 1.0d0 * (n / 0)", r"integer division by zero in \(n / 0\)"),
            ("x = 1.0d0\nexit", "'exit' outside a do loop in 's'"),
            ("if (n > 0) then\n  cycle\nendif", "'cycle' outside a do loop in 's'"),
            ("do i = 1, n\n  goto\nenddo", "unsupported control statement 'goto' in 's'"),
        ],
    )
    def test_each_error_matches_the_reference(self, body, message):
        program, scalars, arrays = _small(body)
        with pytest.raises(InterpreterError, match=message):
            run_both(program, "s", scalars, arrays)

    def test_iteration_budget_is_read_at_run_time(self, monkeypatch):
        monkeypatch.setattr(interp_module, "MAX_TOTAL_ITERATIONS", 4)
        program, scalars, arrays = _small(
            "do j = 1, 3\n  do i = 1, 2\n    a(i, j) = -1.0d0\n  enddo\nenddo"
        )
        with pytest.raises(InterpreterError, match="iteration budget exhausted"):
            run_both(program, "s", scalars, arrays)
        assert np.array_equal(arrays["a"], [[-1.0, 1.0, 2.0], [-1.0, 4.0, 5.0]])

    def test_statement_past_pythons_nesting_limit(self):
        depth = 21
        lines = [f"do i{d} = 1, 1" for d in range(depth)] + ["a(1, 1) = a(1, 1) + 1.0d0"]
        program, scalars, arrays = _small("\n".join(lines + ["enddo"] * depth))
        assert run_both(program, "s", scalars, arrays).arrays["a"].data[0, 0] == 1.0

    @pytest.mark.parametrize("name", ["cloverleaf_mini", "heat_mini"])
    def test_mini_apps_with_hooks(self, bundles, name):
        bundle = bundles[name]
        hooks = substitution_hooks(bundle)
        for grid in (1, 2) + bundle.app.grids:
            scalars = bundle.app.grid_scalars(grid)
            arrays = allocate_arrays(bundle.program, bundle.driver, scalars, seed=grid)
            run_both(bundle.program, bundle.driver, scalars, arrays, site_hooks=hooks)

    def test_corpus_sources(self):
        raised = set()
        for case in all_cases():
            program = parse_source(case.source)
            scalars = _corpus_scalars(program.procedure(case.procedure_name))
            arrays = allocate_arrays(program, case.procedure_name, scalars)
            _, error = _run_both(program, case.procedure_name, scalars, arrays)
            if error is not None:
                assert isinstance(error, InterpreterError), (case.name, error)
                raised.add(case.name)
        assert raised == {"visit_pack", "packbuf", "gatherb"}


# Random statement trees inside ``do j = 0, n; do i = 0, n`` over arrays
# declared ``(-1:n+1)``, so most of the drawn subscripts are in bounds.
_ZERO, _ONE, _TWO = Num("0", False), Num("1", False), Num("2", False)
_HYP_INDEX = st.sampled_from(
    [Ref("i"), Ref("j"), Ref("m"), _ZERO, _TWO, BinExpr("+", Ref("i"), _ONE), BinExpr("-", Ref("j"), _ONE)]
)
_HYP_LEAF = st.one_of(
    st.sampled_from([_ZERO, _ONE, _TWO, Num("3", False), Num("0.0d0", True), Num("0.5d0", True)]),
    st.sampled_from([Ref(name) for name in ("n", "m", "x", "y", "i", "j", "k", "flag", "q")]),
    st.builds(lambda p, q: Ref("a", (p, q)), _HYP_INDEX, _HYP_INDEX),
    st.builds(lambda p: Ref("b", (p,)), _HYP_INDEX),
)


def _hyp_extend(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        st.builds(BinExpr, st.sampled_from(["+", "-", "*", "/"]), children, children),
        st.builds(
            lambda base, exponent: BinExpr("**", base, exponent),
            children,
            st.sampled_from([_TWO, UnaryExpr("-", _ONE), Num("0.5d0", True)]),
        ),
        st.builds(UnaryExpr, st.just("-"), children),
        st.builds(lambda f, e: Ref(f, (e,)), st.sampled_from(["abs", "sqrt", "int", "dble"]), children),
        st.builds(lambda f, p: Ref(f, p), st.sampled_from(["min", "max", "mod", "sign"]), pairs),
        st.builds(CompareExpr, _HYP_COMPARE, children, children),
        st.builds(lambda op, p: LogicalExpr(op, p), st.sampled_from([".and.", ".or."]), pairs),
        st.builds(lambda e: LogicalExpr(".not.", (e,)), children),
        st.builds(lambda p, q: Ref("a", (p, q)), children, children),
    )


_HYP_COMPARE = st.sampled_from(["<", "<=", ">", ">=", "==", "/="])
_HYP_EXPR = st.recursive(_HYP_LEAF, _hyp_extend, max_leaves=6)
_HYP_CONDITION = st.one_of(
    st.builds(CompareExpr, _HYP_COMPARE, _HYP_EXPR, _HYP_EXPR), st.just(Ref("flag")), _HYP_EXPR
)
_HYP_SIMPLE = st.one_of(
    st.builds(lambda p, q, v: Assignment(Ref("a", (p, q)), v), _HYP_INDEX, _HYP_INDEX, _HYP_EXPR),
    st.builds(lambda p, v: Assignment(Ref("b", (p,)), v), _HYP_INDEX, _HYP_EXPR),
    # Integer targets are reduced mod 7: a loop could square one without bound.
    st.builds(
        lambda name, v: Assignment(Ref(name), Ref("mod", (v, Num("7", False)))),
        st.sampled_from(["m", "k", "i"]),
        _HYP_EXPR,
    ),
    st.builds(lambda name, v: Assignment(Ref(name), v), st.sampled_from(["x", "y", "flag"]), _HYP_EXPR),
    st.builds(lambda name: CallStmt("bump", (Ref(name),)), st.sampled_from(["i", "j", "k", "m", "x"])),
    st.sampled_from([ControlStmt(kind) for kind in ("continue", "return", "exit", "cycle")]),
)


def _hyp_blocks(children):
    blocks = st.lists(children, max_size=3)
    return st.one_of(
        st.builds(IfBlock, _HYP_CONDITION, blocks, blocks),
        st.builds(
            lambda lower, upper, step, body: DoLoop("k", lower, upper, step, body),
            _HYP_INDEX,
            _HYP_INDEX,
            st.sampled_from([None, _TWO, UnaryExpr("-", _ONE)]),
            blocks,
        ),
    )


def _hyp_program(body):
    bump = parse_source(_BUMP).procedures[0]
    bound = (UnaryExpr("-", _ONE), BinExpr("+", Ref("n"), _ONE))
    declarations = [
        Declaration("real", ["a"], {"a": (bound, bound)}),
        Declaration("real", ["b"], {"b": (bound,)}),
        Declaration("integer", ["n", "m"], {"n": None, "m": None}),
        Declaration("real", ["x", "y"], {"x": None, "y": None}),
        Declaration("logical", ["flag"], {"flag": None}),
    ]
    nest = DoLoop("j", _ZERO, Ref("n"), None, [DoLoop("i", _ZERO, Ref("n"), None, body)])
    main = Procedure("p", ["n", "m", "x", "flag", "a", "b"], declarations, [nest])
    return Program([bump, main])


@settings(max_examples=200, deadline=None)
@given(
    body=st.lists(st.recursive(_HYP_SIMPLE, _hyp_blocks, max_leaves=6), min_size=1, max_size=4),
    m=st.integers(-2, 3),
    x=st.sampled_from([0.0, -0.0, 0.5, -1.5, 2.0]),
    flag=st.booleans(),
    cells=st.lists(st.integers(-2, 2), min_size=30, max_size=30),
)
def test_generated_code_matches_the_reference_on_random_programs(body, m, x, flag, cells):
    arrays = {
        "a": np.array(cells[:25], dtype=float).reshape(5, 5),
        "b": np.array(cells[25:], dtype=float),
    }
    _run_both(_hyp_program(body), "p", {"n": 2, "m": m, "x": x, "flag": flag}, arrays)


# ---------------------------------------------------------------------------
# Translation bundles
# ---------------------------------------------------------------------------

class TestTranslate:
    def test_every_liftable_kernel_is_substituted(self, bundles):
        for app in mini_apps():
            bundle = bundles[app.name]
            assert len(bundle.translated) == app.expected_liftable, app.name
            assert len(bundle.fallbacks) == app.expected_fallback, app.name
            for tk in bundle.translated:
                assert tk.stencils
                assert tk.report.glue_code
                assert tk.verification_level is not None

    def test_manifest_structure(self, bundles):
        bundle = bundles["cloverleaf_mini"]
        manifest = bundle.manifest()
        assert manifest["application"] == "cloverleaf_mini"
        assert manifest["driver"] == "hydro"
        counts = manifest["counts"]
        assert counts["sites"] == counts["translated"] + counts["fallback"]
        assert counts["translated"] == 7
        assert sum(counts["demotion_reasons"].values()) == counts["fallback"]
        by_name = {k["name"]: k for k in manifest["kernels"]}
        entry = by_name["viscosity_kernel_loop0"]
        assert entry["procedure"] == "viscosity_kernel"
        assert entry["span"] == [0, 1]
        assert entry["stencils"][0]["output"] == "viscosity"
        assert set(entry["stencils"][0]["inputs"]) == {"xvel", "yvel"}
        # Manifest must be JSON-serialisable as-is.
        json.dumps(manifest)

    def test_write_artifacts(self, bundles, tmp_path):
        bundle = bundles["heat_mini"]
        written = bundle.write_artifacts(tmp_path)
        names = {path.name for path in written}
        assert "manifest.json" in names
        assert "heat_step_loop0_glue.f90" in names
        assert "heat_step_loop0_0.halide.cpp" in names
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for kernel in manifest["kernels"]:
            for artifact in kernel["artifacts"]["halide_cpp"]:
                assert (tmp_path / artifact).exists()
            assert (tmp_path / kernel["artifacts"]["fortran_glue"]).exists()

    def test_warm_cache_rerun_skips_all_synthesis(self):
        app = heat_mini_app()
        cache = SynthesisCache(None)
        options = PipelineOptions(**FAST_OPTIONS)
        cold = translate_application(app, options, cache=cache)
        assert cold.cache_misses == app.expected_liftable
        warm = translate_application(app, options, cache=cache)
        assert warm.cache_misses == 0
        assert warm.cache_hits == app.expected_liftable
        assert [report_signature(tk.report) for tk in warm.translated] == [
            report_signature(tk.report) for tk in cold.translated
        ]
        assert warm.manifest() == cold.manifest()

    def test_pool_lift_matches_sequential(self, bundles):
        app = heat_mini_app()
        pooled = translate_application(
            app, PipelineOptions(**FAST_OPTIONS), pool_size=2
        )
        sequential = bundles[app.name]
        assert pooled.manifest() == sequential.manifest()
        assert [report_signature(tk.report) for tk in pooled.translated] == [
            report_signature(tk.report) for tk in sequential.translated
        ]

    def test_raw_source_requires_driver(self):
        with pytest.raises(ValueError, match="driver"):
            translate_application(heat_mini_app().source)


# ---------------------------------------------------------------------------
# Differential execution
# ---------------------------------------------------------------------------

class TestDifferentialExecution:
    def test_all_apps_bitwise_identical_on_all_grids(self, bundles):
        for app in mini_apps():
            assert len(app.grids) >= 3
            report = differential_check(bundles[app.name], seed=11)
            assert len(report.runs) == len(app.grids)
            for run in report.runs:
                assert run.identical, (
                    f"{app.name} grid {run.grid}: {run.mismatched_arrays} "
                    f"max diff {run.max_abs_diff}"
                )
            assert report.all_identical

    def test_both_backends_agree(self, bundles):
        bundle = bundles["heat_mini"]
        for backend in ("codegen", "native"):
            report = differential_check(bundle, grids=(9,), backend=backend)
            assert report.all_identical, backend

    @pytest.mark.parametrize("backend", ("interp", "codegn"))
    def test_unknown_backend_is_rejected(self, bundles, backend):
        bundle = bundles["heat_mini"]
        scalars = heat_mini_app().grid_scalars(6)
        arrays = allocate_arrays(bundle.program, bundle.driver, scalars, seed=5)
        with pytest.raises(HalideError, match="unknown loop-nest backend"):
            substitution_hooks(bundle, backend=backend)
        with pytest.raises(HalideError, match="unknown loop-nest backend"):
            run_application(bundle, scalars, arrays, backend=backend)
        with pytest.raises(HalideError, match="unknown loop-nest backend"):
            differential_check(bundle, grids=(6,), backend=backend)
        with pytest.raises(ValueError, match="unknown measure_backend"):
            PipelineOptions(measure_backend=backend)

    def test_degenerate_grid_is_identical(self, bundles):
        # n=1: the stencil interiors are empty, only fallback loops run.
        report = differential_check(bundles["heat_mini"], grids=(1,))
        assert report.all_identical

    def test_translated_run_mutates_passed_buffers(self, bundles):
        bundle = bundles["heat_mini"]
        scalars = heat_mini_app().grid_scalars(6)
        arrays = allocate_arrays(bundle.program, bundle.driver, scalars, seed=5)
        before = arrays["unew"].copy()
        scope, seconds = run_application(bundle, scalars, arrays, translated=True)
        assert seconds >= 0.0
        assert not np.array_equal(arrays["unew"], before)
        assert scope.arrays["unew"].data is arrays["unew"]

    def test_measured_schedules_stay_identical(self):
        options = PipelineOptions(
            verifier_environments=1,
            measure=True,
            measure_budget=4,
            measure_points=1024,
        )
        bundle = translate_application(heat_mini_app(), options)
        schedules = [tk.schedule for tk in bundle.translated]
        assert any(schedule is not None for schedule in schedules)
        report = differential_check(bundle, grids=(8, 12))
        assert report.all_identical

    def test_report_json_roundtrip(self, bundles):
        report = differential_check(bundles["heat_mini"], grids=(6,))
        payload = report.as_json()
        assert payload["application"] == "heat_mini"
        assert payload["substituted_kernels"] == 2
        assert payload["fallback_sites"] == 1
        json.dumps(payload)

    def test_raw_source_bundle_with_custom_grid_scalars(self):
        source = (
            "subroutine doubler(n, a, b)\n"
            "real (kind=8), dimension(1:n) :: a\n"
            "real (kind=8), dimension(1:n) :: b\n"
            "integer :: n\n"
            "do i = 2, n-1\n"
            "  a(i) = b(i-1) + b(i+1)\n"
            "enddo\n"
            "end subroutine doubler\n"
        )
        bundle = translate_application(
            source, PipelineOptions(**FAST_OPTIONS), driver="doubler"
        )
        assert len(bundle.translated) == 1
        report = differential_check(
            bundle, grids=(5, 9, 14), grid_scalars=lambda n: {"n": n}
        )
        assert report.all_identical
        with pytest.raises(ValueError, match="grid_scalars"):
            differential_check(bundle, grids=(5,))

    def test_early_exit_fallback_loop_runs_identically(self):
        source = (
            "subroutine smooth(n, a, b)\n"
            "real (kind=8), dimension(1:n) :: a\n"
            "real (kind=8), dimension(1:n) :: b\n"
            "integer :: n\n"
            "do i = 2, n-1\n"
            "  a(i) = b(i-1) + b(i+1)\n"
            "enddo\n"
            "n = n + 0\n"
            "do k = 1, n\n"
            "  if (a(k) < 0.0d0) exit\n"
            "  b(k) = a(k) * 0.5d0\n"
            "enddo\n"
            "end subroutine smooth\n"
        )
        bundle = translate_application(
            source, PipelineOptions(**FAST_OPTIONS), driver="smooth"
        )
        assert len(bundle.translated) == 1
        reasons = [fallback.reason for fallback in bundle.fallbacks]
        assert any("unstructured control flow" in reason for reason in reasons), reasons
        report = differential_check(
            bundle, grids=(5, 9, 14), grid_scalars=lambda n: {"n": n}
        )
        assert report.all_identical

    def test_live_scalar_temporary_demotes_site_to_fallback(self):
        # The rotation temporary's post-loop value is read after the
        # nest; substitution would drop it, so the scan must fall back.
        source = (
            "subroutine kern(ilo, ihi, a, b)\n"
            "real (kind=8), dimension(ilo:ihi) :: a\n"
            "real (kind=8), dimension(ilo:ihi) :: b\n"
            "integer :: ilo, ihi\n"
            "t = a(ilo)\n"
            "do i = ilo+1, ihi\n"
            "  q = a(i)\n"
            "  b(i) = q + t\n"
            "  t = q\n"
            "enddo\n"
            "b(ilo) = t\n"
            "end subroutine kern\n"
        )
        scan = scan_application(parse_source(source))
        assert not scan.sites[0].liftable
        assert "scalar temporaries live" in scan.sites[0].reasons[0]
        bundle = translate_application(
            source, PipelineOptions(**FAST_OPTIONS), driver="kern"
        )
        report = differential_check(
            bundle, grids=(6, 9, 12), grid_scalars=lambda n: {"ilo": 0, "ihi": n}
        )
        assert report.all_identical

    def test_redefined_scalar_temporary_lifts_under_precise_dataflow(self):
        """The accelerate kernel is the liveness pass's headline win.

        ``stepbymass`` is mentioned after the first loop nest — but only
        to be *redefined* before any read, so its post-loop value is
        unobservable.  A mention-based check would demote the site; the
        dataflow pass (:mod:`repro.analysis.liveness`) proves it dead
        and the site lifts.
        """
        app = cloverleaf_mini_app()
        program = parse_source(app.source)
        accelerate = next(
            proc for proc in program.procedures if proc.name == "accelerate"
        )
        first_nest_end = next(
            position + 1
            for position, stmt in enumerate(accelerate.body)
            if isinstance(stmt, DoLoop)
        )
        later = accelerate.body[first_nest_end:]
        assert any(
            isinstance(stmt, Assignment) and stmt.target.name == "stepbymass"
            for stmt in later
        )
        assert not scalars_live_after(accelerate, first_nest_end).is_live("stepbymass")
        by_name = {site.name: site for site in scan_application(program).sites}
        assert by_name["accelerate_loop0"].liftable

    def test_accelerate_sites_substitute_and_run_bitwise(self, bundles):
        bundle = bundles["cloverleaf_mini"]
        lifted = {tk.name for tk in bundle.translated}
        assert "accelerate_loop0" in lifted
        assert "accelerate_loop1" in lifted

    def test_rotation_kernel_substitutes_with_dead_locals(self):
        # Hand-optimised rotation scalars that die with the activation
        # must neither block substitution nor fail the differential
        # comparison (only parameter scalars are observable at return).
        source = (
            "subroutine kern(ilo, ihi, jlo, jhi, a, b)\n"
            "real (kind=8), dimension(ilo:ihi, jlo:jhi) :: a\n"
            "real (kind=8), dimension(ilo:ihi, jlo:jhi) :: b\n"
            "integer :: ilo, ihi, jlo, jhi\n"
            "do j = jlo, jhi\n"
            "  t = b(ilo, j)\n"
            "  do i = ilo+1, ihi\n"
            "    q = b(i, j)\n"
            "    a(i, j) = q + t\n"
            "    t = q\n"
            "  enddo\n"
            "enddo\n"
            "end subroutine kern\n"
        )
        bundle = translate_application(
            source, PipelineOptions(**FAST_OPTIONS), driver="kern"
        )
        assert len(bundle.translated) == 1
        report = differential_check(
            bundle,
            grids=(5, 8, 12),
            grid_scalars=lambda n: {"ilo": 0, "ihi": n, "jlo": 0, "jhi": n},
        )
        assert report.all_identical

    def test_scalar_parameter_results_are_compared(self):
        # A driver computing a scalar parameter from substituted-kernel
        # output exercises the scalar half of the differential check.
        source = (
            "subroutine step(ilo, ihi, a, b)\n"
            "real (kind=8), dimension(ilo:ihi) :: a\n"
            "real (kind=8), dimension(ilo:ihi) :: b\n"
            "integer :: ilo, ihi\n"
            "do i = ilo+1, ihi-1\n"
            "  a(i) = b(i-1) + b(i+1)\n"
            "enddo\n"
            "end subroutine step\n"
            "subroutine driver(ilo, ihi, probe, a, b)\n"
            "real (kind=8), dimension(ilo:ihi) :: a\n"
            "real (kind=8), dimension(ilo:ihi) :: b\n"
            "integer :: ilo, ihi\n"
            "real (kind=8) :: probe\n"
            "call step(ilo, ihi, a, b)\n"
            "probe = a(ilo+1)\n"
            "end subroutine driver\n"
        )
        bundle = translate_application(
            source, PipelineOptions(**FAST_OPTIONS), driver="driver"
        )
        assert len(bundle.translated) == 1
        report = differential_check(
            bundle,
            grids=(6, 9, 13),
            grid_scalars=lambda n: {"ilo": 0, "ihi": n, "probe": 0.0},
        )
        assert report.all_identical

    def test_mini_app_lookup(self):
        assert mini_app("cloverleaf_mini").driver == "hydro"
        with pytest.raises(KeyError):
            mini_app("nope")
