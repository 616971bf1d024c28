"""Executable semantics of the IR: run kernels and statements on states.

The same executor serves three purposes in the pipeline:

* counterexample search during CEGIS runs it on concrete random states;
* concrete-symbolic execution for inductive template generation (§4.2)
  runs it with concrete loop bounds but symbolic array cells;
* the reference interpreter in the benchmark harness runs whole
  kernels to produce the baseline output the Halide executor is checked
  against.

Conditionals are executed only when their condition is concrete; a
symbolic condition raises, because the default pipeline never executes
kernels containing conditionals symbolically (the §6.6 experiments use
the dedicated machinery in :mod:`repro.synthesis.conditionals`).
"""

from __future__ import annotations

from typing import Optional

from repro.ir import nodes as ir
from repro.semantics.evalexpr import EvalError, eval_ir_condition, eval_ir_expr
from repro.semantics.numeric import trunc_div
from repro.semantics.state import State, require_int


class ExecutionError(Exception):
    """Raised when a statement cannot be executed in the given state."""


# Default per-loop iteration budget; the compiled statements
# (:mod:`repro.compile`) import this so both evaluation modes always
# share one budget.
MAX_ITERATIONS = 1_000_000


def loop_trip_count(lower: int, upper: int, step: int) -> int:
    """Fortran DO trip count: ``MAX(INT((upper - lower + step) / step), 0)``.

    ``INT`` truncates toward zero, hence :func:`trunc_div`.  Works for
    any non-zero step, positive or negative; a zero step is an error
    (Fortran leaves it undefined, we refuse to guess).
    """
    if step == 0:
        raise ExecutionError("loop step must be non-zero")
    return max(trunc_div(upper - lower + step, step), 0)


def loop_counter_values(lower: int, upper: int, step: int) -> range:
    """Every counter value a Fortran DO loop produces, plus the exit value.

    The body sees ``lower, lower+step, ...`` for exactly
    :func:`loop_trip_count` iterations; after the loop the counter holds
    the first value that failed the iteration test.  This helper is the
    *reference definition* of the trip semantics: the bounded verifier's
    counter enumeration consumes it directly, while the interpreter and
    the compiled backends keep their (performance-critical) explicit
    loops and are pinned against it by ``tests/test_loop_semantics.py``.
    """
    trips = loop_trip_count(lower, upper, step)
    return range(lower, lower + (trips + 1) * step, step)


def execute_statement(stmt: ir.Stmt, state: State, max_iterations: int = MAX_ITERATIONS) -> State:
    """Execute ``stmt`` in-place on ``state`` and return the state."""
    if isinstance(stmt, ir.Block):
        for inner in stmt.statements:
            execute_statement(inner, state, max_iterations)
        return state
    if isinstance(stmt, ir.Assign):
        state.set_scalar(stmt.target, eval_ir_expr(stmt.value, state))
        return state
    if isinstance(stmt, ir.ArrayStore):
        indices = tuple(
            require_int(eval_ir_expr(i, state), context=f"store index of {stmt.array}")
            for i in stmt.indices
        )
        state.array(stmt.array).store(indices, eval_ir_expr(stmt.value, state))
        return state
    if isinstance(stmt, ir.Loop):
        lower = require_int(eval_ir_expr(stmt.lower, state), context="loop lower bound")
        upper = require_int(eval_ir_expr(stmt.upper, state), context="loop upper bound")
        step = stmt.step
        if step == 0:
            raise ExecutionError("loop step must be non-zero")
        counter = lower
        iterations = 0
        while counter <= upper if step > 0 else counter >= upper:
            state.set_scalar(stmt.counter, counter)
            execute_statement(stmt.body, state, max_iterations)
            counter += step
            iterations += 1
            if iterations > max_iterations:
                raise ExecutionError(
                    f"loop over {stmt.counter!r} exceeded {max_iterations} iterations"
                )
        # Fortran semantics: after the loop the counter holds the first
        # value that failed the test.
        state.set_scalar(stmt.counter, counter)
        return state
    if isinstance(stmt, ir.If):
        try:
            taken = eval_ir_condition(stmt.condition, state)
        except EvalError as exc:
            raise ExecutionError(f"cannot execute conditional: {exc}") from exc
        if taken:
            execute_statement(stmt.then_body, state, max_iterations)
        elif stmt.else_body is not None:
            execute_statement(stmt.else_body, state, max_iterations)
        return state
    raise ExecutionError(f"cannot execute statement {stmt!r}")


def execute_kernel(kernel: ir.Kernel, state: Optional[State] = None, max_iterations: int = MAX_ITERATIONS) -> State:
    """Execute a whole kernel body on ``state`` (a fresh state by default)."""
    if state is None:
        state = State()
    return execute_statement(kernel.body, state, max_iterations)
