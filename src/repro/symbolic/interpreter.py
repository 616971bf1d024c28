"""Concrete-symbolic execution of candidate kernels (§4.2, first step).

Loop bounds, array sizes and every other integer input are set to small
concrete values, while floating-point scalars and all array contents
stay symbolic.  Executing the kernel then turns every written output
cell into a symbolic formula over the *input* array cells and scalar
symbols — exactly the observations inductive template generation
anti-unifies.

Besides the final state, the interpreter records, for every loop and
every iteration, a snapshot of the scalar environment taken at the top
of the iteration.  These snapshots are what the synthesizer uses to
discover the scalar equalities (rotating-register temporaries) its loop
invariants need.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.ir import nodes as ir
from repro.ir.analysis import collect_loops, free_scalar_inputs, loop_counters, output_arrays
from repro.semantics.evalexpr import EvalError, eval_ir_expr
from repro.semantics.state import State, Value, fresh_symbolic_array, require_int
from repro.symbolic.expr import Expr, sym


class SymbolicExecutionError(Exception):
    """Raised when a kernel cannot be executed concrete-symbolically."""


@dataclass
class IterationSnapshot:
    """Scalar environment observed at the top of one loop iteration."""

    loop_id: str
    counters: Dict[str, int]
    scalars: Dict[str, Value]


@dataclass
class CellObservation:
    """Final value of one written output cell."""

    array: str
    index: Tuple[int, ...]
    value: Expr


@dataclass
class SymbolicRun:
    """The result of one concrete-symbolic execution."""

    int_env: Dict[str, int]
    state: State
    observations: List[CellObservation]
    snapshots: List[IterationSnapshot]

    def observations_for(self, array: str) -> List[CellObservation]:
        return [obs for obs in self.observations if obs.array == array]

    def snapshots_for(self, loop_id: str) -> List[IterationSnapshot]:
        return [snap for snap in self.snapshots if snap.loop_id == loop_id]


# Whole-run iteration budget for concrete-symbolic execution.
SYMBOLIC_EXECUTION_BUDGET = 200_000


class _RecordingExecutor:
    """IR executor that records iteration-start snapshots per loop."""

    def __init__(self, kernel: ir.Kernel, max_iterations: int = SYMBOLIC_EXECUTION_BUDGET):
        self.kernel = kernel
        self.max_iterations = max_iterations
        self.snapshots: List[IterationSnapshot] = []
        self._loop_ids: Dict[int, str] = {}
        self._counter_counts: Dict[str, int] = {}
        self._counter_names = frozenset(loop_counters(kernel))
        self._iterations = 0
        for loop in collect_loops(kernel.body):
            count = self._counter_counts.get(loop.counter, 0)
            self._counter_counts[loop.counter] = count + 1
            loop_id = loop.counter if count == 0 else f"{loop.counter}#{count}"
            self._loop_ids[id(loop)] = loop_id

    def loop_id(self, loop: ir.Loop) -> str:
        return self._loop_ids[id(loop)]

    def run(self, state: State) -> State:
        self._execute(self.kernel.body, state)
        return state

    def _execute(self, stmt: ir.Stmt, state: State) -> None:
        if isinstance(stmt, ir.Block):
            for inner in stmt.statements:
                self._execute(inner, state)
            return
        if isinstance(stmt, ir.Assign):
            state.set_scalar(stmt.target, eval_ir_expr(stmt.value, state))
            return
        if isinstance(stmt, ir.ArrayStore):
            indices = tuple(
                require_int(eval_ir_expr(i, state), context=f"store index of {stmt.array}")
                for i in stmt.indices
            )
            state.array(stmt.array).store(indices, eval_ir_expr(stmt.value, state))
            return
        if isinstance(stmt, ir.Loop):
            lower = require_int(eval_ir_expr(stmt.lower, state), context="loop lower bound")
            upper = require_int(eval_ir_expr(stmt.upper, state), context="loop upper bound")
            if stmt.step == 0:
                raise SymbolicExecutionError("loop step must be non-zero")
            counter = lower
            loop_id = self.loop_id(stmt)
            while counter <= upper if stmt.step > 0 else counter >= upper:
                state.set_scalar(stmt.counter, counter)
                self._record(loop_id, state)
                self._execute(stmt.body, state)
                counter += stmt.step
                self._iterations += 1
                if self._iterations > self.max_iterations:
                    raise SymbolicExecutionError("symbolic execution exceeded the iteration budget")
            state.set_scalar(stmt.counter, counter)
            return
        if isinstance(stmt, ir.If):
            raise SymbolicExecutionError(
                "kernels with conditionals are not executed symbolically by the default pipeline"
            )
        raise SymbolicExecutionError(f"cannot execute statement {stmt!r}")

    def _record(self, loop_id: str, state: State) -> None:
        counters: Dict[str, int] = {}
        scalars: Dict[str, Value] = {}
        for name, value in state.scalars.items():
            if name in self._counter_names:
                try:
                    counters[name] = require_int(value)
                except TypeError:
                    continue
            else:
                scalars[name] = value
        self.snapshots.append(IterationSnapshot(loop_id=loop_id, counters=counters, scalars=scalars))


def build_symbolic_state(kernel: ir.Kernel, int_env: Dict[str, int]) -> State:
    """Build the initial state: concrete integers, symbolic floats and arrays."""
    state = State()
    for decl in kernel.scalars:
        if decl.scalar_type == "integer":
            if decl.name in int_env:
                state.set_scalar(decl.name, int_env[decl.name])
        else:
            state.set_scalar(decl.name, sym(decl.name))
    for name, value in int_env.items():
        state.set_scalar(name, value)
    for decl in kernel.arrays:
        state.arrays[decl.name] = fresh_symbolic_array(decl.name)
    return state


def symbolic_execute(kernel: ir.Kernel, int_env: Dict[str, int]) -> SymbolicRun:
    """Execute ``kernel`` with the given concrete integer environment."""
    state = build_symbolic_state(kernel, int_env)
    executor = _RecordingExecutor(kernel)
    executor.run(state)
    observations: List[CellObservation] = []
    for array in output_arrays(kernel):
        for index in state.array(array).written_indices():
            value = state.array(array).load(index)
            if not isinstance(value, Expr):
                from repro.symbolic.expr import as_expr

                value = as_expr(value)
            observations.append(CellObservation(array=array, index=index, value=value))
    return SymbolicRun(
        int_env=dict(int_env),
        state=state,
        observations=observations,
        snapshots=executor.snapshots,
    )


# ---------------------------------------------------------------------------
# Choosing concrete integer environments
# ---------------------------------------------------------------------------

def _integer_inputs(kernel: ir.Kernel) -> List[str]:
    counters = set(loop_counters(kernel))
    names: List[str] = []
    for decl in kernel.scalars:
        if decl.scalar_type == "integer" and decl.name not in counters:
            names.append(decl.name)
    for name in free_scalar_inputs(kernel):
        decl_types = {d.name: d.scalar_type for d in kernel.scalars}
        if decl_types.get(name, "integer") == "integer" and name not in names and name not in counters:
            names.append(name)
    return names


def _counter_independent_loops(kernel: ir.Kernel) -> List[ir.Loop]:
    """The loops whose bounds mention no loop counter, in traversal order."""
    counters = set(loop_counters(kernel))
    loops: List[ir.Loop] = []
    for loop in collect_loops(kernel.body):
        mentioned = {
            node.name
            for bound in (loop.lower, loop.upper)
            for node in bound.walk()
            if isinstance(node, ir.VarRef)
        }
        if not mentioned & counters:
            loops.append(loop)
    return loops


def _environment_is_valid(
    loops: Sequence[ir.Loop], env: Dict[str, int], max_cells: int
) -> bool:
    """Check that counter-independent loops run between 2 and ``max_cells`` iterations."""
    state = State(scalars=dict(env))
    total = 1
    for loop in loops:
        try:
            lower = require_int(eval_ir_expr(loop.lower, state))
            upper = require_int(eval_ir_expr(loop.upper, state))
        except (EvalError, TypeError, KeyError):
            return False
        extent = upper - lower + 1
        if extent < 2:
            return False
        total *= max(extent, 1)
        if total > max_cells:
            return False
    return True


def choose_integer_environments(
    kernel: ir.Kernel,
    count: int = 2,
    seed: int = 0,
    max_cells: int = 4096,
    low: int = 0,
    high: int = 6,
) -> List[Dict[str, int]]:
    """Pick ``count`` distinct valid small integer environments for the kernel.

    Follows the paper: loop bounds and array sizes are set to small,
    random concrete values.  An environment is valid when every loop
    with counter-independent bounds executes at least twice (so
    anti-unification sees multiple observations per loop) and the total
    iteration count stays small.
    """
    rng = random.Random(seed)
    names = _integer_inputs(kernel)
    loops = _counter_independent_loops(kernel)
    environments: List[Dict[str, int]] = []
    attempts = 0
    while len(environments) < count and attempts < 8000:
        attempts += 1
        env = {name: rng.randint(low, high) for name in names}
        # Also honour the kernel's assume() annotations where possible.
        if not _environment_is_valid(loops, env, max_cells):
            continue
        if not _satisfies_assumptions(kernel, env):
            continue
        if env in environments:
            continue
        # Prefer environments whose values all differ from earlier ones, so
        # that coincidental equalities (e.g. two runs both using imin = 0) do
        # not leak spurious constants into the templates.  After enough failed
        # attempts accept any valid environment.
        if environments and attempts < 4000:
            if any(
                env[name] == previous[name]
                for previous in environments
                for name in names
            ):
                continue
        environments.append(env)
    if len(environments) < count:
        raise SymbolicExecutionError(
            f"could not find {count} valid integer environments for kernel {kernel.name}"
        )
    return environments


def _satisfies_assumptions(kernel: ir.Kernel, env: Dict[str, int]) -> bool:
    from repro.semantics.evalexpr import eval_ir_condition

    state = State(scalars=dict(env))
    for assumption in kernel.assumptions:
        try:
            if not eval_ir_condition(assumption, state):
                return False
        except EvalError:
            # Assumptions over floats or unbound names cannot be checked here.
            continue
    return True


def run_inductive_executions(
    kernel: ir.Kernel, trials: int = 2, seed: int = 0
) -> List[SymbolicRun]:
    """Run the kernel on ``trials`` distinct small integer environments."""
    return [
        symbolic_execute(kernel, env)
        for env in choose_integer_environments(kernel, count=trials, seed=seed)
    ]
