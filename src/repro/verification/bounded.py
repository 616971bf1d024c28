"""Random and bounded-symbolic checking of candidate summaries."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.ir import nodes as ir
from repro.predicates.evaluate import PredicateEvalError, instantiate_invariant
from repro.semantics.evalexpr import EvalError, eval_ir_expr
from repro.semantics.exec import CutPoint, ExecutionError, execute_statement, loop_counter_values
from repro.semantics.floatmodel import Mod7
from repro.semantics.state import ArrayValue, State, fresh_symbolic_array, require_int
from repro.symbolic.expr import sym
from repro.symbolic.interpreter import (
    SymbolicExecutionError,
    choose_integer_environments,
)
from repro.vcgen.hoare import CandidateSummary, VCClause, VCProblem


@dataclass
class VerificationResult:
    """Outcome of a (bounded) verification run."""

    ok: bool
    failed_clause: Optional[str] = None
    counterexample: Optional[State] = None
    states_checked: int = 0
    non_vacuous_checks: int = 0

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def make_concrete_state(
    kernel: ir.Kernel,
    int_env: Dict[str, int],
    rng: random.Random,
    field_values: bool = True,
) -> State:
    """A random concrete initial state for the kernel.

    Integer inputs come from ``int_env``; float scalars and array cells
    are drawn from GF(7) when ``field_values`` is set (the synthesis
    float model), from small floats otherwise.
    """
    state = State(scalars=dict(int_env))

    def draw():
        if field_values:
            return Mod7(rng.randrange(7))
        return round(rng.uniform(-4, 4), 3)

    for decl in kernel.scalars:
        if decl.name in state.scalars:
            continue
        if decl.scalar_type == "integer":
            state.scalars[decl.name] = rng.randint(0, 4)
        else:
            state.scalars[decl.name] = draw()
    for decl in kernel.arrays:
        values: Dict[Tuple[int, ...], object] = {}

        def default(arr_name, idx, _values=values):
            if idx not in _values:
                _values[idx] = draw()
            return _values[idx]

        state.arrays[decl.name] = ArrayValue(decl.name, default=default)
    return state


# Snapshot cap for reachable-state collection; shared with the compiled
# collector (:mod:`repro.compile`).
REACHABLE_STATE_LIMIT = 512


def collect_reachable_states(
    run: Callable[[State, CutPoint], object],
    state: State,
    limit: int = REACHABLE_STATE_LIMIT,
) -> List[State]:
    """Execute a kernel concretely, recording the state at every cut point.

    Cut points are the program points where the VC's invariants are
    asserted: kernel entry, the top of every loop iteration, loop exit,
    and kernel exit.  ``run(state, snapshot)`` executes the kernel body
    on ``state`` and calls ``snapshot`` at its loop cut points: the
    interpreted run is :func:`~repro.semantics.exec.execute_statement`
    with ``snapshot`` as its cut-point callback, the compiled run a
    generated collector (:class:`repro.compile.CompiledCollector`).
    The first ``limit`` states are kept, as copies.  They are genuine
    reachable states, so any VC clause that fails on one of them
    witnesses a real bug in the candidate summary.
    """
    states: List[State] = []

    def snapshot(current: State, _loop: Optional[ir.Loop] = None) -> None:
        if len(states) < limit:
            states.append(current.copy())

    snapshot(state)
    run(state, snapshot)
    snapshot(state)
    return states


# Grid-size range of the sampled integer environments, and the counter
# combinations the bounded check visits per environment before sampling.
ENV_HIGH = 4
MAX_COUNTER_COMBOS = 600

# A verifier's memo tables are cleared at the start of a ``verify`` call
# once any of them holds more entries than this.
_MEMO_MAX = 1 << 14


class BoundedVerifier:
    """The checking hierarchy: random concrete search plus bounded symbolic proof.

    ``compiled`` selects how checks are evaluated: when true (the
    default) the kernel, the VC clauses and every candidate formula are
    compiled once into generated code (:mod:`repro.compile`) and the
    checks run through the compiled forms; when false everything goes
    through the original tree-walking interpreters.  The two are
    bit-identical by construction.  :attr:`check` is the chosen
    whole-VC check, ``check(state, candidate) -> failed clause or None``.

    One verifier serves every candidate of one kernel, and ``verify``
    memoises the work candidates share (see :meth:`verify`).
    """

    def __init__(
        self,
        vc: VCProblem,
        environments: Optional[List[Dict[str, int]]] = None,
        num_environments: int = 2,
        seed: int = 0,
        compiled: bool = True,
    ):
        self.vc = vc
        self.kernel = vc.kernel
        self.seed = seed
        # The evaluators every check runs through, chosen here once:
        # ``_clauses`` pairs with ``vc.clauses``; ``_collect(state)``
        # returns the reachable states of one concrete run;
        # ``_loop_upper(loop, state)`` evaluates a loop's upper bound and
        # ``_instantiate(invariant, state)`` is
        # :func:`~repro.predicates.evaluate.instantiate_invariant`.
        if compiled:
            from repro.compile import (
                CompiledCollector,
                CompiledVC,
                compile_invariant_instantiator,
                compile_ir_expr,
            )

            compiled_vc = CompiledVC(vc)
            self._clauses = compiled_vc.clauses
            self.check = compiled_vc.check
            self._collect = CompiledCollector(self.kernel).collect
            self._loop_upper = lambda loop, state: compile_ir_expr(loop.upper)(state)
            self._instantiate = lambda invariant, state: compile_invariant_instantiator(
                invariant
            )(state)
        else:
            body = self.kernel.body
            self._clauses = vc.clauses
            self.check = vc.check
            self._collect = lambda state: collect_reachable_states(
                lambda current, snapshot: execute_statement(body, current, cut_point=snapshot),
                state,
            )
            self._loop_upper = lambda loop, state: eval_ir_expr(loop.upper, state)
            self._instantiate = instantiate_invariant
        # Deep loop nests (5-D kernels, multi-level tiling) explode the number
        # of counter combinations; scale the sampling budget down so the
        # per-kernel verification cost stays roughly constant.
        depth_penalty = 4 ** max(0, len(vc.loops) - 3)
        self.max_counter_combos = max(60, MAX_COUNTER_COMBOS // depth_penalty)
        if environments is None:
            try:
                environments = choose_integer_environments(
                    self.kernel, count=num_environments, seed=seed, high=ENV_HIGH
                )
            except SymbolicExecutionError:
                environments = choose_integer_environments(
                    self.kernel, count=1, seed=seed, high=ENV_HIGH + 2
                )
        self.environments = environments
        # Per environment index, its (sampled) counter combinations.
        self._combos: Dict[int, List[Dict[str, int]]] = {}
        # Memo tables of ``verify``, cleared together because the other two
        # key by the small ids of the first.  Formula shape -> (formula,
        # small id); the stored formula keeps the ids inside the shape valid.
        self._formula_ids: Dict[tuple, Tuple[object, int]] = {}
        # (env index, combination index, ((loop_id, formula id), ...)) ->
        # premise state with those invariants instantiated, or None.
        self._states: Dict[tuple, Optional[State]] = {}
        # (env index, combination index, clause key) -> the
        # (states_checked, non_vacuous_checks) increments of a passing check.
        self._passed: Dict[tuple, Tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Tier 1: random concrete counterexample search
    # ------------------------------------------------------------------
    def quick_check(
        self,
        candidate: CandidateSummary,
        samples: int = 3,
        rng: Optional[random.Random] = None,
    ) -> Optional[State]:
        """Search for a counterexample among reachable concrete states."""
        rng = rng or random.Random(self.seed + 17)
        check = self.check
        for _ in range(samples):
            env = rng.choice(self.environments)
            initial = make_concrete_state(self.kernel, env, rng, field_values=True)
            try:
                states = self._collect(initial.copy())
            except (ExecutionError, EvalError, TypeError):
                continue
            for state in states:
                failed = check(state, candidate)
                if failed is not None:
                    return state
        return None

    # ------------------------------------------------------------------
    # Tier 2: bounded symbolic verification
    # ------------------------------------------------------------------
    def verify(self, candidate: CandidateSummary) -> VerificationResult:
        """Check every clause on every premise-canonical symbolic state.

        Candidates of one kernel share most of their invariants, so work
        is memoised across calls.  A premise state is keyed by the
        invariants instantiated into it; it is shared read-only, and a
        failing check hands out a copy as its counterexample.  A passing
        check is keyed by everything it reads (the premise state, the
        clause and the target formula) and replays
        its counter increments on a hit.  A failing check is never
        stored, so a refutation is always found by a real evaluation.
        """
        tables = (self._formula_ids, self._states, self._passed)
        if any(len(table) > _MEMO_MAX for table in tables):
            for table in tables:
                table.clear()
        keys = self._clause_keys(candidate)
        states_checked = 0
        non_vacuous = 0
        for env_index in range(len(self.environments)):
            for combo_index in range(len(self._combinations(env_index))):
                for source_clause, clause, clause_key in zip(self.vc.clauses, self._clauses, keys):
                    key = (env_index, combo_index, clause_key)
                    passed = self._passed.get(key)
                    if passed is not None:
                        states_checked += passed[0]
                        non_vacuous += passed[1]
                        continue
                    state = self._premise_state(
                        source_clause, candidate, env_index, combo_index, clause_key[1]
                    )
                    if state is None:
                        self._passed[key] = (0, 0)
                        continue
                    states_checked += 1
                    try:
                        # The premises are evaluated exactly once per state.
                        premised = clause.premises_hold(state, candidate)
                        if premised:
                            non_vacuous += 1
                        ok = (not premised) or clause.holds_after_premises(state, candidate)
                    except (PredicateEvalError, ExecutionError, EvalError, TypeError) as exc:
                        return VerificationResult(
                            ok=False,
                            failed_clause=f"{clause.name} (evaluation error: {exc})",
                            counterexample=state.copy(),
                            states_checked=states_checked,
                            non_vacuous_checks=non_vacuous,
                        )
                    if not ok:
                        return VerificationResult(
                            ok=False,
                            failed_clause=clause.name,
                            counterexample=state.copy(),
                            states_checked=states_checked,
                            non_vacuous_checks=non_vacuous,
                        )
                    self._passed[key] = (1, 1 if premised else 0)
        return VerificationResult(
            ok=True,
            states_checked=states_checked,
            non_vacuous_checks=non_vacuous,
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _counter_combinations(self, env: Dict[str, int]) -> Iterator[Dict[str, int]]:
        """Enumerate loop-counter assignments within (and one past) their ranges."""
        loops = [info.loop for info in self.vc.loops]

        def rec(index: int, current: Dict[str, int]) -> Iterator[Dict[str, int]]:
            if index == len(loops):
                yield dict(current)
                return
            loop = loops[index]
            state = State(scalars={**env, **current})
            try:
                lower = require_int(eval_ir_expr(loop.lower, state))
                upper = require_int(eval_ir_expr(loop.upper, state))
            except (EvalError, TypeError, KeyError):
                # Bounds depend on a counter we have not fixed (or on missing
                # data); fall back to a small window around zero.
                lower, upper = 0, 2
            # Exact Fortran trip semantics: every value the body sees plus
            # the exit value.  The previous ``range(lower, upper + step + 1,
            # step)`` enumeration agreed with this for non-degenerate
            # positive-step loops, but dropped the exit state entirely for
            # loops whose range is empty by more than one step (``upper <
            # lower - step``) and walked the wrong direction for negative
            # steps.
            values = loop_counter_values(lower, upper, loop.step)
            for value in values:
                current[loop.counter] = value
                yield from rec(index + 1, current)
            current.pop(loop.counter, None)

        yield from rec(0, {})

    def _combinations(self, env_index: int) -> List[Dict[str, int]]:
        """The counter combinations ``verify`` visits in one environment.

        Computed once per environment: the sample is seeded, so every
        call would draw the same one.
        """
        combos = self._combos.get(env_index)
        if combos is None:
            combos = list(self._counter_combinations(self.environments[env_index]))
            if len(combos) > self.max_counter_combos:
                rng = random.Random(self.seed + 99)
                combos = rng.sample(combos, self.max_counter_combos)
            self._combos[env_index] = combos
        return combos

    def _formula_id(self, formula) -> int:
        """Small id of a formula's shape, for the memo keys of ``verify``."""
        from repro.compile.predcomp import _shape

        shape = _shape(formula)
        entry = self._formula_ids.get(shape)
        if entry is None:
            entry = (formula, len(self._formula_ids))
            self._formula_ids[shape] = entry
        return entry[1]

    def _clause_keys(self, candidate: CandidateSummary) -> List[tuple]:
        """Per clause, the key of what its check reads of ``candidate``.

        A clause key is ``(clause index, premises, target id)``, where
        ``premises`` holds a ``(loop_id, invariant id)`` pair per ``inv``
        premise, in premise order.
        """
        keys = []
        for index, clause in enumerate(self.vc.clauses):
            premises, target = clause.candidate_formulas(candidate)
            premise_ids = tuple((loop_id, self._formula_id(inv)) for loop_id, inv in premises)
            keys.append((index, premise_ids, self._formula_id(target)))
        return keys

    def _premise_state(
        self,
        clause: VCClause,
        candidate: CandidateSummary,
        env_index: int,
        combo_index: int,
        premises: Tuple[Tuple[Optional[str], int], ...],
    ) -> Optional[State]:
        """The most general symbolic state satisfying the clause's premises.

        Returns ``None`` when the premises are unsatisfiable for this
        counter assignment (the clause holds vacuously there) or when a
        satisfying state cannot be constructed.  ``premises`` are the
        clause's ``inv`` premises as keyed by :meth:`_clause_keys`; the
        state after each instantiation is memoised, so the returned
        state is shared and must not be mutated.
        """
        state = self._initial_state(env_index, combo_index)
        applied = 0
        for assumption in clause.assumptions:
            if assumption.kind == "pre":
                # Assumptions and non-degenerate bounds are properties of the
                # integer environment alone; reuse the clause's own check.
                continue
            if assumption.kind in {"loop_cond", "loop_exit"}:
                loop = assumption.loop
                assert loop is not None
                try:
                    counter = require_int(state.scalar(loop.counter))
                    upper = require_int(self._loop_upper(loop, state))
                except (KeyError, EvalError, TypeError):
                    return None
                in_range = counter <= upper
                if assumption.kind == "loop_cond" and not in_range:
                    return None
                if assumption.kind == "loop_exit" and in_range:
                    return None
                continue
            if assumption.kind == "inv":
                invariant = candidate.invariants.get(assumption.loop_id or "")
                if invariant is None:
                    return None
                applied += 1
                key = (env_index, combo_index, premises[:applied])
                if key in self._states:
                    state = self._states[key]
                else:
                    state = state.copy()
                    if not self._instantiate(invariant, state):
                        state = None
                    self._states[key] = state
                if state is None:
                    return None
        return state

    def _initial_state(self, env_index: int, combo_index: int) -> State:
        """Environment, counters, and everything else symbolic (memoised)."""
        key = (env_index, combo_index, ())
        state = self._states.get(key)
        if state is None:
            state = State()
            state.scalars.update(self.environments[env_index])
            state.scalars.update(self._combinations(env_index)[combo_index])
            for decl in self.kernel.scalars:
                if decl.name not in state.scalars:
                    state.scalars[decl.name] = sym(decl.name)
            for decl in self.kernel.arrays:
                state.arrays[decl.name] = fresh_symbolic_array(decl.name)
            self._states[key] = state
        return state
