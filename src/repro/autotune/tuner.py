"""The multi-armed-bandit autotuner (OpenTuner's coordination strategy).

The tuner repeatedly asks one of its techniques for a candidate
schedule, evaluates it with the supplied objective, and rewards the
technique when the candidate improves on the incumbent.  Technique
selection is an epsilon-greedy bandit over the recent reward rates,
which is the essence of OpenTuner's AUC-bandit meta-technique.

The objective is just a callable ``schedule -> cost``; the tuner does
not care whether the cost is the analytical runtime of
:mod:`repro.perfmodel` (:func:`repro.autotune.modeled_objective`) or
the measured wall-clock time of the schedule's lowered loop nest
(:class:`repro.autotune.MeasuredObjective`).

Measured objectives additionally expose the split
``prepare``/``measure_prepared`` protocol, and for those the tuner runs
a *compile-ahead pipeline*: candidate schedules are proposed eagerly
and their expensive half (lowering, code generation, the external C
compiler — which releases the GIL) runs on a small background thread
pool, while wall-clock timing stays strictly serial on the calling
thread, in submission order.  Timing is the part that must not overlap
anything — a concurrent compile on another core would perturb the very
measurement being taken — so only compilation is parallelised.  The
search stays deterministic for a fixed seed: proposals are drawn on the
timing thread only, and measurements land in FIFO order regardless of
which compile finishes first.  Objectives without the protocol (the
modeled objective) keep the exact legacy serial loop.
"""

from __future__ import annotations

import os
import random
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.autotune.space import ScheduleSpace
from repro.autotune.techniques import DEFAULT_TECHNIQUES, Technique
from repro.halide.schedule import Schedule

Objective = Callable[[Schedule], float]

# The bandit's two constants: the chance of trying a random technique
# instead of the best recent one, and how many recent rewards rate it.
_EXPLORATION_RATE = 0.25
_REWARD_WINDOW = 20


@dataclass
class AutotuneResult:
    """Outcome of one tuning run.

    ``evaluations`` keeps its historical meaning — budget consumed,
    including candidates whose cost was *replayed* from the dedup cache
    rather than re-measured.  ``pruned_illegal`` counts proposals the
    static legality checker rejected before any compile or measurement;
    ``pruned_duplicate`` counts replayed candidates.  The objective's
    own counter (``objective.evaluations`` for measured objectives) is
    what actually shrinks when pruning bites.
    """

    best_schedule: Schedule
    best_cost: float
    default_cost: float
    evaluations: int
    technique_wins: Dict[str, int] = field(default_factory=dict)
    history: List[float] = field(default_factory=list)
    pruned_illegal: int = 0
    pruned_duplicate: int = 0

    @property
    def improvement(self) -> float:
        """How much faster the tuned schedule is than the default one."""
        if self.best_cost <= 0:
            return 1.0
        return self.default_cost / self.best_cost


class MultiArmedBanditTuner:
    """Epsilon-greedy bandit over the ``DEFAULT_TECHNIQUES`` ensemble."""

    def __init__(
        self,
        space: ScheduleSpace,
        objective: Objective,
        seed: int = 0,
        legality=None,
    ):
        """``legality`` is an optional
        :class:`repro.analysis.legality.ScheduleChecker`.  With one
        attached the tuner (a) rejects statically-illegal proposals
        before spending any compile/measure budget on them and (b)
        replays the cached cost of a traversal it has already measured
        (two distinct ``Schedule`` values lowering to the same nest)
        instead of measuring it again.  The candidate stream, rewards
        and incumbent match the unchecked run exactly — the pruning is
        observable only in the objective's evaluation count and the
        ``pruned_*`` fields of the result.  ``None`` keeps legacy
        behavior bit for bit.
        """
        self.space = space
        self.objective = objective
        self.techniques = [factory() for factory in DEFAULT_TECHNIQUES]
        self.rng = random.Random(seed)
        self.legality = legality
        self._recent_rewards: Dict[str, List[float]] = {t.name: [] for t in self.techniques}

    # -- bandit -----------------------------------------------------------
    def _pick_technique(self) -> Technique:
        if self.rng.random() < _EXPLORATION_RATE:
            return self.rng.choice(self.techniques)
        best_rate = -1.0
        best_technique = self.techniques[0]
        for technique in self.techniques:
            rewards = self._recent_rewards[technique.name][-_REWARD_WINDOW:]
            rate = sum(rewards) / len(rewards) if rewards else 0.5
            if rate > best_rate:
                best_rate = rate
                best_technique = technique
        return best_technique

    def _reward(self, technique: Technique, value: float) -> None:
        self._recent_rewards[technique.name].append(value)

    # -- main loop -----------------------------------------------------------
    def tune(self, budget: int = 200, pipeline_depth: Optional[int] = None) -> AutotuneResult:
        """Search for ``budget`` evaluations and return the best schedule.

        When the objective implements ``prepare``/``measure_prepared``
        (measured objectives do), candidate compilation is pipelined on
        a background thread pool of ``pipeline_depth`` workers (default
        ``min(4, max(2, cpu_count))``) while timing stays serial in
        submission order.  Other objectives run the legacy serial loop;
        ``pipeline_depth`` is ignored for them.
        """
        prepare = getattr(self.objective, "prepare", None)
        measure_prepared = getattr(self.objective, "measure_prepared", None)
        if prepare is None or measure_prepared is None:
            return self._tune_serial(budget)
        if pipeline_depth is None:
            pipeline_depth = min(4, max(2, os.cpu_count() or 1))
        return self._tune_pipelined(budget, max(1, pipeline_depth))

    def _tune_serial(self, budget: int) -> AutotuneResult:
        """The classic propose-measure-reward loop, one candidate at a time."""
        measured_costs: Dict[tuple, float] = {}
        pruned = {"illegal": 0, "duplicate": 0}

        def evaluate(schedule: Schedule) -> float:
            if self.legality is None:
                return self.objective(schedule)
            key = self.legality.key(schedule)
            if key in measured_costs:
                pruned["duplicate"] += 1
                return measured_costs[key]
            cost = self.objective(schedule)
            measured_costs[key] = cost
            return cost

        default = self.space.default_schedule()
        default_cost = evaluate(default)
        best_schedule, best_cost = default, default_cost
        start = self.space.sensible_schedule()
        evaluations = 1
        if self.legality is None or self.legality.is_legal(start):
            start_cost = evaluate(start)
            evaluations += 1
            # The sensible seed wins ties, matching the historical loop
            # (which seeded the incumbent with it before trying default).
            if start_cost <= best_cost:
                best_schedule, best_cost = start, start_cost
        else:
            pruned["illegal"] += 1
        wins: Dict[str, int] = {t.name: 0 for t in self.techniques}
        history: List[float] = [best_cost]
        while evaluations < budget:
            technique = self._pick_technique()
            candidate = technique.propose(self.space, best_schedule, self.rng)
            try:
                candidate.validate(self.space.dimensions)
            except Exception:
                self._reward(technique, 0.0)
                continue
            if self.legality is not None and not self.legality.is_legal(candidate):
                pruned["illegal"] += 1
                self._reward(technique, 0.0)
                continue
            cost = evaluate(candidate)
            evaluations += 1
            improved = cost < best_cost
            self._reward(technique, 1.0 if improved else 0.0)
            if improved:
                best_schedule, best_cost = candidate, cost
                wins[technique.name] += 1
            history.append(best_cost)
        return AutotuneResult(
            best_schedule=best_schedule,
            best_cost=best_cost,
            default_cost=default_cost,
            evaluations=evaluations,
            technique_wins=wins,
            history=history,
            pruned_illegal=pruned["illegal"],
            pruned_duplicate=pruned["duplicate"],
        )

    def _tune_pipelined(self, budget: int, depth: int) -> AutotuneResult:
        """Compile-ahead search: background compiles, strictly serial timing.

        A FIFO of at most ``depth`` in-flight candidates keeps the
        compile pool busy; the timing thread proposes replacements (and
        draws every random number) as it drains the head, so a fixed
        seed gives a fixed candidate sequence.  Early proposals are
        mutated from the default schedule until the first measurements
        land — the prefetch trade-off of any compile-ahead pipeline.
        ``budget`` counts total submissions, so total measurements match
        the serial loop for ``budget >= 2``.
        """
        budget = max(1, budget)
        default = self.space.default_schedule()
        wins: Dict[str, int] = {t.name: 0 for t in self.techniques}
        history: List[float] = []
        best_schedule = default
        best_cost = float("inf")
        default_cost = float("inf")
        measured = 0
        measured_costs: Dict[tuple, float] = {}
        pruned_illegal = 0
        pruned_duplicate = 0
        with ThreadPoolExecutor(max_workers=depth, thread_name_prefix="repro-tune-compile") as pool:
            # Each entry: (technique or None for the seeds, schedule, future).
            # ``future`` is either a pool future or a ("replay", cost)
            # tuple when the canonical traversal was already timed —
            # dedup is decided at submit time against *completed*
            # measurements only, so the candidate stream stays identical
            # to the unchecked run.
            pending: "deque[tuple[Optional[Technique], Schedule, object]]" = deque()
            submitted = 0

            def submit(technique: Optional[Technique], schedule: Schedule) -> None:
                nonlocal submitted, pruned_duplicate
                if self.legality is not None:
                    key = self.legality.key(schedule)
                    if key in measured_costs:
                        pruned_duplicate += 1
                        pending.append(
                            (technique, schedule, ("replay", measured_costs[key]))
                        )
                        submitted += 1
                        return
                pending.append(
                    (technique, schedule, pool.submit(self.objective.prepare, schedule))
                )
                submitted += 1

            submit(None, default)
            if submitted < budget:
                sensible = self.space.sensible_schedule()
                if self.legality is None or self.legality.is_legal(sensible):
                    submit(None, sensible)
                else:
                    pruned_illegal += 1
            while True:
                # Refill before testing for an empty queue: at depth 1 the
                # queue empties after every measurement.
                while submitted < budget and len(pending) < depth:
                    technique = self._pick_technique()
                    candidate = technique.propose(self.space, best_schedule, self.rng)
                    try:
                        candidate.validate(self.space.dimensions)
                    except Exception:
                        self._reward(technique, 0.0)
                        continue
                    if self.legality is not None and not self.legality.is_legal(candidate):
                        pruned_illegal += 1
                        self._reward(technique, 0.0)
                        continue
                    submit(technique, candidate)
                if not pending:
                    break
                technique, schedule, future = pending.popleft()
                if isinstance(future, tuple) and future[0] == "replay":
                    cost = future[1]
                else:
                    measurement = self.objective.measure_prepared(future.result())
                    cost = measurement.seconds
                    if self.legality is not None:
                        measured_costs[self.legality.key(schedule)] = cost
                measured += 1
                if measured == 1:
                    default_cost = cost
                improved = cost < best_cost
                if technique is not None:
                    self._reward(technique, 1.0 if improved else 0.0)
                if improved:
                    best_schedule, best_cost = schedule, cost
                    if technique is not None:
                        wins[technique.name] += 1
                if measured >= 2:
                    history.append(best_cost)
        return AutotuneResult(
            best_schedule=best_schedule,
            best_cost=best_cost,
            default_cost=default_cost,
            evaluations=measured,
            technique_wins=wins,
            history=history,
            pruned_illegal=pruned_illegal,
            pruned_duplicate=pruned_duplicate,
        )


def autotune(
    dimensions: int,
    objective: Objective,
    budget: int = 200,
    seed: int = 0,
) -> AutotuneResult:
    """Convenience wrapper used by the pipeline and the benchmarks."""
    space = ScheduleSpace(dimensions=dimensions)
    tuner = MultiArmedBanditTuner(space, objective, seed=seed)
    return tuner.tune(budget=budget)
