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
modeled objective) go through the same loop with no pool: each
candidate is evaluated inline when it is submitted.
"""

from __future__ import annotations

import os
import random
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
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
        instead of measuring it again.  While every proposal is legal,
        the candidate stream, rewards and incumbent match the unchecked
        run exactly, and the pruning shows only in the objective's
        evaluation count and the ``pruned_*`` fields of the result.  An
        illegal proposal is rewarded 0 and not evaluated, where the
        unchecked run evaluates it and rewards its cost, so from the
        first illegal proposal on the two runs may part ways.
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

        One FIFO loop serves every objective.  The default and sensible
        schedules are submitted first (the sensible one wins a tie), then
        technique proposals mutated from the incumbent; ``budget`` counts
        submissions.  A plain callable is evaluated inline when submitted
        (depth 1, no pool); an objective with ``prepare``/
        ``measure_prepared`` compiles up to ``pipeline_depth`` candidates
        ahead (default ``min(4, max(2, cpu_count))``).  ``history`` holds
        the incumbent after the seeds, then after each later evaluation.
        """
        prepare = getattr(self.objective, "prepare", None)
        measure_prepared = getattr(self.objective, "measure_prepared", None)
        inline = prepare is None or measure_prepared is None
        if pipeline_depth is None:
            pipeline_depth = min(4, max(2, os.cpu_count() or 1))
        depth = 1 if inline else max(1, pipeline_depth)
        budget = max(1, budget)
        default = self.space.default_schedule()
        wins: Dict[str, int] = {t.name: 0 for t in self.techniques}
        history: List[float] = []
        best_schedule = default
        best_cost = default_cost = float("inf")
        measured = 0
        costs: Dict[tuple, float] = {}
        pruned_illegal = 0
        pruned_duplicate = 0
        pool = None if inline else ThreadPoolExecutor(
            max_workers=depth, thread_name_prefix="repro-tune-compile"
        )
        with nullcontext() if pool is None else pool:
            # Each entry: (technique or None for the seeds, schedule,
            # canonical key or None, cost or a pool future of its build).
            pending: "deque[tuple[Optional[Technique], Schedule, object, object]]" = deque()

            def submit(technique: Optional[Technique], schedule: Schedule) -> None:
                nonlocal pruned_duplicate
                key = self.legality.key(schedule) if self.legality is not None else None
                if key is not None and key in costs:
                    pruned_duplicate += 1
                    cost = costs[key]
                elif pool is None:
                    cost = self.objective(schedule)
                    if key is not None:
                        costs[key] = cost
                else:
                    cost = pool.submit(prepare, schedule)
                pending.append((technique, schedule, key, cost))

            submit(None, default)
            if budget > 1:
                sensible = self.space.sensible_schedule()
                if self.legality is None or self.legality.is_legal(sensible):
                    submit(None, sensible)
                else:
                    pruned_illegal += 1
            seeds = submitted = len(pending)
            while True:
                # Refill before testing for an empty queue: at depth 1 the
                # queue empties after every evaluation.
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
                    submitted += 1
                if not pending:
                    break
                technique, schedule, key, cost = pending.popleft()
                if isinstance(cost, Future):
                    cost = measure_prepared(cost.result()).seconds
                    if key is not None:
                        costs[key] = cost
                measured += 1
                if technique is None:
                    # The default is the first incumbent; the sensible
                    # seed wins a tie with it.
                    if measured == 1:
                        best_cost = default_cost = cost
                    elif cost <= best_cost:
                        best_schedule, best_cost = schedule, cost
                else:
                    improved = cost < best_cost
                    self._reward(technique, 1.0 if improved else 0.0)
                    if improved:
                        best_schedule, best_cost = schedule, cost
                        wins[technique.name] += 1
                if measured >= seeds:
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
