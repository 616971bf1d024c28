"""Tests for concurrent autotuning: compile-ahead pipeline + early abort.

The measured objective splits into ``prepare`` (lower + compile, safe
on a background thread) and ``measure_prepared`` (strictly serial
timing).  The tuner pipelines the first behind the second, and the
repeat loop early-aborts candidates already slower than the incumbent.
Both optimisations must not change *which* schedule wins: under a
deterministic clock the selection is provably identical, which these
tests assert by replacing ``time.perf_counter`` with a fake clock
advanced by a fixed per-schedule cost.
"""

import time

import numpy as np
import pytest

from repro.autotune import (
    MeasuredObjective,
    MultiArmedBanditTuner,
    PreparedSchedule,
    ScheduleSpace,
)
from repro.autotune import tuner as tuner_module
from repro.halide import Func, ImageParam, Schedule, Var
from repro.perfmodel import fit_parallel_fraction


def _blur():
    x = Var("x")
    b = ImageParam("b", 1)
    f = Func("blur_tune")
    f[x] = (b(x - 1) + b(x) + b(x + 1)) / 3.0
    return f


DOMAIN = [(0, 31)]
INPUTS = {"b": np.random.default_rng(7).normal(size=(34,))}
ORIGINS = {"b": (-1,)}


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def _schedule_cost(schedule: Schedule) -> float:
    """A deterministic, schedule-dependent pretend runtime."""
    tiles = sum(schedule.tile_sizes or ())
    return 1e-3 * (
        1.0
        + (tiles % 7)
        + 3.0 * (schedule.parallel_dim is None)
        + schedule.unroll
        + 8.0 / schedule.vector_width
    )


class FakeClockObjective(MeasuredObjective):
    """A measured objective whose runs cost exactly ``_schedule_cost``."""

    def __init__(self, *args, clock: FakeClock, **kwargs):
        super().__init__(*args, **kwargs)
        self.clock = clock

    def _build(self, schedule):
        run, backend = super()._build(schedule)
        cost = _schedule_cost(schedule)

        def timed_run():
            out = run()
            self.clock.advance(cost)
            return out

        return timed_run, backend


def _fake_objective(monkeypatch, **kwargs) -> FakeClockObjective:
    clock = FakeClock()
    monkeypatch.setattr(time, "perf_counter", clock.now)
    return FakeClockObjective(
        _blur(), DOMAIN, INPUTS, ORIGINS, backend="codegen", clock=clock, **kwargs
    )


class TestEarlyAbort:
    def test_losing_candidate_aborts_after_first_repeat(self, monkeypatch):
        objective = _fake_objective(monkeypatch, repeats=4)
        fast = Schedule(vector_width=8)
        slow = Schedule(unroll=4)
        assert _schedule_cost(fast) < _schedule_cost(slow)
        first = objective.measure(fast)
        assert first.repeats_run == 4 and not first.aborted
        second = objective.measure(slow)
        assert second.aborted and second.repeats_run == 1
        assert second.seconds > first.seconds

    def test_improving_candidate_never_aborts(self, monkeypatch):
        objective = _fake_objective(monkeypatch, repeats=3)
        objective.measure(Schedule(unroll=4))
        better = objective.measure(Schedule(vector_width=8))
        assert not better.aborted and better.repeats_run == 3

    def test_disabled_abort_runs_every_repeat(self, monkeypatch):
        objective = _fake_objective(monkeypatch, repeats=4, early_abort=False)
        objective.measure(Schedule(vector_width=8))
        slow = objective.measure(Schedule(unroll=4))
        assert not slow.aborted and slow.repeats_run == 4

    def test_identical_winner_with_and_without_abort(self, monkeypatch):
        """The regression guarantee: aborting loses no winner.

        Under the deterministic clock every repeat of a schedule costs
        the same, so an aborted candidate's partial minimum equals its
        full minimum and the whole search trajectory — winner, cost,
        history — is identical with the abort on or off.
        """
        results = []
        for early_abort in (True, False):
            objective = _fake_objective(
                monkeypatch, repeats=3, early_abort=early_abort
            )
            tuner = MultiArmedBanditTuner(ScheduleSpace(1), objective, seed=42)
            results.append((tuner.tune(budget=12, pipeline_depth=2), objective))
        (abort_result, abort_obj), (full_result, full_obj) = results
        assert abort_result.best_schedule == full_result.best_schedule
        assert abort_result.best_cost == full_result.best_cost
        assert abort_result.history == full_result.history
        assert any(m.aborted for m in abort_obj.history)
        assert not any(m.aborted for m in full_obj.history)
        # Aborting saved real repeat executions.
        assert sum(m.repeats_run for m in abort_obj.history) < sum(
            m.repeats_run for m in full_obj.history
        )


class TestPipelinedTuner:
    # Depth 1 empties the compile-ahead queue after every measurement.
    @pytest.mark.parametrize("depth", [1, 3])
    def test_budget_counts_measurements(self, monkeypatch, depth):
        objective = _fake_objective(monkeypatch, repeats=2)
        result = MultiArmedBanditTuner(ScheduleSpace(1), objective, seed=3).tune(
            budget=9, pipeline_depth=depth
        )
        assert result.evaluations == 9
        assert objective.evaluations == 9
        assert len(result.history) == 8

    def test_deterministic_for_fixed_seed(self, monkeypatch):
        outcomes = []
        for _ in range(2):
            objective = _fake_objective(monkeypatch, repeats=2)
            result = MultiArmedBanditTuner(ScheduleSpace(1), objective, seed=11).tune(
                budget=10, pipeline_depth=4
            )
            outcomes.append(
                (result.best_schedule, result.best_cost, tuple(result.history))
            )
        assert outcomes[0] == outcomes[1]

    def test_prepare_returns_runnable(self):
        objective = MeasuredObjective(
            _blur(), DOMAIN, INPUTS, ORIGINS, backend="codegen"
        )
        prepared = objective.prepare(Schedule(tile_sizes=(8,)))
        assert isinstance(prepared, PreparedSchedule)
        assert prepared.backend == "codegen"
        measurement = objective.measure_prepared(prepared)
        assert measurement.verified and measurement.seconds >= 0.0

    def test_plain_callable_runs_inline(self, monkeypatch):
        pools = []

        class RecordingPool(tuner_module.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(tuner_module, "ThreadPoolExecutor", RecordingPool)
        calls = []

        def objective(schedule):
            calls.append(schedule)
            return 1.0 + 0.01 * len(calls)

        result = MultiArmedBanditTuner(ScheduleSpace(1), objective, seed=0).tune(
            budget=6
        )
        assert result.evaluations == 6
        assert len(calls) == 6
        assert pools == []

    def test_budget_counts_plain_evaluations(self):
        # A budget of one evaluates the default only, for every objective.
        calls = []

        def objective(schedule):
            calls.append(schedule)
            return 1.0

        result = MultiArmedBanditTuner(ScheduleSpace(2), objective, seed=0).tune(budget=1)
        assert result.evaluations == 1 and calls == [Schedule.default()]

    def test_sensible_seed_wins_a_tie_with_the_default(self):
        space = ScheduleSpace(2)
        seeds = (space.default_schedule(), space.sensible_schedule())

        def objective(schedule):
            return 1.0 if schedule in seeds else 2.0

        result = MultiArmedBanditTuner(space, objective, seed=0).tune(budget=10)
        assert result.best_schedule == space.sensible_schedule()
        assert result.default_cost == result.best_cost == 1.0
        assert result.history == [1.0] * 9

    def test_real_pipelined_tune_is_verified(self):
        """End-to-end on the real clock: every measurement bit-verified."""
        objective = MeasuredObjective(
            _blur(), DOMAIN, INPUTS, ORIGINS, backend="codegen", repeats=2
        )
        result = MultiArmedBanditTuner(ScheduleSpace(1), objective, seed=5).tune(
            budget=8, pipeline_depth=3
        )
        assert result.evaluations == 8
        assert objective.all_verified
        assert result.best_cost <= result.default_cost


class TestParallelFraction:
    def test_perfect_scaling(self):
        assert fit_parallel_fraction({1: 1.0, 2: 0.5, 4: 0.25}) == pytest.approx(1.0)

    def test_pure_serial(self):
        assert fit_parallel_fraction({1: 1.0, 2: 1.0, 4: 1.0}) == pytest.approx(0.0)

    def test_amdahl_half_parallel(self):
        times = {1: 1.0, 2: 0.75, 4: 0.625}  # p = 0.5 exactly
        assert fit_parallel_fraction(times) == pytest.approx(0.5)

    def test_noise_is_clamped(self):
        # Superlinear "speedup" clamps to 1, slowdown clamps to 0.
        assert fit_parallel_fraction({1: 1.0, 2: 0.1}) == pytest.approx(1.0)
        assert fit_parallel_fraction({1: 1.0, 2: 2.0}) == pytest.approx(0.0)

    def test_degenerate_inputs(self):
        assert fit_parallel_fraction({}) == 0.0
        assert fit_parallel_fraction({2: 0.5}) == 0.0
        assert fit_parallel_fraction({1: 0.0, 2: 0.5}) == 0.0
        assert fit_parallel_fraction({1: 1.0}) == 0.0
