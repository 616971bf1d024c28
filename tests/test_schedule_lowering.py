"""Tests for the schedule-aware execution layer.

Covers: the loop-nest IR and lowering pass, bit-identity of the
generated-Python backend against the schedule-blind reference ``realize``
(property-based over random schedules, plus a ≥200-schedule sweep over
lifted Table-1 suite stencils; tests/test_native_backend.py sweeps the
native backend), Fortran truncation semantics for
integer index arithmetic, strict-bounds loads, schedule validation,
multi-stage pipelines with inlining, and measured autotuning with
differential checking.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autotune import (
    DifferentialCheckError,
    MeasuredObjective,
    MultiArmedBanditTuner,
    ScheduleSpace,
    modeled_objective,
)
from repro.backend.halidegen import postcondition_to_func
from repro.frontend import identify_candidates, parse_source
from repro.frontend.lowering import lower_candidate
from repro.halide import (
    Func,
    HalideError,
    ImageParam,
    OutOfBoundsError,
    Param,
    Schedule,
    ScheduleError,
    Var,
    compile_loop_nest,
    lower,
    realize,
    realize_scheduled,
)
from repro.halide.loopir import chunk_ranges
from repro.perfmodel import workload_from_func
from repro.perfmodel.workload import domain_for_points
from repro.semantics.evalexpr import _apply_func
from repro.semantics.numeric import trunc_div, trunc_mod
from repro.suites.base import pair_1d_2d, stencil_fortran
from repro.suites.registry import suite_names, cases_for_suite
from repro.synthesis import synthesize_kernel

BACKENDS = ("codegen",)


def kernel_from_source(source: str):
    return lower_candidate(identify_candidates(parse_source(source)).candidates[0])


def _cross2d():
    x, y = Var("x"), Var("y")
    b = ImageParam("b", 2)
    f = Func("cross2d")
    f[x, y] = b(x, y) + b(x - 1, y) + b(x + 1, y) + b(x, y - 1) + b(x, y + 1)
    return f


def _weighted2d():
    x, y = Var("x"), Var("y")
    b = ImageParam("b", 2)
    c = ImageParam("c", 2)
    w = Param("w")
    f = Func("weighted2d")
    f[x, y] = w * b(x - 1, y) + 0.25 * c(x, y - 1) + b(x, y) / 2.0
    return f


def _box3d():
    x, y, z = Var("x"), Var("y"), Var("z")
    b = ImageParam("b", 3)
    f = Func("box3d")
    expr = None
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            for dk in (-1, 0, 1):
                term = b(x + di, y + dj, z + dk)
                weight = 1.0 if (di, dj, dk) == (0, 0, 0) else 0.5
                term = weight * term
                expr = term if expr is None else expr + term
    f[x, y, z] = expr
    return f


def _blur1d():
    x = Var("x")
    b = ImageParam("b", 1)
    f = Func("blur1d")
    f[x] = (b(x - 1) + b(x) + b(x + 1)) / 3.0
    return f


FUNC_BUILDERS = {
    "cross2d": _cross2d,
    "weighted2d": _weighted2d,
    "box3d": _box3d,
    "blur1d": _blur1d,
}

DOMAINS = {
    "cross2d": [(1, 12), (-2, 7)],
    "weighted2d": [(0, 9), (1, 8)],
    "box3d": [(1, 6), (1, 5), (0, 4)],
    "blur1d": [(-3, 20)],
}


def _inputs_for(func, domain, seed, margin=2):
    rng = np.random.default_rng(seed)
    lows = [lo for lo, _ in domain]
    extents = [hi - lo + 1 for lo, hi in domain]
    inputs = {}
    origins = {}
    for image in func.inputs():
        shape = tuple(
            (extents[d] if d < len(extents) else 6) + 2 * margin
            for d in range(image.dimensions)
        )
        inputs[image.name] = rng.standard_normal(shape)
        origins[image.name] = tuple(
            (lows[d] if d < len(lows) else 0) - margin for d in range(image.dimensions)
        )
    params = {param.name: float(rng.integers(1, 5)) for param in func.params()}
    return inputs, origins, params


class TestTruncationSemantics:
    """Integer index arithmetic must match the Fortran interpreter."""

    @pytest.mark.parametrize(
        "a,b,quotient,remainder",
        [(7, 2, 3, 1), (-7, 2, -3, -1), (7, -2, -3, 1), (-7, -2, 3, -1), (6, 3, 2, 0)],
    )
    def test_trunc_div_mod_scalars(self, a, b, quotient, remainder):
        assert trunc_div(a, b) == quotient
        assert trunc_mod(a, b) == remainder

    def test_trunc_differs_from_floor_for_negatives(self):
        assert trunc_div(-7, 2) != -7 // 2
        assert trunc_mod(-7, 2) != np.mod(-7, 2)

    def test_array_and_scalar_agree(self):
        a = np.array([7, -7, 7, -7, 5, -5], dtype=np.int64)
        b = np.array([2, 2, -2, -2, 3, 3], dtype=np.int64)
        div = trunc_div(a, b)
        mod = trunc_mod(a, b)
        for index in range(len(a)):
            assert div[index] == trunc_div(int(a[index]), int(b[index]))
            assert mod[index] == trunc_mod(int(a[index]), int(b[index]))

    def test_fortran_interpreter_mod_truncates(self):
        assert _apply_func("mod", [-7, 2]) == -1
        assert _apply_func("mod", [7, -2]) == 1

    def test_realize_negative_index_division(self):
        x = Var("x")
        b = ImageParam("b", 1)
        f = Func("div_index")
        f[x] = b(x / 2)
        data = np.arange(9, dtype=float)
        domain = [(-4, 4)]
        out = realize(f, domain, {"b": data}, input_origins={"b": (-2,)})
        expected = np.array([data[trunc_div(i, 2) + 2] for i in range(-4, 5)])
        assert np.array_equal(out, expected)
        for backend in BACKENDS:
            scheduled = realize_scheduled(
                f, domain, {"b": data}, input_origins={"b": (-2,)},
                schedule=Schedule(vector_width=2), backend=backend,
            )
            assert np.array_equal(scheduled, out)

    def test_realize_negative_index_mod(self):
        from repro.halide.lang import Call, wrap

        x = Var("x")
        b = ImageParam("b", 1)
        f = Func("mod_index")
        f[x] = b(Call("mod", (wrap(x), wrap(3))))
        data = np.arange(7, dtype=float)
        domain = [(-5, 5)]
        out = realize(f, domain, {"b": data}, input_origins={"b": (-2,)})
        expected = np.array([data[trunc_mod(i, 3) + 2] for i in range(-5, 6)])
        assert np.array_equal(out, expected)
        for backend in BACKENDS:
            scheduled = realize_scheduled(
                f, domain, {"b": data}, input_origins={"b": (-2,)}, backend=backend
            )
            assert np.array_equal(scheduled, out)


class TestStrictBounds:
    def _oob_func(self):
        x = Var("x")
        b = ImageParam("b", 1)
        f = Func("oob")
        f[x] = b(x - 5)
        return f

    def test_default_clamps(self):
        f = self._oob_func()
        data = np.array([1.0, 2.0, 3.0])
        out = realize(f, [(0, 2)], {"b": data})
        assert np.array_equal(out, np.array([1.0, 1.0, 1.0]))

    def test_strict_raises_in_reference_and_backends(self):
        f = self._oob_func()
        data = np.array([1.0, 2.0, 3.0])
        with pytest.raises(OutOfBoundsError):
            realize(f, [(0, 2)], {"b": data}, strict_bounds=True)
        for backend in BACKENDS:
            with pytest.raises(OutOfBoundsError):
                realize_scheduled(
                    f, [(0, 2)], {"b": data}, strict_bounds=True, backend=backend
                )
            with pytest.raises(OutOfBoundsError):
                realize_scheduled(
                    f, [(0, 2)], {"b": data}, strict_bounds=True, backend=backend,
                    schedule=Schedule(vector_width=4),
                )

    def test_strict_passes_in_bounds(self):
        f = _cross2d()
        domain = DOMAINS["cross2d"]
        inputs, origins, params = _inputs_for(f, domain, seed=0)
        out = realize(f, domain, inputs, origins, params, strict_bounds=True)
        for backend in BACKENDS:
            scheduled = realize_scheduled(
                f, domain, inputs, origins, params,
                schedule=Schedule(tile_sizes=(4, 4), vector_width=4),
                backend=backend, strict_bounds=True,
            )
            assert np.array_equal(scheduled, out)


class TestSignaturesAndValidation:
    def test_realize_accepts_none_optionals(self):
        x = Var("x")
        b = ImageParam("b", 1)
        f = Func("plain")
        f[x] = b(x) * 2.0
        data = np.arange(4, dtype=float)
        out = realize(f, [(0, 3)], {"b": data}, input_origins=None, params=None)
        assert np.array_equal(out, data * 2.0)

    def test_schedule_construction_rejects_bad_values(self):
        with pytest.raises(ScheduleError):
            Schedule(vector_width=3)
        with pytest.raises(ScheduleError):
            Schedule(unroll=0)
        with pytest.raises(ScheduleError):
            Schedule(tile_sizes=(-1, 4))
        with pytest.raises(ScheduleError):
            Schedule(dim_order=(0, 2))
        with pytest.raises(ScheduleError):
            Schedule().with_order((1, 1))
        with pytest.raises(ScheduleError):
            Schedule().with_vectorize(5)

    def test_rank_mismatch_fails_at_nest_construction(self):
        f = _cross2d()
        with pytest.raises(ScheduleError, match="tile_sizes has 3 entries"):
            lower(f, Schedule(tile_sizes=(4, 4, 4)))
        with pytest.raises(ScheduleError, match="dim_order"):
            lower(f, Schedule(dim_order=(0, 1, 2)))
        with pytest.raises(ScheduleError, match="parallel dimension"):
            lower(f, Schedule(parallel_dim=2))

    def test_set_schedule_validates_against_rank(self):
        f = _cross2d()
        with pytest.raises(ScheduleError):
            f.set_schedule(Schedule(dim_order=(0, 1, 2)))
        f.set_schedule(Schedule(dim_order=(1, 0)))
        assert f.schedule.dim_order == (1, 0)

    def test_funcref_arity_checked(self):
        f = _cross2d()
        with pytest.raises(HalideError):
            f(1, 2, 3)

    def test_lower_rejects_multi_stage_and_free_vars(self):
        x, y = Var("x"), Var("y")
        g = Func("g")
        g[x, y] = _cross2d()(x, y) * 2.0
        with pytest.raises(HalideError, match="references other stages"):
            lower(g)
        h = Func("h")
        h[x] = Var("q") + 1.0
        with pytest.raises(HalideError, match="free variable"):
            lower(h)


class TestLoweringStructure:
    def test_pretty_shows_schedule_as_loops(self):
        f = _cross2d()
        nest = lower(f, Schedule(parallel_dim=1, tile_sizes=(8, 16), vector_width=4,
                                 unroll=2, dim_order=(0, 1)))
        text = nest.pretty()
        assert "parallel y_t" in text
        assert "tile x_t" in text
        assert "vector x" in text
        assert "span(x, width=4, unroll=2)" in text
        loops = nest.loops()
        assert [loop.var for loop in loops] == ["y_t", "x_t", "y", "x"]

    def test_reorder_changes_loop_nesting(self):
        f = _cross2d()
        natural = [loop.axis for loop in lower(f, Schedule()).loops()]
        flipped = [loop.axis for loop in lower(f, Schedule(dim_order=(1, 0))).loops()]
        assert natural == [1, 0]
        assert flipped == [0, 1]

    @pytest.mark.parametrize("lo,hi,step,chunks", [
        (0, 99, 1, 8), (3, 47, 4, 4), (-10, 10, 3, 7), (5, 4, 1, 4), (0, 0, 2, 3),
    ])
    def test_chunk_ranges_partition_exactly(self, lo, hi, step, chunks):
        expected = list(range(lo, hi + 1, step))
        seen = []
        for chunk_lo, chunk_hi in chunk_ranges(lo, hi, step, chunks):
            assert (chunk_lo - lo) % step == 0, "chunk boundaries must be step-aligned"
            seen.extend(range(chunk_lo, chunk_hi + 1, step))
        assert seen == expected


class TestMultiStage:
    def _pipeline(self):
        x, y = Var("x"), Var("y")
        b = ImageParam("b", 2)
        g = Func("g")
        g[x, y] = b(x, y) * 2.0 + 1.0
        h = Func("h")
        h[x, y] = g(x - 1, y) + g(x, y + 1)
        return g, h

    def test_reference_matches_manual_composition(self):
        _, h = self._pipeline()
        rng = np.random.default_rng(3)
        data = rng.standard_normal((14, 12))
        out = realize(h, [(1, 10), (0, 9)], {"b": data})
        g_all = data * 2.0 + 1.0
        expected = g_all[0:10, 0:10] + g_all[1:11, 1:11]
        assert np.allclose(out, expected)

    def test_inline_is_a_schedule_choice_with_identical_results(self):
        g, h = self._pipeline()
        rng = np.random.default_rng(4)
        data = rng.standard_normal((14, 12))
        domain = [(1, 10), (0, 9)]
        staged = realize(h, domain, {"b": data})
        g.compute_inline()
        inlined = realize(h, domain, {"b": data})
        assert np.array_equal(staged, inlined)

    def test_backends_match_reference_for_multi_stage(self):
        g, h = self._pipeline()
        rng = np.random.default_rng(5)
        data = rng.standard_normal((14, 12))
        domain = [(1, 10), (0, 9)]
        ref = realize(h, domain, {"b": data})
        g.set_schedule(Schedule(vector_width=4))
        for backend in BACKENDS:
            for schedule in (Schedule(), Schedule(tile_sizes=(4, 4), vector_width=2, parallel_dim=0)):
                out = realize_scheduled(
                    h, domain, {"b": data}, schedule=schedule, backend=backend
                )
                assert np.array_equal(out, ref)

    def test_cyclic_pipeline_rejected(self):
        x = Var("x")
        a, b = Func("a"), Func("b")
        a[x] = Var("x") + 1.0
        b[x] = a(x) + 1.0
        a[x] = b(x) + 1.0  # now a -> b -> a
        with pytest.raises(HalideError, match="cyclic"):
            realize(a, [(0, 3)], {})


# ---------------------------------------------------------------------------
# Bit-identity of the generated-Python backend against the reference
# ---------------------------------------------------------------------------

def _schedules(dims):
    tile_choice = st.sampled_from((0, 2, 3, 4, 8, 32))
    return st.builds(
        Schedule,
        parallel_dim=st.one_of(st.none(), st.integers(0, dims - 1)),
        tile_sizes=st.one_of(
            st.just(()),
            st.tuples(*([tile_choice] * dims)),
        ),
        vector_width=st.sampled_from((1, 2, 4, 8)),
        unroll=st.sampled_from((1, 2, 3, 4)),
        dim_order=st.one_of(st.none(), st.permutations(range(dims)).map(tuple)),
    )


class TestScheduledExecutionProperty:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_schedules_bit_identical_to_reference(self, data):
        name = data.draw(st.sampled_from(sorted(FUNC_BUILDERS)), label="func")
        func = FUNC_BUILDERS[name]()
        domain = DOMAINS[name]
        schedule = data.draw(_schedules(func.dimensions), label="schedule")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        inputs, origins, params = _inputs_for(func, domain, seed)
        reference = realize(func, domain, inputs, origins, params, strict_bounds=True)
        for backend in BACKENDS:
            out = realize_scheduled(
                func, domain, inputs, origins, params,
                schedule=schedule, backend=backend, strict_bounds=True,
            )
            assert np.array_equal(out, reference), (
                f"{backend} diverged for schedule [{schedule.describe()}]"
            )


@pytest.fixture(scope="module")
def lifted_suite_stencils():
    """One lifted (synthesised + verified) stencil per benchmark suite.

    Suites whose representative kernel lies outside the Halide-translatable
    fragment (TERRA's 5-D arrays need the per-dimensionality split, §6.6)
    contribute nothing; the sweep floor accounts for that.
    """
    from repro.backend.halidegen import HalideGenerationError

    stencils = []
    for suite in suite_names():
        cases = [c for c in cases_for_suite(suite) if c.expect_translated and not c.hand_optimized]
        cases = cases or [c for c in cases_for_suite(suite) if c.expect_translated]
        for case in cases[:2]:
            kernel = lower_candidate(
                identify_candidates(parse_source(case.source)).candidates[0]
            )
            result = synthesize_kernel(kernel, seed=0, verifier_environments=2)
            try:
                generated = postcondition_to_func(result.post)
            except HalideGenerationError:
                continue
            for stencil in generated:
                stencils.append((suite, case.name, stencil))
            break
    return stencils


class TestSuiteKernelScheduleSweep:
    """Acceptance: every Table-1 suite kernel's generated stencil executes
    bit-identically to the schedule-blind reference on the generated-Python
    backend, for ≥200 random schedules overall."""

    SCHEDULES_PER_KERNEL = 42
    SWEEP_POINTS = {1: 24, 2: 144, 3: 512, 4: 1296}

    def test_sweep(self, lifted_suite_stencils):
        import zlib

        assert len(lifted_suite_stencils) >= 5
        total = 0
        for suite, name, stencil in lifted_suite_stencils:
            func = stencil.func
            domain = domain_for_points(
                func.dimensions, self.SWEEP_POINTS.get(func.dimensions, 1296)
            )
            inputs, origins, params = _inputs_for(
                func, domain, seed=zlib.crc32(name.encode()) & 0xFFFF, margin=3
            )
            reference = realize(func, domain, inputs, origins, params)
            space = ScheduleSpace(func.dimensions)
            for schedule in space.sample_schedules(self.SCHEDULES_PER_KERNEL, seed=7):
                for backend in BACKENDS:
                    out = realize_scheduled(
                        func, domain, inputs, origins, params,
                        schedule=schedule, backend=backend,
                    )
                    assert np.array_equal(out, reference), (
                        f"{suite}/{name} diverged on {backend} for "
                        f"[{schedule.describe()}]"
                    )
                total += 1
        assert total >= 200


class TestMeasuredAutotune:
    def test_measured_objective_differential_and_improvement(self):
        func = _cross2d()
        domain = [(1, 48), (1, 48)]
        inputs, origins, params = _inputs_for(func, domain, seed=11)
        objective = MeasuredObjective(func, domain, inputs, origins, params)
        tuner = MultiArmedBanditTuner(ScheduleSpace(2), objective, seed=5)
        result = tuner.tune(budget=8)
        assert objective.evaluations == 8
        assert objective.all_verified
        assert result.best_cost <= result.default_cost
        assert len(objective.history) == 8
        assert all(m.seconds > 0 for m in objective.history)

    def test_warmup_discards_first_call_costs(self):
        """Regression: the first call of a fresh nest used to be timed.

        First-call costs (allocator warm-up, dlopen/page faults on the
        native backend) are not steady state; with ``warmup=0`` they
        land inside the min-of-repeats window and bias the tuner
        against whichever schedule is evaluated first.  The default
        ``warmup=1`` must soak them up.
        """
        import time as time_mod

        func = _blur1d()
        domain = [(0, 15)]
        inputs, origins, params = _inputs_for(func, domain, seed=3)

        def make_objective(warmup):
            # repeats=1 (the default) is where the bug bites: the only
            # timed run *is* the first call, so min-of-repeats can't
            # mask the one-time cost.
            objective = MeasuredObjective(
                func, domain, inputs, origins, params,
                repeats=1, warmup=warmup,
            )
            real_build = objective._build

            def slow_first_build(schedule):
                real, backend_used = real_build(schedule)
                state = {"first": True}

                def run():
                    if state["first"]:
                        state["first"] = False
                        time_mod.sleep(0.05)  # the one-time first-call cost
                    return real()

                return run, backend_used

            objective._build = slow_first_build
            return objective

        biased = make_objective(warmup=0).measure(Schedule.default())
        assert biased.seconds >= 0.05  # the bug: first-call cost leaks in
        steady = make_objective(warmup=1).measure(Schedule.default())
        assert steady.seconds < 0.05  # warm-up run absorbed it
        assert steady.verified

    def test_modeled_objective_wraps_perfmodel(self):
        func = _cross2d()
        workload = workload_from_func(func, name="cross2d", points=128 ** 2)
        objective = modeled_objective(workload)
        default = objective(Schedule.default())
        tuned = objective(Schedule.baseline_parallel(2))
        assert default > 0 and tuned > 0 and tuned < default

    def test_differential_check_catches_wrong_output(self):
        func = _cross2d()
        domain = [(1, 16), (1, 16)]
        inputs, origins, params = _inputs_for(func, domain, seed=13)
        objective = MeasuredObjective(func, domain, inputs, origins, params)
        objective.reference = objective.reference + 1.0  # sabotage the reference
        with pytest.raises(DifferentialCheckError):
            objective(Schedule.default())

    def test_pipeline_measure_mode_reports_and_verifies(self):
        from repro.pipeline import PipelineOptions, STNGPipeline, report_signature

        source = stencil_fortran("measured2d", 2, pair_1d_2d())
        kernel = kernel_from_source(source)
        options = PipelineOptions(
            measure=True, measure_budget=6, measure_points=1024,
            autotune_budget=30, verifier_environments=1,
        )
        report = STNGPipeline(options).lift_kernel(kernel, suite="StencilMark")
        assert report.translated
        measured = report.performance.measured
        assert measured is not None
        assert measured.verified
        assert measured.default_seconds > 0 and measured.tuned_seconds > 0
        # Legality dedup replays a proposal the bandit repeats instead of
        # measuring it again; which proposals repeat depends on wall-clock
        # rewards, so only the total of the two is fixed.
        assert measured.evaluations + measured.pruned_duplicate == 6
        # Measured wall-clock must not leak into deterministic signatures.
        plain = STNGPipeline(
            PipelineOptions(autotune_budget=30, verifier_environments=1)
        ).lift_kernel(kernel, suite="StencilMark")
        assert report_signature(report) == report_signature(plain)
