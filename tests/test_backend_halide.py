"""Tests for the Halide DSL, code generation backends, autotuner and perf models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autotune import ScheduleSpace, autotune
from repro.backend.accessors import AccessorRecoveryError, recover_multidim_access
from repro.backend.cgen import emit_serial_c
from repro.backend.gluegen import emit_fortran_glue
from repro.backend.halidegen import HalideGenerationError, postcondition_to_func
from repro.frontend import identify_candidates, parse_source
from repro.frontend.lowering import lower_candidate
from repro.halide import Func, ImageParam, Schedule, Var, emit_cpp, realize
from repro.halide.schedule import ScheduleError
from repro.ir.flatten import flatten_kernel
from repro.perfmodel import (
    GFORTRAN,
    HALIDE_CPU,
    IFORT_PARALLEL,
    XEON_NODE,
    estimate_runtime,
    workload_from_func,
    workload_from_kernel,
)
from repro.perfmodel.compiler import IFORT_PARALLEL_CLEAN
from repro.suites import all_cases, stencil_fortran
from repro.suites.base import box_3d, cross_2d
from repro.synthesis import synthesize_kernel
from repro.symbolic import sym

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


def kernel_from_source(source: str):
    return lower_candidate(identify_candidates(parse_source(source)).candidates[0])


@pytest.fixture(scope="module")
def lifted_running_example():
    return synthesize_kernel(kernel_from_source(RUNNING_EXAMPLE), seed=1)


class TestHalideLang:
    def test_func_definition_and_repr(self):
        x, y = Var("x"), Var("y")
        b = ImageParam("b", 2)
        f = Func("f")
        f[x, y] = b(x - 1, y) + b(x, y)
        assert f.dimensions == 2
        assert f.loads_per_point() == 2
        assert f.arith_ops() >= 2
        assert [p.name for p in f.inputs()] == ["b"]

    def test_image_param_arity_checked(self):
        b = ImageParam("b", 2)
        with pytest.raises(Exception):
            b(1)

    def test_realize_matches_manual_numpy(self):
        x, y = Var("x"), Var("y")
        b = ImageParam("b", 2)
        f = Func()
        f[x, y] = b(x - 1, y) + b(x, y)
        data = np.arange(20, dtype=float).reshape(5, 4)
        out = realize(f, [(1, 4), (0, 3)], {"b": data})
        expected = data[0:4, :] + data[1:5, :]
        assert np.allclose(out, expected)

    def test_realize_with_input_origin(self):
        x = Var("x")
        b = ImageParam("b", 1)
        f = Func()
        f[x] = b(x) * 2.0
        data = np.array([1.0, 2.0, 3.0])
        out = realize(f, [(10, 12)], {"b": data}, input_origins={"b": (10,)})
        assert np.allclose(out, [2.0, 4.0, 6.0])

    def test_cpp_emission_matches_figure_1d_shape(self):
        x, y = Var("i"), Var("j")
        b = ImageParam("b", 2)
        f = Func("ex1")
        f[x, y] = b(x - 1, y) + b(x, y)
        cpp = emit_cpp(f, "ex1")
        assert "ImageParam b(type_of<double>(), 2);" in cpp
        assert "func(i, j) = (b((i - 1), j) + b(i, j));" in cpp
        assert 'compile_to_file("ex1"' in cpp

    def test_schedule_validation(self):
        with pytest.raises(ScheduleError):
            Schedule().with_vectorize(3)

    def test_out_of_range_parallel_dim_fails_at_lower_time(self):
        from repro.halide.lower import lower

        x = Var("x")
        b = ImageParam("b", 1)
        f = Func("range_check")
        f[x] = b(x) * 2.0
        with pytest.raises(ScheduleError, match="parallel dimension 5 out of range"):
            lower(f, Schedule(parallel_dim=5))

    def test_schedule_describe(self):
        text = Schedule.baseline_parallel(2).describe()
        assert "parallel" in text and "vectorize" in text


class TestBackends:
    def test_postcondition_to_func_running_example(self, lifted_running_example):
        stencils = postcondition_to_func(lifted_running_example.post)
        assert len(stencils) == 1
        stencil = stencils[0]
        assert stencil.array == "a"
        assert stencil.func.dimensions == 2
        assert "b(" in stencil.cpp_source

    def test_generated_func_matches_fortran_semantics(self, lifted_running_example):
        stencil = postcondition_to_func(lifted_running_example.post)[0]
        imin, imax, jmin, jmax = 0, 6, 0, 4
        rng = np.random.default_rng(1)
        b = rng.standard_normal((imax - imin + 1, jmax - jmin + 1))
        out = realize(
            stencil.func,
            [(imin + 1, imax), (jmin, jmax)],
            {"b": b},
            input_origins={"b": (imin, jmin)},
        )
        expected = b[0:-1, :] + b[1:, :]
        assert np.allclose(out, expected)

    def test_concrete_domain_and_scheduled_execution(self, lifted_running_example):
        from repro.halide import realize_scheduled

        stencil = postcondition_to_func(lifted_running_example.post)[0]
        env = {"imin": 0, "imax": 6, "jmin": 0, "jmax": 4}
        domain = stencil.concrete_domain(env)
        assert domain == [(1, 6), (0, 4)]
        rng = np.random.default_rng(2)
        b = rng.standard_normal((7, 5))
        reference = realize(stencil.func, domain, {"b": b}, input_origins={"b": (0, 0)})
        scheduled = realize_scheduled(
            stencil.func,
            domain,
            {"b": b},
            input_origins={"b": (0, 0)},
            schedule=Schedule(tile_sizes=(4, 2), vector_width=2, parallel_dim=1),
            strict_bounds=True,
        )
        assert np.array_equal(scheduled, reference)

    def test_five_dimensional_output_rejected(self):
        from repro.predicates import Bound, OutEq, Postcondition, QuantifiedConstraint
        from repro.symbolic import cell

        vars5 = tuple(sym(f"v{d}") for d in range(5))
        conjunct = QuantifiedConstraint(
            tuple(Bound(f"v{d}", sym("lo"), sym("hi")) for d in range(5)),
            OutEq("u", vars5, cell("w", *vars5)),
        )
        with pytest.raises(HalideGenerationError):
            postcondition_to_func(Postcondition((conjunct,)))

    def test_serial_c_generation(self, lifted_running_example):
        source, nests = emit_serial_c(lifted_running_example.post, function_name="sten_clean")
        assert "void sten_clean(" in source
        assert "for (long v0" in source
        assert nests[0].affine_bounds and nests[0].perfectly_nested

    def test_glue_code_generation(self, lifted_running_example):
        kernel = kernel_from_source(RUNNING_EXAMPLE)
        stencils = postcondition_to_func(lifted_running_example.post)
        glue = emit_fortran_glue(kernel, stencils)
        assert "#ifdef STNG_USE_HALIDE" in glue
        assert "call a_stencil_wrapper" in glue

    def test_accessor_recovery_roundtrip(self):
        kernel = kernel_from_source(RUNNING_EXAMPLE)
        flat, infos = flatten_kernel(kernel)
        info = infos["b"]
        # flattened access for b(v0 - 1, v1): (v1 - jmin) * (imax-imin+1) + (v0 - 1 - imin)
        ncols = sym("imax") - sym("imin") + 1
        flat_index = (sym("v1") - sym("jmin")) * ncols + (sym("v0") - 1 - sym("imin"))
        envs = [
            {"imin": 0, "imax": 5, "jmin": 0, "jmax": 4},
            {"imin": 0, "imax": 8, "jmin": 0, "jmax": 6},
        ]
        recovered = recover_multidim_access(flat_index, info, ["v0", "v1"], envs)
        assert repr(recovered[0]) == "(v0 - 1)"
        assert repr(recovered[1]) == "v1"

    def test_accessor_recovery_rejects_nonaffine(self):
        kernel = kernel_from_source(RUNNING_EXAMPLE)
        _, infos = flatten_kernel(kernel)
        with pytest.raises(AccessorRecoveryError):
            recover_multidim_access(sym("v0") * sym("v0"), infos["b"], ["v0", "v1"], [{"imin": 0, "imax": 5, "jmin": 0, "jmax": 4}])


class TestAutotune:
    def test_space_size_is_large(self):
        assert ScheduleSpace(3).size() > 10_000

    def test_tuner_improves_on_default(self):
        kernel = kernel_from_source(stencil_fortran("tune_me", 3, box_3d()))
        workload = workload_from_kernel(kernel, points=128 ** 3)
        result = autotune(3, lambda s: HALIDE_CPU.runtime(workload, s), budget=120, seed=1)
        assert result.best_cost <= result.default_cost
        assert result.improvement >= 1.0
        assert result.best_schedule.parallel_dim is not None

    def test_modeled_run_is_pinned(self):
        # One modeled tuning run, pinned field by field: the search loop
        # may be restructured, but not move a tuned schedule.
        case = next(c for c in all_cases() if c.name == "heat0")
        kernel = kernel_from_source(case.source)
        workload = workload_from_kernel(kernel, points=case.points)
        result = autotune(3, lambda s: HALIDE_CPU.runtime(workload, s), budget=20, seed=1)
        assert result.best_schedule == Schedule(
            parallel_dim=1, tile_sizes=(0, 32, 32), vector_width=8, unroll=4,
            dim_order=(0, 1, 2),
        )
        best = pytest.approx(0.0017073825491315474, rel=1e-12)
        assert result.best_cost == best
        assert result.default_cost == pytest.approx(0.04004021235918325, rel=1e-12)
        assert result.evaluations == 20
        assert result.history == [pytest.approx(0.003052872858362497, rel=1e-12)] + [best] * 18
        assert result.technique_wins == {"random": 1, "greedy-mutation": 0, "pattern-search": 0}

    def test_tuner_is_deterministic_for_fixed_seed(self):
        kernel = kernel_from_source(stencil_fortran("tune_me2", 2, cross_2d()))
        workload = workload_from_kernel(kernel, points=1024 ** 2)
        a = autotune(2, lambda s: HALIDE_CPU.runtime(workload, s), budget=60, seed=7)
        b = autotune(2, lambda s: HALIDE_CPU.runtime(workload, s), budget=60, seed=7)
        assert a.best_cost == b.best_cost


class TestPerfModels:
    def _workloads(self):
        dirty = workload_from_kernel(
            kernel_from_source(stencil_fortran("tiled27", 3, box_3d(), tile={1: 4, 2: 4})),
            points=128 ** 3,
        )
        clean = workload_from_kernel(
            kernel_from_source(stencil_fortran("plain27", 3, box_3d())), points=128 ** 3
        )
        return dirty, clean

    def test_hand_tiling_detected(self):
        dirty, clean = self._workloads()
        assert dirty.hand_tiled and not clean.hand_tiled

    def test_halide_beats_serial_baseline(self):
        _, clean = self._workloads()
        halide = HALIDE_CPU.runtime(clean, Schedule.baseline_parallel(3))
        assert GFORTRAN.runtime(clean) / halide > 1.5

    def test_pathological_autopar_on_tiled_code(self):
        dirty, _ = self._workloads()
        assert IFORT_PARALLEL.runtime(dirty) > 100 * GFORTRAN.runtime(dirty)

    def test_clean_code_recovers_parallel_speedup(self):
        dirty, clean = self._workloads()
        before = GFORTRAN.runtime(dirty) / IFORT_PARALLEL.runtime(dirty)
        after = GFORTRAN.runtime(dirty) / IFORT_PARALLEL_CLEAN.runtime(clean)
        assert after > before
        assert after > 2.0

    def test_gpu_no_transfer_faster_than_with_transfer(self):
        _, clean = self._workloads()
        assert estimate_runtime(clean, "halide-gpu") > estimate_runtime(clean, "halide-gpu-notransfer")

    def test_reduction_like_kernels_transfer_little(self):
        from dataclasses import replace

        _, clean = self._workloads()
        reduction = replace(clean, is_reduction_like=True)
        assert estimate_runtime(reduction, "halide-gpu") < estimate_runtime(clean, "halide-gpu")

    def test_runtime_scales_with_points(self):
        from dataclasses import replace

        _, clean = self._workloads()
        bigger = replace(clean, points=clean.points * 8)
        assert GFORTRAN.runtime(bigger) > GFORTRAN.runtime(clean) * 4

    @given(st.integers(1, 16), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_peak_gflops_monotone(self, cores, vector):
        assert XEON_NODE.peak_gflops(cores, vector) <= XEON_NODE.peak_gflops(cores + 1, vector)
