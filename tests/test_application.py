"""Whole-application translation: scan, interpret, substitute, check."""

import json

import numpy as np
import pytest

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
from repro.cache.store import SynthesisCache
from repro.frontend.ast import Assignment, DoLoop
from repro.frontend.parser import parse_source
from repro.halide import HalideError
from repro.pipeline.report import report_signature
from repro.pipeline.stng import PipelineOptions
from repro.suites.apps import cloverleaf_mini_app, heat_mini_app, mini_app, mini_apps

FAST_OPTIONS = dict(verifier_environments=1)


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
        program = parse_source(source)
        return FortranInterpreter(program).run(proc, scalars, arrays)

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
