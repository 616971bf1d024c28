"""Tests for the end-to-end pipeline, the benchmark suites and the conditionals experiment."""

import pytest

from repro.frontend import identify_candidates, parse_source
from repro.frontend.lowering import lower_candidate
from repro.pipeline import KernelOutcome, PipelineOptions, STNGPipeline, summarize_suite
from repro.pipeline.report import format_table1_rows, headline_statistics, table1_row
from repro.suites import PAPER_TABLE2, all_cases, cases_for_suite, suite_names
from repro.suites.kernels import POINTS_2D
from repro.synthesis.conditionals import DATA_DEPENDENT, LOCATION_DEPENDENT, synthesize_conditional
from repro.synthesis import synthesize_kernel

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


@pytest.fixture(scope="module")
def pipeline():
    return STNGPipeline(PipelineOptions(autotune_budget=40))


class TestSuiteDefinitions:
    def test_total_candidate_count_matches_paper(self):
        assert len(all_cases()) == sum(counts[0] for counts in PAPER_TABLE2.values())

    @pytest.mark.parametrize("suite", list(PAPER_TABLE2))
    def test_per_suite_counts_match_paper(self, suite):
        cases = cases_for_suite(suite)
        expected_candidates, expected_translated, expected_untranslated, expected_non = PAPER_TABLE2[suite]
        assert len(cases) == expected_candidates
        assert sum(1 for c in cases if c.expect_translated) == expected_translated
        assert sum(1 for c in cases if c.is_stencil and not c.expect_translated) == expected_untranslated
        assert sum(1 for c in cases if not c.is_stencil) == expected_non

    @pytest.mark.parametrize("case", all_cases(), ids=lambda c: c.name)
    def test_every_case_parses(self, case):
        program = parse_source(case.source)
        assert program.procedures

    def test_annotation_count_is_six(self):
        assert sum(1 for c in all_cases() if c.needs_annotation) == 6

    def test_hand_optimized_kernels_exist(self):
        assert sum(1 for c in all_cases() if c.hand_optimized) >= 5

    def test_suite_names(self):
        assert set(suite_names()) == set(PAPER_TABLE2)


class TestPipeline:
    @pytest.mark.parametrize(
        "name",
        (
            "trials",
            "max_candidates",
            "verifier_environments",
            "autotune_budget",
            "measure_budget",
            "measure_points",
        ),
    )
    def test_counts_below_one_are_rejected(self, name):
        for value in (0, -3):
            with pytest.raises(ValueError, match=f"{name} must be at least 1"):
                PipelineOptions(**{name: value})
        assert getattr(PipelineOptions(**{name: 1}), name) == 1

    def test_running_example_end_to_end(self, pipeline):
        reports = pipeline.lift_source(RUNNING_EXAMPLE, suite="demo", points=POINTS_2D)
        assert len(reports) == 1
        report = reports[0]
        assert report.outcome is KernelOutcome.TRANSLATED
        assert report.performance is not None
        assert report.performance.halide_speedup > 1.0
        assert report.halide_cpp and "compile_to_file" in report.halide_cpp[0]
        assert report.serial_c and "for (long" in report.serial_c
        assert report.glue_code and "STNG_USE_HALIDE" in report.glue_code

    def test_rejected_loop_reported(self, pipeline):
        case = next(c for c in cases_for_suite("CloverLeaf") if c.name == "update_halo_left")
        reports = pipeline.lift_source(case.source, suite="CloverLeaf")
        assert reports[0].outcome is KernelOutcome.UNTRANSLATED_STENCIL
        assert "conditional" in (reports[0].failure_reason or "")

    def test_non_stencil_classification(self, pipeline):
        case = next(c for c in cases_for_suite("CloverLeaf") if c.name == "field_summary")
        reports = pipeline.lift_source(
            case.source, suite="CloverLeaf", stencil_flags={"field_summary": False}
        )
        assert reports[0].outcome is KernelOutcome.NOT_A_STENCIL

    def test_table1_row_shape(self, pipeline):
        reports = pipeline.lift_source(RUNNING_EXAMPLE, suite="demo", points=POINTS_2D)
        row = table1_row(reports[0])
        assert row is not None and len(row) == 10

    def test_table1_formatting(self, pipeline):
        reports = pipeline.lift_source(RUNNING_EXAMPLE, suite="demo", points=POINTS_2D)
        text = format_table1_rows(reports)
        assert "Halide Speedup" in text

    def test_suite_summary_counts(self, pipeline):
        case_ok = next(c for c in cases_for_suite("CloverLeaf") if c.name == "gckl77")
        case_bad = next(c for c in cases_for_suite("CloverLeaf") if c.name == "advec_rev")
        reports = []
        reports += pipeline.lift_source(case_ok.source, suite="CloverLeaf", points=case_ok.points)
        reports += pipeline.lift_source(case_bad.source, suite="CloverLeaf", points=case_bad.points)
        summary = summarize_suite("CloverLeaf", reports)
        assert summary.candidates == 2
        assert summary.translated == 1
        assert summary.untranslated_stencils == 1

    def test_headline_statistics(self, pipeline):
        reports = pipeline.lift_source(RUNNING_EXAMPLE, suite="demo", points=POINTS_2D)
        stats = headline_statistics(reports)
        assert stats["kernels"] == 1 and stats["median"] > 1.0

    def test_annotation_required_kernel(self, pipeline):
        case = cases_for_suite("Annotations")[0]
        reports = pipeline.lift_source(case.source, suite="Annotations", points=case.points)
        assert reports[0].translated
        assert reports[0].annotations_used

    def test_annotation_removal_breaks_lifting(self, pipeline):
        case = cases_for_suite("Annotations")[0]
        stripped = "\n".join(
            line for line in case.source.splitlines() if "STNG: assume" not in line
        )
        reports = pipeline.lift_source(stripped, suite="Annotations", points=case.points)
        assert not reports[0].translated


class TestConditionals:
    def _conditional_setup(self):
        """Build the akl83-with-conditional experiment of §6.6."""
        source = next(c for c in cases_for_suite("CloverLeaf") if c.name == "akl83").source
        kernel = lower_candidate(identify_candidates(parse_source(source)).candidates[0])
        base = synthesize_kernel(kernel, seed=1)
        conjunct = base.post.conjuncts[0]

        from repro.predicates import OutEq, QuantifiedConstraint
        from repro.symbolic import cell, sym

        then_c = conjunct
        else_rhs = cell("uin", sym("v0"), sym("v1"))
        else_c = QuantifiedConstraint(conjunct.bounds, OutEq("uout", conjunct.out_eq.indices, else_rhs))

        def states():
            from repro.semantics.state import ArrayValue, State

            built = []
            for seed in (3, 4):
                state = State(scalars={"ilo": 0, "ihi": 5, "jlo": 0, "jhi": 4})
                state.arrays["uin"] = ArrayValue("uin", default=lambda n, idx: float((idx[0] * 7 + idx[1] * 3) % 5))
                out = ArrayValue("uout", default=lambda n, idx: 0.0)
                state.arrays["uout"] = out
                # reference conditional semantics: location-dependent guard v0 <= 2
                for i in range(1, 6):
                    for j in range(1, 5):
                        if i <= 2:
                            value = (
                                float((i * 7 + j * 3) % 5)
                                + 0.5 * float(((i - 1) * 7 + j * 3) % 5)
                                + 0.5 * float((i * 7 + (j - 1) * 3) % 5)
                            )
                        else:
                            value = float((i * 7 + j * 3) % 5)
                        out.store((i, j), value)
                built.append(state)
            return built

        return kernel, then_c, else_c, states, base.control_bits

    def test_location_dependent_guard_found(self):
        kernel, then_c, else_c, states, bits = self._conditional_setup()
        result = synthesize_conditional(kernel, then_c, else_c, LOCATION_DEPENDENT, states, bits)
        assert result.succeeded
        assert result.control_bits > bits

    def test_data_dependent_grammar_is_larger(self):
        kernel, then_c, else_c, states, bits = self._conditional_setup()
        data_bits = DATA_DEPENDENT.control_bits(kernel, bits)
        loc_bits = LOCATION_DEPENDENT.control_bits(kernel, bits)
        assert data_bits >= loc_bits > bits
