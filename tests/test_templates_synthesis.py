"""Tests for template generation, CEGIS synthesis, strategies and verification."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import identify_candidates, parse_source
from repro.frontend.lowering import lower_candidate
from repro.ir import nodes as ir
from repro.compile.predcomp import _shape
from repro.predicates import format_postcondition
from repro.predicates.language import Bound, OutEq, Postcondition, QuantifiedConstraint
from repro.suites import all_cases, stencil_fortran
from repro.suites.base import cross_2d, cross_3d
from repro.symbolic import cell, const, sym
from repro.symbolic.interpreter import (
    SymbolicExecutionError,
    choose_integer_environments,
    run_inductive_executions,
    symbolic_execute,
)
from repro.synthesis import STRATEGIES, SynthesisFailure, build_problem, synthesize_kernel
from repro.synthesis.invariants import build_invariants
from repro.synthesis.skolem import partial_skolem_witnesses, skolem_radius
from repro.synthesis.space import earlier_nest_arrays, invariant_key
from repro.templates import Hole, anti_unify, generalize, generate_templates
from repro.templates.generator import TemplateGenerationError, index_hole_candidates
from repro.templates.writes import analyze_write_sites
from repro.vcgen import generate_vc
from repro.verification import BoundedVerifier

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


def running_kernel():
    return kernel_from_source(RUNNING_EXAMPLE)


class TestAntiUnification:
    def test_equal_expressions_unify_to_themselves(self):
        expr = cell("b", 1, 2) + cell("b", 2, 2)
        assert anti_unify(expr, expr) == expr

    def test_differing_indices_become_holes(self):
        left = cell("b", 5, 3) + cell("b", 6, 3)
        right = cell("b", 3, 2) + cell("b", 4, 2)
        template = anti_unify(left, right)
        holes = [n for n in template.walk() if isinstance(n, Hole)]
        assert len(holes) == 4
        assert all(h.kind == "index" for h in holes)

    def test_structure_mismatch_becomes_value_hole(self):
        result = generalize([cell("b", 1) + const(2), cell("b", 1) + sym("w")])
        holes = result.holes()
        assert len(holes) == 1 and holes[0].kind == "value"

    def test_hole_observations_recorded_per_input(self):
        result = generalize([cell("b", 5), cell("b", 3), cell("b", 9)])
        hole = result.holes()[0]
        assert result.hole_observations[hole.hole_id] == [const(5), const(3), const(9)]

    @given(st.lists(st.integers(-5, 5), min_size=2, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_template_generalizes_every_observation(self, offsets):
        """Substituting each hole column entry back yields the original expression."""
        exprs = [cell("b", off) + const(1) for off in offsets]
        result = generalize(exprs)
        from repro.symbolic.expr import substitute_map

        for position, expr in enumerate(exprs):
            mapping = {
                hole: result.hole_observations[hole.hole_id][position] for hole in result.holes()
            }
            assert substitute_map(result.template, mapping) == expr


class TestHoleCandidates:
    def test_offset_candidate_found(self):
        observed = [const(5), const(3)]
        coords = [{"v0": 6}, {"v0": 4}]
        candidates = index_hole_candidates(observed, coords, [{}, {}])
        assert any(repr(c) == "(v0 - 1)" for c in candidates)

    def test_env_variable_candidate_found(self):
        observed = [const(2), const(4)]
        coords = [{}, {}]
        envs = [{"imin": 2}, {"imin": 4}]
        assert sym("imin") in index_hole_candidates(observed, coords, envs)

    def test_constant_candidate_when_all_equal(self):
        candidates = index_hole_candidates([const(3), const(3)], [{}, {}], [{}, {}])
        assert const(3) in candidates

    def test_no_candidates_when_inconsistent(self):
        candidates = index_hole_candidates([const(1), const(7)], [{"v0": 0}, {"v0": 1}], [{}, {}])
        assert candidates == []


class TestSymbolicExecution:
    def test_environments_are_valid_and_distinct(self):
        envs = choose_integer_environments(running_kernel(), count=2, seed=3)
        assert len(envs) == 2 and envs[0] != envs[1]

    def test_observations_cover_modified_region(self):
        kernel = running_kernel()
        run = symbolic_execute(kernel, {"imin": 0, "imax": 3, "jmin": 0, "jmax": 1})
        observed = {obs.index for obs in run.observations_for("a")}
        assert observed == {(i, j) for i in range(1, 4) for j in range(0, 2)}

    def test_snapshots_recorded_per_loop(self):
        kernel = running_kernel()
        run = symbolic_execute(kernel, {"imin": 0, "imax": 2, "jmin": 0, "jmax": 1})
        assert len(run.snapshots_for("j")) == 2
        assert len(run.snapshots_for("i")) == 4

    @pytest.mark.parametrize("upper", [3, -1], ids=["runs", "never-runs"])
    def test_conditionals_are_refused_before_running(self, upper):
        store = ir.ArrayStore("a", (ir.VarRef("i"),), ir.RealConst(1.0))
        guarded = ir.If(ir.Compare(">", ir.VarRef("i"), ir.IntConst(0)), ir.Block([store]))
        kernel = ir.Kernel(
            name="guarded",
            params=["n", "a"],
            arrays=[ir.ArrayDecl("a", ((ir.IntConst(0), ir.VarRef("n")),))],
            scalars=[ir.ScalarDecl("n"), ir.ScalarDecl("i")],
            body=ir.Block([ir.Loop("i", ir.IntConst(0), ir.VarRef("n"), ir.Block([guarded]))]),
        )
        with pytest.raises(SymbolicExecutionError, match="kernels with conditionals are not executed"):
            symbolic_execute(kernel, {"n": upper})


class TestTemplateGeneration:
    def test_running_example_template_shape(self):
        kernel = running_kernel()
        templates = generate_templates(kernel, run_inductive_executions(kernel, seed=1))
        template = templates.template_for("a")
        holes = [h.hole for h in template.holes]
        assert len(holes) == 4
        assert template.space_size() == 1

    def test_scalar_equality_discovered(self):
        kernel = running_kernel()
        templates = generate_templates(kernel, run_inductive_executions(kernel, seed=1))
        eqs = {(eq.loop_id, eq.var) for eq in templates.scalar_equalities}
        assert ("i", "t") in eqs

    def test_write_site_analysis(self):
        sites = analyze_write_sites(running_kernel())
        assert sites[0].enclosing_loop_ids == ("j", "i")
        affine = sites[0].affine[0]
        assert affine is not None and affine.single_counter() == ("i", 1)

    def test_non_box_region_rejected(self):
        source = (
            "subroutine diag(n,a,b)\n"
            "real (kind=8), dimension(1:n,1:n) :: a, b\n"
            "do i = 2, n\n"
            "a(i,i) = b(i-1,i) + b(i,i)\n"
            "enddo\n"
            "end subroutine\n"
        )
        kernel = kernel_from_source(source)
        with pytest.raises(TemplateGenerationError):
            generate_templates(kernel, run_inductive_executions(kernel, seed=0))


class TestSynthesis:
    def test_running_example_matches_figure1(self):
        result = synthesize_kernel(running_kernel(), seed=1)
        text = format_postcondition(result.post)
        assert "a[v0, v1]" in text
        assert "b[(v0 - 1), v1]" in text and "b[v0, v1]" in text
        assert result.control_bits > 0
        assert result.postcondition_ast_nodes > 10
        inv_i = result.candidate.invariants["i"]
        assert any(eq.var == "t" for eq in inv_i.equalities)

    def test_simple_3d_kernel(self):
        source = stencil_fortran("heat", 3, cross_3d(weight=1.0), output_array="unew", input_arrays=["uold"])
        result = synthesize_kernel(kernel_from_source(source), seed=2)
        assert result.post.conjuncts[0].out_eq.array == "unew"
        assert len(result.candidate.invariants) == 3

    def test_coefficient_stencil(self):
        source = stencil_fortran("wavg", 2, [((0, 0), 0.5), ((-1, 0), 0.25), ((1, 0), 0.25)])
        result = synthesize_kernel(kernel_from_source(source), seed=2)
        assert "0.5" in format_postcondition(result.post)

    def test_multi_input_kernel(self):
        source = stencil_fortran("two_in", 2, [((0, 0), 1.0), ((-1, 0), 1.0)], input_arrays=["p", "q"])
        result = synthesize_kernel(kernel_from_source(source), seed=2)
        arrays = {node.array for node in result.post.conjuncts[0].out_eq.rhs.walk() if hasattr(node, "array")}
        assert arrays == {"p", "q"}

    def test_scalar_parameter_kernel(self):
        source = stencil_fortran("scaled", 2, [((0, 0), 1.0), ((0, -1), 1.0)], extra_scalar=("dt", 0.0))
        result = synthesize_kernel(kernel_from_source(source), seed=2)
        assert "dt" in repr(result.post.conjuncts[0].out_eq.rhs)

    def test_unrolled_kernel_reported_untranslatable(self):
        # Stride-2 unrolled loops write a region whose upper edge depends on
        # the parity of the extent; the restricted bound grammar cannot
        # express that, so the prototype must fail cleanly rather than emit
        # an unsound summary (the paper's prototype has the same limitation).
        source = stencil_fortran("unrolled", 2, [((0, 0), 1.0), ((-1, 0), 1.0)], unroll_innermost=True)
        with pytest.raises(SynthesisFailure):
            synthesize_kernel(kernel_from_source(source), seed=3)

    def test_tiled_kernel(self):
        source = stencil_fortran("tiled", 2, cross_2d(radius=1, weight=0.25), tile={1: 4})
        result = synthesize_kernel(kernel_from_source(source), seed=3)
        # three loops: tile loop, intra-tile loop, innermost loop
        assert len(result.candidate.invariants) == 3

    def test_failure_reported_for_data_dependent_output(self):
        source = (
            "subroutine gather(n,a,b)\n"
            "real (kind=8), dimension(1:n) :: a, b\n"
            "do i = 2, n\n"
            "a(b(i)) = b(i-1)\n"
            "enddo\n"
            "end subroutine\n"
        )
        # indirect store index: candidate identification rejects it outright,
        # and even when forced through lowering, synthesis must fail rather
        # than produce an unsound summary.
        from repro.frontend.lowering import lower_loop_nest

        assert not identify_candidates(parse_source(source)).candidates
        kernel = lower_loop_nest(parse_source(source).procedures[0])
        with pytest.raises(SynthesisFailure):
            synthesize_kernel(kernel, seed=0)

    def test_strategy_list_contains_paper_strategies(self):
        names = {s.name for s in STRATEGIES}
        assert {"default", "cross", "box", "perfect_nest"} <= names

    def test_control_bits_grow_with_dimensionality(self):
        k2 = kernel_from_source(stencil_fortran("s2", 2, cross_2d(radius=1)))
        k3 = kernel_from_source(stencil_fortran("s3", 3, cross_3d()))
        r2 = synthesize_kernel(k2, seed=1)
        r3 = synthesize_kernel(k3, seed=1)
        assert r3.control_bits > r2.control_bits
        assert r3.postcondition_ast_nodes > r2.postcondition_ast_nodes


class TestInvariantSharing:
    """Candidates share invariants exactly when ``build_invariants`` reads the same."""

    TWO_NESTS = (
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

    @staticmethod
    def _shapes(invariants):
        return {loop_id: _shape(invariant) for loop_id, invariant in invariants.items()}

    def test_key_holds_the_earlier_nest_but_not_the_last_nest_bounds(self):
        kernel = kernel_from_source(self.TWO_NESTS)
        vc, sites = generate_vc(kernel), analyze_write_sites(kernel)
        earlier = earlier_nest_arrays(sites)
        assert earlier == {"a"}

        v0, ilo = sym("v0"), sym("ilo")
        a_rhs, b_rhs = cell("b", v0) + cell("b", v0 - 1), cell("a", v0)

        def post(a_lower, b_lower):
            return Postcondition(tuple(
                QuantifiedConstraint((Bound("v0", lower, sym("ihi")),), OutEq(array, (v0,), rhs))
                for array, lower, rhs in (("a", a_lower, a_rhs), ("b", b_lower, b_rhs))
            ))

        def built(candidate):
            return self._shapes(build_invariants(vc, candidate, sites))

        base = post(ilo + 1, ilo)
        earlier_differs = post(ilo + 2, ilo)
        last_differs = post(ilo + 1, ilo + 1)
        key = invariant_key(base, earlier, 0)
        assert invariant_key(earlier_differs, earlier, 0) != key
        assert built(earlier_differs) != built(base)
        assert invariant_key(last_differs, earlier, 0) == key
        assert built(last_differs) == built(base)
        assert invariant_key(base, earlier, 1) != key

    @pytest.mark.parametrize("name", ["grad0", "heat27u"])
    def test_shared_invariants_equal_a_fresh_build(self, name):
        case = next(c for c in all_cases() if c.name == name)
        kernel = kernel_from_source(case.source)
        templates = generate_templates(kernel, run_inductive_executions(kernel, trials=2, seed=0))
        space = build_problem(kernel, templates).space
        choices = space._equality_choices()
        candidates = list(space.enumerate())
        for position, candidate in enumerate(candidates):
            fresh = build_invariants(
                space.vc,
                candidate.post,
                templates.write_sites,
                scalar_equalities=choices[position % len(choices)],
            )
            assert self._shapes(candidate.invariants) == self._shapes(fresh)
        assert len({id(c.invariants) for c in candidates}) < len(candidates) // 10


class TestVerificationBackstop:
    def test_verifier_rejects_wrong_offset(self):
        kernel = running_kernel()
        result = synthesize_kernel(kernel, seed=1)
        from dataclasses import replace
        from repro.predicates import OutEq, Postcondition, QuantifiedConstraint

        good = result.post.conjuncts[0]
        wrong_rhs = cell("b", sym("v0"), sym("v1")) + cell("b", sym("v0"), sym("v1"))
        bad_post = Postcondition((QuantifiedConstraint(good.bounds, OutEq("a", good.out_eq.indices, wrong_rhs)),))
        from repro.vcgen import CandidateSummary

        bad = CandidateSummary(post=bad_post, invariants=result.candidate.invariants)
        verifier = BoundedVerifier(generate_vc(kernel), seed=5)
        outcome = verifier.verify(bad)
        assert not outcome.ok

    def test_quick_check_finds_concrete_counterexample(self):
        kernel = running_kernel()
        result = synthesize_kernel(kernel, seed=1)
        from repro.predicates import OutEq, Postcondition, QuantifiedConstraint
        from repro.vcgen import CandidateSummary

        good = result.post.conjuncts[0]
        wrong_rhs = cell("b", sym("v0") + 1, sym("v1")) + cell("b", sym("v0"), sym("v1"))
        bad_post = Postcondition((QuantifiedConstraint(good.bounds, OutEq("a", good.out_eq.indices, wrong_rhs)),))
        bad = CandidateSummary(post=bad_post, invariants=result.candidate.invariants)
        verifier = BoundedVerifier(generate_vc(kernel), seed=5)
        assert verifier.quick_check(bad, samples=4) is not None

    def test_verification_counts_non_vacuous_checks(self):
        kernel = running_kernel()
        result = synthesize_kernel(kernel, seed=1)
        assert result.verification.non_vacuous_checks > 0


class TestSkolem:
    def test_witness_offsets_of_running_example(self):
        result = synthesize_kernel(running_kernel(), seed=1)
        witnesses = partial_skolem_witnesses(result.post, result.candidate.invariants)
        b_witness = next(w for w in witnesses if w.array == "b")
        assert (0, 0) in b_witness.offsets and (-1, 0) in b_witness.offsets

    def test_radius_of_running_example_is_one(self):
        result = synthesize_kernel(running_kernel(), seed=1)
        assert skolem_radius(result.post, result.candidate.invariants) == 1
