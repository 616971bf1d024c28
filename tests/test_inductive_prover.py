"""The Tier-3 unbounded inductive prover and its wiring.

Covers the proof rules clause by clause, the linear-arithmetic engine,
the certificate artifact and its replay revalidation, the three-tier
verdict, agreement between the inductive and bounded verdicts, and the
prover's effect on the CEGIS search (prefer provable candidates, fall
back without losing translations).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import identify_candidates, parse_source
from repro.frontend.lowering import lower_candidate
from repro.predicates.language import (
    Bound,
    OutEq,
    Postcondition,
    QuantifiedConstraint,
)
from repro.suites.base import pair_1d_2d, stencil_fortran
from repro.symbolic.expr import as_expr, cell, sym
from repro.symbolic.simplify import simplify
from repro.synthesis.cegis import synthesize_kernel
from repro.vcgen.hoare import CandidateSummary, generate_vc
from repro.verification.bounded import BoundedVerifier
from repro.verification.inductive import (
    INDUCTIVE_PROVER_VERSION,
    InductiveProver,
    Verdict,
    _FMEngine,
    _linearize_ge0,
    certificate_from_json,
    certificate_to_json,
    make_certificate,
    revalidate_certificate,
)

TWO_POINT = """
procedure sten(imin,imax,jmin,jmax,a,b)
real (kind=8), dimension(imin:imax,jmin:jmax) :: a
real (kind=8), dimension(imin:imax,jmin:jmax) :: b
do j=jmin,jmax
do i=imin+1,imax
a(i,j) = b(i,j) + b(i-1,j)
enddo
enddo
end procedure
"""

ROTATING = stencil_fortran("rot", 2, pair_1d_2d(), use_temporary=True)
TILED_1D = stencil_fortran("tiled1d", 1, [((0,), 1.0), ((-1,), 0.5)], tile={0: 4})


# Loop ``it`` of TILED_1D steps by 4: its completed tiles end at ``it - 4``.
_EXACT_TILE_BOUND = "(ilo + 1) <= w_it < (it - 3)"


def _kernel(source: str):
    return lower_candidate(identify_candidates(parse_source(source)).candidates[0])


def _bounds_of(invariant):
    return [bound.describe() for conjunct in invariant.conjuncts for bound in conjunct.bounds]


@pytest.fixture(scope="module")
def two_point_setup():
    kernel = _kernel(TWO_POINT)
    result = synthesize_kernel(kernel, seed=1, verifier_environments=1, inductive=True)
    vc = generate_vc(kernel)
    return kernel, vc, result


# ---------------------------------------------------------------------------
# Linear arithmetic engine
# ---------------------------------------------------------------------------


class TestLinearEngine:
    def _fm(self, ints):
        return _FMEngine(set(ints), lambda: None)

    def _lin(self, expr, strict=False):
        return _linearize_ge0(simplify(expr), strict)

    def test_simple_entailment(self):
        # x >= 2 and y >= x entail y >= 2 (negation infeasible).
        fm = self._fm({"x", "y"})
        x, y = sym("x"), sym("y")
        gamma = [self._lin(x - 2), self._lin(y - x)]
        assert fm.infeasible(gamma + [self._lin(2 - y, strict=True)])

    def test_feasible_system_is_not_refuted(self):
        fm = self._fm({"x", "y"})
        x, y = sym("x"), sym("y")
        assert not fm.infeasible([self._lin(x - 2), self._lin(y - x), self._lin(y - 2)])

    def test_strict_integer_tightening(self):
        # 0 < x < 1 has rational solutions but no integer ones; the
        # tightening only applies when the atom is known integral.
        x = sym("x")
        constraints = [self._lin(x, strict=True), self._lin(as_expr(1) - x, strict=True)]
        assert self._fm({"x"}).infeasible(constraints)
        assert not self._fm(set()).infeasible(constraints)

    def test_gcd_tightening_detects_integer_gaps(self):
        # 4m <= 3 and m >= 1 has rational solutions but no integer one.
        fm = self._fm({"it_m"})
        m = sym("it_m")
        assert fm.infeasible([self._lin(3 - as_expr(4) * m), self._lin(m - 1)])

    def test_alignment_contradiction(self):
        # kt = klo+1+4m, m >= 0, kt >= khi, khi >= klo+2, kt <= klo+4:
        # rationally feasible (m = 1/2), integrally infeasible.
        fm = self._fm({"kt", "klo", "khi", "it_kt"})
        kt, klo, khi, m = sym("kt"), sym("klo"), sym("khi"), sym("it_kt")
        gamma = [
            self._lin(khi - klo - 2),
            self._lin(m),
            self._lin(kt - klo - 1 - as_expr(4) * m),
            self._lin(as_expr(4) * m + klo - kt + 1),
            self._lin(kt - khi + 1, strict=True),
            self._lin(klo + 4 - kt),
        ]
        assert fm.infeasible(gamma)
        assert fm.infeasible(gamma, focus_last=True)


# ---------------------------------------------------------------------------
# Proof rules on real kernels
# ---------------------------------------------------------------------------


class TestProofRules:
    def test_running_example_fully_proves(self, two_point_setup):
        kernel, vc, result = two_point_setup
        outcome = InductiveProver(vc).prove(result.candidate)
        assert outcome.verdict is Verdict.PROVED
        assert all(c.proved for c in outcome.clauses)
        # Every proof-rule family is exercised: initiation, preservation
        # (the straightline body clause), inner-loop exit and the final
        # postcondition clause.
        names = {c.clause for c in outcome.clauses}
        assert {"j.init", "j.i.init", "j.i.straightline", "j.after.straightline"} <= names

    def test_rotating_temporary_scalar_equalities_prove(self):
        kernel = _kernel(ROTATING)
        result = synthesize_kernel(kernel, seed=1, verifier_environments=1, inductive=True)
        assert result.proved
        # The rotating temporary requires at least one scalar equality in
        # the inner invariant; without the equality rules the body clause
        # could not be discharged.
        assert any(inv.equalities for inv in result.candidate.invariants.values())

    def test_prover_steers_search_away_from_vacuous_bounds(self):
        # Without the prover, CEGIS settles for a postcondition whose
        # quantifier bounds are only right on the sampled grid sizes
        # (here: a v1 lower bound using ilo instead of jlo).  With the
        # prover the search continues to the universally correct bounds.
        kernel = _kernel(ROTATING)
        bounded_only = synthesize_kernel(kernel, seed=1, verifier_environments=1)
        proved = synthesize_kernel(kernel, seed=1, verifier_environments=1, inductive=True)
        bad = [b.describe() for c in bounded_only.post.conjuncts for b in c.bounds]
        good = [b.describe() for c in proved.post.conjuncts for b in c.bounds]
        assert "(ilo + 1) <= v1 <= (jhi - 1)" in bad
        assert "(jlo + 1) <= v1 <= (jhi - 1)" in good

    @pytest.mark.slow
    def test_strided_tile_loop_proves_with_exact_slabs(self):
        # The hand-tiled kernel: a strided outer loop with min() inner
        # bounds.  Exercises the exact strided slab bounds, the counter
        # alignment facts, min/max case analysis and the boundary
        # witness search.
        kernel = _kernel(TILED_1D)
        result = synthesize_kernel(kernel, seed=0, verifier_environments=1, inductive=True)
        assert result.proved
        assert _EXACT_TILE_BOUND in _bounds_of(result.candidate.invariants["it"])

    def test_strided_tile_loop_takes_exact_slabs_without_the_prover(self):
        # One invariant form: the prover-off lift carries the same exact
        # completed-region bound for the stride-4 tile loop, never the
        # loose ``w_it < it``, which claims tiles that have not run yet.
        result = synthesize_kernel(_kernel(TILED_1D), seed=0, verifier_environments=1)
        assert result.certificate is None
        bounds = _bounds_of(result.candidate.invariants["it"])
        assert _EXACT_TILE_BOUND in bounds
        assert "(ilo + 1) <= w_it < it" not in bounds

    def test_wrong_candidate_is_never_proved(self, two_point_setup):
        kernel, vc, result = two_point_setup
        prover = InductiveProver(vc)
        good = result.candidate
        # Perturb the postcondition right-hand side: b[i,j] + 2*b[i-1,j].
        conjunct = good.post.conjuncts[0]
        wrong_rhs = simplify(conjunct.out_eq.rhs + cell("b", sym("v0") - 1, sym("v1")))
        wrong = CandidateSummary(
            post=Postcondition(
                (
                    QuantifiedConstraint(
                        bounds=conjunct.bounds,
                        out_eq=OutEq("a", conjunct.out_eq.indices, wrong_rhs),
                    ),
                )
            ),
            invariants=good.invariants,
        )
        outcome = prover.prove(wrong)
        assert outcome.verdict is not Verdict.PROVED

    def test_bounded_and_inductive_tiers_accept_the_synthesized_summary(self, two_point_setup):
        kernel, vc, result = two_point_setup
        bounded = BoundedVerifier(vc, num_environments=1, seed=1).verify(result.candidate)
        outcome = InductiveProver(vc).prove(result.candidate)
        assert bounded.ok and outcome.verdict is Verdict.PROVED


# ---------------------------------------------------------------------------
# Agreement between the tiers (the prover must never out-claim tier 2)
# ---------------------------------------------------------------------------


_AGREEMENT_SETUP: dict = {}


def _agreement_setup():
    """Build the shared kernel/verifier/prover once across hypothesis examples."""
    if not _AGREEMENT_SETUP:
        kernel = _kernel(TWO_POINT)
        result = synthesize_kernel(kernel, seed=1, verifier_environments=1, inductive=True)
        vc = generate_vc(kernel)
        _AGREEMENT_SETUP.update(
            kernel=kernel,
            result=result,
            verifier=BoundedVerifier(vc, num_environments=1, seed=1),
            prover=InductiveProver(vc),
        )
    return _AGREEMENT_SETUP


class TestTierAgreement:
    @settings(max_examples=15, deadline=None)
    @given(
        di=st.integers(min_value=-2, max_value=2),
        dj=st.integers(min_value=-2, max_value=2),
        scale=st.sampled_from([1, 2, 3]),
    )
    def test_inductive_never_proves_what_bounded_refutes(self, di, dj, scale):
        """Property: on arbitrary perturbations of a verified summary the
        prover and the bounded verifier never disagree in the dangerous
        direction — anything the bounded tier refutes stays unproved."""
        setup = _agreement_setup()
        result = setup["result"]
        verifier = setup["verifier"]
        prover = setup["prover"]

        good = result.candidate
        conjunct = good.post.conjuncts[0]
        rhs = simplify(
            as_expr(scale) * cell("b", sym("v0") + di, sym("v1") + dj)
            + cell("b", sym("v0") - 1, sym("v1"))
        )
        candidate = CandidateSummary(
            post=Postcondition(
                (
                    QuantifiedConstraint(
                        bounds=conjunct.bounds,
                        out_eq=OutEq("a", conjunct.out_eq.indices, rhs),
                    ),
                )
            ),
            invariants=good.invariants,
        )
        bounded = verifier.verify(candidate)
        outcome = prover.prove(candidate)
        if not bounded.ok:
            assert outcome.verdict is not Verdict.PROVED
        if di == 0 and dj == 0 and scale == 1:
            # The unperturbed candidate must stay proved and bounded-ok.
            assert bounded.ok and outcome.proved

    def test_table1_cross_section_agreement(self):
        """Both tiers accept the synthesized summary for a cross-section
        of suite kernels, and the prover reaches Proved on all of them."""
        from repro.suites.registry import representative_cases

        cases = [c for c in representative_cases(per_suite=1) if c.expect_translated]
        # The 5-D TERRA kernel alone costs ~30s to prove; the quick
        # cross-section sticks to the 2-D/3-D representatives (TERRA is
        # covered by the benchmark harness).
        cases = [c for c in cases if c.suite != "TERRA"]
        for case in cases[:3]:
            kernel = _kernel(case.source)
            result = synthesize_kernel(
                kernel, seed=0, verifier_environments=1, inductive=True
            )
            vc = generate_vc(kernel)
            assert BoundedVerifier(vc, num_environments=1, seed=0).verify(
                result.candidate
            ).ok, case.name
            assert result.proved, case.name


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


class TestCertificates:
    def test_round_trip_and_revalidation(self, two_point_setup):
        kernel, vc, result = two_point_setup
        certificate = result.certificate
        assert certificate is not None and certificate.proved
        assert certificate.prover_version == INDUCTIVE_PROVER_VERSION
        decoded = certificate_from_json(certificate_to_json(certificate))
        assert decoded == certificate
        assert revalidate_certificate(decoded, kernel, result.candidate)

    def test_revalidation_rejects_wrong_candidate(self, two_point_setup):
        kernel, vc, result = two_point_setup
        certificate = result.certificate
        conjunct = result.candidate.post.conjuncts[0]
        other = CandidateSummary(
            post=Postcondition(
                (
                    QuantifiedConstraint(
                        bounds=conjunct.bounds,
                        out_eq=OutEq(
                            "a",
                            conjunct.out_eq.indices,
                            simplify(conjunct.out_eq.rhs + as_expr(1)),
                        ),
                    ),
                )
            ),
            invariants=result.candidate.invariants,
        )
        assert not revalidate_certificate(certificate, kernel, other)

    def test_revalidation_rejects_forged_proved_label(self, two_point_setup):
        kernel, vc, result = two_point_setup
        prover = InductiveProver(vc)
        # A candidate the prover cannot prove, wrapped in a certificate
        # that *claims* proved: digests match, so only the re-proof can
        # catch the forgery.
        conjunct = result.candidate.post.conjuncts[0]
        unprovable = CandidateSummary(
            post=Postcondition(
                (
                    QuantifiedConstraint(
                        bounds=conjunct.bounds,
                        out_eq=OutEq(
                            "a",
                            conjunct.out_eq.indices,
                            simplify(conjunct.out_eq.rhs + cell("b", sym("v0"), sym("v1"))),
                        ),
                    ),
                )
            ),
            invariants=result.candidate.invariants,
        )
        outcome = prover.prove(unprovable)
        forged = make_certificate(kernel, unprovable, outcome)
        assert not forged.proved
        forged.proved = True
        assert not revalidate_certificate(forged, kernel, unprovable)

    def test_partial_outcomes_never_promote_to_proved(self, two_point_setup):
        kernel, vc, result = two_point_setup
        prover = InductiveProver(vc)
        outcome = prover.prove(
            result.candidate, only=lambda c: c.target.kind == "post"
        )
        assert outcome.proved  # the selected clauses proved...
        certificate = make_certificate(kernel, result.candidate, outcome)
        assert not certificate.proved  # ...but skipped clauses block the label
