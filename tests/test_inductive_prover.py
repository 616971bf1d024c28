"""The Tier-3 unbounded inductive prover and its wiring.

Covers the proof rules clause by clause, the linear-arithmetic engine,
the certificate artifact and its replay revalidation, the three-tier
verdict, agreement between the inductive and bounded verdicts, and the
prover's effect on the CEGIS search (prefer provable candidates, fall
back without losing translations).
"""

from __future__ import annotations

import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import presburger
from repro.analysis.presburger import LinearConstraint
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
from repro.symbolic.simplify import clear_simplify_cache, simplify
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


class _Spent(Exception):
    pass


class _Allowance:
    """A ``charge`` that counts its ticks and raises on the ``limit``-th."""

    def __init__(self, limit=None):
        self.limit = limit
        self.ticks = 0

    def __call__(self):
        self.ticks += 1
        if self.ticks == self.limit:
            raise _Spent


class TestVerdictMemo:
    """The process-wide FM verdict memo answers like an engine without one."""

    @pytest.fixture(autouse=True)
    def memo(self):
        clear_simplify_cache()
        yield presburger._VERDICTS
        clear_simplify_cache()

    def _tightening(self):
        # 0 < x < 1: refuted only when x is an integer symbol.
        x = sym("x")
        return [_linearize_ge0(x, True), _linearize_ge0(simplify(as_expr(1) - x), True)]

    def _alignment(self):
        kt, klo, khi, m = sym("kt"), sym("klo"), sym("khi"), sym("it_kt")
        exprs = [khi - klo - 2, m, kt - klo - 1 - as_expr(4) * m, as_expr(4) * m + klo - kt + 1,
                 klo + 4 - kt]
        return [_linearize_ge0(simplify(e), False) for e in exprs] + [
            _linearize_ge0(simplify(kt - khi + 1), True)
        ]

    def test_entries_are_not_shared_across_what_the_search_can_tell_apart(self, memo):
        x, y = sym("x"), sym("y")

        def rows(coeff):
            # coeff * x - y - 1 >= 0 and y - x >= 0, built without simplify.
            return [
                LinearConstraint({"x": (x, coeff), "y": (y, Fraction(-1))}, Fraction(-1), False),
                LinearConstraint({"x": (x, Fraction(-1)), "y": (y, Fraction(1))}, Fraction(0), False),
            ]

        variants = [
            (set(), rows(Fraction(2)), {}),
            (set(), rows(2.0), {}),
            ({"x"}, rows(Fraction(2)), {}),
            (set(), rows(Fraction(2))[::-1], {}),
            (set(), rows(Fraction(2)), {"focus_last": True}),
            (set(), rows(Fraction(2)), {"max_constraints": 8}),
        ]
        for count, (ints, lins, caps) in enumerate(variants, 1):
            _FMEngine(ints, _Allowance()).infeasible(lins, **caps)
            assert len(memo) == count
        for ints, lins, caps in variants:
            _FMEngine(ints, _Allowance()).infeasible(lins, **caps)
        assert len(memo) == len(variants)

    def test_strict_integer_tightening_in_either_order_with_a_warm_memo(self):
        # The same row objects serve both integer sets, as the prover's
        # ``_lin_cache`` serves rows to an engine whose ``int_syms`` grows.
        for order in (({"x"}, set()), (set(), {"x"})):
            clear_simplify_cache()
            lins = self._tightening()
            for _ in range(2):
                for ints in order:
                    assert _FMEngine(ints, _Allowance()).infeasible(lins) is bool(ints)

    def test_an_exhausted_search_records_nothing_and_a_hit_runs_out_where_it_did(self, memo):
        ints = {"kt", "klo", "khi", "it_kt"}
        full = _Allowance()
        assert _FMEngine(ints, full).infeasible(self._alignment())
        assert full.ticks > 2
        for limit in range(1, full.ticks + 1):
            clear_simplify_cache()
            miss = _Allowance(limit)
            with pytest.raises(_Spent):
                _FMEngine(ints, miss).infeasible(self._alignment())
            assert not memo
            _FMEngine(ints, _Allowance()).infeasible(self._alignment())
            hit = _Allowance(limit)
            with pytest.raises(_Spent):
                _FMEngine(ints, hit).infeasible(self._alignment())
            assert miss.ticks == hit.ticks == limit
        hit = _Allowance()
        assert _FMEngine(ints, hit).infeasible(self._alignment())
        assert hit.ticks == full.ticks and len(memo) == 1

    def test_clear_simplify_cache_empties_the_memo(self, memo):
        _FMEngine({"x"}, _Allowance()).infeasible(self._tightening())
        assert memo and presburger._ROW_IDS
        clear_simplify_cache()
        assert not memo and not presburger._ROW_IDS

    def test_threads_sharing_the_memo_get_the_answers_of_a_fresh_search(self, monkeypatch):
        ints = {"kt", "klo", "khi", "it_kt"}
        queries = [
            (ints, self._alignment, {}),
            (ints, self._alignment, {"focus_last": True}),
            (set(), self._alignment, {}),
            ({"x"}, self._tightening, {}),
            (set(), self._tightening, {}),
        ]
        expected = []
        for query_ints, rows, caps in queries:
            clear_simplify_cache()
            charge = _Allowance()
            expected.append((_FMEngine(query_ints, charge).infeasible(rows(), **caps), charge.ticks))
        clear_simplify_cache()
        # A cap below the number of distinct queries clears the table often.
        monkeypatch.setattr(presburger, "_VERDICTS_MAX", 2)
        wrong = []

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(150):
                index = rng.randrange(len(queries))
                query_ints, rows, caps = queries[index]
                charge = _Allowance()
                verdict = _FMEngine(query_ints, charge).infeasible(rows(), **caps)
                if (verdict, charge.ticks) != expected[index]:
                    wrong.append((index, verdict, charge.ticks))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_the_cap_clears_the_whole_table(self, memo, monkeypatch):
        monkeypatch.setattr(presburger, "_VERDICTS_MAX", 3)
        queries = [({"x"}, {}), (set(), {}), ({"x"}, {"focus_last": True})]
        for ints, caps in queries:
            _FMEngine(ints, _Allowance()).infeasible(self._tightening(), **caps)
        assert len(memo) == 3
        _FMEngine(set(), _Allowance()).infeasible(self._tightening(), focus_last=True)
        assert len(memo) == 1
        _FMEngine({"x"}, _Allowance()).infeasible(self._tightening())
        assert len(memo) == 2


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
