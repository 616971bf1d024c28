"""Work the proof tier shares across one kernel's candidates is exact.

One ``BoundedVerifier`` and one ``InductiveProver`` serve every CEGIS
candidate of a kernel, and memoise premise states, passing clause checks
and clause proofs across calls.  The oracle throughout is a fresh
verifier and prover per call, which start from nothing: every shared
result must equal the fresh one exactly, counters and counterexamples
included.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.pipeline import PipelineOptions
from repro.pipeline.stng import STNGPipeline
from repro.predicates.language import Postcondition
from repro.suites import all_cases
from repro.symbolic.expr import as_expr
from repro.vcgen.hoare import CandidateSummary
from repro.verification import inductive
from repro.verification.bounded import BoundedVerifier
from repro.verification.inductive import REASON_BUDGET, InductiveProver


def _record_lift(name: str):
    """Lift a suite kernel cold and record what CEGIS asks the proof tier.

    Returns ``(verifier, calls)``: the kernel's verifier and, in call
    order, ``(method, candidate, args, kwargs)`` for every ``verify``,
    ``proves_postcondition`` and top-level ``prove`` call.
    """
    case = next(c for c in all_cases() if c.name == name)
    calls = []
    verifiers = []
    in_filter = []
    verify = BoundedVerifier.verify
    proves_postcondition = InductiveProver.proves_postcondition
    prove = InductiveProver.prove

    def recording_verify(self, candidate):
        verifiers.append(self)
        calls.append(("verify", candidate, (), {}))
        return verify(self, candidate)

    def recording_filter(self, candidate):
        calls.append(("proves_postcondition", candidate, (), {}))
        in_filter.append(True)
        try:
            return proves_postcondition(self, candidate)
        finally:
            in_filter.pop()

    def recording_prove(self, candidate, *args, **kwargs):
        if not in_filter:
            calls.append(("prove", candidate, args, kwargs))
        return prove(self, candidate, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BoundedVerifier, "verify", recording_verify)
        patch.setattr(InductiveProver, "proves_postcondition", recording_filter)
        patch.setattr(InductiveProver, "prove", recording_prove)
        pipeline = STNGPipeline(PipelineOptions(autotune_budget=20, verifier_environments=1))
        (report,) = pipeline.lift_source(case.source, suite=case.suite, points=case.points)
    assert report.verification_level == "proved"
    assert verifiers and all(v is verifiers[0] for v in verifiers)
    return verifiers[0], calls


@pytest.fixture(scope="module", params=["grad0", "heat0"])
def recorded(request):
    return _record_lift(request.param)


def _fresh_verifier(verifier: BoundedVerifier, compiled: bool = True) -> BoundedVerifier:
    return BoundedVerifier(
        verifier.vc,
        environments=verifier.environments,
        seed=verifier.seed,
        compiled=compiled,
    )


def _state_repr(state):
    if state is None:
        return None
    cells = sorted((name, sorted(array.cells.items())) for name, array in state.arrays.items())
    return repr(sorted(state.scalars.items())), repr(cells)


def _verification(result):
    return (
        result.ok,
        result.failed_clause,
        result.states_checked,
        result.non_vacuous_checks,
        _state_repr(result.counterexample),
    )


def _replay(verifier, calls, shared: bool):
    """Answer ``calls`` with one verifier and prover, or fresh ones per call."""
    bounded, prover = _fresh_verifier(verifier), InductiveProver(verifier.vc)
    answers = []
    for method, candidate, args, kwargs in calls:
        if not shared:
            bounded, prover = _fresh_verifier(verifier), InductiveProver(verifier.vc)
        if method == "verify":
            answers.append(_verification(bounded.verify(candidate)))
        else:
            answers.append(getattr(prover, method)(candidate, *args, **kwargs))
    return answers


def test_shared_verifier_and_prover_answer_a_real_lift_like_fresh_ones(recorded, monkeypatch):
    verifier, calls = recorded
    assert {method for method, *_ in calls} == {"verify", "proves_postcondition", "prove"}
    searches = []
    run = inductive._ClauseProver.run

    def counting_run(self):
        searches.append(self.clause.name)
        return run(self)

    monkeypatch.setattr(inductive._ClauseProver, "run", counting_run)
    fresh = _replay(verifier, calls, shared=False)
    fresh_searches = len(searches)
    del searches[:]
    assert _replay(verifier, calls, shared=True) == fresh
    # The memo is exercised, not bypassed: clause proofs are reused.
    assert len(searches) < fresh_searches


def test_exhausted_budget_is_not_reused_at_a_larger_one(recorded):
    verifier, calls = recorded
    candidate = next(c for method, c, _a, _k in reversed(calls) if method == "prove")
    vc = verifier.vc
    shared = InductiveProver(vc)
    small = shared.prove(candidate, max_ops=100)
    assert small == InductiveProver(vc).prove(candidate, max_ops=100)
    assert any(proof.reason == REASON_BUDGET for proof in small.clauses)
    full = shared.prove(candidate)
    assert full == InductiveProver(vc).prove(candidate) and full.proved
    # A finished search answers a smaller budget only when it fitted in it.
    assert shared.prove(candidate, max_ops=100) == small
    fresh_full_first = InductiveProver(vc)
    assert fresh_full_first.prove(candidate) == full
    assert fresh_full_first.prove(candidate, max_ops=100) == small


def _wrong_post(candidate: CandidateSummary) -> CandidateSummary:
    """The candidate with its first postcondition cell tripled."""
    first = candidate.post.conjuncts[0]
    wrong = dataclasses.replace(
        first, out_eq=dataclasses.replace(first.out_eq, rhs=as_expr(3) * first.out_eq.rhs)
    )
    return dataclasses.replace(candidate, post=Postcondition((wrong,)))


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "interpreted"])
def test_a_failing_target_is_not_answered_by_a_passing_one(recorded, compiled):
    verifier, calls = recorded
    good = next(c for method, c, _a, _k in reversed(calls) if method == "prove")
    wrong = _wrong_post(good)
    expected = [
        _verification(_fresh_verifier(verifier, compiled).verify(c)) for c in (good, wrong)
    ]
    assert expected[0][0] and not expected[1][0]
    shared = _fresh_verifier(verifier, compiled)
    assert [_verification(shared.verify(c)) for c in (good, wrong)] == expected


def _rewrite(candidate: CandidateSummary, factor) -> CandidateSummary:
    """Invariant cells as ``(factor * rhs) / 2``, and a wrong postcondition.

    With ``factor`` 2 or 2.0 the invariants keep their meaning, so the
    first failing check is a postcondition one, on a premise state whose
    cells were instantiated from the rewritten invariants.
    """
    invariants = {
        loop_id: dataclasses.replace(
            inv,
            conjuncts=tuple(
                dataclasses.replace(
                    c,
                    out_eq=dataclasses.replace(
                        c.out_eq, rhs=(as_expr(factor) * c.out_eq.rhs) / as_expr(2)
                    ),
                )
                for c in inv.conjuncts
            ),
        )
        for loop_id, inv in candidate.invariants.items()
    }
    return _wrong_post(dataclasses.replace(candidate, invariants=invariants))


def test_int_and_float_constants_do_not_share_premise_states(recorded):
    verifier, calls = recorded
    good = next(c for method, c, _a, _k in reversed(calls) if method == "prove")
    as_int, as_float = _rewrite(good, 2), _rewrite(good, 2.0)
    expected = [_verification(_fresh_verifier(verifier).verify(c)) for c in (as_int, as_float)]
    # Equal verdicts, but the counterexamples carry ``2 *`` and ``2.0 *``.
    assert expected[0][:4] == expected[1][:4] and not expected[0][0]
    assert expected[0][4] != expected[1][4]
    shared = _fresh_verifier(verifier)
    assert [_verification(shared.verify(c)) for c in (as_int, as_float)] == expected


def test_mutating_a_counterexample_does_not_change_a_later_verify(recorded):
    verifier, calls = recorded
    wrong = _rewrite(next(c for method, c, _a, _k in calls if method == "prove"), 2)
    shared = _fresh_verifier(verifier)
    first = shared.verify(wrong)
    expected = _verification(first)
    first.counterexample.scalars["i"] = 99
    for array in first.counterexample.arrays.values():
        array.store((0, 0, 0), as_expr(7))
    assert _verification(shared.verify(wrong)) == expected
