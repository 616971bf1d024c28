"""The CEGIS decisions of five cheap kernels are pinned.

A change that only makes lifting faster must not change which candidate
wins, how many candidates, counterexamples, bounded checks and proof
attempts it took, or the verification level.  The values below were
recorded under the benchmark's lift-corpus options; each kernel lifts
cold in under a second.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.pipeline import PipelineOptions
from repro.pipeline.stng import STNGPipeline
from repro.suites import all_cases
from repro.verification.inductive import candidate_digest

# The first four pinned kernels take the same path through CEGIS.
STATS = dict(
    candidates_tried=18,
    examples_used=1,
    counterexamples_found=1,
    verifier_calls=2,
    states_checked=168,
    proof_attempts=2,
)

# ickl8 pins the order of the checks: once a bounded-verified fallback
# exists, the post filter runs before quick_check and rejects the one
# candidate whose quick_check would have found a counterexample.
ICKL8_STATS = dict(
    candidates_tried=12,
    examples_used=0,
    counterexamples_found=0,
    verifier_calls=2,
    states_checked=136,
    proof_attempts=2,
)

DIGESTS = {
    "grad0": "0bd54d37bb40da2f86bfbfcb3cfda62ad7ad703425a9f6a2c60d5a82532547a6",
    "heat0": "4f68d39bdf1645197230cb404d8cab6169e40afac366311da9cd6149b9d04fea",
    "div0": "e8e0ec60c89351e39a2b7c7fa97d47f28d82d5d090a7d5defdd0f437388980ca",
    "mgl18_interp": "d459af01133d1fe185117ecea22b78f9bc97aae2c71c9119f1e90b2ad029536c",
    "ickl8": "a9e740e5222e7002ba832279da8e3ebf7fb0d2eb82699cc8c1efde587c91b77c",
}

PINNED_STATS = {name: ICKL8_STATS if name == "ickl8" else STATS for name in DIGESTS}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_cegis_decisions_are_pinned(name):
    case = next(c for c in all_cases() if c.name == name)
    pipeline = STNGPipeline(PipelineOptions(autotune_budget=20, verifier_environments=1))
    (report,) = pipeline.lift_source(case.source, suite=case.suite, points=case.points)
    lift = report.lift
    assert lift.strategy == "perfect_nest"
    assert asdict(lift.stats) == PINNED_STATS[name]
    assert report.verification_level == "proved"
    assert candidate_digest(lift.candidate) == DIGESTS[name]
