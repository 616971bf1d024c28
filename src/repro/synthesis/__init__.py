"""Constraint-based synthesis of postconditions and invariants (§3, §4).

This package is the reproduction's substitute for SKETCH: it turns the
template spaces of :mod:`repro.templates` into an explicit candidate
space (with a SKETCH-style control-bit accounting), runs CEGIS —
checking candidates against a growing set of concrete states, finding
counterexamples by random and bounded search — and hands surviving
candidates to the full verifier.
"""

from repro.synthesis.invariants import build_invariants
from repro.synthesis.space import CandidateSpace, SynthesisProblem, build_problem
from repro.synthesis.cegis import (
    CEGISResult,
    SynthesisFailure,
    SynthesisTimeout,
    synthesis_config,
    synthesize_kernel,
    synthesize_kernel_uncached,
)
from repro.semantics.floatmodel import Mod7
from repro.synthesis.skolem import partial_skolem_witnesses
from repro.synthesis.strategies import STRATEGIES, Strategy

__all__ = [
    "CEGISResult",
    "CandidateSpace",
    "Mod7",
    "STRATEGIES",
    "Strategy",
    "SynthesisFailure",
    "SynthesisProblem",
    "SynthesisTimeout",
    "build_invariants",
    "build_problem",
    "partial_skolem_witnesses",
    "synthesis_config",
    "synthesize_kernel",
    "synthesize_kernel_uncached",
]
