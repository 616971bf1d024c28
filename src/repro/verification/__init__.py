"""Checking and verification of candidate summaries.

This package is the reproduction's substitute for the Z3 step of the
paper.  It provides a hierarchy of checking procedures mirroring §3.1:

* **random search** — execute the kernel on random concrete states
  (floats modelled in GF(7), §4.4) and test every VC clause on the
  states reachable at loop-iteration boundaries; very fast at finding
  counterexamples for wrong candidates;
* **bounded symbolic verification** — for small grid-size environments,
  enumerate all loop-counter combinations, construct for each clause
  the most general symbolic state satisfying its premises (arrays left
  as fresh symbols wherever the premises do not pin them) and check the
  conclusion symbolically over the reals;
* **unbounded inductive proof** (Tier 3, :mod:`repro.verification.inductive`)
  — discharge the VC clauses symbolically over the integers with no
  concrete grid sizes at all, so a ``Proved`` verdict holds for every
  array size.  Summaries the prover cannot establish stay at the
  bounded level and are reported as such.

Because the quantifiers of the predicate language only range over array
indices, fixing the integer inputs makes the quantifier domain finite;
the bounded symbolic check is therefore exact for each grid size it
explores, and "bounded" only in which grid sizes are explored.  The
inductive tier removes that last restriction for the summaries it can
prove.
"""

from repro.verification.bounded import (
    BoundedVerifier,
    VerificationResult,
    make_concrete_state,
)
from repro.verification.inductive import (
    InductiveOutcome,
    InductiveProver,
    ProofCertificate,
    Verdict,
)

__all__ = [
    "BoundedVerifier",
    "VerificationResult",
    "make_concrete_state",
    "InductiveOutcome",
    "InductiveProver",
    "ProofCertificate",
    "Verdict",
]
