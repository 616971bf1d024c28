"""The CEGIS driver (§3, §4.5).

For each kernel the driver builds several synthesis problems (one per
applicable strategy) and solves them sequentially in priority order;
the first strategy that verifies wins.  The paper ran the strategies
in parallel on a cluster; here parallelism is over kernels instead
(:class:`~repro.pipeline.scheduler.BatchScheduler`).

A content-addressed cache (:mod:`repro.cache`) can also be injected:
on a hit the verified summary (or the recorded definitive failure) is
replayed without synthesizing at all.

Solving one problem is classic CEGIS:

1. enumerate candidates from the template-derived space;
2. reject candidates that violate any VC clause on the current set of
   concrete example states (cheap inductive check);
3. for a surviving candidate, search for a counterexample with the
   random concrete checker; if one is found it joins the example set
   and enumeration continues (with the inductive prover, once a
   bounded-verified fallback exists, a candidate whose postcondition
   definitively fails to prove is dropped before this search);
4. otherwise run the bounded symbolic verifier; a verified candidate is
   returned, a failed one contributes its counterexample state.

The returned :class:`CEGISResult` records the statistics Table 1
reports: synthesis time, control bits, and postcondition AST size.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cache.serialize import CachePayloadError
from repro.ir import nodes as ir
from repro.predicates.language import Postcondition
from repro.predicates.restrictions import check_postcondition_restrictions
from repro.semantics.state import State
from repro.symbolic.interpreter import (
    SymbolicExecutionError,
    run_inductive_executions,
)
from repro.templates.generator import TemplateGenerationError, generate_templates
from repro.vcgen.hoare import CandidateSummary, generate_vc
from repro.verification.bounded import BoundedVerifier, VerificationResult
from repro.verification.inductive import (
    INDUCTIVE_PROVER_VERSION,
    InductiveProver,
    ProofCertificate,
    make_certificate,
    revalidate_certificate,
)
from repro.synthesis.space import SynthesisProblem, build_problem
from repro.synthesis.strategies import STRATEGIES, Strategy

# Random concrete samples ``quick_check`` draws per candidate.
QUICK_SAMPLES = 2
# With the prover, the unproved bounded-verified candidates tried before
# the first one is returned with a ``bounded_only`` certificate.
MAX_PROOF_ATTEMPTS = 12


class SynthesisFailure(Exception):
    """Raised when no strategy produces a verified summary for a kernel."""


@dataclass
class CEGISStats:
    """Counters describing one CEGIS run."""

    candidates_tried: int = 0
    examples_used: int = 0
    counterexamples_found: int = 0
    verifier_calls: int = 0
    states_checked: int = 0
    proof_attempts: int = 0


@dataclass
class CEGISResult:
    """A verified summary together with the metrics Table 1 reports.

    ``certificate`` is present when the inductive prover (Tier 3)
    participated: it records, clause by clause, whether the summary was
    proved for **all** array sizes or only survived the bounded tiers.
    """

    kernel: ir.Kernel
    candidate: CandidateSummary
    strategy: str
    synthesis_time: float
    control_bits: int
    narrowed_bits: int
    postcondition_ast_nodes: int
    invariant_ast_nodes: int
    stats: CEGISStats
    verification: VerificationResult
    certificate: Optional[ProofCertificate] = None

    @property
    def post(self) -> Postcondition:
        return self.candidate.post

    @property
    def proved(self) -> bool:
        """True when the summary is proved for every array size."""
        return self.certificate is not None and self.certificate.proved

    @property
    def verification_level(self) -> str:
        """Human-readable verification level for reports."""
        if self.proved:
            return "proved"
        return f"verified (bounded N={self.verification.states_checked})"


class CounterexampleReplay:
    """The counterexample-replay buffer of the CEGIS inner loop.

    Every counterexample found for this synthesis problem — by the
    random concrete checker or by the bounded verifier — accumulates
    here, and each *new* candidate is replayed against the whole buffer
    before any verifier tier runs, through the verifier's own
    :attr:`~repro.verification.bounded.BoundedVerifier.check` (the
    compiled VC clauses, or ``VCProblem.check`` when interpreted).
    """

    def __init__(self, check):
        self.states: List[State] = []
        self._check = check

    def __len__(self) -> int:
        return len(self.states)

    def add(self, state: State) -> None:
        self.states.append(state)

    def rejects(self, candidate) -> bool:
        """True when any buffered counterexample violates the candidate."""
        check = self._check
        for state in self.states:
            if check(state, candidate) is not None:
                return True
        return False


def _solve_problem(
    problem: SynthesisProblem,
    verifier: BoundedVerifier,
    max_candidates: int,
    seed: int,
    prover: Optional[InductiveProver] = None,
) -> Optional[CEGISResult]:
    """Run CEGIS on one synthesis problem; None when the space is exhausted.

    With a ``prover`` (Tier 3) a bounded-verified candidate is
    additionally submitted to the unbounded inductive prover.  A proved
    candidate wins immediately; an unproved one is kept as a fallback
    while the search continues — candidates whose truth depends on the
    sampled grid sizes (vacuous bounds and the like) pass the bounded
    tiers but never prove, and the next candidates in enumeration order
    often do.  After :data:`MAX_PROOF_ATTEMPTS` unproved candidates the
    first bounded-verified one is returned with a ``bounded_only``
    certificate, so enabling the prover can upgrade but never lose a
    translation.
    """
    start = time.perf_counter()
    stats = CEGISStats()
    examples = CounterexampleReplay(verifier.check)
    rng = random.Random(seed)

    def finish(candidate, verification, certificate=None) -> CEGISResult:
        elapsed = time.perf_counter() - start
        post_nodes = candidate.post.ast_size()
        inv_nodes = sum(inv.ast_size() for inv in candidate.invariants.values())
        return CEGISResult(
            kernel=problem.kernel,
            candidate=candidate,
            strategy=problem.strategy_name,
            synthesis_time=elapsed,
            control_bits=problem.control_bits,
            narrowed_bits=problem.grammar_space_bits,
            postcondition_ast_nodes=post_nodes,
            invariant_ast_nodes=inv_nodes,
            stats=stats,
            verification=verification,
            certificate=certificate,
        )

    fallback: Optional[Tuple[CandidateSummary, VerificationResult, Any]] = None
    for candidate in problem.space.enumerate(limit=max_candidates):
        stats.candidates_tried += 1

        violations = check_postcondition_restrictions(candidate.post)
        if violations:
            continue

        # Inductive step: the candidate must satisfy the VC on every
        # accumulated counterexample (replayed via the compiled clauses).
        if examples.rejects(candidate):
            continue

        # Once a bounded-verified fallback exists, candidates whose
        # postcondition clauses *definitively* fail to prove are
        # discarded before any concrete or bounded check is spent on
        # them: they could at best tie the fallback's verification level.
        # Budget-exhausted post proofs are not definitive and keep the
        # candidate in the running.
        if prover is not None and fallback is not None:
            if not prover.proves_postcondition(candidate):
                continue

        # Cheap counterexample search (random concrete states, GF(7) floats).
        counterexample = verifier.quick_check(candidate, samples=QUICK_SAMPLES, rng=rng)
        if counterexample is not None:
            examples.add(counterexample)
            stats.counterexamples_found += 1
            stats.examples_used = len(examples)
            continue

        # Full bounded-symbolic verification.
        stats.verifier_calls += 1
        verification = verifier.verify(candidate)
        stats.states_checked += verification.states_checked
        if verification.ok:
            if prover is None:
                return finish(candidate, verification)
            stats.proof_attempts += 1
            outcome = prover.prove(candidate, fail_fast=True)
            if outcome.proved:
                certificate = make_certificate(problem.kernel, candidate, outcome)
                return finish(candidate, verification, certificate)
            if fallback is None:
                fallback = (candidate, verification, outcome)
            if stats.proof_attempts >= MAX_PROOF_ATTEMPTS:
                break
            continue
        if verification.counterexample is not None:
            examples.add(verification.counterexample)
            stats.counterexamples_found += 1
            stats.examples_used = len(examples)
    if fallback is not None:
        candidate, verification, outcome = fallback
        certificate = make_certificate(problem.kernel, candidate, outcome)
        return finish(candidate, verification, certificate)
    return None


def _strategy_seed(seed: int, strategy_name: str) -> int:
    """Stable per-strategy RNG seed.

    CRC32 rather than ``hash()``: Python string hashing is randomized
    per process, which would make results differ between process-pool
    workers (and between repeated runs).
    """
    return seed + zlib.crc32(strategy_name.encode("utf-8")) % 1000


def synthesis_config(
    trials: int,
    seed: int,
    max_candidates: int,
    verifier_environments: int,
    strategies: Sequence[str],
    compiled: bool = True,
    inductive: bool = False,
) -> Dict[str, Any]:
    """The options that determine a synthesis outcome, as a cache-key mapping.

    ``compiled`` is part of the key even though compiled and
    interpreted evaluation must agree bit-for-bit: a stale entry
    recorded under a buggy compiled path must never be replayed as if
    the interpreter had produced it.  The inductive-prover configuration (including the
    prover version) is part of the key because the prover steers which
    candidate wins and emits the stored certificate.
    """
    # Former settings keep their keys and shapes, so stored entries stay valid.
    return {
        "trials": trials,
        "seed": seed,
        "max_candidates": max_candidates,
        "quick_samples": QUICK_SAMPLES,
        "verifier_environments": verifier_environments,
        "strategies": list(strategies),
        "compile": {"enabled": bool(compiled)},
        "inductive": {
            "enabled": bool(inductive),
            "max_proof_attempts": MAX_PROOF_ATTEMPTS,
            "prover": INDUCTIVE_PROVER_VERSION if inductive else None,
        },
    }


def synthesize_kernel_uncached(
    kernel: ir.Kernel,
    trials: int = 2,
    seed: int = 0,
    strategies: Optional[Sequence[Strategy]] = None,
    max_candidates: int = 2000,
    verifier_environments: int = 2,
    compiled: bool = True,
    inductive: bool = False,
) -> CEGISResult:
    """Lift one kernel without consulting any cache.

    Template generation, the VC, the bounded verifier and the prover
    are built once and shared by every strategy; the strategies then
    run sequentially in priority order.  ``compiled`` selects how
    candidates are evaluated (generated code by default, the
    tree-walking interpreters when false); both produce bit-identical
    results.

    ``inductive`` enables the Tier-3 unbounded prover
    (:mod:`repro.verification.inductive`): verified candidates are
    additionally proved for all array sizes, the search prefers provable
    candidates (up to :data:`MAX_PROOF_ATTEMPTS` extra verifications),
    and the result carries a :class:`ProofCertificate`.  With it disabled
    (the default) the first bounded-verified candidate wins and the
    result carries no certificate.

    Raises :class:`SynthesisFailure` when template generation cannot
    express the kernel or no candidate verifies under any strategy.
    """
    strategies = list(strategies) if strategies is not None else list(STRATEGIES)
    try:
        runs = run_inductive_executions(kernel, trials=trials, seed=seed)
    except (SymbolicExecutionError, TypeError) as exc:
        # TypeError covers kernels whose store indices depend on array data
        # (they cannot be executed concrete-symbolically, hence not lifted).
        raise SynthesisFailure(f"symbolic execution failed for {kernel.name}: {exc}") from exc
    try:
        base_templates = generate_templates(kernel, runs)
    except TemplateGenerationError as exc:
        raise SynthesisFailure(f"template generation failed for {kernel.name}: {exc}") from exc
    vc = generate_vc(kernel)
    verifier = BoundedVerifier(
        vc, num_environments=verifier_environments, seed=seed, compiled=compiled
    )
    prover = InductiveProver(vc) if inductive else None
    failures: List[str] = []
    for strategy in strategies:
        narrowed = strategy.apply(kernel, base_templates)
        if narrowed is None:
            continue
        problem = build_problem(kernel, narrowed, vc=vc, strategy_name=strategy.name)
        result = _solve_problem(
            problem,
            verifier,
            max_candidates=max_candidates,
            seed=_strategy_seed(seed, strategy.name),
            prover=prover,
        )
        if result is not None:
            return result
        failures.append(strategy.name)
    raise SynthesisFailure(
        f"no strategy produced a verified summary for {kernel.name} "
        f"(tried: {', '.join(failures) or 'none applicable'})"
    )


def synthesize_kernel(
    kernel: ir.Kernel,
    trials: int = 2,
    seed: int = 0,
    strategies: Optional[Sequence[Strategy]] = None,
    max_candidates: int = 2000,
    verifier_environments: int = 2,
    cache=None,
    compiled: bool = True,
    inductive: bool = False,
) -> CEGISResult:
    """Lift one kernel: template generation, CEGIS, verification.

    ``cache`` is an optional :class:`repro.cache.SynthesisCache`: a hit
    replays the stored verified summary (or recorded failure) without
    synthesizing; a miss synthesizes and records the outcome.
    ``compiled`` selects the evaluation backend and is part of the
    cache fingerprint, as is ``inductive``.

    When ``inductive`` is set, a cache hit carrying a proof certificate
    is *revalidated*: the certificate's digests are checked against the
    rehydrated candidate and the (fast, deterministic) prover is re-run,
    so a stale or forged "proved" label degrades to a cold run instead
    of being replayed.

    Raises :class:`SynthesisFailure` when template generation cannot
    express the kernel or no candidate verifies under any strategy.
    """
    strategy_list = list(strategies) if strategies is not None else list(STRATEGIES)
    # The cache keys strategies by *name*, which only identifies behaviour
    # for the built-in roster: a caller-supplied Strategy object with a
    # familiar name but a different transform must not hit (or poison)
    # entries recorded for the built-in, so custom strategies bypass the
    # cache entirely.
    custom_strategies = any(
        not any(s is builtin for builtin in STRATEGIES) for s in strategy_list
    )
    if custom_strategies:
        cache = None
    fingerprint: Optional[str] = None
    if cache is not None:
        config = synthesis_config(
            trials=trials,
            seed=seed,
            max_candidates=max_candidates,
            verifier_environments=verifier_environments,
            strategies=[s.name for s in strategy_list],
            compiled=compiled,
            inductive=inductive,
        )
        fingerprint = cache.fingerprint(kernel, config)
        hit = cache.get(fingerprint)
        if hit is not None:
            if not hit.verified:
                cache.hits += 1
                raise SynthesisFailure(hit.failure_message)
            try:
                result = hit.result(kernel)
            except CachePayloadError:
                # A payload this code can no longer decode degrades to a
                # cold run (and the fresh result overwrites the entry).
                cache.misses += 1
            else:
                if inductive and not _certificate_replay_ok(result, kernel):
                    # Stale/invalid certificate: degrade to a cold run.
                    cache.misses += 1
                else:
                    cache.hits += 1
                    return result
        else:
            cache.misses += 1

    try:
        result = synthesize_kernel_uncached(
            kernel,
            trials=trials,
            seed=seed,
            strategies=strategies,
            max_candidates=max_candidates,
            verifier_environments=verifier_environments,
            compiled=compiled,
            inductive=inductive,
        )
    except SynthesisFailure as exc:
        if cache is not None and fingerprint is not None:
            cache.record_failure(fingerprint, str(exc), kernel_name=kernel.name)
        raise
    if cache is not None and fingerprint is not None:
        cache.record_result(fingerprint, result, kernel_name=kernel.name)
    return result


def _certificate_replay_ok(result: CEGISResult, kernel: ir.Kernel) -> bool:
    """Revalidate a replayed result's proof certificate.

    An entry recorded under an inductive configuration always carries a
    certificate; a missing one, a prover-version skew, or digests that
    no longer match the rehydrated kernel/candidate all invalidate the
    replay (it degrades to a cold run).  The digest check pins the
    certificate to the exact summary being replayed; the full
    deterministic re-proof is available via
    :func:`repro.verification.inductive.revalidate_certificate` and is
    exercised by the test suite rather than on every warm hit.
    """
    if result.certificate is None:
        return False
    return revalidate_certificate(
        result.certificate, kernel, result.candidate, reprove=False
    )
