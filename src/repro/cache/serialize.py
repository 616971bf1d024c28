"""JSON (de)serialization of verified synthesis results.

The cache persists :class:`~repro.synthesis.cegis.CEGISResult` objects:
a candidate summary (postcondition plus per-loop invariants, both built
from the symbolic expression trees of :mod:`repro.symbolic.expr`), the
winning strategy, and the Table 1 metrics.  Everything is encoded as
tagged JSON lists/objects so the store stays human-inspectable and
diffable.

The kernel itself is *not* serialized: a cached result is only ever
rehydrated against a kernel whose fingerprint matched, so the caller's
live :class:`~repro.ir.nodes.Kernel` is injected on load.  Likewise a
verified :class:`~repro.verification.bounded.VerificationResult` never
carries a counterexample state, so only its counters are stored.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, List

from repro.ir import nodes as ir
from repro.predicates.language import (
    Bound,
    Invariant,
    OutEq,
    Postcondition,
    QuantifiedConstraint,
    ScalarEquality,
    ScalarInequality,
)
from repro.symbolic.expr import (
    Add,
    ArrayCell,
    Call,
    Const,
    Div,
    Expr,
    Mul,
    Neg,
    Sub,
    Sym,
)
from repro.verification.bounded import VerificationResult


class CachePayloadError(Exception):
    """Raised when a stored payload cannot be decoded (treated as a miss)."""


# ---------------------------------------------------------------------------
# Symbolic expressions
# ---------------------------------------------------------------------------

_BINOPS = {"add": Add, "sub": Sub, "mul": Mul, "div": Div}
_BINOP_TAGS = {Add: "add", Sub: "sub", Mul: "mul", Div: "div"}


def expr_to_json(expr: Expr) -> List[Any]:
    if isinstance(expr, Const):
        value = expr.value
        if isinstance(value, Fraction):
            return ["frac", value.numerator, value.denominator]
        if isinstance(value, int):
            return ["frac", value, 1]
        return ["float", float(value)]
    if isinstance(expr, Sym):
        return ["sym", expr.name]
    if isinstance(expr, ArrayCell):
        return ["cell", expr.array, [expr_to_json(i) for i in expr.indices]]
    if isinstance(expr, Call):
        return ["call", expr.func, [expr_to_json(a) for a in expr.args]]
    if isinstance(expr, Neg):
        return ["neg", expr_to_json(expr.operand)]
    for cls, tag in _BINOP_TAGS.items():
        if type(expr) is cls:
            return [tag, expr_to_json(expr.left), expr_to_json(expr.right)]
    raise CachePayloadError(f"cannot serialize expression {expr!r}")


def expr_from_json(data: Any) -> Expr:
    try:
        tag = data[0]
        if tag == "frac":
            return Const(Fraction(int(data[1]), int(data[2])))
        if tag == "float":
            return Const(float(data[1]))
        if tag == "sym":
            return Sym(str(data[1]))
        if tag == "cell":
            return ArrayCell(str(data[1]), tuple(expr_from_json(i) for i in data[2]))
        if tag == "call":
            return Call(str(data[1]), tuple(expr_from_json(a) for a in data[2]))
        if tag == "neg":
            return Neg(expr_from_json(data[1]))
        if tag in _BINOPS:
            return _BINOPS[tag](expr_from_json(data[1]), expr_from_json(data[2]))
    except (IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CachePayloadError(f"malformed expression payload {data!r}") from exc
    raise CachePayloadError(f"unknown expression tag in {data!r}")


# ---------------------------------------------------------------------------
# Predicate language
# ---------------------------------------------------------------------------

def _bound_to_json(bound: Bound) -> Dict[str, Any]:
    return {
        "var": bound.var,
        "lower": expr_to_json(bound.lower),
        "upper": expr_to_json(bound.upper),
        "lower_strict": bound.lower_strict,
        "upper_strict": bound.upper_strict,
    }


def _bound_from_json(data: Dict[str, Any]) -> Bound:
    return Bound(
        var=str(data["var"]),
        lower=expr_from_json(data["lower"]),
        upper=expr_from_json(data["upper"]),
        lower_strict=bool(data["lower_strict"]),
        upper_strict=bool(data["upper_strict"]),
    )


def _conjunct_to_json(conjunct: QuantifiedConstraint) -> Dict[str, Any]:
    return {
        "bounds": [_bound_to_json(b) for b in conjunct.bounds],
        "array": conjunct.out_eq.array,
        "indices": [expr_to_json(i) for i in conjunct.out_eq.indices],
        "rhs": expr_to_json(conjunct.out_eq.rhs),
        "guard": expr_to_json(conjunct.guard) if conjunct.guard is not None else None,
    }


def _conjunct_from_json(data: Dict[str, Any]) -> QuantifiedConstraint:
    out_eq = OutEq(
        array=str(data["array"]),
        indices=tuple(expr_from_json(i) for i in data["indices"]),
        rhs=expr_from_json(data["rhs"]),
    )
    guard = expr_from_json(data["guard"]) if data.get("guard") is not None else None
    return QuantifiedConstraint(
        bounds=tuple(_bound_from_json(b) for b in data["bounds"]),
        out_eq=out_eq,
        guard=guard,
    )


def postcondition_to_json(post: Postcondition) -> Dict[str, Any]:
    return {"conjuncts": [_conjunct_to_json(c) for c in post.conjuncts]}


def postcondition_from_json(data: Dict[str, Any]) -> Postcondition:
    return Postcondition(tuple(_conjunct_from_json(c) for c in data["conjuncts"]))


def invariant_to_json(invariant: Invariant) -> Dict[str, Any]:
    return {
        "loop_counter": invariant.loop_counter,
        "inequalities": [
            {"var": iq.var, "upper": expr_to_json(iq.upper), "strict": iq.strict}
            for iq in invariant.inequalities
        ],
        "conjuncts": [_conjunct_to_json(c) for c in invariant.conjuncts],
        "equalities": [
            {"var": eq.var, "rhs": expr_to_json(eq.rhs)} for eq in invariant.equalities
        ],
    }


def invariant_from_json(data: Dict[str, Any]) -> Invariant:
    return Invariant(
        loop_counter=str(data["loop_counter"]),
        inequalities=tuple(
            ScalarInequality(
                var=str(iq["var"]),
                upper=expr_from_json(iq["upper"]),
                strict=bool(iq["strict"]),
            )
            for iq in data["inequalities"]
        ),
        conjuncts=tuple(_conjunct_from_json(c) for c in data["conjuncts"]),
        equalities=tuple(
            ScalarEquality(var=str(eq["var"]), rhs=expr_from_json(eq["rhs"]))
            for eq in data["equalities"]
        ),
    )


# ---------------------------------------------------------------------------
# CEGIS results
# ---------------------------------------------------------------------------

def result_to_payload(result) -> Dict[str, Any]:
    """Encode a verified ``CEGISResult`` (minus the kernel) as JSON data.

    The Tier-3 fields (``proof_attempts``, ``certificate``) are only
    present when the inductive prover participated, so payloads produced
    with the prover disabled keep the key set of earlier releases.
    """
    candidate = result.candidate
    stats_payload = {
        "candidates_tried": result.stats.candidates_tried,
        "examples_used": result.stats.examples_used,
        "counterexamples_found": result.stats.counterexamples_found,
        "verifier_calls": result.stats.verifier_calls,
        "states_checked": result.stats.states_checked,
    }
    if result.stats.proof_attempts:
        stats_payload["proof_attempts"] = result.stats.proof_attempts
    payload = {
        "post": postcondition_to_json(candidate.post),
        "invariants": {
            loop_id: invariant_to_json(inv) for loop_id, inv in candidate.invariants.items()
        },
        "strategy": result.strategy,
        "synthesis_time": result.synthesis_time,
        "control_bits": result.control_bits,
        "narrowed_bits": result.narrowed_bits,
        "postcondition_ast_nodes": result.postcondition_ast_nodes,
        "invariant_ast_nodes": result.invariant_ast_nodes,
        "stats": stats_payload,
        "verification": {
            "ok": result.verification.ok,
            "states_checked": result.verification.states_checked,
            "non_vacuous_checks": result.verification.non_vacuous_checks,
        },
    }
    certificate = getattr(result, "certificate", None)
    if certificate is not None:
        from repro.verification.inductive import certificate_to_json

        # A constant entry; it keeps the payloads of proved lifts as they were.
        payload["strided_exact"] = True
        payload["certificate"] = certificate_to_json(certificate)
    return payload


def result_from_payload(payload: Dict[str, Any], kernel: ir.Kernel):
    """Rehydrate a ``CEGISResult`` for ``kernel`` from stored JSON data."""
    # Imported lazily: repro.synthesis.cegis accepts an injected cache and
    # must stay importable without this package.
    from repro.synthesis.cegis import CEGISResult, CEGISStats
    from repro.vcgen.hoare import CandidateSummary

    try:
        candidate = CandidateSummary(
            post=postcondition_from_json(payload["post"]),
            invariants={
                str(loop_id): invariant_from_json(inv)
                for loop_id, inv in payload["invariants"].items()
            },
        )
        stats = CEGISStats(**{k: int(v) for k, v in payload["stats"].items()})
        verification = VerificationResult(
            ok=bool(payload["verification"]["ok"]),
            states_checked=int(payload["verification"]["states_checked"]),
            non_vacuous_checks=int(payload["verification"]["non_vacuous_checks"]),
        )
        certificate = None
        if payload.get("certificate") is not None:
            from repro.verification.inductive import certificate_from_json

            certificate = certificate_from_json(payload["certificate"])
        return CEGISResult(
            kernel=kernel,
            candidate=candidate,
            strategy=str(payload["strategy"]),
            synthesis_time=float(payload["synthesis_time"]),
            control_bits=int(payload["control_bits"]),
            narrowed_bits=int(payload["narrowed_bits"]),
            postcondition_ast_nodes=int(payload["postcondition_ast_nodes"]),
            invariant_ast_nodes=int(payload["invariant_ast_nodes"]),
            stats=stats,
            verification=verification,
            certificate=certificate,
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CachePayloadError(f"malformed result payload: {exc}") from exc
