"""Schedule-legality certification for lowered Funcs.

A :class:`~repro.halide.schedule.Schedule` only reorders *traversal*;
it must never change what a cell's value is.  For the pure Funcs the
lifting pipeline produces — one store per output coordinate, with an
identity store index — the only way a schedule can go wrong is through
the output array itself: when the definition *reads the array it is
defining* (an in-place source update like ``a(i) = a(i)*0.5`` lifts to
a Func whose input image is named like the Func), a non-zero read
offset means some iteration observes a cell another iteration writes,
and then the traversal order — parallel slabs, ``dim_order``
permutations, tiling — becomes observable.

The checker certifies a ``(Func, Schedule)`` pair with a three-valued
verdict:

* ``LEGAL`` — proved safe: either the Func never reads its own output
  array, or every such read is provably the identity cell (the
  Fourier–Motzkin engine refutes both strict orderings of
  ``index − coordinate``).
* ``ILLEGAL`` — proved unsafe: a self-read with a provably non-zero
  offset exists (on the parallel axis it is a race; on any axis it
  makes reorder/tiling observable for in-place consumption).
* ``UNKNOWN`` — the index shape defeated the analysis.  **Unknown is
  conservative**: every consumer (lowering, the autotuner's pruner,
  the native backend's threaded emission) treats it exactly like
  ``ILLEGAL``.

The same contract as the shared engine (:mod:`repro.analysis.presburger`)
it is built on: a ``LEGAL`` answer is a proof, everything else is a
refusal to certify, never a claim of a bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.presburger import constraints_infeasible
from repro.halide.lang import (
    BinOp,
    Call,
    Const,
    Func,
    FuncRef,
    ImageRef,
    Param,
    Var,
)
from repro.halide.schedule import Schedule, ScheduleError
from repro.symbolic.expr import Expr as SymExpr, as_expr, call as sym_call, sym
from repro.symbolic.simplify import simplify

LEGAL = "legal"
ILLEGAL = "illegal"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class LegalityReport:
    """The verdict for one ``(Func, Schedule)`` pair, with its reasons."""

    func: str
    schedule: str
    verdict: str
    reasons: Tuple[str, ...] = ()

    @property
    def legal(self) -> bool:
        return self.verdict == LEGAL

    @property
    def certified(self) -> bool:
        """Alias making call sites read as intent: only LEGAL certifies."""
        return self.verdict == LEGAL

    def to_json(self) -> Dict:
        return {
            "func": self.func,
            "schedule": self.schedule,
            "verdict": self.verdict,
            "reasons": list(self.reasons),
        }


class ScheduleLegalityError(ScheduleError):
    """A schedule was rejected by the static legality checker."""

    def __init__(self, report: LegalityReport):
        self.report = report
        reasons = "; ".join(report.reasons) or "no reason recorded"
        super().__init__(
            f"schedule [{report.schedule}] is not certified legal for "
            f"Func {report.func!r} ({report.verdict}): {reasons}"
        )


# ---------------------------------------------------------------------------
# Halide expressions -> symbolic expressions
# ---------------------------------------------------------------------------


class _Unsupported(Exception):
    pass


def _halide_index_to_sym(expr) -> SymExpr:
    """Convert an index expression to the symbolic algebra (or raise)."""
    if isinstance(expr, Const):
        return as_expr(expr.value)
    if isinstance(expr, Var):
        return sym(expr.name)
    if isinstance(expr, Param):
        return sym(expr.name)
    if isinstance(expr, BinOp) and expr.op in {"+", "-", "*"}:
        left = _halide_index_to_sym(expr.left)
        right = _halide_index_to_sym(expr.right)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        return left * right
    if isinstance(expr, Call) and expr.func in {"min", "max"} and len(expr.args) == 2:
        return sym_call(expr.func, *(_halide_index_to_sym(a) for a in expr.args))
    raise _Unsupported(repr(expr))


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


def order_preserving(schedule: Schedule, dimensions: int) -> bool:
    """Does this schedule traverse cells in the reference order?

    Serial, untiled, natural-order schedules *are* the reference
    semantics — vectorize/unroll only strip-mine the innermost loop
    without changing visit order, so they stay order-preserving.  Such
    schedules are legal for any Func by definition.
    """
    if schedule.parallel_dim is not None:
        return False
    if schedule.tile_sizes and any(schedule.tile_sizes):
        return False
    if schedule.dim_order is not None and tuple(schedule.dim_order) != tuple(
        range(dimensions)
    ):
        return False
    return True


def certify(
    func: Func,
    schedule: Optional[Schedule] = None,
    output: Optional[str] = None,
) -> LegalityReport:
    """Certify that ``schedule`` preserves ``func``'s semantics.

    ``output`` names the buffer the Func's result is stored into, when
    it differs from the Func's own name — lifted stencils are named
    ``{array}_stencil`` but store into ``{array}``, and the self-read
    detection must use the *storage* name.

    Sound and incomplete in the usual direction: ``LEGAL`` is a proof,
    ``ILLEGAL`` is a witness, ``UNKNOWN`` means "could not analyze" and
    must be treated as illegal by anything acting on the verdict.
    """
    schedule = schedule if schedule is not None else func.schedule
    described = schedule.describe()

    def report(verdict: str, *reasons: str) -> LegalityReport:
        return LegalityReport(func.name, described, verdict, tuple(reasons))

    if func.definition is None:
        return report(UNKNOWN, "Func has no definition")
    try:
        schedule.validate(func.dimensions)
    except ScheduleError as exc:
        return report(ILLEGAL, f"schedule does not fit the Func: {exc}")
    if order_preserving(schedule, func.dimensions):
        return report(LEGAL, "traversal equals the reference order")
    if any(isinstance(node, FuncRef) for node in func.definition.walk()):
        return report(
            UNKNOWN,
            "multi-stage pipeline: flatten (realize_scheduled) before certifying",
        )

    output_names = {func.name, output} if output else {func.name}
    self_reads = [
        node
        for node in func.definition.walk()
        if isinstance(node, ImageRef) and node.image.name in output_names
    ]
    if not self_reads:
        return report(
            LEGAL,
            "pure stage: the output buffer is disjoint from every input read",
        )

    # The Func reads the array it defines.  Each read index must be
    # provably the identity cell for traversal order to be unobservable.
    var_names = [v.name for v in func.vars]
    int_syms = set(var_names)
    reasons: List[str] = []
    verdict = LEGAL
    for ref in self_reads:
        if len(ref.indices) != func.dimensions:
            return report(
                UNKNOWN, f"self-read {ref!r} has mismatched rank"
            )
        for dim, index in enumerate(ref.indices):
            coordinate = sym(var_names[dim])
            try:
                index_sym = _halide_index_to_sym(index)
            except _Unsupported:
                verdict = UNKNOWN
                reasons.append(
                    f"self-read index {index!r} (dim {dim}) is outside the "
                    "analyzable fragment"
                )
                continue
            diff = simplify(index_sym - coordinate)
            # Provably identity: both strict orderings are infeasible.
            above = constraints_infeasible([(diff, True)], int_syms)
            below = constraints_infeasible([(simplify(as_expr(0) - diff), True)], int_syms)
            if above and below:
                continue
            # Provably *not* identity: equality itself is infeasible.
            equality_infeasible = constraints_infeasible(
                [(diff, False), (simplify(as_expr(0) - diff), False)], int_syms
            )
            axis_note = (
                " on the parallel axis (a data race)"
                if schedule.parallel_dim == dim
                else ""
            )
            if equality_infeasible:
                return report(
                    ILLEGAL,
                    f"in-place read {ref!r} has a provably non-zero offset in "
                    f"dim {dim}{axis_note}: traversal order is observable",
                )
            verdict = UNKNOWN
            reasons.append(
                f"cannot prove self-read index {index!r} (dim {dim}) is the "
                f"identity cell{axis_note}"
            )
    if verdict == LEGAL:
        return report(
            LEGAL,
            "every read of the output array is provably the identity cell",
        )
    return LegalityReport(func.name, described, verdict, tuple(reasons))


def parallel_band_race_free(nest) -> bool:
    """May the native backend thread this nest's parallel band?

    True only when (a) the schedule is certified ``LEGAL`` and (b) the
    parallel loop's bounds are entry-scope — pure functions of the
    domain, never of an enclosing loop variable — so a worker can clamp
    the band to its slab without re-deriving outer state.  Lowering
    always marks the *outermost* loop of the parallel axis, whose
    bounds are domain-pure by construction; the structural check here
    is defensive, not decorative.
    """
    from repro.halide.loopir import Loop, LoopVar

    parallel = None
    for loop in nest.loops():
        if loop.kind == "parallel":
            parallel = loop
            break
    if parallel is None:
        return False

    def pure(bound) -> bool:
        from repro.halide.loopir import Clamped, DomainHi, DomainLo, Shifted

        if isinstance(bound, (DomainLo, DomainHi)):
            return True
        if isinstance(bound, Shifted):
            return pure(bound.base)
        if isinstance(bound, Clamped):
            return pure(bound.left) and pure(bound.right)
        return False  # LoopVar or anything new: not entry-scope

    if not (pure(parallel.lower) and pure(parallel.upper)):
        return False
    return certify(nest.func, nest.schedule).legal


# ---------------------------------------------------------------------------
# Cached checking for the autotuner
# ---------------------------------------------------------------------------


def canonical_key(schedule: Schedule, dimensions: int) -> Tuple:
    """A key identifying schedules that lower to the same loop nest.

    Distinct :class:`Schedule` values frequently describe the same
    traversal — ``dim_order=None`` vs the explicit natural order, tile
    size 0 vs no ``tile_sizes`` entry, unroll/vector 1 vs absent.  The
    autotuner uses this key to skip re-measuring a traversal it has
    already timed.
    """
    order = tuple(schedule.dim_order) if schedule.dim_order is not None else tuple(
        range(dimensions)
    )
    tiles = tuple(schedule.tile_sizes) if schedule.tile_sizes else (0,) * dimensions
    return (
        order,
        tiles,
        schedule.vector_width,
        schedule.unroll,
        schedule.parallel_dim,
        schedule.inline,
    )


class ScheduleChecker:
    """Memoized legality front-end the autotuner threads through its loop.

    One checker is built per Func being tuned; verdicts are cached by
    the schedule's canonical key so the (cheap but not free) FM queries
    run once per distinct traversal.
    """

    def __init__(self, func: Func, output: Optional[str] = None):
        self.func = func
        self.output = output
        self._verdicts: Dict[Tuple, LegalityReport] = {}

    def key(self, schedule: Schedule) -> Tuple:
        return canonical_key(schedule, self.func.dimensions)

    def check(self, schedule: Schedule) -> LegalityReport:
        key = self.key(schedule)
        report = self._verdicts.get(key)
        if report is None:
            report = certify(self.func, schedule, output=self.output)
            self._verdicts[key] = report
        return report

    def is_legal(self, schedule: Schedule) -> bool:
        """Unknown-is-conservative: only a ``LEGAL`` verdict passes."""
        return self.check(schedule).legal
