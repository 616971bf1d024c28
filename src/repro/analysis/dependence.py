"""Array dependence analysis over lowered IR kernels.

For every ordered pair of accesses to the same array where the first is
a write, the analyzer asks whether two *distinct* iterations of the
surrounding loop nest can touch the same cell — the question that
decides whether a loop may run in parallel.  The satisfiability queries
are discharged with the shared Fourier–Motzkin engine
(:mod:`repro.analysis.presburger`) over the symbolic loop bounds, so a
"no dependence" answer is a proof that holds for every array size, not
a sampled observation.

The lattice is deliberately three-valued:

* a **refuted** conflict (the FM engine proved the same-cell system
  infeasible) contributes nothing;
* a **surviving** conflict becomes a :class:`Dependence` with
  per-loop direction sets (``<``/``=``/``>``) and, when the indices are
  the usual ``counter + constant`` form, an exact distance;
* anything the analyzer cannot convert or linearise — non-affine
  subscripts, unconvertible bounds — degrades to ``Unknown``
  (:attr:`DependenceSummary.unknown`), and every consumer treats
  ``Unknown`` as "assume the worst": :meth:`parallel_counters` returns
  nothing, the legality checker refuses to certify.

Scalars assigned inside a loop are handled separately: a scalar that is
always written before it is read in the loop body is privatizable (each
iteration can own a copy), anything else carries a dependence on every
enclosing loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.presburger import Constraint, constraints_infeasible
from repro.ir import nodes as ir
from repro.symbolic.expr import Expr, as_expr, sym
from repro.symbolic.simplify import collect_affine, simplify, substitute
from repro.templates.irsym import ConversionError, ir_to_sym

#: Suffix distinguishing the second iteration-vector copy in FM systems.
_COPY = "__it2"

DIRECTIONS = ("<", "=", ">")


@dataclass(frozen=True)
class Access:
    """One array access plus its enclosing loop context."""

    array: str
    indices: Tuple[ir.ValueExpr, ...]
    is_write: bool
    loops: Tuple[ir.Loop, ...]  # outermost first
    order: int  # program order of the statement (for kind labelling only)

    @property
    def counters(self) -> Tuple[str, ...]:
        return tuple(loop.counter for loop in self.loops)


@dataclass(frozen=True)
class Dependence:
    """A same-cell conflict the FM engine could not refute.

    ``directions`` maps each common loop counter to the subset of
    ``< = >`` orderings (first iteration vs second) that survived
    refutation; ``distance`` gives the exact per-counter iteration
    distance when the subscripts force one (``None`` where they don't).
    ``carrier`` is the outermost counter that can carry the dependence
    (``None`` for loop-independent conflicts).
    """

    array: str
    kind: str  # "flow" | "anti" | "output" | "scalar"
    directions: Tuple[Tuple[str, str], ...]  # (counter, "".join(dirs))
    distance: Tuple[Optional[int], ...]
    carrier: Optional[str]

    def describe(self) -> str:
        dirs = ", ".join(f"{c}:{d}" for c, d in self.directions)
        return f"{self.kind} dep on {self.array} [{dirs}]"


@dataclass
class DependenceSummary:
    """Everything the analyzer learned about one kernel's loop nest."""

    kernel: str
    counters: Tuple[str, ...] = ()
    dependences: List[Dependence] = field(default_factory=list)
    unknown_reasons: List[str] = field(default_factory=list)

    @property
    def unknown(self) -> bool:
        return bool(self.unknown_reasons)

    def carried_by(self, counter: str) -> List[Dependence]:
        return [d for d in self.dependences if d.carrier == counter]

    def parallel_counters(self) -> List[str]:
        """Counters provably safe to run in parallel.

        Empty whenever the analysis hit an ``Unknown`` — the sound
        default is to parallelise nothing the engine could not certify.
        """
        if self.unknown:
            return []
        return [c for c in self.counters if not self.carried_by(c)]

    def to_json(self) -> Dict:
        return {
            "kernel": self.kernel,
            "counters": list(self.counters),
            "dependences": [
                {
                    "array": d.array,
                    "kind": d.kind,
                    "directions": {c: dirs for c, dirs in d.directions},
                    "distance": list(d.distance),
                    "carrier": d.carrier,
                }
                for d in self.dependences
            ],
            "unknown": self.unknown_reasons,
            "parallel_counters": self.parallel_counters(),
        }


# ---------------------------------------------------------------------------
# Access collection
# ---------------------------------------------------------------------------


def _collect_accesses(block: ir.Block, loops: Tuple[ir.Loop, ...], order: List[int],
                      out: List[Access]) -> None:
    for stmt in block.statements:
        order[0] += 1
        position = order[0]
        if isinstance(stmt, ir.ArrayStore):
            out.append(Access(stmt.array, stmt.indices, True, loops, position))
            _expr_loads(stmt.value, loops, position, out)
            for index in stmt.indices:
                _expr_loads(index, loops, position, out)
        elif isinstance(stmt, ir.Assign):
            _expr_loads(stmt.value, loops, position, out)
        elif isinstance(stmt, ir.Loop):
            _collect_accesses(stmt.body, loops + (stmt,), order, out)
        elif isinstance(stmt, ir.If):
            _expr_loads(stmt.condition, loops, position, out)
            _collect_accesses(stmt.then_body, loops, order, out)
            if stmt.else_body is not None:
                _collect_accesses(stmt.else_body, loops, order, out)


def _expr_loads(expr: ir.ValueExpr, loops: Tuple[ir.Loop, ...], order: int,
                out: List[Access]) -> None:
    for node in expr.walk():
        if isinstance(node, ir.ArrayLoad):
            out.append(Access(node.array, node.indices, False, loops, order))


# ---------------------------------------------------------------------------
# Scalar privatizability
# ---------------------------------------------------------------------------


def _scalar_read_before_write(body: ir.Block, name: str) -> bool:
    """Is ``name`` possibly read before its first unconditional write?"""
    for stmt in body.statements:
        if isinstance(stmt, ir.Assign):
            if _mentions_scalar(stmt.value, name):
                return True
            if stmt.target == name:
                return False  # defined before any read on this path
        elif isinstance(stmt, ir.ArrayStore):
            if _mentions_scalar(stmt.value, name) or any(
                _mentions_scalar(index, name) for index in stmt.indices
            ):
                return True
        elif isinstance(stmt, ir.Loop):
            if (
                _mentions_scalar(stmt.lower, name)
                or _mentions_scalar(stmt.upper, name)
                or _scalar_read_before_write(stmt.body, name)
            ):
                return True
            # The inner loop may run zero times, so its writes are not
            # unconditional kills; keep scanning.
        elif isinstance(stmt, ir.If):
            if _mentions_scalar(stmt.condition, name):
                return True
            if _scalar_read_before_write(stmt.then_body, name):
                return True
            if stmt.else_body is not None and _scalar_read_before_write(stmt.else_body, name):
                return True
            # A conditional write is not an unconditional kill either.
    return False


def _mentions_scalar(expr: ir.ValueExpr, name: str) -> bool:
    return any(isinstance(node, ir.VarRef) and node.name == name for node in expr.walk())


def _assigned_scalars(block: ir.Block) -> Set[str]:
    names: Set[str] = set()
    for stmt in block.statements:
        if isinstance(stmt, ir.Assign):
            names.add(stmt.target)
        elif isinstance(stmt, ir.Loop):
            names |= _assigned_scalars(stmt.body)
        elif isinstance(stmt, ir.If):
            names |= _assigned_scalars(stmt.then_body)
            if stmt.else_body is not None:
                names |= _assigned_scalars(stmt.else_body)
    return names


# ---------------------------------------------------------------------------
# The pairwise conflict system
# ---------------------------------------------------------------------------


class _Analyzer:
    def __init__(self, kernel: ir.Kernel):
        self.kernel = kernel
        self.summary = DependenceSummary(kernel=kernel.name)
        # Every counter and every integer scalar participates in the
        # integer tightenings; copy-2 counters are integers too.
        self.int_syms: Set[str] = {
            decl.name for decl in kernel.scalars if decl.scalar_type == "integer"
        }

    def run(self) -> DependenceSummary:
        accesses: List[Access] = []
        order = [0]
        _collect_accesses(self.kernel.body, (), order, accesses)
        counters: List[str] = []
        for access in accesses:
            for counter in access.counters:
                if counter not in counters:
                    counters.append(counter)
        self.summary.counters = tuple(counters)
        self.int_syms |= set(counters)
        self.int_syms |= {c + _COPY for c in counters}

        writes = [a for a in accesses if a.is_write]
        by_array: Dict[str, List[Access]] = {}
        for access in accesses:
            by_array.setdefault(access.array, []).append(access)
        seen: Set[Tuple] = set()
        for write in writes:
            for other in by_array.get(write.array, []):
                if not other.is_write or other.order >= write.order or other is write:
                    self._pair(write, other, seen)
        self._scalars()
        return self.summary

    # -- scalar temporaries ------------------------------------------------
    def _scalars(self) -> None:
        for stmt in self.kernel.body.statements:
            if isinstance(stmt, ir.Loop):
                self._scalar_loop(stmt, ())
        return None

    def _scalar_loop(self, loop: ir.Loop, outer: Tuple[str, ...]) -> None:
        assigned = _assigned_scalars(loop.body) - {loop.counter}
        for name in sorted(assigned):
            if _scalar_read_before_write(loop.body, name):
                counters = outer + (loop.counter,)
                self.summary.dependences.append(
                    Dependence(
                        array=name,
                        kind="scalar",
                        directions=tuple((c, "<=>") for c in counters),
                        distance=tuple(None for _ in counters),
                        carrier=loop.counter,
                    )
                )
        for stmt in loop.body.statements:
            if isinstance(stmt, ir.Loop):
                self._scalar_loop(stmt, outer + (loop.counter,))

    # -- array access pairs ------------------------------------------------
    def _pair(self, write: Access, other: Access, seen: Set[Tuple]) -> None:
        key = (
            write.array,
            tuple(map(repr, write.indices)),
            tuple(map(repr, other.indices)),
            other.is_write,
        )
        if key in seen:
            return
        seen.add(key)
        common = [c for c in write.counters if c in other.counters]
        try:
            system = self._conflict_system(write, other)
        except ConversionError as exc:
            self.summary.unknown_reasons.append(
                f"{write.array}: cannot linearise subscripts ({exc})"
            )
            return
        if system is None:
            self.summary.unknown_reasons.append(
                f"{write.array}: non-affine subscript"
            )
            return
        directions: List[Tuple[str, str]] = []
        any_noneq = False
        carrier: Optional[str] = None
        for counter in common:
            first = sym(counter)
            second = sym(counter + _COPY)
            surviving = ""
            for direction in DIRECTIONS:
                if direction == "<":
                    extra: Constraint = (simplify(second - first), True)
                elif direction == ">":
                    extra = (simplify(first - second), True)
                else:
                    extra = (simplify(first - second), False)
                    # equality needs both sides; bundle them
                    if not constraints_infeasible(
                        system + [extra, (simplify(second - first), False)],
                        self.int_syms,
                    ):
                        surviving += "="
                    continue
                if not constraints_infeasible(system + [extra], self.int_syms):
                    surviving += direction
            if not surviving:
                return  # this dimension is infeasible in every ordering
            directions.append((counter, surviving))
            if "<" in surviving or ">" in surviving:
                any_noneq = True
                if carrier is None:
                    # outermost counter with a non-= direction carries it
                    carrier = counter
        if not any_noneq and write is other:
            return  # an access trivially aliases itself in the same iteration
        if write.is_write and other.is_write:
            kind = "output"
        elif other.order <= write.order and not other.is_write:
            kind = "anti"
        else:
            kind = "flow"
        if not other.is_write and other.order == write.order:
            kind = "flow"  # store reading its own array in the same stmt
        self.summary.dependences.append(
            Dependence(
                array=write.array,
                kind=kind,
                directions=tuple(directions),
                distance=tuple(self._distance(write, other, c) for c in common),
                carrier=carrier,
            )
        )

    def _conflict_system(self, write: Access, other: Access) -> Optional[List[Constraint]]:
        """Constraints for "both accesses touch the same cell, in bounds".

        Returns ``None`` for non-affine subscripts (the ``Unknown``
        path).  Counters of the second access are renamed with
        ``__it2`` so the two iteration vectors are independent.
        """
        if len(write.indices) != len(other.indices):
            return None
        rename = {c: sym(c + _COPY) for c in other.counters}
        system: List[Constraint] = []
        for loop in write.loops:
            system.extend(self._bounds(loop, loop.counter, {}))
        for loop in other.loops:
            system.extend(self._bounds(loop, loop.counter + _COPY, rename))
        for w_index, o_index in zip(write.indices, other.indices):
            w_expr = simplify(ir_to_sym(w_index))
            o_expr = simplify(substitute(ir_to_sym(o_index), rename))
            if collect_affine(w_expr, tuple(write.counters)) is None:
                return None
            if collect_affine(
                o_expr, tuple(c + _COPY for c in other.counters)
            ) is None:
                return None
            diff = simplify(w_expr - o_expr)
            system.append((diff, False))
            system.append((simplify(as_expr(0) - diff), False))
        return system

    def _bounds(self, loop: ir.Loop, counter: str, rename: Dict[str, Expr]) -> List[Constraint]:
        lower = simplify(substitute(ir_to_sym(loop.lower), rename))
        upper = simplify(substitute(ir_to_sym(loop.upper), rename))
        c = sym(counter)
        out: List[Constraint] = [
            (simplify(c - lower), False),
            (simplify(upper - c), False),
        ]
        if loop.step != 1:
            aux = f"it_{counter}"
            self.int_syms.add(aux)
            m = sym(aux)
            out.append((simplify(c - lower - as_expr(loop.step) * m), False))
            out.append((simplify(lower + as_expr(loop.step) * m - c), False))
            out.append((m, False))
        return out

    def _distance(self, write: Access, other: Access, counter: str) -> Optional[int]:
        """Exact iteration distance along ``counter`` when forced by the
        subscripts (the ubiquitous ``a(i + k)`` stencil form)."""
        for w_index, o_index in zip(write.indices, other.indices):
            try:
                w_expr = simplify(ir_to_sym(w_index))
                o_expr = simplify(ir_to_sym(o_index))
            except ConversionError:
                return None
            w_aff = collect_affine(w_expr, (counter,))
            o_aff = collect_affine(o_expr, (counter,))
            if w_aff is None or o_aff is None:
                continue
            w_coeff, w_rest = w_aff
            o_coeff, o_rest = o_aff
            if w_coeff[counter] == 0 or w_coeff[counter] != o_coeff[counter]:
                continue
            rest = simplify(w_rest - o_rest)
            offset = _as_int(rest)
            if offset is None:
                continue
            delta = Fraction(offset) / w_coeff[counter]
            if delta.denominator == 1:
                return int(delta)
        return None


def _as_int(expr: Expr) -> Optional[int]:
    from repro.symbolic.expr import Const as SymConst

    if isinstance(expr, SymConst):
        as_fraction = Fraction(expr.value)
        if as_fraction.denominator == 1:
            return int(as_fraction)
    return None


def analyze_kernel(kernel: ir.Kernel) -> DependenceSummary:
    """Per-dimension distance/direction dependence summary of a kernel."""
    return _Analyzer(kernel).run()
