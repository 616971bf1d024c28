"""An explicit loop-nest IR for scheduled stencil execution.

A :class:`LoopNest` is what a ``(Func, Schedule)`` pair *means*
operationally: tiling, dimension reordering, unrolling and parallel
chunking become actual nested :class:`Loop` nodes, and the vectorised
innermost band becomes a :class:`ComputeSpan` leaf that evaluates one
vector-width slab of output points at a time.  This module defines the
IR nodes and their pretty printer.  The lowering pass and the
generated-Python backend live in :mod:`repro.halide.lower`, the
compiled-C backend in :mod:`repro.native`, and
:func:`repro.halide.lower.build_runner` chooses between the two.

Both backends are bit-identical to the schedule-blind reference
``repro.halide.executor.realize`` for every valid schedule: a schedule
reorders *traversal*, never the arithmetic performed per output cell,
so the buffers must match exactly (this is checked differentially by
the measured autotuner and the property test-suite).

Loop bounds are symbolic in the output domain (a nest is lowered once
and executed over any domain): :class:`DomainLo`/:class:`DomainHi`
name the inclusive domain bounds of an axis, :class:`LoopVar` names an
enclosing loop's current value, and :class:`Shifted`/:class:`Clamped`
build the ``min(tile_start + tile - 1, hi)`` bounds that tiling needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

from repro.halide.lang import Func, HalideError
from repro.halide.schedule import Schedule


# ---------------------------------------------------------------------------
# Symbolic loop bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainLo:
    """Inclusive lower bound of one output-domain axis."""

    axis: int


@dataclass(frozen=True)
class DomainHi:
    """Inclusive upper bound of one output-domain axis."""

    axis: int


@dataclass(frozen=True)
class LoopVar:
    """The current value of an enclosing loop variable."""

    name: str


@dataclass(frozen=True)
class Shifted:
    """``base + offset`` (offset is a compile-time constant)."""

    base: "BoundExpr"
    offset: int


@dataclass(frozen=True)
class Clamped:
    """``min(left, right)`` — tile upper bounds clamp to the domain."""

    left: "BoundExpr"
    right: "BoundExpr"


BoundExpr = Union[DomainLo, DomainHi, LoopVar, Shifted, Clamped]


def bound_source(bound: BoundExpr) -> str:
    """Render a symbolic bound as a Python expression (codegen backend).

    Domain bounds are the ``_lo{axis}``/``_hi{axis}`` locals of the
    generated function; loop variables appear under their own names.
    """
    if isinstance(bound, DomainLo):
        return f"_lo{bound.axis}"
    if isinstance(bound, DomainHi):
        return f"_hi{bound.axis}"
    if isinstance(bound, LoopVar):
        return bound.name
    if isinstance(bound, Shifted):
        if bound.offset == 0:
            return bound_source(bound.base)
        sign = "+" if bound.offset >= 0 else "-"
        return f"({bound_source(bound.base)} {sign} {abs(bound.offset)})"
    if isinstance(bound, Clamped):
        return f"min({bound_source(bound.left)}, {bound_source(bound.right)})"
    raise HalideError(f"unknown bound expression {bound!r}")


def bound_pretty(bound: BoundExpr) -> str:
    """Human-readable bound text for :meth:`LoopNest.pretty`."""
    if isinstance(bound, DomainLo):
        return f"lo{bound.axis}"
    if isinstance(bound, DomainHi):
        return f"hi{bound.axis}"
    if isinstance(bound, LoopVar):
        return bound.name
    if isinstance(bound, Shifted):
        sign = "+" if bound.offset >= 0 else "-"
        return f"{bound_pretty(bound.base)} {sign} {abs(bound.offset)}"
    if isinstance(bound, Clamped):
        return f"min({bound_pretty(bound.left)}, {bound_pretty(bound.right)})"
    raise HalideError(f"unknown bound expression {bound!r}")


# ---------------------------------------------------------------------------
# Loop-nest nodes
# ---------------------------------------------------------------------------

@dataclass
class ComputeSpan:
    """The innermost band: compute ``unroll`` consecutive vector spans.

    ``var`` holds the first span's start; span ``k`` covers output
    coordinates ``[var + k*width, min(var + (k+1)*width - 1, upper)]``
    along ``axis``.  ``width == 1`` is the scalar (default-schedule)
    case.
    """

    axis: int
    var: str
    width: int
    unroll: int
    upper: BoundExpr


@dataclass
class Loop:
    """One loop of the nest.

    ``kind`` records what the schedule made of this loop: ``"serial"``
    (plain), ``"tile"`` (a strip-mined tile loop stepping by the tile
    size), ``"parallel"`` (its range is executed as ``chunks``
    contiguous, step-aligned chunks — the structure a work-sharing
    runtime would hand to worker threads), ``"vector"``/``"unrolled"``
    (the innermost strip loop stepping by ``width * unroll``).
    """

    var: str
    axis: int
    lower: BoundExpr
    upper: BoundExpr
    step: int
    kind: str
    body: Union["Loop", ComputeSpan]
    chunks: int = 1


@dataclass
class LoopNest:
    """A fully lowered (Func, Schedule) pair: concrete nested loops."""

    func: Func
    schedule: Schedule
    root: Union[Loop, ComputeSpan]
    point_vars: Dict[int, str] = field(default_factory=dict)

    @property
    def dimensions(self) -> int:
        return self.func.dimensions

    def loops(self) -> List[Loop]:
        """All loops, outermost first."""
        result: List[Loop] = []
        node = self.root
        while isinstance(node, Loop):
            result.append(node)
            node = node.body
        return result

    def pretty(self) -> str:
        """Render the nest as indented pseudo-loops (docs and debugging)."""
        lines: List[str] = [f"nest {self.func.name} [{self.schedule.describe()}]"]
        node: Union[Loop, ComputeSpan] = self.root
        depth = 1
        while isinstance(node, Loop):
            step = f" step {node.step}" if node.step != 1 else ""
            chunks = f" chunks={node.chunks}" if node.kind == "parallel" else ""
            lines.append(
                "  " * depth
                + f"{node.kind} {node.var} = {bound_pretty(node.lower)} .. "
                + f"{bound_pretty(node.upper)}{step}{chunks}"
            )
            depth += 1
            node = node.body
        lines.append(
            "  " * depth
            + f"compute {self.func.name}[...] span({node.var}, width={node.width}, "
            + f"unroll={node.unroll})"
        )
        return "\n".join(lines)


def chunk_ranges(lower: int, upper: int, step: int, chunks: int) -> List[Tuple[int, int]]:
    """Split an inclusive stepped range into contiguous, step-aligned chunks.

    Alignment matters: chunk boundaries fall on multiples of ``step``
    from ``lower`` so the strip/tile pattern of an enclosed loop is the
    same as in the unchunked range, keeping execution order — and hence
    results — identical to serial execution.
    """
    if upper < lower:
        return []
    iterations = (upper - lower) // step + 1
    per_chunk = -(-iterations // max(1, chunks)) * step
    ranges: List[Tuple[int, int]] = []
    start = lower
    while start <= upper:
        end = min(start + per_chunk - step, upper)
        ranges.append((start, end))
        start = start + per_chunk
    return ranges

