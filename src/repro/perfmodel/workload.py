"""Per-kernel workload characterisation.

The cost models need, per stencil kernel: how many output points it
updates, how many arithmetic operations and array reads each point
costs, its dimensionality, and how "dirty" the original loop nest is
(tiling, unrolling, non-affine bounds) — the features that decide how
each compiler model fares on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.halide.lang import Func
from repro.ir import nodes as ir
from repro.ir.analysis import collect_loops, loop_nest_depth, output_arrays, written_cells
from repro.ir.nodes import BinOp, FuncCall


@dataclass(frozen=True)
class KernelWorkload:
    """Static features of one stencil kernel used by the performance models."""

    name: str
    dimensionality: int
    points: int                     # output points per invocation (problem size)
    ops_per_point: float
    loads_per_point: float
    output_arrays: int
    loop_depth: int
    hand_tiled: bool                # non-affine / tiled / unrolled original code
    is_reduction_like: bool = False  # tiny output (cheap to transfer back from a GPU)
    transcendental: bool = False

    @property
    def flops(self) -> float:
        return self.ops_per_point * self.points

    @property
    def bytes_moved(self) -> float:
        # one load per read plus one store per point, double precision
        return (self.loads_per_point + 1.0) * 8.0 * self.points


DEFAULT_POINTS_3D = 256 ** 3
DEFAULT_POINTS_2D = 4096 ** 2
DEFAULT_POINTS_1D = 2 ** 24


def _default_points(dimensionality: int) -> int:
    if dimensionality >= 3:
        return DEFAULT_POINTS_3D
    if dimensionality == 2:
        return DEFAULT_POINTS_2D
    return DEFAULT_POINTS_1D


def domain_for_points(dimensionality: int, points: int):
    """A near-cubic output domain of roughly ``points`` total points.

    Used wherever a kernel characterised only by its point count must
    actually be *executed* — measured autotuning and the differential
    test-suites — to pick concrete inclusive per-dimension bounds.
    """
    dimensionality = max(1, dimensionality)
    extent = max(2, round(max(1, points) ** (1.0 / dimensionality)))
    return [(0, extent - 1) for _ in range(dimensionality)]


def workload_from_kernel(
    kernel: ir.Kernel,
    points: Optional[int] = None,
    hand_tiled: Optional[bool] = None,
) -> KernelWorkload:
    """Characterise a kernel from its IR (the original, possibly optimised code)."""
    sites = written_cells(kernel)
    dimensionality = max((len(site.indices) for site in sites), default=1)
    ops = 0
    loads = 0
    transcendental = False
    store_count = 0
    for stmt in _stores(kernel):
        store_count += 1
        for node in stmt.value.walk():
            if isinstance(node, BinOp):
                ops += 1
            elif isinstance(node, FuncCall):
                ops += 4
                transcendental = True
            elif isinstance(node, ir.ArrayLoad):
                loads += 1
    store_count = max(store_count, 1)
    loops = collect_loops(kernel.body)
    tiled = hand_tiled
    if tiled is None:
        tiled = _looks_hand_tiled(kernel)
    return KernelWorkload(
        name=kernel.name,
        dimensionality=dimensionality,
        points=points or _default_points(dimensionality),
        ops_per_point=max(ops / store_count, 1.0),
        loads_per_point=max(loads / store_count, 1.0),
        output_arrays=len(output_arrays(kernel)),
        loop_depth=loop_nest_depth(kernel.body),
        hand_tiled=tiled,
        transcendental=transcendental,
    )


def workload_from_func(
    func: Func,
    name: str,
    points: int,
    dimensionality: Optional[int] = None,
) -> KernelWorkload:
    """Characterise the regenerated (clean) form of a kernel from its Halide Func."""
    return KernelWorkload(
        name=name,
        dimensionality=dimensionality or func.dimensions,
        points=points,
        ops_per_point=max(func.arith_ops(), 1),
        loads_per_point=max(func.loads_per_point(), 1),
        output_arrays=1,
        loop_depth=func.dimensions,
        hand_tiled=False,
    )


def _stores(kernel: ir.Kernel):
    from repro.ir.analysis import iter_statements

    for stmt in iter_statements(kernel.body):
        if isinstance(stmt, ir.ArrayStore):
            yield stmt


def _looks_hand_tiled(kernel: ir.Kernel) -> bool:
    """Heuristic: deep nests with min/max bounds or counter-dependent bounds."""
    loops = collect_loops(kernel.body)
    counters = {loop.counter for loop in loops}
    sites = written_cells(kernel)
    dimensionality = max((len(site.indices) for site in sites), default=1)
    if len(loops) > dimensionality:
        return True
    for loop in loops:
        for bound in (loop.lower, loop.upper):
            for node in bound.walk():
                if isinstance(node, FuncCall) and node.func in {"min", "max"}:
                    return True
                if isinstance(node, ir.VarRef) and node.name in counters:
                    return True
    return False
