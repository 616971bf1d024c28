"""Schedules: how a Func's domain is traversed and mapped to hardware.

Halide separates the algorithm from the schedule; STNG's generated C++
emits a default schedule which the OpenTuner-based autotuner then
improves.  Our :class:`Schedule` records the same CPU decisions —
parallelisation, tiling/split factors, vectorisation, unrolling and
dimension order — and is consumed by two components:

* the performance models in :mod:`repro.perfmodel`, which estimate the
  runtime of a (Func, Schedule, grid, machine) combination; and
* the autotuner in :mod:`repro.autotune`, which searches the space of
  schedules for the fastest one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple


class ScheduleError(Exception):
    """Raised for inconsistent schedule directives."""


_ALLOWED_VECTOR_WIDTHS = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class Schedule:
    """An execution schedule for one Func.

    Attributes
    ----------
    parallel_dim:
        Index (into the Func's variable list) of the dimension executed
        across cores, or ``None`` for serial execution.
    tile_sizes:
        Per-dimension tile extents; ``0`` means "do not tile this
        dimension".
    vector_width:
        SIMD width applied to the innermost dimension (1 = scalar).
    unroll:
        Unroll factor of the innermost dimension.
    dim_order:
        Traversal order (innermost first); ``None`` keeps the natural
        order.
    inline:
        For a producer stage in a multi-stage pipeline: substitute the
        definition into every consumer instead of realizing the stage
        into its own buffer (Halide's ``compute_inline``).
    """

    parallel_dim: Optional[int] = None
    tile_sizes: Tuple[int, ...] = ()
    vector_width: int = 1
    unroll: int = 1
    dim_order: Optional[Tuple[int, ...]] = None
    inline: bool = False

    def __post_init__(self) -> None:
        """Reject internally-inconsistent schedules at construction time.

        Rank-dependent checks (``tile_sizes``/``dim_order`` length versus
        the Func's dimensionality) run in :meth:`validate`, which the
        lowering pass calls before building a loop nest.
        """
        if self.vector_width not in _ALLOWED_VECTOR_WIDTHS:
            raise ScheduleError(
                f"vector width {self.vector_width} is not one of {_ALLOWED_VECTOR_WIDTHS}"
            )
        if not (1 <= self.unroll <= 16):
            raise ScheduleError(f"unroll factor {self.unroll} must be between 1 and 16")
        if any(size < 0 for size in self.tile_sizes):
            raise ScheduleError(f"tile sizes must be non-negative, got {self.tile_sizes}")
        if self.dim_order is not None and sorted(self.dim_order) != list(range(len(self.dim_order))):
            raise ScheduleError(
                f"dim_order {self.dim_order} is not a permutation of {len(self.dim_order)} dimensions"
            )
        if self.parallel_dim is not None and self.parallel_dim < 0:
            raise ScheduleError(f"parallel dimension {self.parallel_dim} must be non-negative")

    # -- fluent construction -------------------------------------------------
    def with_parallel(self, dim: int) -> "Schedule":
        return replace(self, parallel_dim=dim)

    def with_tiles(self, sizes: Tuple[int, ...]) -> "Schedule":
        return replace(self, tile_sizes=tuple(sizes))

    def with_vectorize(self, width: int) -> "Schedule":
        return replace(self, vector_width=width)

    def with_unroll(self, factor: int) -> "Schedule":
        return replace(self, unroll=factor)

    def with_order(self, order: Tuple[int, ...]) -> "Schedule":
        return replace(self, dim_order=tuple(order))

    def with_inline(self) -> "Schedule":
        return replace(self, inline=True)

    # -- validation / description ----------------------------------------------
    def validate(self, dimensions: int) -> None:
        """Raise :class:`ScheduleError` when the schedule does not fit the Func.

        The ``parallel_dim`` range check lives in lowering
        (:func:`repro.halide.lower.lower`), which is the first point
        that knows it will actually build a parallel band — the error
        message there names the Func being lowered.
        """
        if self.tile_sizes and len(self.tile_sizes) != dimensions:
            raise ScheduleError(
                f"tile_sizes has {len(self.tile_sizes)} entries but the Func has "
                f"{dimensions} dimensions (use 0 for untiled dimensions)"
            )
        if self.dim_order is not None and sorted(self.dim_order) != list(range(dimensions)):
            raise ScheduleError(
                f"dim_order {self.dim_order} is not a permutation of the Func's "
                f"{dimensions} dimensions"
            )

    def describe(self) -> str:
        parts: List[str] = []
        if self.inline:
            parts.append("inline")
        if self.parallel_dim is not None:
            parts.append(f"parallel(dim{self.parallel_dim})")
        if self.tile_sizes and any(self.tile_sizes):
            parts.append("tile(" + "x".join(str(t) for t in self.tile_sizes) + ")")
        if self.vector_width > 1:
            parts.append(f"vectorize({self.vector_width})")
        if self.unroll > 1:
            parts.append(f"unroll({self.unroll})")
        if self.dim_order is not None:
            parts.append("reorder(" + ",".join(map(str, self.dim_order)) + ")")
        return " ".join(parts) if parts else "default(serial)"

    # -- canonical schedules -----------------------------------------------------
    @staticmethod
    def default() -> "Schedule":
        """The schedule STNG's generated C++ starts from (serial, untiled)."""
        return Schedule()

    @staticmethod
    def baseline_parallel(dimensions: int) -> "Schedule":
        """Parallelise the outermost dimension, vectorize the innermost."""
        if dimensions < 1:
            return Schedule()
        return Schedule(parallel_dim=dimensions - 1, vector_width=4)
