"""Kernel-case metadata and the Fortran stencil source generator.

Most suite kernels are instances of a small number of shapes (2-D and
3-D weighted-neighbourhood stencils, register-rotated variants, tiled
and unrolled variants, and deliberately untranslatable loops); the
``stencil_fortran`` generator produces idiomatic Fortran for a shape
description so the suite modules can stay declarative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class KernelCase:
    """One benchmark kernel: source text plus metadata for the harness."""

    name: str
    suite: str
    source: str
    is_stencil: bool = True
    expect_translated: bool = True
    points: Optional[int] = None
    reduction_like: bool = False
    needs_annotation: bool = False
    hand_optimized: bool = False
    notes: str = ""

    @property
    def procedure_name(self) -> str:
        """Name of the procedure defined by ``source`` (for stencil flags).

        Handles typed headers (``integer function foo(n)``) by scanning
        for the definition keyword anywhere in the line; ``end`` lines
        are skipped so the opening definition always wins.
        """
        for line in self.source.splitlines():
            words = line.split()
            if not words or words[0] == "end" or words[0].startswith("!"):
                continue
            for position, word in enumerate(words[:-1]):
                if word in ("subroutine", "procedure", "function"):
                    return words[position + 1].split("(")[0]
        raise ValueError(f"case {self.name!r} has no procedure definition")


Offset = Tuple[int, ...]


_DIM_NAMES = ("i", "j", "k", "l", "m", "n")
_BOUND_NAMES = (("ilo", "ihi"), ("jlo", "jhi"), ("klo", "khi"), ("llo", "lhi"), ("mlo", "mhi"), ("nlo", "nhi"))


def _format_coeff(value: float) -> str:
    if value == 1.0:
        return ""
    if value == int(value):
        return f"{int(value)}.0d0*"
    return f"{value!r}d0*".replace("e", "d")


def _term(array: str, offsets: Offset, coeff: float) -> str:
    indices = []
    for dim, offset in enumerate(offsets):
        var = _DIM_NAMES[dim]
        if offset == 0:
            indices.append(var)
        elif offset > 0:
            indices.append(f"{var}+{offset}")
        else:
            indices.append(f"{var}-{-offset}")
    return f"{_format_coeff(coeff)}{array}({', '.join(indices)})"


def stencil_fortran(
    name: str,
    dims: int,
    reads: Sequence[Tuple[Offset, float]],
    input_arrays: Optional[Sequence[str]] = None,
    output_array: str = "uout",
    pad: Optional[int] = None,
    use_temporary: bool = False,
    tile: Optional[Dict[int, int]] = None,
    unroll_innermost: bool = False,
    annotation: Optional[str] = None,
    extra_scalar: Optional[Tuple[str, float]] = None,
) -> str:
    """Generate Fortran source for one stencil procedure.

    Parameters
    ----------
    reads:
        ``(offsets, coefficient)`` pairs; the output point is the
        weighted sum of the input read at each offset.
    input_arrays:
        Input array names (default one array ``uin``); reads cycle
        through them.
    pad:
        How far the loop bounds stay away from the declared array
        bounds (defaults to the stencil radius).
    use_temporary:
        Rotate the innermost-dimension reads through a scalar
        temporary, as hand-optimised codes do (exercises invariant
        scalar equalities).
    tile:
        Map from dimension index to tile size: that dimension's loop is
        strip-mined with a hard-coded tile (hand-optimised form).
    unroll_innermost:
        Unroll the innermost loop by two (two stores per iteration).
    annotation:
        Text of a ``!STNG: assume(...)`` annotation to include.
    extra_scalar:
        ``(name, value_unused)`` — adds a floating-point scalar input
        that multiplies the first read (exercises Param generation).
    """
    inputs = list(input_arrays or ["uin"])
    radius = max((max(abs(component) for component in offsets) for offsets, _ in reads), default=1)
    pad = radius if pad is None else pad

    bounds = _BOUND_NAMES[:dims]
    params = [b for pair in bounds for b in pair] + [output_array] + inputs
    if extra_scalar is not None:
        params.append(extra_scalar[0])

    lines: List[str] = []
    lines.append(f"subroutine {name}({', '.join(params)})")
    dim_spec = ", ".join(f"{lo}:{hi}" for lo, hi in bounds)
    for array in [output_array] + inputs:
        lines.append(f"real (kind=8), dimension({dim_spec}) :: {array}")
    for lo, hi in bounds:
        lines.append(f"integer :: {lo}, {hi}")
    if extra_scalar is not None:
        lines.append(f"real (kind=8) :: {extra_scalar[0]}")
    if annotation is not None:
        lines.append(f"!STNG: assume({annotation})")

    # Loop structure: outermost dimension is the last one (Fortran
    # column-major order iterates the first index innermost).
    loop_dims = list(range(dims - 1, -1, -1))
    indent = ""
    opened: List[str] = []

    def open_loop(var: str, lower: str, upper: str, step: Optional[int] = None) -> None:
        nonlocal indent
        step_text = f", {step}" if step else ""
        lines.append(f"{indent}do {var} = {lower}, {upper}{step_text}")
        opened.append(var)
        indent += "  "

    tile = tile or {}
    tile_counters: Dict[int, str] = {}
    for dim in loop_dims:
        lo, hi = bounds[dim]
        lower = f"{lo}+{pad}" if pad else lo
        upper = f"{hi}-{pad}" if pad else hi
        var = _DIM_NAMES[dim]
        if dim in tile:
            tile_size = tile[dim]
            tile_var = f"{var}t"
            tile_counters[dim] = tile_var
            open_loop(tile_var, lower, upper, step=tile_size)
            open_loop(var, tile_var, f"min({tile_var}+{tile_size - 1}, {upper})")
        elif dim == 0 and unroll_innermost:
            open_loop(var, lower, upper, step=2)
        else:
            open_loop(var, lower, upper)

    def rhs_for(shift: int = 0) -> str:
        terms = []
        for index, (offsets, coeff) in enumerate(reads):
            array = inputs[index % len(inputs)]
            shifted = (offsets[0] + shift,) + tuple(offsets[1:])
            term = _term(array, shifted, coeff)
            if index == 0 and extra_scalar is not None:
                term = f"{extra_scalar[0]}*{term}"
            terms.append(term)
        return " + ".join(terms)

    out_index = ", ".join(_DIM_NAMES[:dims])

    if use_temporary:
        # Register rotation along the innermost dimension, as in Figure 1(a):
        # the i-1 read of the first input array is carried in a scalar.
        lines.pop()  # remove the innermost loop line we just emitted
        innermost = opened.pop()
        indent = indent[:-2]
        lo, hi = bounds[0]
        lower = f"{lo}+{pad}" if pad else lo
        upper = f"{hi}-{pad}" if pad else hi
        lines.append(f"{indent}t = {inputs[0]}({lower}-1, {', '.join(_DIM_NAMES[1:dims])})")
        lines.append(f"{indent}do {innermost} = {lower}, {upper}")
        opened.append(innermost)
        indent += "  "
        lines.append(f"{indent}q = {inputs[0]}({out_index})")
        other_terms = []
        for index, (offsets, coeff) in enumerate(reads):
            if index == 0:
                continue
            array = inputs[index % len(inputs)]
            other_terms.append(_term(array, offsets, coeff))
        rotated = " + ".join(["q + t"] + other_terms) if other_terms else "q + t"
        lines.append(f"{indent}{output_array}({out_index}) = {rotated}")
        lines.append(f"{indent}t = q")
    elif unroll_innermost:
        lines.append(f"{indent}{output_array}({out_index}) = {rhs_for(0)}")
        unrolled_index = ", ".join([f"{_DIM_NAMES[0]}+1"] + list(_DIM_NAMES[1:dims]))
        lines.append(f"{indent}{output_array}({unrolled_index}) = {rhs_for(1)}")
    else:
        lines.append(f"{indent}{output_array}({out_index}) = {rhs_for(0)}")

    for _ in opened:
        indent = indent[:-2]
        lines.append(f"{indent}enddo")
    lines.append(f"end subroutine {name}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Common stencil shapes
# ---------------------------------------------------------------------------

def cross_2d(radius: int = 1, weight: float = 1.0) -> List[Tuple[Offset, float]]:
    """Five-point (or wider) cross in 2-D."""
    reads: List[Tuple[Offset, float]] = [((0, 0), weight)]
    for r in range(1, radius + 1):
        reads.extend(
            [((r, 0), weight), ((-r, 0), weight), ((0, r), weight), ((0, -r), weight)]
        )
    return reads


def cross_3d(weight: float = 1.0) -> List[Tuple[Offset, float]]:
    """Seven-point cross in 3-D."""
    reads: List[Tuple[Offset, float]] = [((0, 0, 0), weight)]
    for axis in range(3):
        for sign in (1, -1):
            offset = [0, 0, 0]
            offset[axis] = sign
            reads.append((tuple(offset), weight))
    return reads


def box_3d(weight_center: float = 1.0, weight_other: float = 0.5) -> List[Tuple[Offset, float]]:
    """Full 27-point box in 3-D."""
    reads: List[Tuple[Offset, float]] = []
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            for dk in (-1, 0, 1):
                weight = weight_center if (di, dj, dk) == (0, 0, 0) else weight_other
                reads.append(((di, dj, dk), weight))
    return reads


def pair_1d_2d() -> List[Tuple[Offset, float]]:
    """The running example's two-point stencil (current plus west neighbour)."""
    return [((0, 0), 1.0), ((-1, 0), 1.0)]
