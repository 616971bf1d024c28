"""Kernel definitions for all six suites.

Each ``<suite>_cases()`` function returns the list of
:class:`~repro.suites.base.KernelCase` objects the pipeline runs on.
The counts per suite follow Table 2 of the paper (93 flagged loop
nests: 77 translatable stencils, 11 stencils the prototype cannot
translate, 5 non-stencils), and the mix of shapes follows the paper's
description of each application: 3-D microbenchmarks for StencilMark,
multigrid operators for NAS MG, 2-D staggered-grid hydrodynamics for
CloverLeaf, a high-dimensional kernel for TERRA, finite-volume
geometry/flux kernels for NFFS-FVM, and hand-tiled/unrolled 27-point
kernels for the challenge set.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.suites.base import KernelCase, box_3d, cross_2d, cross_3d, stencil_fortran

# Smaller default problem sizes keep the analytic models in a realistic
# regime without affecting ratios (they cancel in the speedups).
POINTS_2D = 2048 ** 2
POINTS_3D = 192 ** 3


# ---------------------------------------------------------------------------
# Deliberately untranslatable sources (Table 2's middle columns)
# ---------------------------------------------------------------------------

def _decrementing_stencil(name: str, dims: int = 2) -> str:
    """A real stencil, but with a decrementing loop (rejected per §5.4)."""
    if dims == 2:
        return (
            f"subroutine {name}(ilo,ihi,jlo,jhi,uout,uin)\n"
            "real (kind=8), dimension(ilo:ihi,jlo:jhi) :: uout\n"
            "real (kind=8), dimension(ilo:ihi,jlo:jhi) :: uin\n"
            "do j = jhi-1, jlo+1, -1\n"
            "  do i = ilo+1, ihi-1\n"
            "    uout(i,j) = uin(i-1,j) + uin(i+1,j)\n"
            "  enddo\n"
            "enddo\n"
            f"end subroutine {name}\n"
        )
    return (
        f"subroutine {name}(ilo,ihi,jlo,jhi,klo,khi,uout,uin)\n"
        "real (kind=8), dimension(ilo:ihi,jlo:jhi,klo:khi) :: uout\n"
        "real (kind=8), dimension(ilo:ihi,jlo:jhi,klo:khi) :: uin\n"
        "do k = khi-1, klo+1, -1\n"
        "  do j = jlo+1, jhi-1\n"
        "    do i = ilo+1, ihi-1\n"
        "      uout(i,j,k) = uin(i,j,k-1) + uin(i,j,k+1)\n"
        "    enddo\n"
        "  enddo\n"
        "enddo\n"
        f"end subroutine {name}\n"
    )


def _boundary_conditional_stencil(name: str) -> str:
    """A stencil guarded by a boundary conditional (rejected: conditionals)."""
    return (
        f"subroutine {name}(ilo,ihi,jlo,jhi,uout,uin)\n"
        "real (kind=8), dimension(ilo:ihi,jlo:jhi) :: uout\n"
        "real (kind=8), dimension(ilo:ihi,jlo:jhi) :: uin\n"
        "do j = jlo, jhi\n"
        "  do i = ilo, ihi\n"
        "    if (i > ilo) then\n"
        "      uout(i,j) = uin(i-1,j) + uin(i,j)\n"
        "    else\n"
        "      uout(i,j) = uin(i,j)\n"
        "    endif\n"
        "  enddo\n"
        "enddo\n"
        f"end subroutine {name}\n"
    )


def _procedure_call_loop(name: str) -> str:
    """A loop calling another procedure (flagged but not translatable)."""
    return (
        f"subroutine {name}(ilo,ihi,jlo,jhi,uout,uin)\n"
        "real (kind=8), dimension(ilo:ihi,jlo:jhi) :: uout\n"
        "real (kind=8), dimension(ilo:ihi,jlo:jhi) :: uin\n"
        "do j = jlo, jhi\n"
        "  do i = ilo, ihi\n"
        "    call helper(uout, uin, i, j)\n"
        "  enddo\n"
        "enddo\n"
        f"end subroutine {name}\n"
    )


def _indirect_access_loop(name: str) -> str:
    """A gather through an index array — flagged, but not a stencil."""
    return (
        f"subroutine {name}(n,uout,uin,idx)\n"
        "real (kind=8), dimension(1:n) :: uout\n"
        "real (kind=8), dimension(1:n) :: uin\n"
        "real (kind=8), dimension(1:n) :: idx\n"
        "do i = 1, n\n"
        "  uout(i) = uin(idx(i))\n"
        "enddo\n"
        f"end subroutine {name}\n"
    )


def _reduction_loop(name: str) -> str:
    """An accumulation into a scalar — flagged (uses arrays) but not a stencil."""
    return (
        f"subroutine {name}(ilo,ihi,jlo,jhi,total,uin)\n"
        "real (kind=8), dimension(ilo:ihi,jlo:jhi) :: uin\n"
        "real (kind=8) :: total\n"
        "do j = jlo, jhi\n"
        "  do i = ilo, ihi\n"
        "    total = total + uin(i,j)\n"
        "  enddo\n"
        "enddo\n"
        f"end subroutine {name}\n"
    )


def _annotated_strided_stencil(name: str) -> str:
    """A kernel whose accessor needs a user assumption to be analysable (§5.2).

    The stride ``sz0 - sz1`` makes the written region depend on scalar
    inputs; the annotation pins it so the modified region is dense.
    """
    return (
        f"subroutine {name}(ilo,ihi,sz0,sz1,uout,uin)\n"
        "real (kind=8), dimension(ilo:ihi) :: uout\n"
        "real (kind=8), dimension(ilo:ihi) :: uin\n"
        "integer :: sz0, sz1\n"
        "!STNG: assume(sz0 - sz1 == 1)\n"
        "do i = ilo+1, ihi-1\n"
        "  uout(i*(sz0-sz1)) = uin(i-1) + uin(i+1)\n"
        "enddo\n"
        f"end subroutine {name}\n"
    )


# ---------------------------------------------------------------------------
# StencilMark: four 3-D microbenchmark kernels
# ---------------------------------------------------------------------------

def stencilmark_cases() -> List[KernelCase]:
    cases: List[KernelCase] = []
    cases.append(
        KernelCase(
            name="heat0",
            suite="StencilMark",
            source=stencil_fortran("heat0", 3, cross_3d(weight=1.0 / 6.0), output_array="unew", input_arrays=["uold"]),
            points=POINTS_3D,
        )
    )
    cases.append(
        KernelCase(
            name="div0",
            suite="StencilMark",
            source=stencil_fortran(
                "div0",
                3,
                [((1, 0, 0), 0.5), ((-1, 0, 0), -0.5), ((0, 1, 0), 0.5), ((0, -1, 0), -0.5), ((0, 0, 1), 0.5), ((0, 0, -1), -0.5)],
                output_array="dvg",
                input_arrays=["vel"],
            ),
            points=POINTS_3D,
        )
    )
    cases.append(
        KernelCase(
            name="grad0",
            suite="StencilMark",
            source=stencil_fortran(
                "grad0",
                3,
                [((1, 0, 0), 0.5), ((-1, 0, 0), -0.5), ((0, 0, 0), 1.0)],
                output_array="gx",
                input_arrays=["phi"],
                extra_scalar=("h", 0.0),
            ),
            points=POINTS_3D,
        )
    )
    # The fourth StencilMark kernel is the one STNG could not translate
    # (Table 2: 4 candidates, 3 translated, 1 untranslated stencil).
    cases.append(
        KernelCase(
            name="wave0",
            suite="StencilMark",
            source=_decrementing_stencil("wave0", dims=3),
            expect_translated=False,
            points=POINTS_3D,
        )
    )
    return cases


# ---------------------------------------------------------------------------
# NAS MG: multigrid operators (9 candidates, 3 translated, 5 untranslated, 1 non-stencil)
# ---------------------------------------------------------------------------

def nasmg_cases() -> List[KernelCase]:
    cases: List[KernelCase] = []
    cases.append(
        KernelCase(
            name="mgl5_resid",
            suite="NAS MG",
            source=stencil_fortran("mgl5_resid", 3, box_3d(weight_center=-8.0 / 3.0, weight_other=1.0 / 6.0), output_array="r", input_arrays=["u"]),
            points=POINTS_3D,
            hand_optimized=True,
        )
    )
    cases.append(
        KernelCase(
            name="mgl15_psinv",
            suite="NAS MG",
            source=stencil_fortran("mgl15_psinv", 3, cross_3d(weight=0.25), output_array="z", input_arrays=["r"]),
            points=POINTS_3D,
        )
    )
    cases.append(
        KernelCase(
            name="mgl18_interp",
            suite="NAS MG",
            source=stencil_fortran(
                "mgl18_interp",
                3,
                [((0, 0, 0), 0.5), ((1, 0, 0), 0.25), ((0, 1, 0), 0.25)],
                output_array="uf",
                input_arrays=["uc"],
            ),
            points=POINTS_3D,
        )
    )
    for index in range(5):
        name = f"mg_comm{index}"
        if index % 2 == 0:
            source = _boundary_conditional_stencil(name)
        else:
            source = _decrementing_stencil(name, dims=3)
        cases.append(
            KernelCase(name=name, suite="NAS MG", source=source, expect_translated=False, points=POINTS_3D)
        )
    cases.append(
        KernelCase(
            name="mg_norm",
            suite="NAS MG",
            source=_reduction_loop("mg_norm"),
            is_stencil=False,
            expect_translated=False,
        )
    )
    return cases


# ---------------------------------------------------------------------------
# CloverLeaf: 2-D staggered-grid hydrodynamics (45 candidates, 40 translated)
# ---------------------------------------------------------------------------

_CLOVER_SHAPES: List[Tuple[str, List[Tuple[Tuple[int, ...], float]], Dict]] = [
    ("akl81", cross_2d(radius=1, weight=0.25), {"use_temporary": True}),
    ("akl83", [((0, 0), 1.0), ((-1, 0), 0.5), ((0, -1), 0.5)], {}),
    ("akl84", [((0, 0), 1.0), ((1, 0), 0.5), ((0, 1), 0.5)], {}),
    ("akl85", [((0, 0), 0.5), ((-1, 0), 0.25), ((-1, -1), 0.25)], {}),
    ("akl86", [((0, 0), 0.5), ((1, 0), 0.25), ((1, 1), 0.25)], {}),
    ("ackl95", [((0, 0), 1.0), ((-1, 0), -1.0)], {"input_arrays": ["p", "q"]}),
    ("amkl100", [((0, 0), 1.0), ((0, -1), -1.0)], {"input_arrays": ["p", "q"]}),
    ("amkl101", [((0, 0), 0.5), ((0, 1), 0.5)], {}),
    ("amkl103", [((0, 0), 1.0), ((1, 0), 1.0)], {}),
    ("amkl105", [((0, 0), 0.5), ((-1, -1), 0.5)], {}),
    ("amkl107", [((0, 0), 1.0), ((0, 1), 1.0)], {}),
    ("amkl97", cross_2d(radius=1, weight=0.2), {"extra_scalar": ("dt", 0.0)}),
    ("amkl98", cross_2d(radius=1, weight=0.2), {"use_temporary": True}),
    ("amkl99", [((0, 0), 1.0), ((-1, 0), 0.5), ((1, 0), 0.5)], {}),
    ("fckl89", [((0, 0), 0.5), ((0, -1), 0.25), ((0, 1), 0.25)], {}),
    ("fckl90", [((0, 0), 1.0), ((-1, 0), -0.5), ((1, 0), -0.5)], {}),
    ("gckl77", [((0, 0), 1.0), ((-1, 0), 1.0)], {}),
    ("gckl78", [((0, 0), 1.0), ((0, -1), 1.0)], {}),
    ("gckl79", [((0, 0), 1.0), ((1, 0), 1.0)], {}),
    ("gckl80", [((0, 0), 1.0), ((0, 1), 1.0)], {}),
    ("ickl10", [((0, 0), 1.0)], {"extra_scalar": ("vol", 0.0)}),
    ("ickl11", [((0, 0), 0.5)], {}),
    ("ickl12", [((0, 0), 2.0)], {"extra_scalar": ("mass", 0.0)}),
    ("ickl13", [((0, 0), 1.0)], {"input_arrays": ["den", "eng"]}),
    ("ickl14", [((0, 0), 1.0), ((-1, -1), 1.0)], {}),
    ("ickl15", [((0, 0), 1.0), ((1, -1), 1.0)], {}),
    ("ickl16", [((0, 0), 1.0), ((-1, 1), 1.0)], {}),
    ("ickl8", [((0, 0), 0.25)], {}),
    ("ickl9", [((0, 0), 4.0)], {}),
    ("rfkl109", [((0, 0), 1.0), ((1, 0), -1.0), ((0, 1), -1.0)], {}),
    ("rfkl110", [((0, 0), 1.0), ((-1, 0), -1.0), ((0, -1), -1.0)], {}),
    ("rfkl111", [((0, 0), 0.5), ((1, 1), 0.5)], {}),
    ("rfkl112", [((0, 0), 0.5), ((-1, 1), 0.5)], {}),
    ("ackl91", cross_2d(radius=1, weight=0.125), {"use_temporary": True}),
    ("ackl92", [((0, 0), 1.0), ((-1, 0), 0.25), ((0, -1), 0.25), ((-1, -1), 0.25)], {}),
    ("ackl94", cross_2d(radius=2, weight=0.1), {}),
    ("ackl102", cross_2d(radius=1, weight=0.25), {"input_arrays": ["xvel", "yvel"]}),
    ("ackl106", [((0, 0), 0.5), ((-1, 0), 0.125), ((1, 0), 0.125), ((0, -1), 0.125), ((0, 1), 0.125)], {}),
    ("rkl87", [((0, 0), 1.0), ((1, 0), 0.5)], {}),
    ("rkl88", [((0, 0), 1.0), ((0, 1), 0.5)], {}),
]


def cloverleaf_cases() -> List[KernelCase]:
    cases: List[KernelCase] = []
    for name, reads, extra in _CLOVER_SHAPES:
        kwargs = dict(extra)
        annotation = None
        if name in {"ickl10", "ickl12"}:
            # Two CloverLeaf kernels require programmer annotations (§5.2/§6.2).
            annotation = "ihi - ilo >= 2"
        source = stencil_fortran(
            name,
            2,
            reads,
            output_array=kwargs.pop("output_array", "uout"),
            annotation=annotation,
            **kwargs,
        )
        cases.append(
            KernelCase(
                name=name,
                suite="CloverLeaf",
                source=source,
                points=POINTS_2D,
                reduction_like=name.startswith("ickl"),
                needs_annotation=annotation is not None,
                hand_optimized="use_temporary" in extra,
            )
        )
    # 4 untranslated stencils + 1 non-stencil to match Table 2.
    cases.append(
        KernelCase(
            name="update_halo_left",
            suite="CloverLeaf",
            source=_boundary_conditional_stencil("update_halo_left"),
            expect_translated=False,
            points=POINTS_2D,
        )
    )
    cases.append(
        KernelCase(
            name="update_halo_right",
            suite="CloverLeaf",
            source=_boundary_conditional_stencil("update_halo_right"),
            expect_translated=False,
            points=POINTS_2D,
        )
    )
    cases.append(
        KernelCase(
            name="advec_rev",
            suite="CloverLeaf",
            source=_decrementing_stencil("advec_rev", dims=2),
            expect_translated=False,
            points=POINTS_2D,
        )
    )
    cases.append(
        KernelCase(
            name="visit_pack",
            suite="CloverLeaf",
            source=_procedure_call_loop("visit_pack"),
            expect_translated=False,
            points=POINTS_2D,
        )
    )
    cases.append(
        KernelCase(
            name="field_summary",
            suite="CloverLeaf",
            source=_reduction_loop("field_summary"),
            is_stencil=False,
            expect_translated=False,
        )
    )
    return cases


# ---------------------------------------------------------------------------
# TERRA: one high-dimensional mantle-convection kernel
# ---------------------------------------------------------------------------

def terra_cases() -> List[KernelCase]:
    source = (
        "subroutine terra_advect(ilo,ihi,jlo,jhi,klo,khi,llo,lhi,mlo,mhi,unew,uold)\n"
        "real (kind=8), dimension(ilo:ihi,jlo:jhi,klo:khi,llo:lhi,mlo:mhi) :: unew\n"
        "real (kind=8), dimension(ilo:ihi,jlo:jhi,klo:khi,llo:lhi,mlo:mhi) :: uold\n"
        "do m = mlo, mhi\n"
        " do l = llo, lhi\n"
        "  do k = klo+1, khi-1\n"
        "   do j = jlo+1, jhi-1\n"
        "    do i = ilo+1, ihi-1\n"
        "     unew(i,j,k,l,m) = uold(i,j,k,l,m) + uold(i-1,j,k,l,m) + uold(i,j-1,k,l,m) + uold(i,j,k-1,l,m)\n"
        "    enddo\n"
        "   enddo\n"
        "  enddo\n"
        " enddo\n"
        "enddo\n"
        "end subroutine terra_advect\n"
    )
    return [
        KernelCase(
            name="terra_advect",
            suite="TERRA",
            source=source,
            points=64 ** 3 * 10 * 10,
            notes="5-D arrays; lifting succeeds, Halide generation requires the per-dimensionality split",
        )
    ]


# ---------------------------------------------------------------------------
# NFFS-FVM: finite-volume geometry and flux kernels (29 candidates, 25 translated)
# ---------------------------------------------------------------------------

def nffs_cases() -> List[KernelCase]:
    cases: List[KernelCase] = []
    # 18 geometry kernels: simple pointwise / small-neighbourhood 3-D maps.
    geometry_offsets = [
        [((0, 0, 0), 1.0)],
        [((0, 0, 0), 0.5), ((1, 0, 0), 0.5)],
        [((0, 0, 0), 0.5), ((0, 1, 0), 0.5)],
        [((0, 0, 0), 0.5), ((0, 0, 1), 0.5)],
        [((0, 0, 0), 1.0), ((-1, 0, 0), -1.0)],
        [((0, 0, 0), 1.0), ((0, -1, 0), -1.0)],
    ]
    for index in range(18):
        reads = geometry_offsets[index % len(geometry_offsets)]
        name = f"geomet{index}"
        annotation = "ihi - ilo >= 2" if index in (3, 7, 11, 14) else None
        cases.append(
            KernelCase(
                name=name,
                suite="NFFS-FVM",
                source=stencil_fortran(
                    name, 3, reads, output_array="geo", input_arrays=["grid"], annotation=annotation
                ),
                points=POINTS_3D,
                needs_annotation=annotation is not None,
            )
        )
    # calcph / meclfu / simple / initial: larger flux kernels.
    cases.append(
        KernelCase(
            name="calcph0",
            suite="NFFS-FVM",
            source=stencil_fortran("calcph0", 3, cross_3d(weight=0.125), output_array="ph", input_arrays=["phi"]),
            points=POINTS_3D,
        )
    )
    cases.append(
        KernelCase(
            name="calcph1",
            suite="NFFS-FVM",
            source=stencil_fortran(
                "calcph1",
                3,
                cross_3d(weight=0.125) + [((1, 1, 0), 0.0625), ((-1, -1, 0), 0.0625)],
                output_array="ph",
                input_arrays=["phi", "rho"],
            ),
            points=POINTS_3D,
            hand_optimized=True,
        )
    )
    cases.append(
        KernelCase(
            name="meclfu0",
            suite="NFFS-FVM",
            source=stencil_fortran("meclfu0", 3, cross_3d(weight=1.0), output_array="flux", input_arrays=["u", "v"]),
            points=POINTS_3D,
        )
    )
    cases.append(
        KernelCase(
            name="simple0",
            suite="NFFS-FVM",
            source=stencil_fortran("simple0", 3, [((0, 0, 0), 1.0), ((1, 0, 0), -1.0)], output_array="dp", input_arrays=["p"]),
            points=POINTS_3D,
        )
    )
    cases.append(
        KernelCase(
            name="simple2",
            suite="NFFS-FVM",
            source=stencil_fortran("simple2", 3, [((0, 0, 0), 1.0), ((0, 0, 1), -1.0)], output_array="dp", input_arrays=["p"]),
            points=POINTS_3D,
        )
    )
    cases.append(
        KernelCase(
            name="initial0",
            suite="NFFS-FVM",
            source=stencil_fortran(
                "initial0",
                3,
                box_3d(weight_center=0.5, weight_other=1.0 / 52.0),
                output_array="u0",
                input_arrays=["seed"],
            ),
            points=POINTS_3D,
            hand_optimized=True,
        )
    )
    cases.append(
        KernelCase(
            name="initial1",
            suite="NFFS-FVM",
            source=stencil_fortran("initial1", 3, [((0, 0, 0), 1.0)], output_array="u1", input_arrays=["seed"], extra_scalar=("scale", 0.0)),
            points=POINTS_3D,
        )
    )
    # 1 untranslated stencil + 3 non-stencils (Table 2 row for NFFS-FVM).
    cases.append(
        KernelCase(
            name="bcset",
            suite="NFFS-FVM",
            source=_boundary_conditional_stencil("bcset"),
            expect_translated=False,
            points=POINTS_3D,
        )
    )
    cases.append(
        KernelCase(name="residnorm", suite="NFFS-FVM", source=_reduction_loop("residnorm"), is_stencil=False, expect_translated=False)
    )
    cases.append(
        KernelCase(name="gatherb", suite="NFFS-FVM", source=_indirect_access_loop("gatherb"), is_stencil=False, expect_translated=False)
    )
    cases.append(
        KernelCase(name="packbuf", suite="NFFS-FVM", source=_procedure_call_loop("packbuf"), is_stencil=False, expect_translated=False)
    )
    return cases


# ---------------------------------------------------------------------------
# Challenge problems: hand-optimised 27-point stencils (5 candidates, 5 translated)
# ---------------------------------------------------------------------------

def challenge_cases() -> List[KernelCase]:
    cases: List[KernelCase] = []
    box = box_3d(weight_center=0.4, weight_other=0.025)
    cases.append(
        KernelCase(
            name="heat27",
            suite="Challenge",
            source=stencil_fortran("heat27", 3, box, output_array="unew", input_arrays=["uold"]),
            points=POINTS_3D,
            hand_optimized=False,
        )
    )
    cases.append(
        KernelCase(
            name="heat27u",
            suite="Challenge",
            source=stencil_fortran("heat27u", 3, box, output_array="unew", input_arrays=["uold"], use_temporary=True),
            points=POINTS_3D,
            hand_optimized=True,
        )
    )
    cases.append(
        KernelCase(
            name="heat27b1",
            suite="Challenge",
            source=stencil_fortran("heat27b1", 3, box, output_array="unew", input_arrays=["uold"], tile={2: 4}),
            points=POINTS_3D,
            hand_optimized=True,
        )
    )
    cases.append(
        KernelCase(
            name="heat27b2",
            suite="Challenge",
            source=stencil_fortran("heat27b2", 3, box, output_array="unew", input_arrays=["uold"], tile={1: 4, 2: 4}),
            points=POINTS_3D,
            hand_optimized=True,
        )
    )
    cases.append(
        KernelCase(
            name="heat27pl",
            suite="Challenge",
            source=stencil_fortran("heat27pl", 3, box, output_array="unew", input_arrays=["uold"], use_temporary=False),
            points=POINTS_3D,
            hand_optimized=False,
        )
    )
    return cases


def annotated_cases() -> List[KernelCase]:
    """Extra annotation-demonstration kernels used by the annotations benchmark."""
    return [
        KernelCase(
            name="strided_assume",
            suite="Annotations",
            source=_annotated_strided_stencil("strided_assume"),
            needs_annotation=True,
            points=2 ** 22,
        )
    ]
