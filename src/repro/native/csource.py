"""C code generation for lowered loop nests (the native backend's front half).

:func:`emit_c_source` turns a :class:`~repro.halide.loopir.LoopNest`
into one self-contained C translation unit exporting a single flat
entry point::

    int64_t repro_kernel_run(const int64_t* lo, const int64_t* hi,
                             double* const* bufs,
                             const int64_t* borig, const int64_t* bext,
                             const double* params,
                             double* out, int64_t* err, int64_t threads);

``lo``/``hi`` are the inclusive per-axis domain bounds, ``bufs`` the
input buffers (float64, C-contiguous) in :attr:`CSource.image_names`
order with their logical origins and extents flattened into
``borig``/``bext``, ``params`` the scalar parameters in
:attr:`CSource.param_names` order, and ``out`` the C-contiguous output
buffer over the domain shape.  ``threads`` is the worker-thread count
for a ``threaded`` translation unit (serial kernels take and ignore it,
keeping one uniform ABI).  The return value is 0 on success; under
``strict_bounds`` an out-of-range load stops execution, fills ``err``
with ``(image index, dimension, offending buffer-relative coordinate)``
and returns 1 — the dispatcher raises the same
:class:`~repro.halide.executor.OutOfBoundsError` the generated-Python
backend raises.

Threaded emission (``emit_c_source(..., threaded=True)``): the nest's
``parallel`` chunk band is dispatched over POSIX threads instead of
being serialised when it is the root loop, or when it sits below the
root (``dim_order`` placed other axes outside it) and the static
analyzer certifies it: :func:`repro.analysis.legality.parallel_band_race_free`
must prove the schedule legal and the band's bounds entry-scope pure.
The entry point replicates :func:`repro.halide.loopir.chunk_ranges`
exactly — step-aligned, contiguous, disjoint slabs of the band's range —
and each worker runs the whole nest with the band clamped to its slab.
Every output point is written exactly once, by exactly the same
sequence of IEEE-754 operations as in serial order, so the result is
bit-identical to serial execution for any thread count.  Strict-bounds
errors keep serial semantics too: each worker stops at its slab's first
error and tags it with the band-entry ordinal, and the entry point
reports the error with the smallest (ordinal, slab) pair, the one serial
execution would have hit first.  At ``threads <= 1`` the entry point
makes one full-range worker call.  An uncertified non-root band keeps
the serial emission below (still bit-identical, just not threaded).

Bit-identity with the generated-Python backend is by construction, not
by luck:

* the loop structure is the lowered nest itself — tiles, reordering,
  unrolling and strips become the same traversal order the
  generated-Python backend emits (parallel chunking is
  order-preserving by design, so chunked loops are emitted as their
  equivalent serial loops);
* every per-cell operation is a single IEEE-754 double operation in
  both backends (the expression *tree* is identical, and ``+ - * /``
  are correctly rounded everywhere), with contraction and
  reassociation disabled at compile time;
* integer index arithmetic uses C's truncating ``/`` and ``%``, which
  match the Fortran truncation semantics of
  :func:`repro.semantics.numeric.trunc_div`/``trunc_mod`` exactly;
* clamped (non-strict) loads clamp per coordinate exactly like
  ``np.clip``.

Only operations with a correctly-rounded (or exact) C twin are
translated: ``+ - * /``, ``sqrt``, ``abs``, ``min``/``max``.
Transcendentals (``exp``/``log``/``sin``/...) are *not* — libm and
numpy may legally differ in the last ulp, which would break the bitwise
differential contract — so such nests raise
:class:`NativeUnsupportedError` and callers fall back to the
generated-Python backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from repro.halide.cppgen import cpp_double_literal
from repro.halide.lang import (
    BinOp,
    Call,
    Const,
    Expr,
    Func,
    FuncRef,
    HalideError,
    ImageRef,
    Param,
    Var,
)
from repro.halide.loopir import (
    BoundExpr,
    Clamped,
    ComputeSpan,
    DomainHi,
    DomainLo,
    Loop,
    LoopNest,
    LoopVar,
    Shifted,
)
from repro.halide.lower import _collect_images, _collect_params


class NativeUnsupportedError(HalideError):
    """The definition falls outside the bit-identical native fragment."""


# Value-level calls with a correctly-rounded / exact C translation.
# np.minimum/np.maximum propagate the *first* NaN operand; the helpers
# in the preamble reproduce that (fmin/fmax would drop NaNs instead).
_NATIVE_CALLS = {
    "sqrt": "sqrt({0})",
    "abs": "fabs({0})",
    "min": "rk_min({0}, {1})",
    "max": "rk_max({0}, {1})",
}

_PREAMBLE = """\
#include <stdint.h>
#include <math.h>

static inline int64_t rk_imin(int64_t a, int64_t b) { return a < b ? a : b; }
static inline int64_t rk_imax(int64_t a, int64_t b) { return a > b ? a : b; }
/* np.minimum/np.maximum semantics: the first NaN operand propagates. */
static inline double rk_min(double a, double b) {
    if (a != a) return a;
    if (b != b) return b;
    return a < b ? a : b;
}
static inline double rk_max(double a, double b) {
    if (a != a) return a;
    if (b != b) return b;
    return a > b ? a : b;
}
"""

ENTRY_SYMBOL = "repro_kernel_run"


def native_supported(func: Func) -> bool:
    """Can this Func's definition be translated bit-identically to C?"""
    if func.definition is None:
        return False
    for node in func.definition.walk():
        if isinstance(node, FuncRef):
            return False
        if isinstance(node, Call):
            if node.func in {"min", "max", "mod"}:
                continue  # min/max always; mod only valid in index position
            if node.func not in _NATIVE_CALLS:
                return False
        if isinstance(node, BinOp) and node.op not in {"+", "-", "*", "/"}:
            return False
    return True


@dataclass(frozen=True)
class CSource:
    """One emitted C translation unit plus its calling convention."""

    text: str
    entry: str
    dimensions: int
    image_names: Tuple[str, ...]
    image_ranks: Tuple[int, ...]
    param_names: Tuple[str, ...]
    strict_bounds: bool
    kernel_name: str
    schedule: str
    threaded: bool = False


class _CEmitter:
    def __init__(self, nest: LoopNest, strict_bounds: bool, threaded: bool = False):
        self.nest = nest
        self.func = nest.func
        self.strict = strict_bounds
        self.threaded = threaded
        self.uses_pthreads = False
        # When set, ``_parallel_loop`` iterates this (lower, upper) pair
        # instead of its own bounds — used by the per-slab worker.
        self._parallel_loop: "Loop | None" = None
        self._parallel_override: "Tuple[str, str] | None" = None
        # Threaded workers track a serial-order ordinal so the
        # entry point can pick the serially-first strict-bounds error.
        self._ordinal = False
        self.lines: List[str] = []
        self.temp_count = 0
        self.images = _collect_images(self.func.definition)
        self.params = _collect_params(self.func.definition)
        self.image_index = {name: position for position, name in enumerate(self.images)}
        # Sanitize loop-variable names: nest vars come from the DSL
        # ("x", "y_t", ...) and are mapped to fresh C identifiers so no
        # DSL name can collide with a C keyword or an emitter local.
        self.var_names: Dict[str, str] = {}
        leaf: Union[Loop, ComputeSpan] = nest.root
        while isinstance(leaf, Loop):
            self.var_names.setdefault(leaf.var, f"v{len(self.var_names)}")
            leaf = leaf.body
        self.span_axis = leaf.axis

    def temp(self) -> str:
        self.temp_count += 1
        return f"t{self.temp_count}"

    def emit(self, line: str, depth: int) -> None:
        self.lines.append("    " * depth + line)

    # -- symbolic bounds ----------------------------------------------------
    def bound(self, bound: BoundExpr) -> str:
        if isinstance(bound, DomainLo):
            return f"lo[{bound.axis}]"
        if isinstance(bound, DomainHi):
            return f"hi[{bound.axis}]"
        if isinstance(bound, LoopVar):
            return self.var_names[bound.name]
        if isinstance(bound, Shifted):
            if bound.offset == 0:
                return self.bound(bound.base)
            sign = "+" if bound.offset >= 0 else "-"
            return f"({self.bound(bound.base)} {sign} {abs(bound.offset)})"
        if isinstance(bound, Clamped):
            return f"rk_imin({self.bound(bound.left)}, {self.bound(bound.right)})"
        raise HalideError(f"unknown bound expression {bound!r}")

    # -- expressions --------------------------------------------------------
    def emit_index(self, expr: Expr, ctx: Dict[str, Tuple[str, str]]) -> str:
        """C source of an integer (int64) index expression."""
        if isinstance(expr, Const):
            return f"INT64_C({int(expr.value)})"
        if isinstance(expr, Var):
            if expr.name not in ctx:
                raise HalideError(f"free variable {expr.name!r} in definition")
            return ctx[expr.name][0]
        if isinstance(expr, Param):
            return f"pi{self.params.index(expr.name)}"
        if isinstance(expr, BinOp):
            left = self.emit_index(expr.left, ctx)
            right = self.emit_index(expr.right, ctx)
            if expr.op in {"+", "-", "*"}:
                return f"({left} {expr.op} {right})"
            if expr.op == "/":
                # C int64 division truncates toward zero = Fortran semantics.
                return f"({left} / {right})"
            raise HalideError(f"unknown operator {expr.op!r} in index")
        if isinstance(expr, Call) and expr.func in {"min", "max"} and len(expr.args) == 2:
            left = self.emit_index(expr.args[0], ctx)
            right = self.emit_index(expr.args[1], ctx)
            fn = "rk_imin" if expr.func == "min" else "rk_imax"
            return f"{fn}({left}, {right})"
        if isinstance(expr, Call) and expr.func == "mod" and len(expr.args) == 2:
            left = self.emit_index(expr.args[0], ctx)
            right = self.emit_index(expr.args[1], ctx)
            # C % has the sign of the dividend = Fortran mod semantics.
            return f"({left} % {right})"
        raise NativeUnsupportedError(f"unsupported index expression {expr!r}")

    def emit_value(self, expr: Expr, depth: int, ctx: Dict[str, Tuple[str, str]]) -> str:
        """Emit statements computing a double value; returns its source/temp."""
        if isinstance(expr, Const):
            return cpp_double_literal(float(expr.value))
        if isinstance(expr, Var):
            if expr.name not in ctx:
                raise HalideError(f"free variable {expr.name!r} in definition")
            return ctx[expr.name][1]
        if isinstance(expr, Param):
            return f"pv{self.params.index(expr.name)}"
        if isinstance(expr, BinOp):
            if expr.op not in {"+", "-", "*", "/"}:
                raise NativeUnsupportedError(f"unknown operator {expr.op!r}")
            left = self.emit_value(expr.left, depth, ctx)
            right = self.emit_value(expr.right, depth, ctx)
            out = self.temp()
            self.emit(f"const double {out} = {left} {expr.op} {right};", depth)
            return out
        if isinstance(expr, Call):
            template = _NATIVE_CALLS.get(expr.func)
            if template is None:
                raise NativeUnsupportedError(
                    f"no bit-identical C translation for function {expr.func!r} "
                    "(libm transcendentals may differ from numpy in the last ulp)"
                )
            args = [self.emit_value(a, depth, ctx) for a in expr.args]
            out = self.temp()
            self.emit(f"const double {out} = {template.format(*args)};", depth)
            return out
        if isinstance(expr, ImageRef):
            return self._emit_load(expr, depth, ctx)
        raise NativeUnsupportedError(f"cannot translate expression {expr!r}")

    def _emit_load(self, ref: ImageRef, depth: int, ctx: Dict[str, Tuple[str, str]]) -> str:
        position = self.image_index[ref.image.name]
        rank = self.images[ref.image.name]
        coords: List[str] = []
        for dim, index in enumerate(ref.indices):
            raw = self.emit_index(index, ctx)
            coord = self.temp()
            self.emit(f"int64_t {coord} = {raw} - o{position}_{dim};", depth)
            extent = f"n{position}_{dim}"
            if self.strict:
                self.emit(f"if ({coord} < 0 || {coord} >= {extent}) {{", depth)
                self.emit(f"err[0] = {position}; err[1] = {dim}; err[2] = {coord};", depth + 1)
                self.emit("return 1;", depth + 1)
                self.emit("}", depth)
            else:
                self.emit(f"if ({coord} < 0) {coord} = 0;", depth)
                self.emit(f"else if ({coord} > {extent} - 1) {coord} = {extent} - 1;", depth)
            coords.append(coord)
        flat = coords[0]
        for dim in range(1, rank):
            flat = f"({flat} * n{position}_{dim} + {coords[dim]})"
        out = self.temp()
        self.emit(f"const double {out} = b{position}[{flat}];", depth)
        return out

    # -- loop structure -----------------------------------------------------
    def _emit_prologue(self, depth: int) -> None:
        """Unpack buffers, origins, extents and scalar params into locals."""
        dims = self.func.dimensions
        self.emit("(void)bufs; (void)borig; (void)bext; (void)params; (void)err;", depth)
        for axis in range(dims):
            self.emit(f"const int64_t e{axis} = hi[{axis}] - lo[{axis}] + 1;", depth)
            self.emit(f"(void)e{axis};", depth)
        flat_pos = 0
        for position, (name, rank) in enumerate(self.images.items()):
            self.emit(f"double* const b{position} = bufs[{position}];  /* {name} */", depth)
            for dim in range(rank):
                self.emit(f"const int64_t o{position}_{dim} = borig[{flat_pos}];", depth)
                self.emit(f"const int64_t n{position}_{dim} = bext[{flat_pos}];", depth)
                self.emit(f"(void)n{position}_{dim};", depth)
                flat_pos += 1
        for position, name in enumerate(self.params):
            self.emit(f"const double pv{position} = params[{position}];  /* {name} */", depth)
            self.emit(f"const int64_t pi{position} = (int64_t)params[{position}];", depth)
            self.emit(f"(void)pv{position}; (void)pi{position};", depth)

    def _find_parallel_loop(self) -> "Loop | None":
        node: Union[Loop, ComputeSpan] = self.nest.root
        while isinstance(node, Loop):
            if node.kind == "parallel":
                return node
            node = node.body
        return None

    def emit_kernel(self) -> None:
        self.emit(f"/* kernel {self.func.name}: [{self.nest.schedule.describe()}] */", 0)
        parallel = self._find_parallel_loop()
        if self.threaded and parallel is not None and parallel.chunks > 1:
            # A band below the root (dim_order put other axes outside it)
            # is threaded only when the static race check certifies the
            # schedule and the band's bounds are entry-scope pure;
            # otherwise it keeps the (still bit-identical) serial emission.
            from repro.analysis.legality import parallel_band_race_free

            if parallel is self.nest.root or parallel_band_race_free(self.nest):
                self.uses_pthreads = True
                self._emit_threaded_kernel(parallel)
                return
        self._emit_serial_kernel()

    def _emit_serial_kernel(self) -> None:
        self.emit(
            f"int64_t {ENTRY_SYMBOL}(const int64_t* lo, const int64_t* hi,", 0
        )
        self.emit("double* const* bufs, const int64_t* borig, const int64_t* bext,", 5)
        self.emit("const double* params, double* out, int64_t* err, int64_t threads)", 5)
        self.emit("{", 0)
        self.emit("(void)threads;", 1)
        self._emit_prologue(1)
        self._emit_node(self.nest.root, 1, {})
        self.emit("return 0;", 1)
        self.emit("}", 0)

    def _emit_threaded_kernel(self, parallel: Loop) -> None:
        """The parallel band as a pthread-dispatched slab worker.

        ``rk_chunk`` runs the *entire* nest with the band clamped to one
        step-aligned slab; the entry point replicates ``chunk_ranges``
        (C truncating ``/`` equals Python floor ``//`` here because the
        range is non-empty and the step positive), round-robins the
        slabs over ``threads`` workers and joins.  Loops enclosing a
        non-root band are re-executed per slab while every output point
        is still computed exactly once (the slabs partition the band's
        range, the band's axis selects distinct output coordinates, and
        for a non-root band the caller's
        :func:`repro.analysis.legality.parallel_band_race_free` check
        rules out cross-slab value dependence).  The band's bounds are
        entry-scope pure, so the slab partition is computed once,
        before dispatch.

        Strict-bounds errors keep serial semantics: a worker records the
        band-entry ordinal alongside its first error (``err[3]``,
        task-local only — the entry ABI stays three-wide), and the entry
        point picks the failing task with the smallest
        ``(ordinal, slab)`` pair, which is the error serial execution
        would have hit first.  At ``threads <= 1`` one full-range call
        of the worker is the serial nest itself.
        """
        chunks = parallel.chunks
        step = parallel.step
        self.emit("static int64_t rk_chunk(const int64_t* lo, const int64_t* hi,", 0)
        self.emit("double* const* bufs, const int64_t* borig, const int64_t* bext,", 5)
        self.emit("const double* params, double* out, int64_t* err,", 5)
        self.emit("int64_t ck_lo, int64_t ck_hi)", 5)
        self.emit("{", 0)
        self._emit_prologue(1)
        if self.strict:
            self.emit("int64_t rk_pos = 0;", 1)
        self._parallel_loop = parallel
        self._parallel_override = ("ck_lo", "ck_hi")
        self._ordinal = self.strict
        self._emit_node(self.nest.root, 1, {})
        self._ordinal = False
        self._parallel_override = None
        self._parallel_loop = None
        self.emit("return 0;", 1)
        self.emit("}", 0)
        self.emit("", 0)
        self.emit("typedef struct {", 0)
        self.emit("const int64_t* lo; const int64_t* hi;", 1)
        self.emit("double* const* bufs; const int64_t* borig; const int64_t* bext;", 1)
        self.emit("const double* params; double* out;", 1)
        self.emit("int64_t ck_lo; int64_t ck_hi;", 1)
        self.emit("int64_t rc; int64_t err[4];", 1)
        self.emit("} rk_task_t;", 0)
        self.emit("", 0)
        self.emit("typedef struct {", 0)
        self.emit("rk_task_t* tasks; int64_t ntasks; int64_t tid; int64_t stride;", 1)
        self.emit("} rk_worker_arg_t;", 0)
        self.emit("", 0)
        self.emit("static void* rk_worker(void* argp) {", 0)
        self.emit("rk_worker_arg_t* arg = (rk_worker_arg_t*)argp;", 1)
        self.emit("for (int64_t i = arg->tid; i < arg->ntasks; i += arg->stride) {", 1)
        self.emit("rk_task_t* t = &arg->tasks[i];", 2)
        self.emit("t->rc = rk_chunk(t->lo, t->hi, t->bufs, t->borig, t->bext,", 2)
        self.emit("t->params, t->out, t->err, t->ck_lo, t->ck_hi);", 6)
        self.emit("}", 1)
        self.emit("return 0;", 1)
        self.emit("}", 0)
        self.emit("", 0)
        self.emit(
            f"int64_t {ENTRY_SYMBOL}(const int64_t* lo, const int64_t* hi,", 0
        )
        self.emit("double* const* bufs, const int64_t* borig, const int64_t* bext,", 5)
        self.emit("const double* params, double* out, int64_t* err, int64_t threads)", 5)
        self.emit("{", 0)
        self.emit(f"const int64_t p_lo = {self.bound(parallel.lower)};", 1)
        self.emit(f"const int64_t p_hi = {self.bound(parallel.upper)};", 1)
        self.emit(f"rk_task_t tasks[{chunks}];", 1)
        self.emit("int64_t ntasks = 0;", 1)
        self.emit("if (p_lo <= p_hi) {", 1)
        self.emit(f"const int64_t iters = (p_hi - p_lo) / {step} + 1;", 2)
        self.emit(f"const int64_t per_chunk = ((iters + {chunks - 1}) / {chunks}) * {step};", 2)
        self.emit("for (int64_t start = p_lo; start <= p_hi; start += per_chunk) {", 2)
        self.emit("rk_task_t* t = &tasks[ntasks];", 3)
        self.emit("t->lo = lo; t->hi = hi; t->bufs = bufs; t->borig = borig; t->bext = bext;", 3)
        self.emit("t->params = params; t->out = out;", 3)
        self.emit("t->ck_lo = start;", 3)
        self.emit(f"t->ck_hi = rk_imin(start + per_chunk - {step}, p_hi);", 3)
        self.emit("t->rc = 0; t->err[0] = 0; t->err[1] = 0; t->err[2] = 0; t->err[3] = 0;", 3)
        self.emit("ntasks++;", 3)
        self.emit("}", 2)
        self.emit("}", 1)
        self.emit("int64_t nthreads = threads < 1 ? 1 : threads;", 1)
        self.emit("if (nthreads > ntasks) nthreads = ntasks;", 1)
        self.emit("if (nthreads <= 1) {", 1)
        # One full-range worker call *is* serial execution, enclosing
        # loops included — the first error it reports is serial-first.
        self.emit("int64_t werr[4] = {0, 0, 0, 0};", 2)
        self.emit("if (rk_chunk(lo, hi, bufs, borig, bext, params, out, werr, p_lo, p_hi) != 0) {", 2)
        self.emit("err[0] = werr[0]; err[1] = werr[1]; err[2] = werr[2];", 3)
        self.emit("return 1;", 3)
        self.emit("}", 2)
        self.emit("return 0;", 2)
        self.emit("}", 1)
        self.emit(f"pthread_t tids[{chunks}];", 1)
        self.emit(f"rk_worker_arg_t wargs[{chunks}];", 1)
        self.emit(f"int created[{chunks}];", 1)
        self.emit("for (int64_t w = 0; w < nthreads; w++) {", 1)
        self.emit("wargs[w].tasks = tasks; wargs[w].ntasks = ntasks;", 2)
        self.emit("wargs[w].tid = w; wargs[w].stride = nthreads;", 2)
        self.emit("created[w] = pthread_create(&tids[w], 0, rk_worker, &wargs[w]) == 0;", 2)
        self.emit("if (!created[w]) rk_worker(&wargs[w]);", 2)
        self.emit("}", 1)
        self.emit("for (int64_t w = 0; w < nthreads; w++) {", 1)
        self.emit("if (created[w]) pthread_join(tids[w], 0);", 2)
        self.emit("}", 1)
        self.emit("int64_t first = -1;", 1)
        self.emit("for (int64_t i = 0; i < ntasks; i++) {", 1)
        self.emit("if (tasks[i].rc != 0 && (first < 0 || tasks[i].err[3] < tasks[first].err[3])) {", 2)
        self.emit("first = i;", 3)
        self.emit("}", 2)
        self.emit("}", 1)
        self.emit("if (first >= 0) {", 1)
        self.emit("err[0] = tasks[first].err[0]; err[1] = tasks[first].err[1]; err[2] = tasks[first].err[2];", 2)
        self.emit("return 1;", 2)
        self.emit("}", 1)
        self.emit("return 0;", 1)
        self.emit("}", 0)

    def _emit_node(self, node: Union[Loop, ComputeSpan], depth: int, coords: Dict[int, str]) -> None:
        if isinstance(node, ComputeSpan):
            raise HalideError("loop nest has no loops")
        if node is self._parallel_loop and self._parallel_override is not None:
            lower, upper = self._parallel_override
            if self._ordinal:
                # One ordinal per entry of the band (= per enclosing
                # iteration): the serially-first strict-bounds error is
                # the one with the smallest (ordinal, slab) pair.
                self.emit("err[3] = rk_pos++;", depth)
        else:
            lower = self.bound(node.lower)
            upper = self.bound(node.upper)
        var = self.var_names[node.var]
        # Parallel chunking is step-aligned and order-preserving
        # (chunk_ranges covers the exact serial sequence), so the chunked
        # loop and its serial equivalent compute identical results; a
        # parallel loop that cannot be threaded is emitted in its serial
        # form.
        self.emit(
            f"for (int64_t {var} = {lower}; {var} <= {upper}; {var} += {node.step}) {{",
            depth,
        )
        if isinstance(node.body, ComputeSpan):
            self._emit_band(node, node.body, depth + 1, coords)
        else:
            new_coords = dict(coords)
            new_coords[node.axis] = var
            self._emit_node(node.body, depth + 1, new_coords)
        self.emit("}", depth)

    def _emit_band(self, strip: Loop, span: ComputeSpan, depth: int, coords: Dict[int, str]) -> None:
        """The innermost band: ``unroll`` consecutive spans of ``width``."""
        strip_var = self.var_names[strip.var]
        if span.width == 1 and span.unroll == 1:
            self._emit_point(span, strip_var, depth, coords)
            return
        band_hi = self.temp()
        self.emit(f"const int64_t {band_hi} = {self.bound(span.upper)};", depth)
        self.emit(f"for (int64_t k = 0; k < {span.unroll}; k++) {{", depth)
        self.emit(f"const int64_t s = {strip_var} + k * {span.width};", depth + 1)
        self.emit(f"if (s > {band_hi}) break;", depth + 1)
        self.emit(f"const int64_t e = rk_imin(s + {span.width} - 1, {band_hi});", depth + 1)
        self.emit("for (int64_t p = s; p <= e; p++) {", depth + 1)
        self._emit_point(span, "p", depth + 2, coords)
        self.emit("}", depth + 1)
        self.emit("}", depth)

    def _emit_point(self, span: ComputeSpan, point_src: str, depth: int, coords: Dict[int, str]) -> None:
        ctx: Dict[str, Tuple[str, str]] = {}
        for axis, var in enumerate(self.func.vars):
            if axis == span.axis:
                ctx[var.name] = (point_src, f"(double){point_src}")
            else:
                src = coords[axis]
                ctx[var.name] = (src, f"(double){src}")
        value = self.emit_value(self.func.definition, depth, ctx)
        parts: List[str] = []
        for axis in range(self.func.dimensions):
            src = point_src if axis == span.axis else coords[axis]
            parts.append(f"({src} - lo[{axis}])")
        flat = parts[0]
        for axis in range(1, self.func.dimensions):
            flat = f"({flat} * e{axis} + {parts[axis]})"
        self.emit(f"out[{flat}] = {value};", depth)


def emit_c_source(
    nest: LoopNest, strict_bounds: bool = False, threaded: bool = False
) -> CSource:
    """Emit the C translation unit for one lowered loop nest.

    ``threaded`` requests pthread dispatch of the ``parallel`` chunk
    band (see the module docstring for why the result stays
    bit-identical to serial); it requires a toolchain compiled with
    ``-pthread`` and is a no-op for nests with no parallel band — or
    with a non-root band the static race analysis cannot certify.
    Raises :class:`NativeUnsupportedError` when the
    definition uses an operation without a bit-identical C twin (callers
    fall back to the generated-Python backend).
    """
    if not native_supported(nest.func):
        raise NativeUnsupportedError(
            f"Func {nest.func.name!r} uses operations outside the "
            "bit-identical native fragment"
        )
    emitter = _CEmitter(nest, strict_bounds, threaded=threaded)
    emitter.emit_kernel()
    preamble = _PREAMBLE
    if emitter.uses_pthreads:
        preamble += "#include <pthread.h>\n"
    text = preamble + "\n" + "\n".join(emitter.lines) + "\n"
    return CSource(
        text=text,
        entry=ENTRY_SYMBOL,
        dimensions=nest.func.dimensions,
        image_names=tuple(emitter.images),
        image_ranks=tuple(emitter.images[name] for name in emitter.images),
        param_names=tuple(emitter.params),
        strict_bounds=strict_bounds,
        kernel_name=nest.func.name,
        schedule=nest.schedule.describe(),
        threaded=emitter.uses_pthreads,
    )
