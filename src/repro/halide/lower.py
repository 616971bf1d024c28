"""Lowering: turn a ``(Func, Schedule)`` pair into an executable loop nest.

:func:`lower` builds the :class:`~repro.halide.loopir.LoopNest` — the
schedule's tiling, ``dim_order`` reordering, unrolling, parallel
chunking and vector width become actual loop structure.  Two backends
execute it, and :func:`build_runner` is the one place that chooses
between them:

* the **generated-Python backend** here (``"codegen"``), which flattens
  the whole nest into straight-line Python source compiled once with
  ``compile()`` — the same approach :mod:`repro.compile` uses for the
  CEGIS inner loop.  Scalar bands become plain Python arithmetic
  (exactly-rounded IEEE double operations, bit-identical to numpy's
  elementwise kernels); vectorised bands are evaluated as numpy slabs,
  one slab per strip (consecutive vector spans of a strip are fused —
  they compute the same values in the same order, so results are
  unchanged while the numpy dispatch overhead is amortised over the
  strip); and
* the **compiled-C backend** of :mod:`repro.native` (``"native"``),
  which falls back to codegen when the definition lies outside its
  bit-identical fragment or no C compiler is usable.

:func:`realize_scheduled` is the schedule-aware twin of the
schedule-blind reference :func:`repro.halide.executor.realize`
(``realize`` is semantically the default-schedule wrapper): it resolves
multi-stage pipelines stage by stage — each producer executed under its
*own* schedule, or substituted into its consumer when scheduled
``inline`` — then lowers and runs the flattened root.  For every valid
schedule the result must be bit-identical to ``realize``: schedules
reorder traversal, never the arithmetic performed per cell.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.compile.codegen import _Emitter
from repro.halide.executor import (
    Domain,
    HalideError,
    OutOfBoundsError,
    _NUMPY_FUNCS,
    flatten_stages,
)
from repro.halide.lang import (
    BinOp,
    Call,
    Const,
    Expr,
    Func,
    FuncRef,
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
    bound_source,
    chunk_ranges,
)
from repro.halide.schedule import Schedule, ScheduleError
from repro.semantics.numeric import trunc_div, trunc_mod

BACKENDS = ("codegen", "native")


# ---------------------------------------------------------------------------
# Lowering pass
# ---------------------------------------------------------------------------

def lower(
    func: Func,
    schedule: Optional[Schedule] = None,
    parallel_chunks: int = 8,
) -> LoopNest:
    """Lower a single-stage Func under a schedule to a loop nest.

    The schedule defaults to the one attached to the Func.  Multi-stage
    pipelines must be flattened first (:func:`realize_scheduled` does
    this); ``lower`` refuses Funcs whose definition still references
    other Funcs.  The schedule is validated against the Func's rank
    here, so an ill-fitting ``dim_order``/``tile_sizes`` fails at nest
    construction with a :class:`ScheduleError`, not mid-execution.
    """
    if func.definition is None:
        raise HalideError(f"Func {func.name!r} has no definition")
    if any(isinstance(node, FuncRef) for node in func.definition.walk()):
        raise HalideError(
            f"Func {func.name!r} references other stages; flatten the pipeline "
            "(realize_scheduled) before lowering"
        )
    schedule = schedule if schedule is not None else func.schedule
    schedule.validate(func.dimensions)
    if schedule.parallel_dim is not None and not (
        0 <= schedule.parallel_dim < func.dimensions
    ):
        raise ScheduleError(
            f"cannot lower Func {func.name!r}: parallel dimension "
            f"{schedule.parallel_dim} out of range for a "
            f"{func.dimensions}-dimensional Func"
        )
    from repro.analysis.legality import ScheduleLegalityError, certify

    legality = certify(func, schedule)
    if not legality.legal:
        # Unknown-is-conservative: only a certified-LEGAL traversal may
        # deviate from the reference order.
        raise ScheduleLegalityError(legality)
    known = {var.name for var in func.vars}
    for node in func.definition.walk():
        if isinstance(node, Var) and node.name not in known:
            raise HalideError(f"free variable {node.name!r} in definition")

    dims = func.dimensions
    order = list(schedule.dim_order) if schedule.dim_order is not None else list(range(dims))
    tiles = list(schedule.tile_sizes) if schedule.tile_sizes else [0] * dims
    width = schedule.vector_width
    unroll = schedule.unroll
    inner_axis = order[0]
    point_vars = {axis: func.vars[axis].name for axis in range(dims)}
    tile_vars = {axis: f"{func.vars[axis].name}_t" for axis in range(dims) if tiles[axis] > 0}

    def band_lower(axis: int) -> BoundExpr:
        if axis in tile_vars:
            return LoopVar(tile_vars[axis])
        return DomainLo(axis)

    def band_upper(axis: int) -> BoundExpr:
        if axis in tile_vars:
            return Clamped(Shifted(LoopVar(tile_vars[axis]), tiles[axis] - 1), DomainHi(axis))
        return DomainHi(axis)

    node: Union[Loop, ComputeSpan] = ComputeSpan(
        axis=inner_axis,
        var=point_vars[inner_axis],
        width=width,
        unroll=unroll,
        upper=band_upper(inner_axis),
    )
    # Point loops, innermost first; the innermost one is the strip loop.
    for axis in order:
        if axis == inner_axis:
            step = width * unroll
            kind = "vector" if width > 1 else ("unrolled" if unroll > 1 else "serial")
        else:
            step = 1
            kind = "serial"
        node = Loop(
            var=point_vars[axis],
            axis=axis,
            lower=band_lower(axis),
            upper=band_upper(axis),
            step=step,
            kind=kind,
            body=node,
        )
    # Tile loops wrap the point band, again innermost first so the
    # outermost tile loop ends up outermost.
    for axis in order:
        if tiles[axis] > 0:
            node = Loop(
                var=tile_vars[axis],
                axis=axis,
                lower=DomainLo(axis),
                upper=DomainHi(axis),
                step=tiles[axis],
                kind="tile",
                body=node,
            )
    nest = LoopNest(func=func, schedule=schedule, root=node, point_vars=point_vars)
    # Parallelism: the outermost loop of the parallel axis is executed as
    # contiguous, step-aligned chunks (what a work-sharing runtime hands
    # to worker threads).
    if schedule.parallel_dim is not None:
        for loop in nest.loops():
            if loop.axis == schedule.parallel_dim:
                loop.kind = "parallel"
                loop.chunks = max(1, parallel_chunks)
                break
    return nest


# ---------------------------------------------------------------------------
# Generated-Python backend
# ---------------------------------------------------------------------------

def _collect_images(definition: Expr) -> Dict[str, int]:
    images: Dict[str, int] = {}
    for node in definition.walk():
        if isinstance(node, ImageRef) and node.image.name not in images:
            images[node.image.name] = node.image.dimensions
    return images


def _collect_params(definition: Expr) -> List[str]:
    names: List[str] = []
    for node in definition.walk():
        if isinstance(node, Param) and node.name not in names:
            names.append(node.name)
    return names


class _Codegen:
    """Emit one Python function executing a loop nest (see module docstring)."""

    def __init__(self, nest: LoopNest, strict_bounds: bool):
        self.nest = nest
        self.func = nest.func
        self.strict = strict_bounds
        self.em = _Emitter()
        self.em.env.update(
            {
                "np": np,
                "HalideError": HalideError,
                "OutOfBoundsError": OutOfBoundsError,
                "_tdiv": trunc_div,
                "_tmod": trunc_mod,
                "_chunks": chunk_ranges,
                "_bcheck": _bounds_check,
            }
        )
        self.images: Dict[str, Dict[str, object]] = {}
        self.param_values: Dict[str, str] = {}
        self.param_indices: Dict[str, str] = {}
        self.funcs: Dict[str, str] = {}
        leaf: Union[Loop, ComputeSpan] = nest.root
        while isinstance(leaf, Loop):
            leaf = leaf.body
        self.nest_span_axis = leaf.axis

    # -- prologue -----------------------------------------------------------
    def prologue(self) -> None:
        em = self.em
        for axis in range(self.func.dimensions):
            em.emit(f"_lo{axis} = domain[{axis}][0]", 1)
            em.emit(f"_hi{axis} = domain[{axis}][1]", 1)
        for position, (name, rank) in enumerate(_collect_images(self.func.definition).items()):
            local = f"_b{position}"
            key = em.const(name)
            em.emit(f"if {key} not in inputs:", 1)
            em.emit(
                f"raise HalideError({em.const(f'no buffer supplied for input {name!r}')})",
                2,
            )
            em.emit(f"{local} = inputs[{key}]", 1)
            em.emit(f"if {local}.ndim != {rank}:", 1)
            message = em.const(f"buffer for {name!r} has rank {{}}, expected {rank}")
            em.emit(f"raise HalideError({message}.format({local}.ndim))", 2)
            # The reference executor converts every load with
            # ``.astype(float)``; converting the buffer once up front is
            # elementwise the same conversion, hoisted out of the loops.
            em.emit(f"if {local}.dtype != np.float64:", 1)
            em.emit(f"{local} = {local}.astype(float)", 2)
            origins = [f"_o{position}_{dim}" for dim in range(rank)]
            extents = [f"_n{position}_{dim}" for dim in range(rank)]
            em.emit(
                f"{', '.join(origins)}{',' if rank == 1 else ''} = "
                f"origins.get({key}, (0,) * {rank})",
                1,
            )
            for dim in range(rank):
                em.emit(f"{extents[dim]} = {local}.shape[{dim}]", 1)
            self.images[name] = {
                "local": local,
                "rank": rank,
                "origins": origins,
                "extents": extents,
            }
        for name in _collect_params(self.func.definition):
            key = self.em.const(name)
            em.emit(f"if {key} not in params:", 1)
            em.emit(
                f"raise HalideError({em.const(f'no value supplied for scalar param {name!r}')})",
                2,
            )
            value_local = f"_pv{len(self.param_values)}"
            index_local = f"_pi{len(self.param_indices)}"
            em.emit(f"{value_local} = float(params[{key}])", 1)
            em.emit(f"{index_local} = int(params[{key}])", 1)
            self.param_values[name] = value_local
            self.param_indices[name] = index_local

    def _call_fn(self, name: str) -> str:
        if name not in self.funcs:
            fn = _NUMPY_FUNCS.get(name)
            if fn is None:
                raise HalideError(f"no numpy model for function {name!r}")
            local = f"_f_{name}"
            self.em.env[local] = fn
            self.funcs[name] = local
        return self.funcs[name]

    # -- expressions --------------------------------------------------------
    def emit_index(self, expr: Expr, depth: int, ctx: Dict[str, Tuple[str, str]], vector: bool) -> str:
        """Source of an integer index expression (scalar int or int64 array)."""
        if isinstance(expr, Const):
            return repr(int(expr.value))
        if isinstance(expr, Var):
            if expr.name not in ctx:
                raise HalideError(f"free variable {expr.name!r} in definition")
            return ctx[expr.name][0]
        if isinstance(expr, Param):
            return self.param_indices[expr.name]
        if isinstance(expr, BinOp):
            left = self.emit_index(expr.left, depth, ctx, vector)
            right = self.emit_index(expr.right, depth, ctx, vector)
            if expr.op in {"+", "-", "*"}:
                return f"({left} {expr.op} {right})"
            if expr.op == "/":
                # Fortran integer division truncates toward zero.
                return f"_tdiv({left}, {right})"
            raise HalideError(f"unknown operator {expr.op!r} in index")
        if isinstance(expr, Call) and expr.func in {"min", "max"} and len(expr.args) == 2:
            left = self.emit_index(expr.args[0], depth, ctx, vector)
            right = self.emit_index(expr.args[1], depth, ctx, vector)
            fn = "np.minimum" if expr.func == "min" else "np.maximum"
            return f"{fn}({left}, {right})"
        if isinstance(expr, Call) and expr.func == "mod" and len(expr.args) == 2:
            left = self.emit_index(expr.args[0], depth, ctx, vector)
            right = self.emit_index(expr.args[1], depth, ctx, vector)
            return f"_tmod({left}, {right})"
        raise HalideError(f"unsupported index expression {expr!r}")

    def emit_value(self, expr: Expr, depth: int, ctx: Dict[str, Tuple[str, str]], vector: bool) -> str:
        """Emit evaluation of a value expression; returns its source/temp."""
        em = self.em
        if isinstance(expr, Const):
            return repr(float(expr.value))
        if isinstance(expr, Var):
            if expr.name not in ctx:
                raise HalideError(f"free variable {expr.name!r} in definition")
            return ctx[expr.name][1]
        if isinstance(expr, Param):
            return self.param_values[expr.name]
        if isinstance(expr, BinOp):
            if expr.op not in {"+", "-", "*", "/"}:
                raise HalideError(f"unknown operator {expr.op!r}")
            left = self.emit_value(expr.left, depth, ctx, vector)
            right = self.emit_value(expr.right, depth, ctx, vector)
            out = em.temp()
            em.emit(f"{out} = {left} {expr.op} {right}", depth)
            return out
        if isinstance(expr, Call):
            fn = self._call_fn(expr.func)
            args = [self.emit_value(a, depth, ctx, vector) for a in expr.args]
            out = em.temp()
            em.emit(f"{out} = {fn}({', '.join(args)})", depth)
            return out
        if isinstance(expr, ImageRef):
            return self._emit_load(expr, depth, ctx, vector)
        raise HalideError(f"cannot evaluate expression {expr!r}")

    def _is_span_dependent(self, expr: Expr) -> bool:
        """Does an index expression vary along the vectorised span axis?"""
        span_name = self.func.vars[self.nest_span_axis].name
        return any(isinstance(node, Var) and node.name == span_name for node in expr.walk())

    def _emit_load(self, ref: ImageRef, depth: int, ctx: Dict[str, Tuple[str, str]], vector: bool) -> str:
        em = self.em
        image = self.images[ref.image.name]
        coords: List[str] = []
        for dim, index in enumerate(ref.indices):
            coord_is_array = vector and self._is_span_dependent(index)
            raw = self.emit_index(index, depth, ctx, vector)
            coord = em.temp()
            em.emit(f"{coord} = {raw} - {image['origins'][dim]}", depth)
            extent = image["extents"][dim]
            if self.strict and coord_is_array:
                name = em.const(ref.image.name)
                em.emit(
                    f"_bcheck({coord}, {extent}, {name}, {dim}, {image['origins'][dim]})",
                    depth,
                )
            elif self.strict:
                # Cheap inline guard on the hot path; the (cold) failure
                # branch delegates to _bcheck for the shared message.
                name = em.const(ref.image.name)
                em.emit(f"if {coord} < 0 or {coord} >= {extent}:", depth)
                em.emit(
                    f"_bcheck({coord}, {extent}, {name}, {dim}, {image['origins'][dim]})",
                    depth + 1,
                )
            elif coord_is_array:
                em.emit(f"{coord} = np.clip({coord}, 0, {extent} - 1)", depth)
            else:
                em.emit(f"if {coord} < 0:", depth)
                em.emit(f"{coord} = 0", depth + 1)
                em.emit(f"elif {coord} > {extent} - 1:", depth)
                em.emit(f"{coord} = {extent} - 1", depth + 1)
            coords.append(coord)
        out = em.temp()
        load = f"{image['local']}[{', '.join(coords)}]"
        if vector:
            # The buffer was converted to float64 in the prologue, so the
            # load already matches the reference's ``.astype(float)``.
            em.emit(f"{out} = {load}", depth)
        else:
            em.emit(f"{out} = float({load})", depth)
        return out

    # -- statements ---------------------------------------------------------
    def emit_nest(self) -> None:
        self.prologue()
        self._emit_node(self.nest.root, 1, {})

    def _emit_node(self, node: Union[Loop, ComputeSpan], depth: int, coords: Dict[int, str]) -> None:
        em = self.em
        if isinstance(node, ComputeSpan):
            # Only reachable for a zero-loop nest, which cannot happen
            # (every Func has at least one dimension).
            raise HalideError("loop nest has no loops")
        lower = bound_source(node.lower)
        upper = bound_source(node.upper)
        vector_leaf = isinstance(node.body, ComputeSpan) and node.body.width > 1
        if node.kind == "parallel":
            em.emit(f"for _ck in _chunks({lower}, {upper}, {node.step}, {node.chunks}):", depth)
            if vector_leaf:
                # A chunk of the vectorised strip: its spans cover the
                # chunk's starts plus the strip tail, clipped to the band.
                span = node.body
                hi = em.temp()
                em.emit(
                    f"{hi} = min(_ck[1] + {node.step} - 1, {bound_source(span.upper)})",
                    depth + 1,
                )
                self._emit_slab(span, "_ck[0]", hi, depth + 1, coords)
            else:
                em.emit(
                    f"for {node.var} in range(_ck[0], _ck[1] + 1, {node.step}):",
                    depth + 1,
                )
                self._emit_body(node, depth + 2, coords)
            return
        if vector_leaf:
            # Fused vectorised band: every span of this strip loop,
            # evaluated as one numpy slab (same values, same order).
            span = node.body
            self._emit_slab(span, lower, upper, depth, coords)
            return
        step = f", {node.step}" if node.step != 1 else ""
        em.emit(f"for {node.var} in range({lower}, {upper} + 1{step}):", depth)
        self._emit_body(node, depth + 1, coords)

    def _emit_body(self, node: Loop, depth: int, coords: Dict[int, str]) -> None:
        if isinstance(node.body, ComputeSpan):
            span = node.body
            # Scalar band (width == 1): ``unroll`` consecutive points.
            band_hi = bound_source(span.upper)
            for k in range(span.unroll):
                if k == 0:
                    self._emit_point(span, node.var, depth, coords)
                else:
                    point = f"({node.var} + {k})"
                    self.em.emit(f"if {point} <= {band_hi}:", depth)
                    self._emit_point(span, point, depth + 1, coords)
        else:
            new_coords = dict(coords)
            new_coords[node.axis] = node.var
            self._emit_node(node.body, depth, new_coords)

    def _point_ctx(self, coords: Dict[int, str], span_axis: int, index_src: str, value_src: str) -> Dict[str, Tuple[str, str]]:
        ctx: Dict[str, Tuple[str, str]] = {}
        for axis, var in enumerate(self.func.vars):
            if axis == span_axis:
                ctx[var.name] = (index_src, value_src)
            else:
                src = coords[axis]
                ctx[var.name] = (src, f"float({src})")
        return ctx

    def _out_index(self, coords: Dict[int, str], span_axis: int, span_src: str) -> str:
        parts: List[str] = []
        for axis in range(self.func.dimensions):
            if axis == span_axis:
                parts.append(span_src)
            else:
                parts.append(f"{coords[axis]} - _lo{axis}")
        return ", ".join(parts)

    def _emit_point(self, span: ComputeSpan, point_src: str, depth: int, coords: Dict[int, str]) -> None:
        em = self.em
        point = em.temp()
        em.emit(f"{point} = {point_src}", depth)
        ctx = self._point_ctx(coords, span.axis, point, f"float({point})")
        value = self.emit_value(self.func.definition, depth, ctx, vector=False)
        em.emit(f"out[{self._out_index(coords, span.axis, f'{point} - _lo{span.axis}')}] = {value}", depth)

    def _emit_slab(self, span: ComputeSpan, lower_src: str, upper_src: str, depth: int, coords: Dict[int, str]) -> None:
        em = self.em
        lo = em.temp()
        hi = em.temp()
        em.emit(f"{lo} = {lower_src}", depth)
        em.emit(f"{hi} = {upper_src}", depth)
        em.emit(f"if {lo} <= {hi}:", depth)
        depth += 1
        ia = em.temp()
        iaf = em.temp()
        em.emit(f"{ia} = np.arange({lo}, {hi} + 1)", depth)
        em.emit(f"{iaf} = {ia}.astype(float)", depth)
        ctx = self._point_ctx(coords, span.axis, ia, iaf)
        value = self.emit_value(self.func.definition, depth, ctx, vector=True)
        slab = f"{lo} - _lo{span.axis}:{hi} + 1 - _lo{span.axis}"
        em.emit(f"out[{self._out_index(coords, span.axis, slab)}] = {value}", depth)

    def build(self):
        self.emit_nest()
        return self.em.build("domain, inputs, origins, params, out", f"loopnest:{self.func.name}")


def _bounds_check(coords, extent, name, dim, origin) -> None:
    """Strict-bounds load check shared by the generated code paths."""
    low = int(np.min(coords))
    high = int(np.max(coords))
    if low < 0 or high >= extent:
        raise OutOfBoundsError(
            f"read of {name!r} out of bounds in dimension {dim}: indices "
            f"span [{low}, {high}] but the buffer extent is {extent} "
            f"(origin {origin})"
        )


def compile_loop_nest(nest: LoopNest, strict_bounds: bool = False):
    """Compile a loop nest into one Python function (codegen backend).

    Returns ``runner(domain, inputs, input_origins=None, params=None,
    out=None) -> ndarray``.  ``strict_bounds`` is baked into the
    generated code (two variants are cached per nest).
    """
    cache_key = f"_compiled_strict_{bool(strict_bounds)}"
    runner = getattr(nest, cache_key, None)
    if runner is not None:
        return runner
    fn = _Codegen(nest, strict_bounds).build()
    dims = nest.func.dimensions

    def runner(domain, inputs, input_origins=None, params=None, out=None):
        if len(domain) != dims:
            raise HalideError(
                f"domain rank {len(domain)} does not match Func rank {dims}"
            )
        shape = tuple(hi - lo + 1 for lo, hi in domain)
        if out is None:
            out = np.empty(shape, dtype=float)
        fn(list(domain), inputs, dict(input_origins or {}), dict(params or {}), out)
        return out

    setattr(nest, cache_key, runner)
    return runner


def build_runner(
    nest: LoopNest,
    backend: str,
    strict_bounds: bool = False,
    artifacts=None,
    threads: Optional[int] = None,
):
    """Compile a lowered nest on ``backend``; returns ``(runner, backend_used)``.

    ``backend`` is one of :data:`BACKENDS` or ``"auto"`` (native when a
    C toolchain is present, codegen otherwise); any other name raises
    :class:`HalideError`.  ``"native"`` falls back to codegen when the
    definition lies outside the native backend's bit-identical fragment
    (e.g. transcendental calls), no C compiler is usable, or the compile
    fails — the two are interchangeable by construction — and
    ``backend_used`` names the backend that will actually run.  Both runners are called as
    ``runner(domain, inputs, input_origins=None, params=None)``.

    ``artifacts`` (an :class:`~repro.cache.artifacts.ArtifactStore`)
    lets the native backend reuse compiled shared objects across
    processes; without it, native builds are cached per process only.
    ``threads`` is the native backend's worker-thread count for
    parallel chunk bands (``None`` → the ``$REPRO_NATIVE_THREADS``
    default, 1 when unset); codegen ignores it.
    """
    from repro.native.toolchain import ToolchainError, resolve_backend

    backend = resolve_backend(backend)
    if backend not in BACKENDS:
        raise HalideError(f"unknown loop-nest backend {backend!r} (choose from {BACKENDS})")
    if backend == "native":
        from repro.native.csource import NativeUnsupportedError
        from repro.native.dispatch import compile_nest_native

        try:
            runner = compile_nest_native(
                nest, strict_bounds, artifacts=artifacts, threads=threads
            )
        except (NativeUnsupportedError, ToolchainError):
            pass  # outside the native fragment, or no working C compiler
        else:
            return runner, "native"
    return compile_loop_nest(nest, strict_bounds), "codegen"


# ---------------------------------------------------------------------------
# Schedule-aware realization
# ---------------------------------------------------------------------------

def realize_scheduled(
    func: Func,
    domain: Domain,
    inputs: Mapping[str, np.ndarray],
    input_origins: Optional[Mapping[str, Tuple[int, ...]]] = None,
    params: Optional[Mapping[str, float]] = None,
    schedule: Optional[Schedule] = None,
    backend: str = "codegen",
    strict_bounds: bool = False,
    parallel_chunks: int = 8,
    artifacts=None,
    threads: Optional[int] = None,
    _visiting: Tuple[int, ...] = (),
) -> np.ndarray:
    """Execute ``func`` over ``domain`` under a schedule.

    The schedule applies to the *root* stage (default: the Func's
    attached schedule); producer stages in a multi-stage pipeline run
    under their own attached schedules, or are substituted into their
    consumer when scheduled ``inline``.  Every stage is compiled by
    :func:`build_runner`, which documents ``backend``, ``artifacts``
    and ``threads``.  Results are bit-identical to the schedule-blind
    :func:`repro.halide.executor.realize` for every valid schedule,
    backend and thread count.
    """
    input_origins = dict(input_origins or {})
    params = dict(params or {})

    def realize_stage(producer: Func, stage_domain: Domain) -> np.ndarray:
        return realize_scheduled(
            producer,
            stage_domain,
            inputs,
            input_origins,
            params,
            schedule=None,  # the producer's own attached schedule
            backend=backend,
            strict_bounds=strict_bounds,
            parallel_chunks=parallel_chunks,
            artifacts=artifacts,
            threads=threads,
            _visiting=_visiting + (id(func),),
        )

    flattened, stage_buffers, stage_origins = flatten_stages(
        func, domain, inputs, input_origins, params, realize_stage, _visiting
    )
    merged_inputs = dict(inputs)
    merged_inputs.update(stage_buffers)
    merged_origins = dict(input_origins)
    merged_origins.update(stage_origins)

    nest = lower(flattened, schedule if schedule is not None else func.schedule, parallel_chunks)
    runner = build_runner(nest, backend, strict_bounds, artifacts, threads)[0]
    return runner(domain, merged_inputs, merged_origins, params)
