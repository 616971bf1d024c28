"""Numpy reference executor for the Halide-like DSL.

``realize`` evaluates a :class:`~repro.halide.lang.Func` over a
rectangular output domain given concrete numpy input buffers.  The
evaluation is vectorised: index expressions are evaluated to integer
coordinate arrays over the whole domain, and buffer reads become numpy
fancy-indexing.  The executor is the correctness backstop of the
pipeline — generated Halide code is checked against the original
Fortran kernel interpreted by :mod:`repro.semantics.exec` — and is also
the *schedule-blind reference* that the schedule-aware execution layer
(:mod:`repro.halide.lower`) is differentially checked against:
``realize`` is semantically the default-schedule wrapper, computing the
whole domain in one slab exactly as the lowered default schedule's
degenerate loop nest does.

Multi-stage pipelines (a ``Func`` whose definition references other
Funcs) are realized stage by stage: each producer is evaluated over the
bounding box of the indices its consumers request, unless its schedule
marks it ``inline``, in which case its definition is substituted into
the consumer (Halide's ``compute_inline``).

Integer index arithmetic follows the Fortran interpreter: division
truncates toward zero and ``mod`` takes the sign of the dividend (see
:mod:`repro.semantics.numeric`), unlike Python's flooring ``//`` and
``np.mod``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.halide.lang import (
    BinOp,
    Call,
    Const,
    Expr,
    Func,
    FuncRef,
    HalideError,
    ImageParam,
    ImageRef,
    Param,
    Var,
)
from repro.semantics.numeric import trunc_div, trunc_mod

Domain = Sequence[Tuple[int, int]]  # inclusive (lower, upper) per dimension


class OutOfBoundsError(HalideError):
    """Raised by strict-bounds loads that fall outside the input buffer."""


_NUMPY_FUNCS = {
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "abs": np.abs,
    "min": np.minimum,
    "max": np.maximum,
    "pow": np.power,
    "mod": trunc_mod,
}


class _Realizer:
    """Evaluate a stage-free Func definition over one rectangular box.

    The box need not be the whole output domain: the loop-nest
    interpreter of :mod:`repro.halide.loopir` evaluates one vector span
    at a time through the same code, which is what keeps the scheduled
    backends bit-identical to the schedule-blind reference (numpy
    elementwise operations depend only on the operand values, never on
    the slab they sit in).
    """

    def __init__(
        self,
        func: Func,
        box: Domain,
        inputs: Mapping[str, np.ndarray],
        input_origins: Mapping[str, Tuple[int, ...]],
        params: Mapping[str, float],
        strict_bounds: bool = False,
    ):
        self.func = func
        self.box = list(box)
        self.inputs = inputs
        self.input_origins = input_origins
        self.params = params
        self.strict_bounds = strict_bounds
        if func.definition is None:
            raise HalideError(f"Func {func.name!r} has no definition")
        if len(box) != func.dimensions:
            raise HalideError(
                f"domain rank {len(box)} does not match Func rank {func.dimensions}"
            )
        shape = tuple(hi - lo + 1 for lo, hi in box)
        grids = np.meshgrid(
            *[np.arange(lo, hi + 1) for lo, hi in box], indexing="ij"
        )
        self.coords: Dict[str, np.ndarray] = {
            var.name: grid for var, grid in zip(func.vars, grids)
        }
        self.shape = shape

    def evaluate(self, expr: Expr) -> np.ndarray:
        if isinstance(expr, Const):
            return np.full(self.shape, float(expr.value))
        if isinstance(expr, Var):
            if expr.name not in self.coords:
                raise HalideError(f"free variable {expr.name!r} in definition")
            return self.coords[expr.name].astype(float)
        if isinstance(expr, Param):
            if expr.name not in self.params:
                raise HalideError(f"no value supplied for scalar param {expr.name!r}")
            return np.full(self.shape, float(self.params[expr.name]))
        if isinstance(expr, BinOp):
            left = self.evaluate(expr.left)
            right = self.evaluate(expr.right)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                return left / right
            raise HalideError(f"unknown operator {expr.op!r}")
        if isinstance(expr, Call):
            fn = _NUMPY_FUNCS.get(expr.func)
            if fn is None:
                raise HalideError(f"no numpy model for function {expr.func!r}")
            args = [self.evaluate(a) for a in expr.args]
            return fn(*args)
        if isinstance(expr, ImageRef):
            return self._load(expr)
        if isinstance(expr, FuncRef):
            raise HalideError(
                f"unresolved reference to stage {expr.func.name!r}; multi-stage "
                "pipelines are flattened before evaluation"
            )
        raise HalideError(f"cannot evaluate expression {expr!r}")

    def _index_array(self, expr: Expr) -> np.ndarray:
        """Evaluate an index expression to an integer coordinate array."""
        if isinstance(expr, Const):
            return np.full(self.shape, int(expr.value), dtype=np.int64)
        if isinstance(expr, Var):
            return self.coords[expr.name].astype(np.int64)
        if isinstance(expr, Param):
            return np.full(self.shape, int(self.params[expr.name]), dtype=np.int64)
        if isinstance(expr, BinOp):
            left = self._index_array(expr.left)
            right = self._index_array(expr.right)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                # Fortran integer division truncates toward zero; numpy's
                # ``//`` floors, which differs for negative operands.
                return trunc_div(left, right)
            raise HalideError(f"unknown operator {expr.op!r} in index")
        if isinstance(expr, Call) and expr.func in {"min", "max"}:
            left = self._index_array(expr.args[0])
            right = self._index_array(expr.args[1])
            return np.minimum(left, right) if expr.func == "min" else np.maximum(left, right)
        if isinstance(expr, Call) and expr.func == "mod":
            left = self._index_array(expr.args[0])
            right = self._index_array(expr.args[1])
            return trunc_mod(left, right)
        raise HalideError(f"unsupported index expression {expr!r}")

    def _load(self, ref: ImageRef) -> np.ndarray:
        name = ref.image.name
        if name not in self.inputs:
            raise HalideError(f"no buffer supplied for input {name!r}")
        buffer = self.inputs[name]
        if buffer.ndim != ref.image.dimensions:
            raise HalideError(
                f"buffer for {name!r} has rank {buffer.ndim}, expected {ref.image.dimensions}"
            )
        origin = self.input_origins.get(name, (0,) * buffer.ndim)
        index_arrays = []
        for dim, index_expr in enumerate(ref.indices):
            coords = self._index_array(index_expr) - origin[dim]
            if self.strict_bounds:
                low = int(coords.min())
                high = int(coords.max())
                if low < 0 or high >= buffer.shape[dim]:
                    raise OutOfBoundsError(
                        f"read of {name!r} out of bounds in dimension {dim}: indices "
                        f"span [{low}, {high}] but the buffer extent is {buffer.shape[dim]} "
                        f"(origin {origin[dim]})"
                    )
            else:
                coords = np.clip(coords, 0, buffer.shape[dim] - 1)
            index_arrays.append(coords)
        return buffer[tuple(index_arrays)].astype(float)


# ---------------------------------------------------------------------------
# Multi-stage pipelines: inlining and stage-by-stage realization
# ---------------------------------------------------------------------------

def substitute_vars(expr: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Rewrite every :class:`Var` in ``expr`` through ``mapping``."""
    if isinstance(expr, Var):
        return mapping.get(expr.name, expr)
    if isinstance(expr, (Const, Param)):
        return expr
    if isinstance(expr, BinOp):
        return BinOp(expr.op, substitute_vars(expr.left, mapping), substitute_vars(expr.right, mapping))
    if isinstance(expr, Call):
        return Call(expr.func, tuple(substitute_vars(a, mapping) for a in expr.args))
    if isinstance(expr, ImageRef):
        return ImageRef(expr.image, tuple(substitute_vars(i, mapping) for i in expr.indices))
    if isinstance(expr, FuncRef):
        return FuncRef(expr.func, tuple(substitute_vars(i, mapping) for i in expr.indices))
    raise HalideError(f"cannot substitute into expression {expr!r}")


def inline_producers(expr: Expr, _visiting: Tuple[int, ...] = ()) -> Expr:
    """Substitute every ``inline``-scheduled producer into ``expr``.

    Inlining is a schedule choice (Halide's ``compute_inline``): the
    producer's definition, with its variables replaced by the consumer's
    index expressions, takes the place of the call.
    """
    if isinstance(expr, FuncRef) and expr.func.schedule.inline:
        producer = expr.func
        if id(producer) in _visiting:
            raise HalideError(f"cyclic Func pipeline through {producer.name!r}")
        if producer.definition is None:
            raise HalideError(f"Func {producer.name!r} has no definition")
        indices = tuple(inline_producers(i, _visiting) for i in expr.indices)
        body = inline_producers(producer.definition, _visiting + (id(producer),))
        mapping = {var.name: index for var, index in zip(producer.vars, indices)}
        return substitute_vars(body, mapping)
    if isinstance(expr, FuncRef):
        return FuncRef(expr.func, tuple(inline_producers(i, _visiting) for i in expr.indices))
    if isinstance(expr, BinOp):
        return BinOp(expr.op, inline_producers(expr.left, _visiting), inline_producers(expr.right, _visiting))
    if isinstance(expr, Call):
        return Call(expr.func, tuple(inline_producers(a, _visiting) for a in expr.args))
    if isinstance(expr, ImageRef):
        return ImageRef(expr.image, tuple(inline_producers(i, _visiting) for i in expr.indices))
    return expr


def flatten_stages(
    func: Func,
    domain: Domain,
    inputs: Mapping[str, np.ndarray],
    input_origins: Mapping[str, Tuple[int, ...]],
    params: Mapping[str, float],
    realize_stage,
    _visiting: Tuple[int, ...] = (),
) -> Tuple[Func, Dict[str, np.ndarray], Dict[str, Tuple[int, ...]]]:
    """Turn a multi-stage pipeline into a single-stage Func plus buffers.

    Inline-scheduled producers are substituted into the definition; every
    remaining producer is realized over the bounding box of the indices
    its consumers request (``realize_stage(producer, stage_domain)`` —
    the caller decides *how*: the reference evaluator or a scheduled
    backend) and replaced by an :class:`ImageRef` onto the stage buffer.
    Returns the flattened Func together with the stage buffers and their
    logical origins, ready to merge with the pipeline inputs.
    """
    if func.definition is None:
        raise HalideError(f"Func {func.name!r} has no definition")
    if not any(isinstance(node, FuncRef) for node in func.definition.walk()):
        return func, {}, {}
    definition = inline_producers(func.definition, _visiting + (id(func),))
    refs = [node for node in definition.walk() if isinstance(node, FuncRef)]
    if not refs:
        if definition is func.definition:
            return func, {}, {}
        flattened = Func(func.name)
        flattened[func.vars] = definition
        return flattened, {}, {}

    for ref in refs:
        for index in ref.indices:
            if any(isinstance(node, FuncRef) for node in index.walk()):
                raise HalideError(
                    "Func references inside index expressions are not supported"
                )

    # One shared coordinate grid over the consumer domain bounds every
    # producer: index expressions are evaluated over the whole domain and
    # their min/max give the stage's required box.
    probe = _Realizer(_stage_probe(func, definition), domain, inputs, input_origins, params)
    stage_domains: Dict[int, List[List[int]]] = {}
    stage_funcs: Dict[int, Func] = {}
    for ref in refs:
        producer = ref.func
        if id(producer) in _visiting + (id(func),):
            raise HalideError(f"cyclic Func pipeline through {producer.name!r}")
        if producer.definition is None:
            raise HalideError(f"Func {producer.name!r} has no definition")
        if len(ref.indices) != producer.dimensions:
            raise HalideError(
                f"stage {producer.name!r} has {producer.dimensions} dimensions, "
                f"got {len(ref.indices)} indices"
            )
        stage_funcs[id(producer)] = producer
        bounds = stage_domains.setdefault(
            id(producer), [[None, None] for _ in range(producer.dimensions)]
        )
        for dim, index in enumerate(ref.indices):
            array = probe._index_array(index)
            low, high = int(array.min()), int(array.max())
            if bounds[dim][0] is None or low < bounds[dim][0]:
                bounds[dim][0] = low
            if bounds[dim][1] is None or high > bounds[dim][1]:
                bounds[dim][1] = high

    stage_buffers: Dict[str, np.ndarray] = {}
    stage_origins: Dict[str, Tuple[int, ...]] = {}
    stage_names: Dict[int, str] = {}
    for key, producer in stage_funcs.items():
        name = producer.name
        while name in inputs or name in stage_buffers:
            name = f"_stage_{name}"
        stage_domain = [(lo, hi) for lo, hi in stage_domains[key]]
        stage_buffers[name] = realize_stage(producer, stage_domain)
        stage_origins[name] = tuple(lo for lo, _hi in stage_domain)
        stage_names[key] = name

    def rewrite(expr: Expr) -> Expr:
        if isinstance(expr, FuncRef):
            name = stage_names[id(expr.func)]
            image = ImageParam(name, expr.func.dimensions)
            return ImageRef(image, tuple(rewrite(i) for i in expr.indices))
        if isinstance(expr, BinOp):
            return BinOp(expr.op, rewrite(expr.left), rewrite(expr.right))
        if isinstance(expr, Call):
            return Call(expr.func, tuple(rewrite(a) for a in expr.args))
        if isinstance(expr, ImageRef):
            return ImageRef(expr.image, tuple(rewrite(i) for i in expr.indices))
        return expr

    flattened = Func(func.name)
    flattened[func.vars] = rewrite(definition)
    return flattened, stage_buffers, stage_origins


def _stage_probe(func: Func, definition: Expr) -> Func:
    """A throwaway Func with ``func``'s vars, used to evaluate stage indices."""
    probe = Func(f"_probe_{func.name}")
    probe[func.vars] = definition
    return probe


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def realize(
    func: Func,
    domain: Domain,
    inputs: Mapping[str, np.ndarray],
    input_origins: Optional[Mapping[str, Tuple[int, ...]]] = None,
    params: Optional[Mapping[str, float]] = None,
    strict_bounds: bool = False,
) -> np.ndarray:
    """Evaluate ``func`` over ``domain`` and return the output buffer.

    ``domain`` is a list of inclusive (lower, upper) pairs in *logical*
    coordinates; ``input_origins`` gives, per input buffer, the logical
    coordinate of element ``[0, 0, ...]`` (Fortran arrays with
    non-unit lower bounds).  Reads outside a buffer are clamped by
    default, which never matters for verified summaries (their index
    ranges match the modified region) but keeps the executor total;
    ``strict_bounds=True`` raises :class:`OutOfBoundsError` instead so
    lowering bugs cannot hide behind the clamp (the test-suites run in
    strict mode).

    ``realize`` is schedule-blind: it computes the whole domain in one
    numpy slab, which is exactly what the default schedule's loop nest
    degenerates to.  The schedule-aware path is
    :func:`repro.halide.lower.realize_scheduled`, whose results must be
    bit-identical to this reference for every valid schedule.
    """
    input_origins = dict(input_origins or {})
    params = dict(params or {})
    return _realize_reference(func, domain, inputs, input_origins, params, strict_bounds, ())


def _realize_reference(
    func: Func,
    domain: Domain,
    inputs: Mapping[str, np.ndarray],
    input_origins: Mapping[str, Tuple[int, ...]],
    params: Mapping[str, float],
    strict_bounds: bool,
    visiting: Tuple[int, ...],
) -> np.ndarray:
    def realize_stage(producer: Func, stage_domain: Domain) -> np.ndarray:
        return _realize_reference(
            producer, stage_domain, inputs, input_origins, params,
            strict_bounds, visiting + (id(func),),
        )

    flattened, stage_buffers, stage_origins = flatten_stages(
        func, domain, inputs, input_origins, params, realize_stage, visiting
    )
    merged_inputs = dict(inputs)
    merged_inputs.update(stage_buffers)
    merged_origins = dict(input_origins)
    merged_origins.update(stage_origins)
    realizer = _Realizer(
        flattened, domain, merged_inputs, merged_origins, params, strict_bounds
    )
    return realizer.evaluate(flattened.definition)
