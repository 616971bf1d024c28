"""Postcondition → Halide Func translation (§5.3).

The syntactic restrictions on postconditions (§4.1) make this step
straightforward by design: each conjunct ``forall v. out[v] = exp(v)``
becomes a ``Func`` whose definition is the direct translation of
``exp``.  Scalars become ``Param`` objects, input arrays become
``ImageParam`` objects, and the quantifier bounds become the logical
output domain recorded alongside the Func (Halide bounds are implicit,
so the glue code passes them at call time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.halide import lang
from repro.halide.cppgen import emit_cpp
from repro.predicates.language import Postcondition, QuantifiedConstraint
from repro.symbolic import expr as sx
from repro.symbolic.simplify import simplify


class HalideGenerationError(Exception):
    """Raised when a postcondition is outside the translatable fragment."""


# Halide inputs are currently restricted to at most four dimensions (§4.1).
MAX_HALIDE_DIMENSIONS = 4


@dataclass
class GeneratedStencil:
    """One generated Halide pipeline: the Func, its domain, and the C++ text."""

    array: str
    func: lang.Func
    domain_bounds: Tuple[Tuple[sx.Expr, sx.Expr], ...]
    cpp_source: str
    scalar_params: Tuple[str, ...]
    input_arrays: Tuple[str, ...]

    def concrete_domain(self, env: Mapping[str, int]) -> List[Tuple[int, int]]:
        """Evaluate the symbolic domain bounds for concrete bound values.

        ``env`` maps the kernel's bound symbols (``imin``, ``jmax``, ...)
        to integers; the result is the inclusive per-dimension domain in
        the form the executors (:func:`repro.halide.executor.realize`,
        :func:`repro.halide.lower.realize_scheduled`) take.  Raises
        :class:`HalideGenerationError` when a bound does not reduce to a
        constant under ``env``.
        """
        from repro.symbolic.simplify import substitute

        domain: List[Tuple[int, int]] = []
        for dim, (lower, upper) in enumerate(self.domain_bounds):
            concrete = []
            for bound in (lower, upper):
                folded = simplify(substitute(bound, dict(env)))
                if not isinstance(folded, sx.Const):
                    raise HalideGenerationError(
                        f"domain bound {bound!r} of dimension {dim} does not "
                        f"reduce to a constant under {sorted(env)}"
                    )
                concrete.append(int(folded.value))
            domain.append((concrete[0], concrete[1]))
        return domain


def _translate_expr(
    expr: sx.Expr,
    var_map: Dict[str, lang.Var],
    images: Dict[str, lang.ImageParam],
    params: Dict[str, lang.Param],
    image_ranks: Dict[str, int],
) -> lang.Expr:
    if isinstance(expr, sx.Const):
        value = expr.value
        if hasattr(value, "denominator") and getattr(value, "denominator") == 1:
            return lang.Const(int(value))
        return lang.Const(float(value))
    if isinstance(expr, sx.Sym):
        if expr.name in var_map:
            return var_map[expr.name]
        if expr.name not in params:
            params[expr.name] = lang.Param(expr.name)
        return params[expr.name]
    if isinstance(expr, sx.ArrayCell):
        name = expr.array
        rank = len(expr.indices)
        if rank > MAX_HALIDE_DIMENSIONS:
            raise HalideGenerationError(
                f"input {name!r} has {rank} dimensions; Halide inputs are limited to "
                f"{MAX_HALIDE_DIMENSIONS} (the pipeline splits such kernels per dimensionality)"
            )
        if name not in images:
            images[name] = lang.ImageParam(name, rank)
            image_ranks[name] = rank
        elif image_ranks[name] != rank:
            raise HalideGenerationError(f"inconsistent rank for input {name!r}")
        indices = tuple(
            _translate_expr(i, var_map, images, params, image_ranks) for i in expr.indices
        )
        return images[name](*indices)
    if isinstance(expr, sx.Add):
        return _translate_expr(expr.left, var_map, images, params, image_ranks) + _translate_expr(
            expr.right, var_map, images, params, image_ranks
        )
    if isinstance(expr, sx.Sub):
        return _translate_expr(expr.left, var_map, images, params, image_ranks) - _translate_expr(
            expr.right, var_map, images, params, image_ranks
        )
    if isinstance(expr, sx.Mul):
        return _translate_expr(expr.left, var_map, images, params, image_ranks) * _translate_expr(
            expr.right, var_map, images, params, image_ranks
        )
    if isinstance(expr, sx.Div):
        return _translate_expr(expr.left, var_map, images, params, image_ranks) / _translate_expr(
            expr.right, var_map, images, params, image_ranks
        )
    if isinstance(expr, sx.Neg):
        return -_translate_expr(expr.operand, var_map, images, params, image_ranks)
    if isinstance(expr, sx.Call):
        args = tuple(
            _translate_expr(a, var_map, images, params, image_ranks) for a in expr.args
        )
        return lang.Call(expr.func, args)
    raise HalideGenerationError(f"cannot translate expression {expr!r}")


_VAR_NAMES = ("x", "y", "z", "w", "u", "v")


def conjunct_to_func(
    conjunct: QuantifiedConstraint,
    name: Optional[str] = None,
) -> GeneratedStencil:
    """Translate one quantified outEq conjunct into a Halide Func."""
    if conjunct.guard is not None:
        raise HalideGenerationError(
            "conditional summaries are not translated to Halide by this prototype (§6.6)"
        )
    rank = len(conjunct.out_eq.indices)
    if rank > MAX_HALIDE_DIMENSIONS:
        raise HalideGenerationError(
            f"output {conjunct.out_eq.array!r} has {rank} dimensions (Halide limit is "
            f"{MAX_HALIDE_DIMENSIONS})"
        )
    quantified = list(conjunct.quantified_vars())
    # Map quantified variables to Halide Vars, in output-dimension order.
    var_map: Dict[str, lang.Var] = {}
    halide_vars: List[lang.Var] = []
    for dim, index in enumerate(conjunct.out_eq.indices):
        simplified = simplify(index)
        if not isinstance(simplified, sx.Sym) or simplified.name not in quantified:
            raise HalideGenerationError(
                f"output index {index!r} is not a bare quantified variable; "
                "the restricted postcondition grammar guarantees this for translatable summaries"
            )
        var = lang.Var(_VAR_NAMES[dim] if dim < len(_VAR_NAMES) else f"d{dim}")
        var_map[simplified.name] = var
        halide_vars.append(var)

    images: Dict[str, lang.ImageParam] = {}
    params: Dict[str, lang.Param] = {}
    image_ranks: Dict[str, int] = {}
    body = _translate_expr(simplify(conjunct.out_eq.rhs), var_map, images, params, image_ranks)

    func = lang.Func(name or f"{conjunct.out_eq.array}_stencil")
    func[tuple(halide_vars)] = body

    bounds_by_var = {b.var: b for b in conjunct.bounds}
    domain: List[Tuple[sx.Expr, sx.Expr]] = []
    for index in conjunct.out_eq.indices:
        bound = bounds_by_var.get(simplify(index).name)  # type: ignore[union-attr]
        if bound is None:
            raise HalideGenerationError("missing quantifier bound for an output dimension")
        lower = bound.lower + 1 if bound.lower_strict else bound.lower
        upper = bound.upper - 1 if bound.upper_strict else bound.upper
        domain.append((simplify(lower), simplify(upper)))

    cpp = emit_cpp(func, output_name=func.name)
    return GeneratedStencil(
        array=conjunct.out_eq.array,
        func=func,
        domain_bounds=tuple(domain),
        cpp_source=cpp,
        scalar_params=tuple(sorted(params)),
        input_arrays=tuple(sorted(images)),
    )


def postcondition_to_func(post: Postcondition) -> List[GeneratedStencil]:
    """Translate every conjunct of a postcondition into a Halide pipeline.

    Kernels writing several output arrays produce one Halide function
    per output (and per dimensionality), matching the paper's handling
    of Halide's multi-output restrictions.
    """
    stencils: List[GeneratedStencil] = []
    for conjunct in post.conjuncts:
        stencils.append(conjunct_to_func(conjunct))
    return stencils
