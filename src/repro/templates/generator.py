"""Template generation: from symbolic observations to a finite search space.

The generator consumes the runs produced by
:mod:`repro.symbolic.interpreter` and produces, per output array:

* a right-hand-side template (anti-unification of the observed cell
  values) whose index/value holes carry finite candidate sets derived
  from the observations (offsets relative to the output point, integer
  inputs, constants);
* candidate quantifier bounds for each output dimension, i.e. integer
  expressions matching the observed modified region in every run; and
* candidate scalar equalities per loop, derived from the iteration
  snapshots, for the invariants of hand-optimised kernels that rotate
  values through scalar temporaries.

Together these define the space the CEGIS synthesizer searches.  When a
kernel's observations cannot be captured by the restricted predicate
language (non-box modified region, value holes with no uniform
completion, ...), :class:`TemplateGenerationError` is raised and the
pipeline records the kernel as untranslatable — the same outcome the
paper reports for kernels beyond STNG's restrictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir import nodes as ir
from repro.ir.analysis import output_arrays
from repro.symbolic.expr import Const, Expr, const, sym
from repro.symbolic.interpreter import CellObservation, SymbolicRun
from repro.symbolic.simplify import simplify
from repro.templates.antiunify import GeneralizationResult, Hole, generalize
from repro.templates.writes import WriteSiteInfo, analyze_write_sites


class TemplateGenerationError(Exception):
    """Raised when the observations cannot be generalised into a template."""


MAX_OFFSET = 8  # largest |c| considered for index expressions of the form v + c


# ---------------------------------------------------------------------------
# Hole candidate derivation
# ---------------------------------------------------------------------------

def _as_int(expr: Expr) -> Optional[int]:
    folded = simplify(expr)
    if isinstance(folded, Const):
        value = folded.value
        if isinstance(value, Fraction) and value.denominator == 1:
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value == int(value):
            return int(value)
    return None


def index_hole_candidates(
    observed: Sequence[Expr],
    coordinates: Sequence[Dict[str, int]],
    run_envs: Sequence[Dict[str, int]],
) -> List[Expr]:
    """Candidate completions for one index hole.

    ``observed`` is the column of index values the hole replaced (one
    per observation), ``coordinates`` gives, per observation, the values
    of the variables a candidate may mention (output-point variables for
    postcondition holes, loop counters for invariant holes), and
    ``run_envs`` gives each observation's concrete integer-input
    environment.

    Candidates, in order of preference: ``var + c`` for a coordinate
    variable, an integer-input variable, a plain constant.
    """
    values: List[int] = []
    for expr in observed:
        value = _as_int(expr)
        if value is None:
            return []
        values.append(value)
    candidates: List[Expr] = []

    variables = sorted({name for coord in coordinates for name in coord})
    for name in variables:
        offsets = set()
        usable = True
        for value, coord in zip(values, coordinates):
            if name not in coord:
                usable = False
                break
            offsets.add(value - coord[name])
        if not usable or len(offsets) != 1:
            continue
        offset = next(iter(offsets))
        if abs(offset) > MAX_OFFSET:
            continue
        candidates.append(simplify(sym(name) + offset))

    env_vars = sorted({name for env in run_envs for name in env})
    for name in env_vars:
        if all(name in env and env[name] == value for value, env in zip(values, run_envs)):
            candidate = sym(name)
            if candidate not in candidates:
                candidates.append(candidate)

    if len(set(values)) == 1:
        constant = const(values[0])
        if constant not in candidates:
            candidates.append(constant)
    return candidates


def value_hole_candidates(observed: Sequence[Expr]) -> List[Expr]:
    """Candidate completions for a value hole (scalar inputs or constants)."""
    unique = {repr(simplify(e)): simplify(e) for e in observed}
    if len(unique) == 1:
        return [next(iter(unique.values()))]
    return []


# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------

@dataclass
class HoleSpace:
    """One hole together with its finite candidate set."""

    hole: Hole
    candidates: List[Expr]


@dataclass
class BoundCandidates:
    """Candidate lower/upper bound expressions for one output dimension."""

    dim: int
    lower: List[Expr]
    upper: List[Expr]


@dataclass
class ScalarEqualityCandidate:
    """A candidate scalar equality ``var = rhs`` for one loop's invariant."""

    loop_id: str
    var: str
    rhs_candidates: List[Expr]


@dataclass
class ArrayTemplate:
    """The synthesis space for one output array's postcondition conjunct."""

    array: str
    rank: int
    template: Expr
    holes: List[HoleSpace]
    bounds: List[BoundCandidates]
    observation_count: int

    def space_size(self) -> int:
        size = 1
        for hole in self.holes:
            size *= max(len(hole.candidates), 1)
        for bound in self.bounds:
            size *= max(len(bound.lower), 1) * max(len(bound.upper), 1)
        return size


@dataclass
class TemplateSet:
    """Everything template generation produces for one kernel."""

    kernel: ir.Kernel
    runs: List[SymbolicRun]
    arrays: List[ArrayTemplate]
    scalar_equalities: List[ScalarEqualityCandidate]
    write_sites: List[WriteSiteInfo]

    def template_for(self, array: str) -> ArrayTemplate:
        for template in self.arrays:
            if template.array == array:
                return template
        raise KeyError(f"no template for output array {array!r}")

    def space_size(self) -> int:
        size = 1
        for template in self.arrays:
            size *= template.space_size()
        for eq in self.scalar_equalities:
            size *= max(len(eq.rhs_candidates), 1)
        return size


# ---------------------------------------------------------------------------
# Postcondition RHS templates
# ---------------------------------------------------------------------------

def _output_var(dim: int) -> str:
    return f"v{dim}"


def _rhs_template_for_array(array: str, runs: Sequence[SymbolicRun]) -> ArrayTemplate:
    observations: List[CellObservation] = []
    run_of_obs: List[SymbolicRun] = []
    for run in runs:
        for obs in run.observations_for(array):
            observations.append(obs)
            run_of_obs.append(run)
    if not observations:
        raise TemplateGenerationError(f"kernel never writes output array {array!r}")
    rank = len(observations[0].index)
    if any(len(obs.index) != rank for obs in observations):
        raise TemplateGenerationError(f"inconsistent rank for output array {array!r}")

    generalization = generalize([obs.value for obs in observations])
    coordinates = [
        {_output_var(d): obs.index[d] for d in range(rank)} for obs in observations
    ]
    run_envs = [run.int_env for run in run_of_obs]

    holes: List[HoleSpace] = []
    for hole in generalization.holes():
        observed = generalization.hole_observations[hole.hole_id]
        if hole.kind == "index":
            candidates = index_hole_candidates(observed, coordinates, run_envs)
        else:
            candidates = value_hole_candidates(observed)
        if not candidates:
            raise TemplateGenerationError(
                f"no candidate completions for {hole!r} of output array {array!r}"
            )
        holes.append(HoleSpace(hole=hole, candidates=candidates))

    bounds = _bound_candidates(array, rank, runs)
    return ArrayTemplate(
        array=array,
        rank=rank,
        template=generalization.template,
        holes=holes,
        bounds=bounds,
        observation_count=len(observations),
    )


def _bound_candidates(array: str, rank: int, runs: Sequence[SymbolicRun]) -> List[BoundCandidates]:
    """Integer expressions matching the observed modified region in every run."""
    per_run_regions: List[List[Tuple[int, int]]] = []
    for run in runs:
        indices = [obs.index for obs in run.observations_for(array)]
        if not indices:
            raise TemplateGenerationError(f"run has no observations for {array!r}")
        region: List[Tuple[int, int]] = []
        for dim in range(rank):
            values = [idx[dim] for idx in indices]
            region.append((min(values), max(values)))
        expected_cells = 1
        for low, high in region:
            expected_cells *= high - low + 1
        if expected_cells != len(set(indices)):
            raise TemplateGenerationError(
                f"modified region of {array!r} is not a dense box; "
                "the restricted predicate language cannot describe it"
            )
        per_run_regions.append(region)

    results: List[BoundCandidates] = []
    for dim in range(rank):
        lower_obs = [const(region[dim][0]) for region in per_run_regions]
        upper_obs = [const(region[dim][1]) for region in per_run_regions]
        run_envs = [run.int_env for run in runs]
        # Bound expressions may be ``intvar + c`` (bndExp grammar), so the
        # integer inputs themselves serve as the coordinate system here.
        lower = index_hole_candidates(lower_obs, run_envs, run_envs)
        upper = index_hole_candidates(upper_obs, run_envs, run_envs)
        # Prefer expressions over integer inputs: a bare constant only
        # generalises when the bound really is constant, so keep constants
        # as a last resort.
        lower = _prefer_symbolic(lower)
        upper = _prefer_symbolic(upper)
        if not lower or not upper:
            raise TemplateGenerationError(
                f"could not express the bounds of dimension {dim} of {array!r}"
            )
        results.append(BoundCandidates(dim=dim, lower=lower, upper=upper))
    return results


def _prefer_symbolic(candidates: List[Expr]) -> List[Expr]:
    symbolic = [c for c in candidates if c.symbols()]
    constants = [c for c in candidates if not c.symbols()]
    return symbolic + constants


# ---------------------------------------------------------------------------
# Scalar equalities for invariants
# ---------------------------------------------------------------------------

def _live_in_scalars(body: ir.Block, float_names: set) -> List[str]:
    """Float scalars read by ``body`` before being written (in program order)."""
    written: set = set()
    live: List[str] = []

    def visit_expr(expr: ir.ValueExpr) -> None:
        for node in expr.walk():
            if isinstance(node, ir.VarRef) and node.name in float_names:
                if node.name not in written and node.name not in live:
                    live.append(node.name)

    def visit(stmt: ir.Stmt) -> None:
        if isinstance(stmt, ir.Block):
            for inner in stmt.statements:
                visit(inner)
        elif isinstance(stmt, ir.Assign):
            visit_expr(stmt.value)
            written.add(stmt.target)
        elif isinstance(stmt, ir.ArrayStore):
            for idx in stmt.indices:
                visit_expr(idx)
            visit_expr(stmt.value)
        elif isinstance(stmt, ir.Loop):
            visit_expr(stmt.lower)
            visit_expr(stmt.upper)
            visit(stmt.body)
        elif isinstance(stmt, ir.If):
            visit_expr(stmt.condition)
            visit(stmt.then_body)
            if stmt.else_body is not None:
                visit(stmt.else_body)

    visit(body)
    return live


def _scalar_equalities(kernel: ir.Kernel, runs: Sequence[SymbolicRun]) -> List[ScalarEqualityCandidate]:
    """Derive candidate invariant scalar equalities from iteration snapshots."""
    float_names = {decl.name for decl in kernel.scalars if decl.scalar_type != "integer"}
    results: List[ScalarEqualityCandidate] = []
    loop_map = _loops_by_id(kernel)
    for loop_id, loop in loop_map.items():
        live = _live_in_scalars(loop.body, float_names)
        for var in live:
            observed: List[Expr] = []
            coords: List[Dict[str, int]] = []
            envs: List[Dict[str, int]] = []
            skip = False
            for run in runs:
                for snap in run.snapshots_for(loop_id):
                    value = snap.scalars.get(var)
                    if value is None:
                        skip = True
                        break
                    if not isinstance(value, Expr):
                        from repro.symbolic.expr import as_expr

                        value = as_expr(value)
                    if value == sym(var):
                        # The scalar still holds its (symbolic) input value:
                        # it is an input, not a rotating temporary.
                        skip = True
                        break
                    observed.append(value)
                    coords.append(dict(snap.counters))
                    envs.append(run.int_env)
                if skip:
                    break
            if skip or not observed:
                continue
            generalization = generalize(observed)
            rhs_candidates = _complete_template(generalization, coords, envs)
            if rhs_candidates:
                results.append(
                    ScalarEqualityCandidate(loop_id=loop_id, var=var, rhs_candidates=rhs_candidates)
                )
    return results


def _complete_template(
    generalization: GeneralizationResult,
    coordinates: List[Dict[str, int]],
    run_envs: List[Dict[str, int]],
    limit: int = 16,
) -> List[Expr]:
    """Enumerate concrete completions of a small template (cartesian product)."""
    holes = generalization.holes()
    if not holes:
        return [generalization.template]
    per_hole: List[List[Expr]] = []
    for hole in holes:
        observed = generalization.hole_observations[hole.hole_id]
        if hole.kind == "index":
            candidates = index_hole_candidates(observed, coordinates, run_envs)
        else:
            candidates = value_hole_candidates(observed)
        if not candidates:
            return []
        per_hole.append(candidates)
    completions: List[Expr] = []

    def rec(index: int, mapping: Dict[Expr, Expr]) -> None:
        if len(completions) >= limit:
            return
        if index == len(holes):
            from repro.symbolic.expr import substitute_map

            completions.append(substitute_map(generalization.template, mapping))
            return
        for candidate in per_hole[index]:
            mapping[holes[index]] = candidate
            rec(index + 1, mapping)
        mapping.pop(holes[index], None)

    rec(0, {})
    return completions


def _loops_by_id(kernel: ir.Kernel) -> Dict[str, ir.Loop]:
    from repro.ir.analysis import collect_loops

    ids: Dict[str, ir.Loop] = {}
    counts: Dict[str, int] = {}
    for loop in collect_loops(kernel.body):
        count = counts.get(loop.counter, 0)
        counts[loop.counter] = count + 1
        loop_id = loop.counter if count == 0 else f"{loop.counter}#{count}"
        ids[loop_id] = loop
    return ids


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def generate_templates(kernel: ir.Kernel, runs: Sequence[SymbolicRun]) -> TemplateSet:
    """Generate the full synthesis space for a kernel from its symbolic runs."""
    if not runs:
        raise TemplateGenerationError("template generation requires at least one symbolic run")
    if not output_arrays(kernel):
        raise TemplateGenerationError(
            f"kernel {kernel.name} writes no output arrays; it is not a stencil"
        )
    arrays = [
        _rhs_template_for_array(array, runs) for array in output_arrays(kernel)
    ]
    scalar_eqs = _scalar_equalities(kernel, runs)
    sites = analyze_write_sites(kernel)
    return TemplateSet(
        kernel=kernel,
        runs=list(runs),
        arrays=arrays,
        scalar_equalities=scalar_eqs,
        write_sites=sites,
    )
