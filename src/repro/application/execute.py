"""Run translated applications and check them against the interpreter.

The translated program is the original program with every translated
loop site replaced by its generated Halide pipeline: when execution
reaches a substituted span, the site's stencils are realized through
the schedule-aware loop-nest backends of :mod:`repro.halide.lower`
(under the measured-autotuned schedule when the pipeline ran in
``measure`` mode) and scattered into the live Fortran arrays; loop
counters are advanced to their Fortran exit values; everything else —
including deliberately-unliftable loops — is interpreted exactly as in
the original program.

``differential_check`` runs original and translated executions from
identical initial states over several grid sizes and compares every
array of the driver's scope *bitwise* (``tobytes`` equality, stricter
than ``==`` which conflates ``0.0``/``-0.0`` and fails on NaN).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.application.interp import (
    FArray,
    FortranInterpreter,
    InterpreterError,
    Scope,
    allocate_arrays,
)
from repro.application.translate import ApplicationBundle, TranslatedKernel
from repro.frontend.ast import DoLoop
from repro.halide.lower import build_runner, lower
from repro.semantics.exec import loop_counter_values


class SubstitutionError(InterpreterError):
    """Raised when a substituted kernel cannot be realized in this state."""


def _domain_environment(stencil, scope: Scope) -> Dict[str, int]:
    """Concrete values for every symbol in the stencil's domain bounds."""
    names = set()
    for lower, upper in stencil.domain_bounds:
        names |= lower.symbols() | upper.symbols()
    env: Dict[str, int] = {}
    for name in sorted(names):
        value = scope.scalar(name)
        if isinstance(value, float):
            if value != int(value):
                raise SubstitutionError(
                    f"domain bound symbol {name!r} is not an integer: {value}"
                )
            value = int(value)
        env[name] = value
    return env


def _replay_loop_control(loop: DoLoop, scope: Scope, interp: FortranInterpreter) -> None:
    """Advance loop counters to their Fortran exit values without bodies.

    Substituting a loop nest must leave the counters exactly where the
    original loops would have: the first value failing the iteration
    test.  The final state depends only on the *last* executed outer
    iteration (inner bounds may reference the outer counter, and even a
    zero-trip ``DO`` assigns its counter the initial value), so it
    suffices to bind each counter to its last iteration value, recurse
    once, and then store the exit value — O(nest depth), not O(trips).
    """
    lower = interp._index(loop.lower, scope)
    upper = interp._index(loop.upper, scope)
    step = 1 if loop.step is None else interp._index(loop.step, scope)
    values = loop_counter_values(lower, upper, step)
    trips = len(values) - 1
    if trips > 0:
        scope.scalars[loop.var] = values[trips - 1]
        for stmt in loop.body:
            if isinstance(stmt, DoLoop):
                _replay_loop_control(stmt, scope, interp)
    scope.scalars[loop.var] = values[trips]


def _stencil_runner(stencil, schedule, backend: str, parallel_chunks: int, artifacts, threads=None):
    """Lower a translated stencil once and build its strict-bounds runner.

    The runner is reused for every execution of the site, so lowering
    and compilation (``compile()`` or the C compiler) are paid once per
    bundle, not per call — on small grids per-call compilation used to
    dwarf the loop work itself.  Translated stencils are single-stage by
    construction (:func:`repro.backend.halidegen.conjunct_to_func` builds
    them from image loads, variables, params, constants, arithmetic and
    calls, never a reference to another Func), so ``lower`` accepts
    every one of them.
    """
    func = stencil.func
    nest = lower(func, schedule if schedule is not None else func.schedule, parallel_chunks)
    return build_runner(nest, backend, True, artifacts, threads)[0]


def _execute_site(
    interp: FortranInterpreter,
    scope: Scope,
    tk: TranslatedKernel,
    runners: Mapping[int, object],
) -> None:
    """Realize every stencil of one substituted site into the live arrays.

    All outputs are computed against the pre-site state first, then
    scattered — postcondition conjuncts all refer to the kernel's
    initial arrays, so an output feeding another conjunct's input must
    not be visible early.
    """
    pending: List[Tuple[object, List[Tuple[int, int]], np.ndarray]] = []
    for stencil in tk.stencils:
        env = _domain_environment(stencil, scope)
        domain = stencil.concrete_domain(env)
        if any(upper < lower for lower, upper in domain):
            continue  # degenerate grid: the original loops run zero trips
        inputs: Dict[str, np.ndarray] = {}
        origins: Dict[str, Tuple[int, ...]] = {}
        for name in stencil.input_arrays:
            array = scope.array(name)
            inputs[name] = array.data
            origins[name] = array.origin
        params = {
            name: float(scope.scalar(name)) for name in stencil.scalar_params
        }
        out = runners[id(stencil)](domain, inputs, origins, params)
        pending.append((stencil, domain, out))
    for stencil, domain, out in pending:
        target = scope.array(stencil.array)
        slices = []
        for dim, (lower, upper) in enumerate(domain):
            start = lower - target.origin[dim]
            stop = upper - target.origin[dim] + 1
            if start < 0 or stop > target.data.shape[dim]:
                raise SubstitutionError(
                    f"stencil for {stencil.array!r} writes [{lower}, {upper}] outside "
                    f"the array extent in dimension {dim}"
                )
            slices.append(slice(start, stop))
        target.data[tuple(slices)] = out
    for loop in tk.site.loops:
        _replay_loop_control(loop, scope, interp)


def substitution_hooks(
    bundle: ApplicationBundle,
    backend: str = "auto",
    parallel_chunks: int = 8,
    artifacts=None,
    threads: Optional[int] = None,
):
    """Interpreter site hooks realizing every translated kernel of a bundle.

    Every stencil is lowered and compiled **once**, here, by
    :func:`~repro.halide.lower.build_runner`, and its runner is closed
    over by the hook — site executions then dispatch straight into the
    compiled kernel (native C when ``backend`` resolves to
    ``"native"``, generated Python otherwise) instead of re-lowering
    per call.  ``backend="auto"`` picks the native backend exactly when
    a C toolchain is present, and an unknown name raises
    :class:`~repro.halide.lang.HalideError`; ``artifacts`` optionally
    shares compiled ``.so`` files across processes; ``threads`` sets
    the native worker-thread count for every substituted parallel band
    (``None`` → the process default).
    """
    hooks = {}
    for tk in bundle.translated:
        runners = {
            id(stencil): _stencil_runner(
                stencil, tk.schedule, backend, parallel_chunks, artifacts, threads
            )
            for stencil in tk.stencils
        }

        def hook(interp, scope, index, tk=tk, runners=runners):
            _execute_site(interp, scope, tk, runners)
            return tk.site.end

        hooks[tk.site.key] = hook
    return hooks


# ---------------------------------------------------------------------------
# Differential harness
# ---------------------------------------------------------------------------

def _scalar_bits_equal(left, right) -> bool:
    """Bit-level scalar equality: distinguishes 0.0 from -0.0, equates NaNs."""
    if type(left) is not type(right):
        return False
    if isinstance(left, float):
        return left.hex() == right.hex()
    return left == right

@dataclass
class GridRun:
    """Original-vs-translated execution of one grid size."""

    grid: int
    identical: bool
    max_abs_diff: float
    arrays_compared: int
    original_seconds: float
    translated_seconds: float
    mismatched_arrays: Tuple[str, ...] = ()

    @property
    def speedup(self) -> float:
        return self.original_seconds / max(self.translated_seconds, 1e-12)

    @property
    def regression(self) -> bool:
        """Did translation make this grid *slower* than the original?

        This is the flag the benchmark publisher must surface: a
        translated application that wins at large grids but loses at
        small ones (speedup < 1.0) is a pessimization for exactly the
        problem sizes where dispatch overhead dominates.
        """
        return self.speedup < 1.0


@dataclass
class ApplicationRunReport:
    """Differential results for one bundle across grid sizes."""

    application: str
    substituted_kernels: int
    fallback_sites: int
    runs: List[GridRun] = field(default_factory=list)

    @property
    def all_identical(self) -> bool:
        return bool(self.runs) and all(run.identical for run in self.runs)

    @property
    def regressions(self) -> Tuple[int, ...]:
        """Grids where the translated program ran slower than the original."""
        return tuple(run.grid for run in self.runs if run.regression)

    def as_json(self) -> Dict:
        return {
            "application": self.application,
            "substituted_kernels": self.substituted_kernels,
            "fallback_sites": self.fallback_sites,
            "all_identical": self.all_identical,
            "regressions": list(self.regressions),
            "runs": [
                {
                    "grid": run.grid,
                    "identical": run.identical,
                    "max_abs_diff": run.max_abs_diff,
                    "arrays_compared": run.arrays_compared,
                    "original_seconds": run.original_seconds,
                    "translated_seconds": run.translated_seconds,
                    "speedup": run.speedup,
                    "regression": run.regression,
                }
                for run in self.runs
            ],
        }


def run_application(
    bundle: ApplicationBundle,
    scalars: Mapping[str, int],
    arrays: Mapping[str, np.ndarray],
    translated: bool = True,
    backend: str = "auto",
    artifacts=None,
    threads: Optional[int] = None,
) -> Tuple[Scope, float]:
    """Execute the bundle's driver once; return (driver scope, seconds).

    ``translated=False`` runs the pure reference interpreter;
    ``translated=True`` installs the substitution hooks.  The array
    buffers are mutated in place.  Hook construction — lowering and
    compiling every substituted stencil — happens before the clock
    starts, so the reported seconds measure execution, not compilation.
    """
    hooks = (
        substitution_hooks(bundle, backend=backend, artifacts=artifacts, threads=threads)
        if translated
        else {}
    )
    interp = FortranInterpreter(bundle.program, site_hooks=hooks)
    started = time.perf_counter()
    scope = interp.run(bundle.driver, scalars, arrays)
    return scope, time.perf_counter() - started


def differential_check(
    bundle: ApplicationBundle,
    grids: Optional[Sequence[int]] = None,
    seed: int = 0,
    backend: str = "auto",
    grid_scalars=None,
    timing_repeats: int = 1,
    artifacts=None,
    threads: Optional[int] = None,
) -> ApplicationRunReport:
    """Run original vs translated over several grids; compare bitwise.

    ``grid_scalars`` maps a grid size to the driver's scalar arguments
    (``int -> mapping``); it defaults to the bundled mini-app's own
    :meth:`~repro.suites.apps.MiniApp.grid_scalars` and is required —
    like ``grids`` — for raw-source bundles, whose driver signature the
    harness cannot guess.

    ``timing_repeats`` executes each side that many times (from
    identical fresh initial state every time, so results are unchanged)
    and reports the *minimum* seconds per side — the standard
    microbenchmark treatment, which makes the per-grid
    :attr:`GridRun.regression` flags robust to scheduler noise.
    """
    if bundle.app is not None:
        grids = bundle.app.grids if grids is None else grids
        grid_scalars = bundle.app.grid_scalars if grid_scalars is None else grid_scalars
    if grids is None or grid_scalars is None:
        raise ValueError(
            "differential_check needs `grids` and `grid_scalars` for raw-source bundles"
        )
    report = ApplicationRunReport(
        application=bundle.name,
        substituted_kernels=len(bundle.translated),
        fallback_sites=len(bundle.fallbacks),
    )
    for grid in grids:
        scalars = grid_scalars(grid)
        initial = allocate_arrays(bundle.program, bundle.driver, scalars, seed=seed)
        original_seconds = float("inf")
        translated_seconds = float("inf")
        original_scope = translated_scope = None
        for _ in range(max(1, timing_repeats)):
            original_arrays = {name: data.copy() for name, data in initial.items()}
            translated_arrays = {name: data.copy() for name, data in initial.items()}
            original_scope, seconds = run_application(
                bundle, scalars, original_arrays, translated=False
            )
            original_seconds = min(original_seconds, seconds)
            translated_scope, seconds = run_application(
                bundle,
                scalars,
                translated_arrays,
                translated=True,
                backend=backend,
                artifacts=artifacts,
                threads=threads,
            )
            translated_seconds = min(translated_seconds, seconds)
        mismatched: List[str] = []
        max_diff = 0.0
        names = sorted(original_scope.arrays)
        for name in names:
            reference: FArray = original_scope.arrays[name]
            candidate: FArray = translated_scope.arrays[name]
            if reference.data.tobytes() != candidate.data.tobytes():
                mismatched.append(name)
                if reference.data.shape == candidate.data.shape:
                    max_diff = max(
                        max_diff,
                        float(np.max(np.abs(reference.data - candidate.data))),
                    )
        # Scalar parameters of the driver must agree too — they are the
        # scalar state a Fortran caller can observe at return (array-only
        # comparison would miss a dropped written-back result).  Driver
        # *locals* (loop counters, rotation temporaries) die with the
        # activation and are deliberately not compared: substitution
        # guarantees only observable state, and the scan demotes any
        # site whose scalar temporaries escape.
        array_params = set(original_scope.arrays)
        for name in original_scope.procedure.params:
            if name in array_params:
                continue
            left = original_scope.scalars.get(name)
            right = translated_scope.scalars.get(name)
            if not _scalar_bits_equal(left, right):
                mismatched.append(f"scalar:{name}")
        report.runs.append(
            GridRun(
                grid=grid,
                identical=not mismatched,
                max_abs_diff=max_diff,
                arrays_compared=len(names),
                original_seconds=original_seconds,
                translated_seconds=translated_seconds,
                mismatched_arrays=tuple(mismatched),
            )
        )
    return report
