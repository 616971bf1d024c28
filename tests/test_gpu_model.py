"""Measured-ranking agreement for the GPU cost model, and the thread fit.

The GPU columns of Table 1 come from an analytical model
(:data:`repro.perfmodel.compiler.HALIDE_GPU`), so it cannot be validated
against device wall clock offline.  What *can* be checked is ordinal
consistency: when the native CPU backend's measured timings say grid A
is decisively slower than grid B, the model's predicted kernel times
must rank the pair the same way — the model and the machine should at
least agree on which workload is bigger.  The largest grid's
thread-scaling rows must agree with the parallel fraction fitted from
them (:func:`repro.perfmodel.fit_parallel_fraction`).

Both tests measure their own rows on the lifted CloverLeaf ``ackl94``
stencil, so they gate every run that has a C toolchain; without one
(``$REPRO_CC``, ``cc``, ``gcc`` or ``clang``) the module is skipped.
Each row is the best of :data:`ROUNDS` calls taken in interleaved
rounds over all grids (or thread counts), so a burst of load on a
shared host slows one sample of every row rather than every sample of
one row.

Pairs whose measured ratio sits under a noise floor are skipped: the
small grids are dispatch-bound and their calls take tens of
microseconds whatever the grid, so their measured ordering is scheduler
noise, not workload signal.
"""

from __future__ import annotations

import time
from itertools import combinations

import numpy as np
import pytest

from repro.backend.halidegen import postcondition_to_func
from repro.cache import ArtifactStore
from repro.frontend import identify_candidates, parse_source
from repro.frontend.lowering import lower_candidate
from repro.halide import Schedule, lower
from repro.native import compile_nest_native, find_toolchain
from repro.perfmodel import fit_parallel_fraction, workload_from_func
from repro.perfmodel.compiler import HALIDE_GPU
from repro.suites.registry import cases_for_suite
from repro.synthesis import synthesize_kernel

pytestmark = pytest.mark.skipif(
    find_toolchain() is None, reason="no usable C compiler on this machine"
)

KERNEL_NAME = "ackl94"  # CloverLeaf, 2-D wide cross, plain (Table 1)
GRIDS = (8, 16, 32, 64, 128)
THREAD_COUNTS = (1, 2, 4)
ROUNDS = 25
# The measured ratio a grid pair must exceed before its ordering counts
# as signal.  Small-grid rows are dominated by per-call dispatch.
NOISE_FLOOR = 1.5


@pytest.fixture(scope="module")
def lifted():
    case = next(c for c in cases_for_suite("CloverLeaf") if c.name == KERNEL_NAME)
    kernel = lower_candidate(
        identify_candidates(parse_source(case.source)).candidates[0]
    )
    result = synthesize_kernel(kernel, seed=0, verifier_environments=1)
    return case.name, postcondition_to_func(result.post)[0].func


def _call(runner, func, grid, **kwargs):
    """A zero-argument call of ``runner`` on a ``grid``-sized problem."""
    rng = np.random.default_rng(grid)
    domain = [(0, grid - 1)] * func.dimensions
    inputs = {
        image.name: rng.standard_normal((grid,) * image.dimensions)
        for image in func.inputs()
    }
    params = {param.name: 2.0 for param in func.params()}
    return lambda: runner(domain, inputs, None, params, **kwargs)


def _best_times(calls):
    """Best wall clock of each call over interleaved rounds."""
    for call in calls.values():
        call()  # discarded warm-up call
    best = dict.fromkeys(calls, float("inf"))
    for _ in range(ROUNDS):
        for key, call in calls.items():
            started = time.perf_counter()
            call()
            best[key] = min(best[key], time.perf_counter() - started)
    return best


def test_gpu_model_ranks_grids_like_measured_native_times(lifted, tmp_path):
    name, func = lifted
    runner = compile_nest_native(
        lower(func, Schedule.default()), artifacts=ArtifactStore(tmp_path)
    )
    measured = _best_times({grid: _call(runner, func, grid) for grid in GRIDS})

    checked = 0
    for small, large in combinations(GRIDS, 2):
        measured_ratio = measured[large] / measured[small]
        if max(measured_ratio, 1.0 / measured_ratio) <= NOISE_FLOOR:
            continue
        predicted_small, predicted_large = (
            HALIDE_GPU.runtime(
                workload_from_func(func, name, grid ** func.dimensions),
                include_transfer=False,
            )
            for grid in (small, large)
        )
        agree = (measured_ratio > 1.0) == (predicted_large > predicted_small)
        assert agree, (
            f"model ranks grids {small}/{large} against the measured native "
            f"ordering (measured ratio {measured_ratio:.2f}, "
            f"predicted {predicted_small:.3e}s vs {predicted_large:.3e}s)"
        )
        checked += 1
    assert checked > 0, (
        f"no grid pair exceeded the {NOISE_FLOOR}x noise floor; "
        "widen the grid sweep"
    )


def test_thread_rows_are_consistent_with_parallel_fraction(lifted, tmp_path):
    """The Amdahl fit must explain the largest grid's thread rows."""
    _, func = lifted
    runner = compile_nest_native(
        lower(func, Schedule.baseline_parallel(func.dimensions)),
        artifacts=ArtifactStore(tmp_path),
    )
    times = _best_times(
        {
            threads: _call(runner, func, GRIDS[-1], threads=threads)
            for threads in THREAD_COUNTS
        }
    )
    fraction = fit_parallel_fraction(times)
    assert 0.0 <= fraction <= 1.0
    assert 1 in times
    # A fitted fraction above zero requires some measured scaling.
    if fraction > 0.2:
        assert min(times.values()) < times[1]
