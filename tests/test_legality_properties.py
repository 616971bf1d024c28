"""Property test: the legality checker vs. the differential executor.

The contract of :mod:`repro.analysis.legality` is one-sided — a
``LEGAL`` verdict is a *proof* that the schedule cannot change the
Func's results, while ``ILLEGAL``/``UNKNOWN`` are refusals to certify.
Hypothesis drives random schedules through both the checker and the
executors and enforces each side of that contract:

* ``legal ⇒ bit-identical``: every certified schedule's lowered nest
  must produce ``tobytes``-equal output against the schedule-blind
  reference on every backend — generated Python and (with a toolchain)
  native at 1 and 4 worker threads.  A single byte of
  drift on a certified schedule would be a soundness bug in the
  checker, not a flaky test.
* ``not legal ⇒ not lowerable``: :func:`repro.halide.lower.lower`
  refuses everything else with :class:`ScheduleLegalityError`, so an
  uncertified traversal cannot reach an executor in the first place
  (``UNKNOWN`` is treated exactly like ``ILLEGAL``).

The in-place Func (named like the array it reads) is where the checker
earns its keep: only order-preserving schedules are certified for it,
and every reordering/parallel/tiled proposal must be rejected.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.legality import LEGAL, certify
from repro.halide import (
    Func,
    ImageParam,
    Schedule,
    Var,
    compile_loop_nest,
    lower,
    realize,
)
from repro.halide.schedule import ScheduleError
from repro.native import compile_nest_native, find_toolchain

DIMS = 2
DOMAIN = [(0, 12), (1, 11)]
THREAD_COUNTS = (1, 4)


def _pure_func() -> Func:
    x, y = Var("x"), Var("y")
    b = ImageParam("b", 2)
    f = Func("prop_pure")
    f[x, y] = (b[x - 1, y] + b[x + 1, y] + b[x, y - 1] + b[x, y + 1]) * 0.25
    return f


def _inplace_func() -> Func:
    # Named like its input image, so the checker sees the self-read the
    # way it sees a lifted in-place update: a(i,j) = a(i-1,j)*0.5 + ...
    x, y = Var("x"), Var("y")
    a = ImageParam("a", 2)
    f = Func("a")
    f[x, y] = a[x - 1, y] * 0.5 + a[x, y] * 0.5
    return f


def _inputs(func: Func, seed: int = 5):
    rng = np.random.default_rng(seed)
    extents = tuple(hi - lo + 1 for lo, hi in DOMAIN)
    inputs = {
        image.name: rng.standard_normal(
            tuple(extent + 4 for extent in extents[: image.dimensions])
        )
        for image in func.inputs()
    }
    origins = {name: tuple(lo - 2 for lo, _ in DOMAIN) for name in inputs}
    return inputs, origins


# A generous cross-section of the real search space: every directive the
# autotuner mutates, including values Schedule.validate rejects.
schedules = st.builds(
    lambda parallel, tiles, vector, unroll, order: Schedule(
        parallel_dim=parallel,
        tile_sizes=tiles,
        vector_width=vector,
        unroll=unroll,
        dim_order=order,
    ),
    parallel=st.one_of(st.none(), st.integers(min_value=0, max_value=DIMS - 1)),
    tiles=st.one_of(
        st.just(()),
        st.tuples(*([st.sampled_from([0, 4, 8, 32])] * DIMS)),
    ),
    vector=st.sampled_from([1, 2, 4, 8]),
    unroll=st.sampled_from([1, 2, 4]),
    order=st.one_of(st.none(), st.permutations(range(DIMS)).map(tuple)),
)


@settings(max_examples=60, deadline=None)
@given(schedule=schedules)
def test_legal_schedules_are_bit_identical(schedule: Schedule):
    func = _pure_func()
    inputs, origins = _inputs(func)
    report = certify(func, schedule)
    if report.verdict != LEGAL:
        with pytest.raises(ScheduleError):
            lower(func, schedule)
        return
    nest = lower(func, schedule)
    reference = realize(func, DOMAIN, inputs, origins)
    compiled = compile_loop_nest(nest)(DOMAIN, inputs, origins)
    assert compiled.tobytes() == reference.tobytes(), schedule.describe()
    if find_toolchain() is not None:
        for threads in THREAD_COUNTS:
            native = compile_nest_native(nest, threads=threads)(
                DOMAIN, inputs, origins
            )
            assert native.tobytes() == reference.tobytes(), (
                f"{schedule.describe()} threads={threads}"
            )


@settings(max_examples=60, deadline=None)
@given(schedule=schedules)
def test_inplace_func_only_certifies_order_preserving(schedule: Schedule):
    func = _inplace_func()
    report = certify(func, schedule)
    order_changing = (
        schedule.parallel_dim is not None
        or (schedule.tile_sizes and any(schedule.tile_sizes))
        or (
            schedule.dim_order is not None
            and tuple(schedule.dim_order) != tuple(range(DIMS))
        )
    )
    if order_changing:
        # The self-read at x-1 makes traversal order observable; no
        # order-changing schedule may ever certify.
        assert report.verdict != LEGAL, schedule.describe()
        with pytest.raises(ScheduleError):
            lower(func, schedule)
    else:
        assert report.verdict == LEGAL, schedule.describe()
        lower(func, schedule)
