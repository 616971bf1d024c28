"""A Halide-like embedded stencil DSL.

The real STNG emits C++ Halide programs that the Halide compiler turns
into optimized object files.  Offline we cannot run Halide/LLVM, so this
package provides the pieces the pipeline needs:

* :mod:`repro.halide.lang` — ``Func``/``Var``/``ImageParam`` with the
  same pure-functional semantics Halide's front end has;
* :mod:`repro.halide.schedule` — schedule primitives (parallel, split/
  tile, vectorize, unroll, reorder, inline) recorded on a
  :class:`~repro.halide.schedule.Schedule` object;
* :mod:`repro.halide.executor` — the schedule-blind numpy reference
  executor used to check generated pipelines against the original
  Fortran kernels;
* :mod:`repro.halide.loopir` — the explicit loop-nest IR that schedules
  lower to;
* :mod:`repro.halide.lower` — the lowering pass, the generated-Python
  ``compile()`` backend and :func:`~repro.halide.lower.build_runner`,
  the one place that picks it or the compiled-C backend of
  :mod:`repro.native`; :func:`~repro.halide.lower.realize_scheduled`
  executes a (Func, Schedule) pair for real, bit-identical to the
  reference;
* :mod:`repro.halide.cppgen` — emission of the C++ Halide source text
  the paper's Figure 1(d) shows.

Performance numbers come from two places: the analytical machine models
in :mod:`repro.perfmodel` (deterministic, used for the Table 1 columns)
and wall-clock measurement of the lowered loop nests
(:class:`repro.autotune.MeasuredObjective`), which the pipeline's
``measure`` mode reports side by side with the model.
"""

from repro.halide.lang import Expr, Func, HalideError, ImageParam, Param, Var
from repro.halide.schedule import Schedule, ScheduleError
from repro.halide.executor import OutOfBoundsError, realize
from repro.halide.loopir import LoopNest
from repro.halide.lower import build_runner, compile_loop_nest, lower, realize_scheduled
from repro.halide.cppgen import emit_cpp

__all__ = [
    "Expr",
    "Func",
    "HalideError",
    "ImageParam",
    "LoopNest",
    "OutOfBoundsError",
    "Param",
    "Schedule",
    "ScheduleError",
    "Var",
    "build_runner",
    "compile_loop_nest",
    "emit_cpp",
    "lower",
    "realize",
    "realize_scheduled",
]
