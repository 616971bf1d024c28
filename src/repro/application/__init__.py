"""Whole-application translation: scan, lift, substitute, execute (§6).

The paper's headline experiment translates complete multi-kernel
Fortran programs, not single loop nests.  This package closes that
loop for the reproduction:

* :mod:`repro.application.scan` finds every candidate loop nest in
  every procedure of a parsed program, with its enclosing context;
* :mod:`repro.application.translate` lifts all candidates (in parallel
  through the batch scheduler, backed by the synthesis cache) and
  packages the result as an :class:`ApplicationBundle` — per-kernel
  Halide C++, Fortran glue, and a manifest with verification levels;
* :mod:`repro.application.interp` is the reference interpreter for the
  original program (procedures, calls, loops, conditionals);
* :mod:`repro.application.compiled` runs the same statements as
  generated Python, for the translated program's remainder;
* :mod:`repro.application.execute` runs the *translated* program —
  substituted kernels realized through the schedule-aware loop-nest
  backends, everything else (unliftable loops included) on generated
  code — and differentially checks it against the reference, grid size
  by grid size.
"""

from repro.application.execute import (
    ApplicationRunReport,
    GridRun,
    differential_check,
    run_application,
    substitution_hooks,
)
from repro.application.interp import (
    FortranInterpreter,
    InterpreterError,
    allocate_arrays,
)
from repro.application.scan import ApplicationScan, LoopSite, scan_application
from repro.application.translate import (
    ApplicationBundle,
    FallbackSite,
    TranslatedKernel,
    translate_application,
)

__all__ = [
    "ApplicationBundle",
    "ApplicationRunReport",
    "ApplicationScan",
    "FallbackSite",
    "FortranInterpreter",
    "GridRun",
    "InterpreterError",
    "LoopSite",
    "TranslatedKernel",
    "allocate_arrays",
    "differential_check",
    "run_application",
    "scan_application",
    "substitution_hooks",
    "translate_application",
]
