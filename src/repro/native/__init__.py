"""Native kernel execution: compile lowered loop nests with the system cc.

The pipeline has always *emitted* C++ (:mod:`repro.halide.cppgen`) and
Fortran glue (:mod:`repro.backend.gluegen`) without ever executing
them, so every translated kernel ran through NumPy or generated Python
— fast on big grids, a pessimization on small ones where per-call
dispatch dominates.  This package closes the gap with a *native*
execution backend:

* :mod:`repro.native.csource` emits a self-contained C translation of a
  lowered :class:`~repro.halide.loopir.LoopNest` with one flat
  ``extern``-style entry point;
* :mod:`repro.native.toolchain` finds the system C compiler
  (``$REPRO_CC``, then ``cc``/``gcc``/``clang``) and turns the source
  into a shared object with floating-point-strict flags
  (``-fno-fast-math -ffp-contract=off``) so results stay bit-identical
  to the generated-Python backend;
* :mod:`repro.native.dispatch` loads the ``.so`` through ``ctypes`` and
  calls it with zero-copy NumPy buffer passing; compiled artifacts are
  content-addressed in an :class:`~repro.cache.artifacts.ArtifactStore`
  so warm runs ``dlopen`` instead of re-compiling.

The backend is selected as ``backend="native"`` wherever
``"codegen"`` is accepted (:func:`repro.halide.lower.realize_scheduled`,
the application executor, :class:`repro.autotune.MeasuredObjective`);
all of them build through :func:`repro.halide.lower.build_runner`,
which falls back to codegen when native compilation is impossible.
``"auto"`` resolves to native when a toolchain is present and to the
generated-Python backend otherwise.  See ``docs/native_execution.md``.
"""

from repro.native.csource import CSource, NativeUnsupportedError, emit_c_source, native_supported
from repro.native.dispatch import NativeRunner, compile_nest_native, default_thread_count
from repro.native.toolchain import (
    Toolchain,
    ToolchainError,
    find_toolchain,
    resolve_backend,
)

__all__ = [
    "CSource",
    "NativeRunner",
    "NativeUnsupportedError",
    "Toolchain",
    "ToolchainError",
    "compile_nest_native",
    "default_thread_count",
    "emit_c_source",
    "find_toolchain",
    "native_supported",
    "resolve_backend",
]
