"""Compile-and-call: turn an emitted C kernel into a Python callable.

:func:`compile_nest_native` is the native twin of
:func:`repro.halide.lower.compile_loop_nest`: it returns a runner with
the identical signature

    ``runner(domain, inputs, input_origins=None, params=None, out=None)``

but whose body is a single ``ctypes`` call into a compiled shared
object.  Buffers are passed zero-copy — a float64 C-contiguous numpy
array contributes only its data pointer; anything else is converted
once up front, exactly like the generated-Python prologue's
``astype(float)``.

Compiled artifacts are content-addressed
(:func:`repro.cache.artifacts.artifact_key` over the generated source
and the toolchain fingerprint).  With an
:class:`~repro.cache.artifacts.ArtifactStore` attached, the store is
consulted *before* compiling — a warm run ``dlopen``\\ s the cached
``.so`` and performs zero compiler invocations (the store's
``compiles`` counter stays 0, which the benchmarks assert).  Without a
store, builds land in a per-process temporary directory that is removed
at exit.

Error behaviour mirrors the generated-Python backend: missing buffers, rank
mismatches and missing scalar params raise
:class:`~repro.halide.lang.HalideError` with the same messages, and a
strict-bounds violation raises
:class:`~repro.halide.executor.OutOfBoundsError` built from the
``(image, dimension, coordinate)`` triple the kernel reports —
including violations detected inside worker threads, which are
reported in serial traversal order.

Threading: when the toolchain supports ``-pthread``, emitted kernels
whose outermost loop is a ``parallel`` chunk band dispatch the band's
step-aligned slabs over POSIX threads.  The thread count is a pure
*runtime* argument (the trailing ``int64_t threads`` of the entry
point): one compiled artifact serves every thread count, and
``threads=1`` executes the slabs serially in order — bit-identical to
the serial emission.  ``compile_nest_native(..., threads=N)`` pins a
default for the returned runner; ``$REPRO_NATIVE_THREADS`` sets the
process-wide default (:func:`default_thread_count`, 1 when unset) so
CI can run entire suites multithreaded without touching call sites.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shutil
import tempfile
import time
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.cache.artifacts import ArtifactStore, artifact_key
from repro.halide.executor import Domain, OutOfBoundsError
from repro.halide.lang import HalideError
from repro.halide.loopir import LoopNest
from repro.native.csource import CSource, emit_c_source
from repro.native.toolchain import Toolchain, ToolchainError, find_toolchain

_c_int64_p = ctypes.POINTER(ctypes.c_int64)
_c_double_p = ctypes.POINTER(ctypes.c_double)

# Process-private build directory for artifact-less compilation, plus a
# dlopen memo so one .so is loaded at most once per process.
_private_dir: Optional[str] = None
_loaded: Dict[str, ctypes.CDLL] = {}


def _private_build_dir() -> str:
    global _private_dir
    if _private_dir is None:
        _private_dir = tempfile.mkdtemp(prefix="repro-native-")
        atexit.register(shutil.rmtree, _private_dir, ignore_errors=True)
    return _private_dir


def _load(so_path: str, entry: str) -> ctypes._CFuncPtr:  # type: ignore[name-defined]
    library = _loaded.get(so_path)
    if library is None:
        library = ctypes.CDLL(so_path)
        _loaded[so_path] = library
    fn = getattr(library, entry)
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        _c_int64_p,                    # lo
        _c_int64_p,                    # hi
        ctypes.POINTER(_c_double_p),   # bufs
        _c_int64_p,                    # borig
        _c_int64_p,                    # bext
        _c_double_p,                   # params
        _c_double_p,                   # out
        _c_int64_p,                    # err
        ctypes.c_int64,                # threads
    ]
    return fn


def default_thread_count() -> int:
    """The process-wide native thread count: ``$REPRO_NATIVE_THREADS`` or 1.

    Serial by default on purpose: existing timing-sensitive tests and
    single-kernel call sites keep their exact behaviour unless a caller
    (or CI, via the environment) asks for threads explicitly.
    """
    raw = os.environ.get("REPRO_NATIVE_THREADS", "")
    try:
        value = int(raw)
    except ValueError:
        return 1
    return max(1, value)


def _build(source: CSource, toolchain: Toolchain, artifacts: Optional[ArtifactStore]) -> str:
    """Compile (or fetch from the store) and return the ``.so`` path."""
    key = artifact_key(source.text, toolchain.fingerprint())
    if artifacts is not None:
        cached = artifacts.get(key)
        if cached is not None:
            return str(cached)
    else:
        private = os.path.join(_private_build_dir(), f"{key}.so")
        if os.path.isfile(private):
            return private
    with tempfile.TemporaryDirectory(prefix="repro-native-build-") as build_dir:
        c_path = os.path.join(build_dir, "kernel.c")
        so_path = os.path.join(build_dir, "kernel.so")
        with open(c_path, "w", encoding="utf-8") as handle:
            handle.write(source.text)
        started = time.perf_counter()
        toolchain.compile(c_path, so_path)
        elapsed = time.perf_counter() - started
        if artifacts is not None:
            artifacts.note_compile(elapsed)
            published = artifacts.put(
                key,
                so_path,
                metadata={
                    "kernel": source.kernel_name,
                    "schedule": source.schedule,
                    "strict_bounds": source.strict_bounds,
                    "source_sha256": hashlib.sha256(source.text.encode("utf-8")).hexdigest(),
                    "toolchain": toolchain.fingerprint(),
                },
            )
            if str(published) != so_path:
                return str(published)
            # Publishing was skipped (lock timeout): fall through and
            # keep a private copy, since the temp build dir is deleted.
        private = os.path.join(_private_build_dir(), f"{key}.so")
        shutil.copyfile(so_path, private)
        return private


class NativeRunner:
    """A compiled loop nest, callable like ``compile_loop_nest``'s runner.

    ``threads`` is the default worker-thread count passed to the kernel
    on every call (overridable per call); a kernel without a threaded
    parallel band takes and ignores it.
    """

    def __init__(self, source: CSource, so_path: str, toolchain: Toolchain, threads: int = 1):
        self.source = source
        self.so_path = so_path
        self.toolchain = toolchain
        self.threads = max(1, int(threads))
        self.dimensions = source.dimensions
        self._fn = _load(so_path, source.entry)

    def __call__(
        self,
        domain: Domain,
        inputs: Mapping[str, np.ndarray],
        input_origins: Optional[Mapping[str, Tuple[int, ...]]] = None,
        params: Optional[Mapping[str, float]] = None,
        out: Optional[np.ndarray] = None,
        threads: Optional[int] = None,
    ) -> np.ndarray:
        dims = self.dimensions
        if len(domain) != dims:
            raise HalideError(
                f"domain rank {len(domain)} does not match Func rank {dims}"
            )
        input_origins = dict(input_origins or {})
        params = dict(params or {})

        lo = np.array([pair[0] for pair in domain], dtype=np.int64)
        hi = np.array([pair[1] for pair in domain], dtype=np.int64)

        buffers = []
        origin_flat = []
        extent_flat = []
        for name, rank in zip(self.source.image_names, self.source.image_ranks):
            if name not in inputs:
                raise HalideError(f"no buffer supplied for input {name!r}")
            buffer = inputs[name]
            if buffer.ndim != rank:
                raise HalideError(
                    f"buffer for {name!r} has rank {buffer.ndim}, expected {rank}"
                )
            # Zero-copy when already float64 C-contiguous; one conversion
            # otherwise (the same conversion the Python prologue hoists).
            buffer = np.ascontiguousarray(buffer, dtype=np.float64)
            buffers.append(buffer)
            origin_flat.extend(input_origins.get(name, (0,) * rank))
            extent_flat.extend(buffer.shape)
        for name in self.source.param_names:
            if name not in params:
                raise HalideError(f"no value supplied for scalar param {name!r}")

        borig = np.array(origin_flat, dtype=np.int64)
        bext = np.array(extent_flat, dtype=np.int64)
        param_values = np.array(
            [float(params[name]) for name in self.source.param_names], dtype=np.float64
        )
        buf_ptrs = (_c_double_p * max(1, len(buffers)))(
            *(buffer.ctypes.data_as(_c_double_p) for buffer in buffers)
        )

        shape = tuple(pair[1] - pair[0] + 1 for pair in domain)
        if out is None:
            out = np.empty(shape, dtype=float)
        if (
            out.dtype == np.float64
            and out.flags["C_CONTIGUOUS"]
            and out.shape == shape
        ):
            target = out
        else:
            target = np.empty(shape, dtype=np.float64)

        effective_threads = self.threads if threads is None else max(1, int(threads))
        err = np.zeros(3, dtype=np.int64)
        rc = self._fn(
            lo.ctypes.data_as(_c_int64_p),
            hi.ctypes.data_as(_c_int64_p),
            buf_ptrs,
            borig.ctypes.data_as(_c_int64_p),
            bext.ctypes.data_as(_c_int64_p),
            param_values.ctypes.data_as(_c_double_p),
            target.ctypes.data_as(_c_double_p),
            err.ctypes.data_as(_c_int64_p),
            ctypes.c_int64(effective_threads),
        )
        if rc != 0:
            position, dim, coord = (int(value) for value in err)
            name = self.source.image_names[position]
            extent = int(buffers[position].shape[dim])
            rank = self.source.image_ranks[position]
            origin = input_origins.get(name, (0,) * rank)[dim]
            raise OutOfBoundsError(
                f"read of {name!r} out of bounds in dimension {dim}: indices "
                f"span [{coord}, {coord}] but the buffer extent is {extent} "
                f"(origin {origin})"
            )
        if target is not out:
            out[...] = target
        return out


def compile_nest_native(
    nest: LoopNest,
    strict_bounds: bool = False,
    artifacts: Optional[ArtifactStore] = None,
    toolchain: Optional[Toolchain] = None,
    threads: Optional[int] = None,
) -> NativeRunner:
    """Compile a lowered loop nest with the system toolchain.

    ``threads`` sets the returned runner's default worker-thread count
    (``None`` → :func:`default_thread_count`).  The count does not
    affect the generated source or the artifact key — one ``.so``
    serves every thread count — only which default the runner passes at
    call time.

    Raises :class:`~repro.native.csource.NativeUnsupportedError` when
    the definition falls outside the bit-identical native fragment and
    :class:`~repro.native.toolchain.ToolchainError` when no C compiler
    is usable — callers fall back to the generated-Python backend in
    both cases.

    Runners are memoised per nest (like ``compile_loop_nest``), and the
    compiled ``.so`` is content-addressed: re-lowering the same
    ``(Func, Schedule)`` produces the same source, hence the same
    artifact key, hence at most one compilation per process — or per
    *store*, when an :class:`ArtifactStore` spans processes.
    """
    threads = default_thread_count() if threads is None else max(1, int(threads))
    memo_key = f"_native_strict_{bool(strict_bounds)}_t{threads}"
    runner = getattr(nest, memo_key, None)
    if runner is not None:
        return runner
    if toolchain is None:
        toolchain = find_toolchain()
    if toolchain is None:
        raise ToolchainError(
            "no usable C compiler found (set $REPRO_CC or install cc/gcc/clang)"
        )
    source = emit_c_source(
        nest, strict_bounds=strict_bounds, threaded=toolchain.supports_threads
    )
    so_path = _build(source, toolchain, artifacts)
    runner = NativeRunner(source, so_path, toolchain, threads=threads)
    setattr(nest, memo_key, runner)
    return runner
