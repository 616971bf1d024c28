"""Tests for the native (compiled-C) execution backend.

Covers: bit-identity of the native backend against the generated-Python
codegen backend and the schedule-blind reference over a
≥100-random-schedule sweep of the DSL stencils plus a Table-1 suite
cross-section, strict-bounds parity, the content-addressed
compiled-artifact cache (cold compiles, warm runs load with zero
compiler invocations), toolchain resolution, the ``build_runner``
factory, and the graceful fallback to the generated-Python backend when
native compilation is impossible.

Everything that needs a C compiler is skip-marked; the fallback tests
run everywhere.
"""

import numpy as np
import pytest

from repro.autotune import MeasuredObjective, ScheduleSpace
from repro.backend.halidegen import postcondition_to_func
from repro.cache import ArtifactStore, artifact_key
from repro.frontend import identify_candidates, parse_source
from repro.frontend.lowering import lower_candidate
from repro.halide import (
    Func,
    HalideError,
    ImageParam,
    OutOfBoundsError,
    Param,
    Schedule,
    Var,
    build_runner,
    compile_loop_nest,
    lower,
    realize,
    realize_scheduled,
)
from repro.native import (
    NativeUnsupportedError,
    ToolchainError,
    compile_nest_native,
    default_thread_count,
    emit_c_source,
    find_toolchain,
    native_supported,
    resolve_backend,
)
from repro.perfmodel.workload import domain_for_points
from repro.suites.registry import cases_for_suite, suite_names
from repro.synthesis import synthesize_kernel

needs_cc = pytest.mark.skipif(
    find_toolchain() is None, reason="no usable C compiler on this machine"
)


def _cross2d():
    x, y = Var("x"), Var("y")
    b = ImageParam("b", 2)
    f = Func("cross2d")
    f[x, y] = b(x, y) + b(x - 1, y) + b(x + 1, y) + b(x, y - 1) + b(x, y + 1)
    return f


def _weighted2d():
    x, y = Var("x"), Var("y")
    b = ImageParam("b", 2)
    c = ImageParam("c", 2)
    w = Param("w")
    f = Func("weighted2d")
    f[x, y] = w * b(x - 1, y) + 0.25 * c(x, y - 1) + b(x, y) / 2.0
    return f


def _box3d():
    x, y, z = Var("x"), Var("y"), Var("z")
    b = ImageParam("b", 3)
    f = Func("box3d")
    expr = None
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            for dk in (-1, 0, 1):
                term = b(x + di, y + dj, z + dk)
                weight = 1.0 if (di, dj, dk) == (0, 0, 0) else 0.5
                term = weight * term
                expr = term if expr is None else expr + term
    f[x, y, z] = expr
    return f


def _blur1d():
    x = Var("x")
    b = ImageParam("b", 1)
    f = Func("blur1d")
    f[x] = (b(x - 1) + b(x) + b(x + 1)) / 3.0
    return f


FUNC_BUILDERS = {
    "cross2d": _cross2d,
    "weighted2d": _weighted2d,
    "box3d": _box3d,
    "blur1d": _blur1d,
}

DOMAINS = {
    "cross2d": [(1, 12), (-2, 7)],
    "weighted2d": [(0, 9), (1, 8)],
    "box3d": [(1, 6), (1, 5), (0, 4)],
    "blur1d": [(-3, 20)],
}


def _inputs_for(func, domain, seed, margin=2):
    rng = np.random.default_rng(seed)
    lows = [lo for lo, _ in domain]
    extents = [hi - lo + 1 for lo, hi in domain]
    inputs = {}
    origins = {}
    for image in func.inputs():
        shape = tuple(
            extents[dim] + 2 * margin if dim < len(extents) else 8
            for dim in range(image.dimensions)
        )
        inputs[image.name] = rng.normal(size=shape)
        origins[image.name] = tuple(
            lows[dim] - margin if dim < len(extents) else 0
            for dim in range(image.dimensions)
        )
    params = {param.name: float(rng.integers(1, 5)) for param in func.params()}
    return inputs, origins, params


@needs_cc
class TestNativeBitIdentity:
    """Native output must equal codegen and the reference bit-for-bit."""

    SCHEDULES_PER_FUNC = 30  # 4 funcs × 30 = 120 random schedules

    def test_random_schedule_sweep(self):
        total = 0
        for name, build in FUNC_BUILDERS.items():
            func = build()
            domain = DOMAINS[name]
            inputs, origins, params = _inputs_for(func, domain, seed=17)
            reference = realize(func, domain, inputs, origins, params)
            space = ScheduleSpace(func.dimensions)
            for schedule in space.sample_schedules(self.SCHEDULES_PER_FUNC, seed=23):
                nest = lower(func, schedule)
                codegen = compile_loop_nest(nest)(domain, inputs, origins, params)
                native = compile_nest_native(nest)(domain, inputs, origins, params)
                label = f"{name} [{schedule.describe()}]"
                assert native.tobytes() == reference.tobytes(), label
                assert native.tobytes() == codegen.tobytes(), label
                total += 1
        assert total >= 100

    def test_table1_suite_cross_section(self):
        """Lifted suite stencils execute bit-identically on the native path."""
        from repro.backend.halidegen import HalideGenerationError

        checked = 0
        for suite in suite_names():
            if checked >= 3:
                break
            cases = [c for c in cases_for_suite(suite) if c.expect_translated]
            for case in cases[:1]:
                kernel = lower_candidate(
                    identify_candidates(parse_source(case.source)).candidates[0]
                )
                result = synthesize_kernel(kernel, seed=0, verifier_environments=2)
                try:
                    generated = postcondition_to_func(result.post)
                except HalideGenerationError:
                    continue
                for stencil in generated[:1]:
                    func = stencil.func
                    if not native_supported(func):
                        continue
                    domain = domain_for_points(func.dimensions, 512)
                    inputs, origins, params = _inputs_for(func, domain, seed=5, margin=3)
                    reference = realize(func, domain, inputs, origins, params)
                    for schedule in ScheduleSpace(func.dimensions).sample_schedules(8, seed=11):
                        nest = lower(func, schedule)
                        native = compile_nest_native(nest)(domain, inputs, origins, params)
                        assert native.tobytes() == reference.tobytes(), (
                            f"{suite}/{case.name} [{schedule.describe()}]"
                        )
                    checked += 1
        assert checked >= 3

    def test_realize_scheduled_native_backend(self):
        func = _weighted2d()
        domain = DOMAINS["weighted2d"]
        inputs, origins, params = _inputs_for(func, domain, seed=3)
        reference = realize(func, domain, inputs, origins, params)
        out = realize_scheduled(
            func, domain, inputs, origins, params,
            schedule=Schedule(tile_sizes=(4, 4), vector_width=4),
            backend="native",
        )
        assert out.tobytes() == reference.tobytes()

    def test_strict_bounds_identical_when_in_bounds(self):
        func = _cross2d()
        domain = DOMAINS["cross2d"]
        inputs, origins, params = _inputs_for(func, domain, seed=9)
        nest = lower(func, Schedule(vector_width=2, unroll=2))
        loose = compile_nest_native(nest)(domain, inputs, origins, params)
        strict = compile_nest_native(nest, strict_bounds=True)(
            domain, inputs, origins, params
        )
        assert loose.tobytes() == strict.tobytes()

    def test_strict_bounds_raises_matching_message(self):
        func = _blur1d()
        domain = [(0, 9)]
        inputs = {"b": np.random.default_rng(0).normal(size=(10,))}  # b(x-1) underflows
        nest = lower(func, Schedule())
        with pytest.raises(OutOfBoundsError) as native_err:
            compile_nest_native(nest, strict_bounds=True)(domain, inputs)
        with pytest.raises(OutOfBoundsError) as python_err:
            compile_loop_nest(nest, strict_bounds=True)(domain, inputs)
        assert str(native_err.value) == str(python_err.value)

    def test_missing_buffer_and_param_messages_match_codegen(self):
        func = _weighted2d()
        domain = DOMAINS["weighted2d"]
        inputs, origins, params = _inputs_for(func, domain, seed=4)
        nest = lower(func, Schedule())
        native = compile_nest_native(nest)
        codegen = compile_loop_nest(nest)
        partial = {"b": inputs["b"]}
        with pytest.raises(HalideError) as native_err:
            native(domain, partial, origins, params)
        with pytest.raises(HalideError) as codegen_err:
            codegen(domain, partial, origins, params)
        assert str(native_err.value) == str(codegen_err.value)
        with pytest.raises(HalideError) as native_err:
            native(domain, inputs, origins, {})
        with pytest.raises(HalideError) as codegen_err:
            codegen(domain, inputs, origins, {})
        assert str(native_err.value) == str(codegen_err.value)


@needs_cc
class TestArtifactCache:
    def test_cold_compiles_then_warm_loads(self, tmp_path):
        func = _blur1d()
        domain = DOMAINS["blur1d"]
        inputs, origins, params = _inputs_for(func, domain, seed=1)
        schedule = Schedule(tile_sizes=(6,), vector_width=2)

        cold = ArtifactStore(tmp_path / "artifacts")
        out_cold = compile_nest_native(lower(func, schedule), artifacts=cold)(
            domain, inputs, origins, params
        )
        assert cold.compiles == 1
        assert cold.misses == 1 and cold.hits == 0
        assert cold.entry_count() == 1
        assert cold.compile_seconds > 0

        # A fresh store on the same directory (≈ a new process): the
        # artifact is found by content address and *nothing* compiles.
        warm = ArtifactStore(tmp_path / "artifacts")
        out_warm = compile_nest_native(lower(func, schedule), artifacts=warm)(
            domain, inputs, origins, params
        )
        assert warm.compiles == 0
        assert warm.hits == 1 and warm.misses == 0
        assert out_cold.tobytes() == out_warm.tobytes()

    def test_key_covers_schedule_and_strictness(self):
        func = _blur1d()
        toolchain = find_toolchain()
        plain = emit_c_source(lower(func, Schedule()))
        tiled = emit_c_source(lower(func, Schedule(tile_sizes=(4,))))
        strict = emit_c_source(lower(func, Schedule()), strict_bounds=True)
        keys = {
            artifact_key(source.text, toolchain.fingerprint())
            for source in (plain, tiled, strict)
        }
        assert len(keys) == 3
        # ... and the toolchain fingerprint is part of the address too.
        assert artifact_key(plain.text, "other-compiler") not in keys

    def test_stats_shape(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        stats = store.stats()
        assert set(stats) == {
            "directory", "entries", "bytes",
            "artifact_hits", "artifact_misses", "compiles", "compile_seconds",
        }


class TestFallback:
    """Native must degrade to codegen, never to a wrong answer."""

    def test_transcendental_definition_is_unsupported(self):
        from repro.halide.lang import Call

        x = Var("x")
        b = ImageParam("b", 1)
        f = Func("expy")
        f[x] = Call("exp", (b(x),))
        assert not native_supported(f)
        with pytest.raises(NativeUnsupportedError):
            emit_c_source(lower(f, Schedule()))

    def test_realize_scheduled_falls_back_for_unsupported(self):
        from repro.halide.lang import Call

        x = Var("x")
        b = ImageParam("b", 1)
        f = Func("expy")
        f[x] = Call("exp", (b(x),))
        domain = [(0, 7)]
        inputs = {"b": np.random.default_rng(2).normal(size=(12,))}
        origins = {"b": (-2,)}
        reference = realize(f, domain, inputs, origins)
        out = realize_scheduled(
            f, domain, inputs, origins, backend="native", schedule=Schedule()
        )
        assert out.tobytes() == reference.tobytes()
        assert build_runner(lower(f, Schedule()), "native")[1] == "codegen"

    def test_supported_fragment_includes_sqrt_abs_min_max(self):
        from repro.halide.lang import Call

        x = Var("x")
        b = ImageParam("b", 1)
        f = Func("mix")
        f[x] = Call("sqrt", (Call("abs", (b(x),)),)) + Call(
            "max", (b(x - 1), Call("min", (b(x), b(x + 1))))
        )
        assert native_supported(f)
        if find_toolchain() is not None:
            domain = [(0, 15)]
            inputs = {"b": np.random.default_rng(3).normal(size=(20,))}
            origins = {"b": (-2,)}
            reference = realize(f, domain, inputs, origins)
            out = compile_nest_native(lower(f, Schedule(vector_width=4)))(
                domain, inputs, origins
            )
            assert out.tobytes() == reference.tobytes()

    def test_no_toolchain_resolves_auto_to_codegen(self, monkeypatch):
        import repro.native.toolchain as toolchain_mod

        monkeypatch.setattr(toolchain_mod, "find_toolchain", lambda: None)
        assert resolve_backend("auto") == "codegen"
        assert resolve_backend("codegen") == "codegen"
        assert resolve_backend("native") == "native"

    def test_no_toolchain_compile_raises_and_objective_falls_back(self, monkeypatch):
        import repro.native.dispatch as dispatch_mod

        monkeypatch.setattr(dispatch_mod, "find_toolchain", lambda: None)
        func = _blur1d()
        nest = lower(func, Schedule())
        with pytest.raises(ToolchainError):
            compile_nest_native(nest)
        domain = DOMAINS["blur1d"]
        inputs, origins, params = _inputs_for(func, domain, seed=6)
        objective = MeasuredObjective(
            func, domain, inputs, origins, params, backend="native"
        )
        cost = objective(Schedule.default())
        assert cost > 0 and objective.all_verified
        assert objective.effective_backend == "codegen"

    def test_realize_scheduled_native_without_toolchain_falls_back(self, monkeypatch):
        import repro.native.dispatch as dispatch_mod

        monkeypatch.setattr(dispatch_mod, "find_toolchain", lambda: None)
        func = _weighted2d()
        domain = DOMAINS["weighted2d"]
        inputs, origins, params = _inputs_for(func, domain, seed=8)
        reference = realize(func, domain, inputs, origins, params)
        out = realize_scheduled(
            func, domain, inputs, origins, params,
            schedule=Schedule(tile_sizes=(4, 4), vector_width=2),
            backend="native",
        )
        assert out.tobytes() == reference.tobytes()


# Loop-nest backends that no longer exist, or never did: every entry point
# must refuse them rather than run something else under their name.
UNKNOWN_BACKENDS = ("interp", "codegn")


class TestBuildRunner:
    """The one factory that picks a loop-nest backend and its fallback."""

    def _blur(self):
        func = _blur1d()
        domain = DOMAINS["blur1d"]
        inputs, origins, _params = _inputs_for(func, domain, seed=12)
        return func, domain, inputs, origins, realize(func, domain, inputs, origins)

    def test_codegen(self):
        func, domain, inputs, origins, reference = self._blur()
        runner, used = build_runner(lower(func, Schedule(vector_width=4)), "codegen")
        assert used == "codegen"
        assert runner(domain, inputs, origins).tobytes() == reference.tobytes()

    @needs_cc
    def test_native_with_compiler(self):
        from repro.native import NativeRunner

        func, domain, inputs, origins, reference = self._blur()
        runner, used = build_runner(lower(func, Schedule(vector_width=4)), "native")
        assert used == "native" and isinstance(runner, NativeRunner)
        assert runner(domain, inputs, origins).tobytes() == reference.tobytes()

    def test_no_toolchain_runs_on_codegen(self, monkeypatch):
        import repro.native.dispatch as dispatch_mod

        monkeypatch.setattr(dispatch_mod, "find_toolchain", lambda: None)
        func, domain, inputs, origins, reference = self._blur()
        runner, used = build_runner(lower(func, Schedule()), "native", strict_bounds=True)
        assert used == "codegen"
        assert runner(domain, inputs, origins).tobytes() == reference.tobytes()

    def test_auto_resolves_like_resolve_backend(self, monkeypatch):
        import repro.native.toolchain as toolchain_mod

        func = _blur1d()
        assert build_runner(lower(func, Schedule()), "auto")[1] == resolve_backend("auto")
        monkeypatch.setattr(toolchain_mod, "find_toolchain", lambda: None)
        assert build_runner(lower(func, Schedule()), "auto")[1] == "codegen"

    @pytest.mark.parametrize("backend", UNKNOWN_BACKENDS)
    def test_unknown_backend_is_rejected(self, backend):
        func, domain, inputs, origins, _reference = self._blur()
        with pytest.raises(HalideError, match="unknown loop-nest backend"):
            build_runner(lower(func, Schedule()), backend)
        with pytest.raises(HalideError, match="unknown loop-nest backend"):
            realize_scheduled(func, domain, inputs, origins, backend=backend)
        objective = MeasuredObjective(func, domain, inputs, origins, backend=backend)
        with pytest.raises(HalideError, match="unknown loop-nest backend"):
            objective.measure(Schedule.default())


@needs_cc
class TestThreadedExecution:
    """Multithreaded dispatch must stay inside the bit-identity contract.

    The threaded emission partitions the parallel chunk band into
    disjoint, step-aligned output slabs (the exact ``chunk_ranges``
    partition the serial band iterates), so for every thread count the
    bytes must equal the serial native run, the generated-Python backend
    and the schedule-blind reference.
    """

    THREAD_COUNTS = (2, 4, 8)

    def test_thread_sweep_bit_identity(self):
        checked = 0
        for name, build in FUNC_BUILDERS.items():
            func = build()
            domain = DOMAINS[name]
            inputs, origins, params = _inputs_for(func, domain, seed=21)
            reference = realize(func, domain, inputs, origins, params)
            dims = func.dimensions
            schedules = ScheduleSpace(dims).sample_schedules(6, seed=31)
            # Every parallel dimension: root and certified non-root bands thread.
            schedules += [Schedule(parallel_dim=dim) for dim in range(dims)]
            schedules.append(
                Schedule(parallel_dim=0, tile_sizes=(8,) * dims, vector_width=2)
            )
            for schedule in schedules:
                nest = lower(func, schedule)
                codegen = compile_loop_nest(nest)(domain, inputs, origins, params)
                serial = compile_nest_native(nest, threads=1)(
                    domain, inputs, origins, params
                )
                assert serial.tobytes() == reference.tobytes(), name
                for threads in self.THREAD_COUNTS:
                    out = compile_nest_native(nest, threads=threads)(
                        domain, inputs, origins, params
                    )
                    label = f"{name} [{schedule.describe()}] threads={threads}"
                    assert out.tobytes() == serial.tobytes(), label
                    assert out.tobytes() == codegen.tobytes(), label
                    checked += 1
        assert checked >= 100

    def test_parallel_band_emits_threaded_source(self):
        toolchain = find_toolchain()
        if not toolchain.supports_threads:
            pytest.skip("toolchain has no working -pthread")
        # dim 1 is the outermost loop of a 2D nest (natural order is
        # innermost-first), so parallelising it produces the root chunk
        # band; parallelising dim 0 leaves the band below the root, and
        # the race-free certificate from the static analyzer lets the
        # emitter thread that too.
        for schedule in (Schedule(parallel_dim=1), Schedule(parallel_dim=0)):
            threaded = emit_c_source(lower(_cross2d(), schedule), threaded=True)
            assert threaded.threaded, schedule.describe()
            assert "pthread_create" in threaded.text
        # Root and non-root bands alike carry the serial-order error
        # ordinal under strict bounds, through the one dispatcher.
        for schedule in (Schedule(parallel_dim=1), Schedule(parallel_dim=0)):
            strict = emit_c_source(lower(_cross2d(), schedule), strict_bounds=True, threaded=True)
            assert "rk_pos" in strict.text, schedule.describe()
        # A schedule with no parallel band compiles serial even when the
        # emitter is allowed to thread.
        serial = emit_c_source(lower(_cross2d(), Schedule()), threaded=True)
        assert not serial.threaded
        assert "pthread_create" not in serial.text

    def test_per_call_thread_override(self):
        func = _weighted2d()
        domain = DOMAINS["weighted2d"]
        inputs, origins, params = _inputs_for(func, domain, seed=14)
        runner = compile_nest_native(
            lower(func, Schedule(parallel_dim=1)), threads=1
        )
        baseline = runner(domain, inputs, origins, params)
        for threads in self.THREAD_COUNTS:
            out = runner(domain, inputs, origins, params, threads=threads)
            assert out.tobytes() == baseline.tobytes()

    def test_threaded_strict_bounds_message_parity(self):
        """Worker-thread OOB errors surface in serial traversal order.

        blur1d's band is the root; cross2d's ``parallel_dim=0`` band sits
        below the ``y`` loop.  The cross2d input lacks only the high edge
        of each axis, so the last ``x`` slab fails in the first row while
        the first slab fails only in the last row: a dispatcher that
        reported the first failing slab, not the smallest (ordinal, slab)
        pair, would name the wrong dimension.
        """
        rng = np.random.default_rng(0)
        cases = [(_blur1d(), Schedule(parallel_dim=0), [(0, 9)], {"b": rng.normal(size=(10,))}, None)]
        cross_inputs = {"b": rng.normal(size=(11, 11))}
        for tiles in ((), (4, 4)):
            schedule = Schedule(parallel_dim=0, tile_sizes=tiles)
            cases.append((_cross2d(), schedule, [(0, 9), (0, 9)], cross_inputs, {"b": (-1, -1)}))
        for func, schedule, domain, inputs, origins in cases:
            nest = lower(func, schedule)
            with pytest.raises(OutOfBoundsError) as python_err:
                compile_loop_nest(nest, strict_bounds=True)(domain, inputs, origins)
            for threads in (1,) + self.THREAD_COUNTS:
                runner = compile_nest_native(nest, strict_bounds=True, threads=threads)
                with pytest.raises(OutOfBoundsError) as native_err:
                    runner(domain, inputs, origins)
                label = f"{func.name} [{schedule.describe()}] threads={threads}"
                assert str(native_err.value) == str(python_err.value), label

    def test_default_thread_count_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "4")
        assert default_thread_count() == 4
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "not-a-number")
        assert default_thread_count() == 1
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "-3")
        assert default_thread_count() == 1
        monkeypatch.delenv("REPRO_NATIVE_THREADS")
        assert default_thread_count() == 1


@needs_cc
class TestNativeMeasurement:
    def test_measured_objective_native_backend(self):
        func = _cross2d()
        domain = [(1, 24), (1, 24)]
        inputs, origins, params = _inputs_for(func, domain, seed=8)
        objective = MeasuredObjective(
            func, domain, inputs, origins, params, backend="native", repeats=2
        )
        cost = objective(Schedule(tile_sizes=(8, 8)))
        assert cost > 0 and objective.all_verified
        assert objective.effective_backend == "native"

    def test_auto_backend_resolves_to_native(self):
        assert resolve_backend("auto") == "native"
        func = _blur1d()
        domain = DOMAINS["blur1d"]
        inputs, origins, params = _inputs_for(func, domain, seed=12)
        objective = MeasuredObjective(
            func, domain, inputs, origins, params, backend="auto"
        )
        objective(Schedule.default())
        assert objective.effective_backend == "native"
