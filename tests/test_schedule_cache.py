"""The tuned-schedule store: round trips, key coverage, warm replays.

The expensive thing measured autotuning produces is one small fact —
the winning schedule for (kernel, space, backend, toolchain, machine,
config) — and :mod:`repro.cache.schedules` persists exactly that fact.
These tests cover the store in isolation (content addressing,
integrity quarantine) and wired into the pipeline: a warm
``measure``-mode run must perform **zero** measurements and zero
compiler invocations, which the warm test proves by making both
explode if touched.
"""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cache import CacheIntegrityWarning, fingerprint_kernel
from repro.cache.schedules import (
    SCHEDULE_FORMAT,
    ScheduleStore,
    machine_fingerprint,
    schedule_from_payload,
    schedule_key,
    schedule_to_payload,
)
from repro.frontend import identify_candidates, parse_source
from repro.frontend.lowering import lower_candidate
from repro.halide import Func, ImageParam, Schedule, Var
from repro.pipeline import PipelineOptions, STNGPipeline

TWO_POINT = """
procedure sten(imin,imax,jmin,jmax,a,b)
real (kind=8), dimension(imin:imax,jmin:jmax) :: a
real (kind=8), dimension(imin:imax,jmin:jmax) :: b
do j=jmin,jmax
do i=imin+1,imax
a(i,j) = b(i,j) + b(i-1,j)
enddo
enddo
end procedure
"""


def _kernel():
    return lower_candidate(identify_candidates(parse_source(TWO_POINT)).candidates[0])


def _func():
    x, y = Var("x"), Var("y")
    b = ImageParam("b", 2)
    f = Func("sten_f")
    f[x, y] = b(x, y) + b(x - 1, y)
    return f


def _record(schedule: Schedule) -> dict:
    return {
        "kernel": "sten",
        "backend": "codegen",
        "default_seconds": 2.0,
        "tuned_seconds": 0.5,
        "evaluations": 8,
        "verified": True,
        "schedule": schedule_to_payload(schedule),
    }


class TestScheduleStore:
    KEY_ARGS = ("kfp", "dims=2", "native", "cc|13|flags", "linux|x86_64|cores=8")

    def test_round_trip_and_counters(self, tmp_path):
        store = ScheduleStore(tmp_path / "schedules")
        key = schedule_key(*self.KEY_ARGS, {"budget": 8, "seed": 0})
        assert store.get(key) is None
        assert store.misses == 1 and store.hits == 0
        schedule = Schedule(parallel_dim=1, tile_sizes=(16, 8), vector_width=4)
        store.put(key, _record(schedule))
        record = store.get(key)
        assert record is not None and store.hits == 1
        assert record["format"] == SCHEDULE_FORMAT
        assert schedule_from_payload(record["schedule"]) == schedule
        assert store.entry_count() == 1

    def test_payload_round_trips_every_field(self):
        schedule = Schedule(
            parallel_dim=0,
            tile_sizes=(32, 0, 8),
            vector_width=8,
            unroll=2,
            dim_order=(2, 0, 1),
            inline=True,
        )
        payload = schedule_to_payload(schedule)
        assert schedule_from_payload(payload) == schedule
        # Records stored while Schedule had GPU fields still load.
        legacy = dict(payload, gpu=False, gpu_block=[16, 16])
        assert schedule_from_payload(legacy) == schedule

    def test_key_covers_every_ingredient(self):
        base_config = {"budget": 8, "seed": 0, "threads": 1}
        base = schedule_key(*self.KEY_ARGS, base_config)
        variants = [
            schedule_key("other-kernel", *self.KEY_ARGS[1:], base_config),
            schedule_key(self.KEY_ARGS[0], "dims=3", *self.KEY_ARGS[2:], base_config),
            schedule_key(*self.KEY_ARGS[:2], "codegen", *self.KEY_ARGS[3:], base_config),
            schedule_key(*self.KEY_ARGS[:3], "clang|17|flags", self.KEY_ARGS[4], base_config),
            schedule_key(*self.KEY_ARGS[:4], "linux|x86_64|cores=24", base_config),
            schedule_key(*self.KEY_ARGS, {"budget": 9, "seed": 0, "threads": 1}),
            schedule_key(*self.KEY_ARGS, {"budget": 8, "seed": 1, "threads": 1}),
            schedule_key(*self.KEY_ARGS, {"budget": 8, "seed": 0, "threads": 4}),
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_machine_fingerprint_has_no_hostname(self):
        import socket

        fingerprint = machine_fingerprint()
        assert "cores=" in fingerprint
        assert socket.gethostname() not in fingerprint

    def test_corrupt_record_is_quarantined_and_missed(self, tmp_path):
        store = ScheduleStore(tmp_path / "schedules")
        key = schedule_key(*self.KEY_ARGS, {"budget": 8})
        store.put(key, _record(Schedule.default()))
        path = store.record_path(key)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.warns(CacheIntegrityWarning, match="quarantined"):
            assert store.get(key) is None
        assert store.misses == 1
        assert not path.exists()
        assert Path(f"{path}.corrupt-1").exists()
        # Republishing heals the store.
        store.put(key, _record(Schedule.default()))
        assert store.get(key) is not None

    def test_edited_record_fails_digest(self, tmp_path):
        store = ScheduleStore(tmp_path / "schedules")
        key = schedule_key(*self.KEY_ARGS, {"budget": 8})
        store.put(key, _record(Schedule.default()))
        path = store.record_path(key)
        path.write_text(
            path.read_text(encoding="utf-8").replace('"tuned_seconds": 0.5', '"tuned_seconds": 0.1'),
            encoding="utf-8",
        )
        with pytest.warns(CacheIntegrityWarning):
            assert store.get(key) is None

    def test_stats_shape(self, tmp_path):
        store = ScheduleStore(tmp_path / "schedules")
        assert set(store.stats()) == {
            "directory", "entries", "schedule_hits", "schedule_misses",
        }


class TestPipelineScheduleCache:
    def _options(self, tmp_path):
        return PipelineOptions(
            measure=True,
            measure_backend="codegen",
            measure_budget=4,
            measure_points=256,
            schedule_dir=str(tmp_path / "schedules"),
        )

    def test_cold_tunes_then_warm_replays_without_measuring(self, tmp_path, monkeypatch):
        kernel = _kernel()
        stencil = SimpleNamespace(func=_func())

        cold_pipe = STNGPipeline(self._options(tmp_path))
        cold = cold_pipe._measure_performance(kernel, stencil)
        assert not cold.from_cache
        assert cold.evaluations == 4 and cold.verified

        # Warm: a fresh pipeline on the same store.  Any measurement or
        # compiler invocation now is a bug, so both are booby-trapped.
        import repro.autotune as autotune_pkg
        from repro.native.toolchain import Toolchain

        def boom(*args, **kwargs):
            raise AssertionError("warm run touched the measurement machinery")

        monkeypatch.setattr(autotune_pkg, "MeasuredObjective", boom)
        monkeypatch.setattr(Toolchain, "compile", boom)

        warm_pipe = STNGPipeline(self._options(tmp_path))
        warm = warm_pipe._measure_performance(kernel, stencil)
        assert warm.from_cache
        assert warm.evaluations == 0
        assert warm.schedule == cold.schedule
        assert warm.tuned_schedule == cold.tuned_schedule
        assert warm.default_seconds == cold.default_seconds
        assert warm.tuned_seconds == cold.tuned_seconds

    def test_config_change_misses(self, tmp_path):
        kernel = _kernel()
        stencil = SimpleNamespace(func=_func())
        pipe = STNGPipeline(self._options(tmp_path))
        pipe._measure_performance(kernel, stencil)

        options = self._options(tmp_path)
        options.measure_budget = 5  # different tuning config → new key
        again = STNGPipeline(options)._measure_performance(kernel, stencil)
        assert not again.from_cache
        assert again.evaluations == 5

    def test_structurally_renamed_kernel_hits(self, tmp_path):
        """Keying on the structural fingerprint, not the display name."""
        stencil = SimpleNamespace(func=_func())
        pipe = STNGPipeline(self._options(tmp_path))
        pipe._measure_performance(_kernel(), stencil)

        renamed_src = TWO_POINT.replace("procedure sten", "procedure nets")
        renamed = lower_candidate(
            identify_candidates(parse_source(renamed_src)).candidates[0]
        )
        assert fingerprint_kernel(renamed) == fingerprint_kernel(_kernel())
        warm = STNGPipeline(self._options(tmp_path))._measure_performance(
            renamed, stencil
        )
        assert warm.from_cache and warm.evaluations == 0
