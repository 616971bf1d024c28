"""The lifting service: protocol, in-flight dedup, streaming, bookkeeping.

Tests run the real asyncio server on an ephemeral loopback port and
talk to it through the blocking :class:`ServiceClient` on worker
threads — the same path production clients take.  Synthesis is counted
by wrapping ``cegis.synthesize_kernel_uncached`` (all lifting happens
in-process on the service's thread pool, so the wrapper sees every
call), which turns "N concurrent identical submissions perform exactly
one synthesis" into a hard assertion rather than a timing argument.
"""

from __future__ import annotations

import asyncio
import dataclasses
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.application.translate import translate_application
from repro.cache import SynthesisCache
from repro.cache.shards import ShardedStore
from repro.pipeline.stng import PipelineOptions
from repro.service import LiftService, ServiceClient, ServiceError
from repro.service.protocol import (
    OPTION_FIELDS,
    decode_line,
    encode_line,
    normalize_options,
    options_from_request,
    request_fingerprint,
)
from repro.service.runlog import RunLog
from repro.service.server import LiftJob
from repro.synthesis import cegis
from repro.testing import write_spec
from repro.testing.faultinject import ENV_VAR, InjectedFault

DOUBLER = (
    "subroutine doubler(n, a, b)\n"
    "real (kind=8), dimension(1:n) :: a\n"
    "real (kind=8), dimension(1:n) :: b\n"
    "integer :: n\n"
    "do i = 2, n-1\n"
    "  a(i) = b(i-1) + b(i+1)\n"
    "enddo\n"
    "end subroutine doubler\n"
)

# A second kernel, for a writer outside the server.
TRIPLER = DOUBLER.replace("doubler", "tripler").replace(
    "b(i-1) + b(i+1)", "b(i-1) + b(i) + b(i+1)"
)

FAST = PipelineOptions(verifier_environments=1, inductive=False, autotune_budget=20)


@pytest.fixture()
def counted_synthesis(monkeypatch):
    calls = {"count": 0}
    real = cegis.synthesize_kernel_uncached

    def counting(*args, **kwargs):
        calls["count"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(cegis, "synthesize_kernel_uncached", counting)
    return calls


def one_lift(port, source=DOUBLER, driver="doubler"):
    with ServiceClient("127.0.0.1", port) as client:
        return client.lift(source, driver)


def run_service(tmp_path, body, **service_kwargs):
    """Start a service, run ``body(service, port)`` on the loop, stop it."""

    async def main():
        service = LiftService(
            tmp_path / "service", options=FAST, **service_kwargs
        )
        await service.start()
        try:
            return await body(service, service.port)
        finally:
            await service.stop()

    return asyncio.run(main())


class TestProtocol:
    def test_fingerprint_covers_source_driver_options(self):
        base = request_fingerprint(DOUBLER, "doubler")
        assert base == request_fingerprint(DOUBLER, "doubler")
        assert base != request_fingerprint(DOUBLER + "\n", "doubler")
        assert base != request_fingerprint(DOUBLER, "other")
        assert base != request_fingerprint(DOUBLER, "doubler", {"seed": 7})

    def test_fingerprint_ignores_option_order_and_empty(self):
        assert request_fingerprint(DOUBLER, "doubler", {}) == request_fingerprint(
            DOUBLER, "doubler", None
        )
        assert request_fingerprint(
            DOUBLER, "doubler", {"seed": 1, "trials": 3}
        ) == request_fingerprint(DOUBLER, "doubler", {"trials": 3, "seed": 1})

    def test_unknown_option_rejected(self):
        with pytest.raises(ServiceError, match="unknown options"):
            normalize_options({"schedule_dir": "/tmp/evil"})

    def test_options_overlay_server_base(self):
        # Server-side fields too: the request must not reset any of them.
        base = dataclasses.replace(
            FAST, measure=True, measure_budget=5, threads=3, schedule_dir="schedules"
        )
        options = options_from_request({"seed": 9}, base)
        assert options.seed == 9
        for field in dataclasses.fields(PipelineOptions):
            if field.name != "seed":
                assert getattr(options, field.name) == getattr(base, field.name), field.name

    @pytest.mark.parametrize("value", (0, -1))
    def test_out_of_range_option_rejected(self, value):
        # Reported as invalid options, not a mid-lift crash that turns
        # every site into a lift-failure fallback.
        with pytest.raises(ServiceError, match="verifier_environments must be at least 1"):
            options_from_request({"verifier_environments": value})

    @pytest.mark.parametrize(
        "options,kind",
        [
            ({"inductive": "no"}, "boolean"),
            ({"inductive": 0}, "boolean"),
            ({"trials": 2.5}, "integer"),
            ({"max_candidates": 1.0}, "integer"),
            ({"seed": True}, "integer"),
            ({"autotune_budget": "20"}, "integer"),
        ],
    )
    def test_option_of_the_wrong_type_rejected(self, options, kind):
        # Coerced, these would lift (a truthy string turns the prover on)
        # under a fingerprint of their own, missing the dedup of the
        # well-typed request.
        with pytest.raises(ServiceError, match=f"must be a JSON {kind}"):
            normalize_options(options)
        with pytest.raises(ServiceError, match=f"must be a JSON {kind}"):
            options_from_request(options)
        with pytest.raises(ServiceError, match=f"must be a JSON {kind}"):
            request_fingerprint(DOUBLER, "doubler", options)

    def test_well_typed_options_accepted(self):
        options = {"inductive": False, "trials": 3, "seed": 0, "max_candidates": 50,
                   "autotune_budget": 4, "verifier_environments": 1}
        assert normalize_options(options) == dict(sorted(options.items()))
        assert options_from_request(options).inductive is False

    def test_whitelist_matches_pipeline_fields(self):
        fields = set(PipelineOptions.__dataclass_fields__)
        assert OPTION_FIELDS <= fields

    def test_line_roundtrip(self):
        line = encode_line({"op": "ping", "n": 1})
        assert line.endswith(b"\n")
        assert decode_line(line) == {"op": "ping", "n": 1}
        with pytest.raises(ServiceError):
            decode_line(b"not json\n")
        with pytest.raises(ServiceError):
            decode_line(b'["a", "list"]\n')


class TestLiftJobReplay:
    def test_late_subscriber_replays_history(self):
        async def main():
            job = LiftJob("f" * 64)
            job.publish({"event": "phase", "phase": "scan"})
            job.publish({"event": "phase", "phase": "lift"})
            queue = job.subscribe()
            job.publish({"event": "done"})
            seen = [await queue.get() for _ in range(3)]
            assert [e.get("phase", e["event"]) for e in seen] == [
                "scan",
                "lift",
                "done",
            ]

        asyncio.run(main())


class TestService:
    def test_lift_streams_phases_then_manifest(self, tmp_path, counted_synthesis):
        def body_sync(port):
            with ServiceClient("127.0.0.1", port) as client:
                assert client.ping()["event"] == "pong"
                final = client.lift(DOUBLER, "doubler")
                return final, client.last_events

        async def body(service, port):
            return await asyncio.to_thread(body_sync, port)

        final, events = run_service(tmp_path, body)
        assert events[0]["event"] == "accepted"
        assert events[0]["deduped"] is False
        phases = [e["phase"] for e in events if e["event"] == "phase"]
        assert phases == ["scan", "lift", "prove", "translate"]
        assert final["event"] == "done"
        assert final["manifest"]["counts"]["translated"] == 1
        assert final["cache"] == {"hits": 0, "misses": 1}
        assert counted_synthesis["count"] == 1

    def test_concurrent_identical_submissions_one_synthesis(
        self, tmp_path, counted_synthesis
    ):
        clients = 6

        def one_client(port, barrier):
            with ServiceClient("127.0.0.1", port) as client:
                barrier.wait(timeout=30)
                return client.lift(DOUBLER, "doubler")

        async def body(service, port):
            # A dedicated executor: asyncio.to_thread's default pool can
            # be narrower than the barrier's party count on small boxes.
            loop = asyncio.get_running_loop()
            barrier = threading.Barrier(clients)
            with ThreadPoolExecutor(max_workers=clients) as pool:
                finals = await asyncio.gather(
                    *[
                        loop.run_in_executor(pool, one_client, port, barrier)
                        for _ in range(clients)
                    ]
                )
            return service, finals

        service, finals = run_service(tmp_path, body, workers=4)
        assert all(f["event"] == "done" for f in finals)
        assert len({f["fingerprint"] for f in finals}) == 1
        assert counted_synthesis["count"] == 1  # the acceptance criterion
        assert service.lifts == 1
        assert service.deduped == clients - 1
        records = service.runlog.read_all()
        assert len(records) == clients
        assert sorted(r["deduped"] for r in records) == [False] + [True] * (
            clients - 1
        )

    def test_warm_duplicate_does_zero_synthesis(self, tmp_path, counted_synthesis):
        async def body(service, port):
            cold = await asyncio.to_thread(one_lift, port)
            warm = await asyncio.to_thread(one_lift, port)
            return service, cold, warm

        service, cold, warm = run_service(tmp_path, body)
        assert cold["cache"]["misses"] == 1
        assert warm["cache"]["misses"] == 0  # zero synthesis on the warm path
        assert counted_synthesis["count"] == 1
        assert service.lifts == 2  # two jobs ran; the store made one free
        warm_records = [
            r for r in service.runlog.read_all() if r["cache_misses"] == 0
        ]
        assert len(warm_records) == 1

    def test_second_warm_request_decodes_no_shard(self, tmp_path, shard_decodes):
        async def body(service, port):
            await asyncio.to_thread(one_lift, port)  # cold: synthesizes, appends
            await asyncio.to_thread(one_lift, port)
            before = shard_decodes["count"]
            warm = await asyncio.to_thread(one_lift, port)
            return warm, shard_decodes["count"] - before

        warm, decodes = run_service(tmp_path, body)
        assert warm["cache"] == {"hits": 1, "misses": 0}
        assert decodes == 0

    def test_kernel_an_outside_writer_appended_is_served_warm(
        self, tmp_path, counted_synthesis
    ):
        async def body(service, port):
            await asyncio.to_thread(one_lift, port)  # the server's store decodes
            # Another handle on the same directory, as another process would.
            outside = SynthesisCache(service.synthesis_path, autosave=False)
            outside_bundle = await asyncio.to_thread(
                translate_application, TRIPLER, FAST, outside, driver="tripler"
            )
            served = await asyncio.to_thread(one_lift, port, TRIPLER, "tripler")
            return outside_bundle, served

        outside_bundle, served = run_service(tmp_path, body)
        assert outside_bundle.cache_misses == 1
        assert served["event"] == "done"
        assert served["cache"] == {"hits": 1, "misses": 0}
        assert counted_synthesis["count"] == 2  # doubler in the server, tripler outside

    def test_regular_file_at_the_store_path_fails_at_construction(self, tmp_path):
        occupied = tmp_path / "service" / "synthesis"
        occupied.parent.mkdir()
        occupied.write_text("not a store")
        with pytest.raises(ValueError, match=re.escape(str(occupied))):
            LiftService(tmp_path / "service", options=FAST)
        assert occupied.read_text() == "not a store"

    def test_distinct_requests_do_not_dedup(self, tmp_path, counted_synthesis):
        def one_lift(port, seed):
            with ServiceClient("127.0.0.1", port) as client:
                return client.lift(DOUBLER, "doubler", options={"seed": seed})

        async def body(service, port):
            finals = await asyncio.gather(
                asyncio.to_thread(one_lift, port, 1),
                asyncio.to_thread(one_lift, port, 2),
            )
            return service, finals

        service, finals = run_service(tmp_path, body, workers=2)
        assert len({f["fingerprint"] for f in finals}) == 2
        assert service.deduped == 0
        assert counted_synthesis["count"] == 2

    def test_bad_requests_answered_not_fatal(self, tmp_path):
        def body_sync(port):
            with ServiceClient("127.0.0.1", port) as client:
                client._send({"op": "no-such-op"})
                unknown = client._recv()
                client._send({"op": "lift"})  # missing source/driver
                missing = client._recv()
                client._send(
                    {
                        "op": "lift",
                        "source": DOUBLER,
                        "driver": "doubler",
                        "options": {"measure_backend": "native"},
                    }
                )
                rejected = client._recv()
                # The same connection still serves a good request.
                final = client.lift(DOUBLER, "doubler")
                return unknown, missing, rejected, final

        async def body(service, port):
            return await asyncio.to_thread(body_sync, port)

        unknown, missing, rejected, final = run_service(tmp_path, body)
        assert unknown["event"] == "error" and "unknown op" in unknown["message"]
        assert missing["event"] == "error"
        assert rejected["event"] == "error" and "unknown options" in rejected["message"]
        assert final["event"] == "done"

    def test_failed_lift_is_an_error_event(self, tmp_path):
        def body_sync(port):
            with ServiceClient("127.0.0.1", port) as client:
                failed = client.lift("this is not fortran (", "nope")
                final = client.lift(DOUBLER, "doubler")
                return failed, final

        async def body(service, port):
            return await asyncio.to_thread(body_sync, port)

        failed, final = run_service(tmp_path, body)
        assert failed["event"] == "error"
        assert final["event"] == "done"  # the server outlives the failure

    def test_stats_op_reports_counters(self, tmp_path):
        def body_sync(port):
            with ServiceClient("127.0.0.1", port) as client:
                client.lift(DOUBLER, "doubler")
                return client.stats()

        async def body(service, port):
            return await asyncio.to_thread(body_sync, port)

        stats = run_service(tmp_path, body)
        assert stats["event"] == "stats"
        assert stats["lifts"] == 1
        assert stats["served"] == 1
        assert stats["store"]["entries"] >= 1

    def test_stats_counts_the_compaction_a_request_triggered(self, tmp_path):
        # Every shard holds 64 rewrites of one fingerprint: dead weight the
        # next append to any shard compacts away.
        seeding = ShardedStore(tmp_path / "service" / "synthesis", compact_min_records=1 << 20)
        for prefix in "0123456789abcdef":
            for n in range(64):
                seeding.append({prefix * 64: {"status": "failure", "payload": {"message": str(n)}}})

        def body_sync(port):
            with ServiceClient("127.0.0.1", port) as client:
                lifted = client.lift(DOUBLER, "doubler")
                return lifted, client.stats()

        async def body(service, port):
            return await asyncio.to_thread(body_sync, port)

        lifted, stats = run_service(tmp_path, body)
        assert lifted["cache"]["misses"] == 1
        assert stats["store"]["compactions"] == 1
        assert stats["store"]["entries"] == 17
        assert stats["store"]["records"] == 15 * 64 + 2


class TestServiceFaults:
    def test_dedup_handoff_fault_contained_as_error(self, tmp_path, monkeypatch):
        spec = write_spec(
            tmp_path / "faults.json",
            tmp_path / "faults-state",
            [{"site": "dedup-handoff", "kind": "raise", "occurrences": [1]}],
        )
        monkeypatch.setenv(ENV_VAR, str(spec))

        def body_sync(port):
            with ServiceClient("127.0.0.1", port) as client:
                first = client.lift(DOUBLER, "doubler")
                second = client.lift(DOUBLER, "doubler")
                return first, second

        async def body(service, port):
            return await asyncio.to_thread(body_sync, port)

        first, second = run_service(tmp_path, body)
        # The injected handoff fault reaches the subscriber as a clean
        # error event (no hang), and the next occurrence passes.
        assert first["event"] == "error"
        assert "injected fault" in first["message"]
        assert second["event"] == "done"

    def test_runlog_fault_drops_record_not_connection(self, tmp_path, monkeypatch):
        spec = write_spec(
            tmp_path / "faults.json",
            tmp_path / "faults-state",
            [{"site": "runlog-append", "kind": "raise", "occurrences": [1]}],
        )
        monkeypatch.setenv(ENV_VAR, str(spec))

        def body_sync(port):
            with ServiceClient("127.0.0.1", port) as client:
                first = client.lift(DOUBLER, "doubler")
                second = client.lift(DOUBLER, "doubler")
                return first, second

        async def body(service, port):
            return await asyncio.to_thread(body_sync, port)

        with pytest.warns(match="run log append failed"):
            first, second = run_service(tmp_path, body)
        assert first["event"] == "done"  # the client still got its result
        assert second["event"] == "done"


class TestRunLog:
    def test_append_and_read_roundtrip(self, tmp_path):
        log = RunLog(tmp_path / "runlog.jsonl")
        assert log.append({"fingerprint": "f" * 64, "status": "done"})
        assert log.append({"fingerprint": "g" * 64, "status": "error"})
        records = log.read_all()
        assert [r["fingerprint"] for r in records] == ["f" * 64, "g" * 64]
        assert all("created" in r and "format" in r for r in records)

    def test_torn_line_skipped(self, tmp_path):
        log = RunLog(tmp_path / "runlog.jsonl")
        log.append({"fingerprint": "f" * 64, "status": "done"})
        with open(log.path, "a", encoding="utf-8") as handle:
            handle.write('{"torn": ')
        assert len(log.read_all()) == 1

    def test_non_utf8_line_skipped(self, tmp_path):
        log = RunLog(tmp_path / "runlog.jsonl")
        log.append({"fingerprint": "f" * 64, "status": "done", "cache_misses": 0})
        with open(log.path, "ab") as handle:
            handle.write(b'{"fp": "\xff\xfe garbage\n')
        log.append({"fingerprint": "g" * 64, "status": "error"})
        assert [r["fingerprint"] for r in log.read_all()] == ["f" * 64, "g" * 64]
        assert log.stats()["records"] == 2 and log.stats()["warm"] == 1

    def test_append_after_torn_tail_keeps_both_complete_records(self, tmp_path):
        # A writer killed mid-append leaves a partial line with no
        # newline; the next append must not be written onto its end.
        log = RunLog(tmp_path / "runlog.jsonl")
        log.append({"fingerprint": "a" * 64, "status": "done"})
        with open(log.path, "a", encoding="utf-8") as handle:
            handle.write('{"fingerprint": "b')
        log.append({"fingerprint": "c" * 64, "status": "done"})
        records = log.read_all()
        assert [r["fingerprint"] for r in records] == ["a" * 64, "c" * 64]

    def test_injected_fault_raises_to_caller(self, tmp_path, monkeypatch):
        spec = write_spec(
            tmp_path / "faults.json",
            tmp_path / "faults-state",
            [{"site": "runlog-append", "kind": "raise", "occurrences": [1]}],
        )
        monkeypatch.setenv(ENV_VAR, str(spec))
        log = RunLog(tmp_path / "runlog.jsonl")
        with pytest.raises(InjectedFault):
            log.append({"fingerprint": "f" * 64})
        # The failed append left no torn line behind.
        assert log.read_all() == []
        assert log.append({"fingerprint": "g" * 64})
