"""Cache interactions of the Tier-3 prover plus multi-writer store merges.

Three regressions live here:

* two writers sharing one store path must not lose each other's
  entries: every save folds the entries on disk into memory;
* certificates (and the candidate summaries they cover) must re-intern
  their hash-consed expression nodes when loaded in another process,
  the same pitfall PR 2 fixed for pickle;
* replaying a cached entry recorded under an inductive configuration
  revalidates the stored proof certificate.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cache import ShardedStore, SynthesisCache
from repro.cache.serialize import result_from_payload, result_to_payload
from repro.frontend import identify_candidates, parse_source
from repro.frontend.lowering import lower_candidate
from repro.pipeline import PipelineOptions, STNGPipeline, report_signature
from repro.synthesis import cegis
from repro.synthesis.cegis import synthesize_kernel

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


def _kernel(source: str = TWO_POINT):
    return lower_candidate(identify_candidates(parse_source(source)).candidates[0])


# ---------------------------------------------------------------------------
# Multi-writer store merge (bugfix)
# ---------------------------------------------------------------------------


def _record_in_process(path: str, fingerprint: str) -> int:
    cache = SynthesisCache(path)
    cache.record_failure(fingerprint, f"failure {fingerprint}", kernel_name=fingerprint)
    return len(cache)


class TestMultiWriterStore:
    def test_concurrent_instances_do_not_lose_entries(self, tmp_path):
        # Both instances load the (empty) store before either saves;
        # each save appends only its own entry, so neither is dropped.
        path = tmp_path / "store"
        writer_a = SynthesisCache(path)
        writer_b = SynthesisCache(path)
        writer_a.record_failure("fp-a", "failure a")
        writer_b.record_failure("fp-b", "failure b")
        merged = SynthesisCache(path)
        assert merged.get("fp-a") is not None
        assert merged.get("fp-b") is not None

    def test_cross_process_writers_merge(self, tmp_path):
        path = str(tmp_path / "store")
        fingerprints = [f"fp-{index}" for index in range(8)]
        with ProcessPoolExecutor(max_workers=4) as pool:
            list(pool.map(_record_in_process, [path] * len(fingerprints), fingerprints))
        final = SynthesisCache(path)
        missing = [fp for fp in fingerprints if final.get(fp) is None]
        assert not missing, f"lost entries: {missing}"

    def test_own_entries_win_fingerprint_collisions(self, tmp_path):
        path = tmp_path / "store"
        first = SynthesisCache(path)
        first.record_failure("fp", "first message")
        second = SynthesisCache(path)
        second.record_failure("fp", "second message")
        assert SynthesisCache(path).get("fp").failure_message == "second message"


# ---------------------------------------------------------------------------
# Cross-process certificate replay and expression re-interning
# ---------------------------------------------------------------------------


def _replay_worker(path: str) -> dict:
    """Load the store in a fresh process and rehydrate the entry twice."""
    from repro.cache import SynthesisCache as Cache
    from repro.symbolic.simplify import simplify

    cache = Cache(path)
    (payload,) = [
        entry["payload"] for entry in cache.snapshot_entries().values()
    ]
    kernel = _kernel()
    first = result_from_payload(payload, kernel)
    second = result_from_payload(payload, kernel)
    rhs_first = first.candidate.post.conjuncts[0].out_eq.rhs
    rhs_second = second.candidate.post.conjuncts[0].out_eq.rhs
    inv_first = next(iter(first.candidate.invariants.values())).conjuncts[0].out_eq.rhs
    from repro.verification.inductive import revalidate_certificate

    return {
        # Hash-consing: two independent decodings of the same payload
        # must yield the *same* interned node, and simplify must treat
        # it as already canonical (the identity-keyed memo works).
        "interned": rhs_first is rhs_second,
        "inv_interned": inv_first
        is next(iter(second.candidate.invariants.values())).conjuncts[0].out_eq.rhs,
        "simplify_stable": simplify(rhs_first) is simplify(rhs_second),
        "has_certificate": first.certificate is not None,
        "proved": bool(first.certificate and first.certificate.proved),
        "revalidates": bool(
            first.certificate
            and revalidate_certificate(first.certificate, kernel, first.candidate)
        ),
    }


class TestCertificateReplay:
    @pytest.fixture()
    def populated_store(self, tmp_path):
        path = tmp_path / "store"
        kernel = _kernel()
        result = synthesize_kernel(
            kernel,
            seed=1,
            verifier_environments=1,
            inductive=True,
            cache=SynthesisCache(path),
        )
        assert result.proved
        return path

    def test_cross_process_replay_reinterns_and_revalidates(self, populated_store):
        with ProcessPoolExecutor(max_workers=1) as pool:
            observed = pool.submit(_replay_worker, str(populated_store)).result()
        assert observed == {
            "interned": True,
            "inv_interned": True,
            "simplify_stable": True,
            "has_certificate": True,
            "proved": True,
            "revalidates": True,
        }

    def test_warm_hit_replays_certificate(self, populated_store, monkeypatch):
        calls = {"count": 0}
        real = cegis.synthesize_kernel_uncached

        def counting(*args, **kwargs):
            calls["count"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cegis, "synthesize_kernel_uncached", counting)
        warm = SynthesisCache(populated_store)
        result = synthesize_kernel(
            _kernel(), seed=1, verifier_environments=1, inductive=True, cache=warm
        )
        assert calls["count"] == 0 and warm.hits == 1
        assert result.proved and result.verification_level == "proved"

    def test_tampered_certificate_degrades_to_cold_run(self, populated_store, monkeypatch):
        # Corrupt the stored candidate (different rhs, same structure):
        # the digest no longer matches the certificate, so the replay is
        # refused and synthesis runs cold.
        (shard,) = ShardedStore(populated_store).shard_files()
        record = json.loads(shard.read_text())
        conjunct = record["entry"]["payload"]["post"]["conjuncts"][0]
        conjunct["rhs"] = ["frac", 7, 1]
        shard.write_text(json.dumps(record) + "\n")

        calls = {"count": 0}
        real = cegis.synthesize_kernel_uncached

        def counting(*args, **kwargs):
            calls["count"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cegis, "synthesize_kernel_uncached", counting)
        result = synthesize_kernel(
            _kernel(),
            seed=1,
            verifier_environments=1,
            inductive=True,
            cache=SynthesisCache(populated_store),
        )
        assert calls["count"] == 1
        assert result.proved


# ---------------------------------------------------------------------------
# Payload compatibility and pipeline integration
# ---------------------------------------------------------------------------

_LEGACY_PAYLOAD_KEYS = {
    "post",
    "invariants",
    "strategy",
    "synthesis_time",
    "control_bits",
    "narrowed_bits",
    "postcondition_ast_nodes",
    "invariant_ast_nodes",
    "stats",
    "verification",
}

_LEGACY_STATS_KEYS = {
    "candidates_tried",
    "examples_used",
    "counterexamples_found",
    "verifier_calls",
    "states_checked",
}


class TestProverOffCompatibility:
    def test_payload_is_byte_identical_shape_without_prover(self):
        # With the prover disabled the payload (and therefore every
        # report signature built from it) must carry exactly the legacy
        # keys — no certificate, no proof counters, no strided flag.
        result = synthesize_kernel(_kernel(), seed=1, verifier_environments=1)
        payload = result_to_payload(result)
        assert set(payload) == _LEGACY_PAYLOAD_KEYS
        assert set(payload["stats"]) == _LEGACY_STATS_KEYS
        assert result.certificate is None
        assert not result.candidate.strided_exact

    def test_round_trip_preserves_certificate_and_flag(self):
        kernel = _kernel()
        result = synthesize_kernel(kernel, seed=1, verifier_environments=1, inductive=True)
        payload = json.loads(json.dumps(result_to_payload(result)))
        restored = result_from_payload(payload, kernel)
        assert restored.certificate == result.certificate
        assert restored.candidate.strided_exact == result.candidate.strided_exact
        assert restored.stats == result.stats

    def test_warm_pipeline_reports_identical_with_prover(self, tmp_path):
        options = PipelineOptions(seed=1, autotune_budget=20, verifier_environments=1)
        path = tmp_path / "store"
        cold = STNGPipeline(options, cache=SynthesisCache(path)).lift_source(
            TWO_POINT, suite="demo", points=64
        )
        warm = STNGPipeline(options, cache=SynthesisCache(path)).lift_source(
            TWO_POINT, suite="demo", points=64
        )
        assert [report_signature(r) for r in warm] == [report_signature(r) for r in cold]
        assert all(r.verification_level == "proved" for r in warm if r.lift)
