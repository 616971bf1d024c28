"""The sharded synthesis store: appends, compaction, contention.

The claims under test, in roughly escalating order of paranoia:

* shard bucketing is deterministic and filesystem-safe for any key;
* append → load round-trips, later records win, saves append rather
  than rewrite, any ``SynthesisCache`` path is a shard directory, and
  a regular file at the store path is refused untouched;
* compaction drops dead weight (rewrites, stale versions, damage)
  without losing a live entry;
* a store decodes a shard once per change of its bytes, across handles
  and saves, yet sees every rewrite, append and compaction made by
  anyone else, and warns about stale or damaged lines on every open;
* a line that is not UTF-8 is one damaged line, not an unloadable store;
* a writer SIGKILLed mid-append (faultinject) leaves the store
  *loadable* and its shard lock reclaimable;
* many concurrent writer processes lose zero entries while compaction
  runs under contention, and threads sharing one store read their own
  writes and lose no compaction count;
* warm lift reports served from the store are byte-identical
  (``report_signature``) to the cold ones that filled it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

from repro.cache import (
    CODE_VERSION,
    CacheIntegrityWarning,
    ShardedStore,
    StaleVersionWarning,
    SynthesisCache,
    shard_path,
    shard_prefix,
)
from repro.pipeline import PipelineOptions, report_signature
from repro.application.translate import translate_application
from repro.testing import write_spec
from repro.testing.faultinject import ENV_VAR


def _entry(message: str) -> dict:
    return {"status": "failure", "payload": {"message": message}, "kernel": "k", "created": 1.0}


def _fp(n: int) -> str:
    """Deterministic fingerprints spread over many shards."""
    return hashlib.sha256(str(n).encode("utf-8")).hexdigest()


def _subprocess_env() -> dict:
    """This environment with the repository's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[1] / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    return env


class TestShardPrefix:
    def test_hex_keys_bucket_by_leading_chars(self):
        assert shard_prefix("abcdef", 2) == "ab"
        assert shard_prefix("ABCDEF", 2) == "ab"

    def test_unsafe_keys_bucket_by_digest(self):
        weird = shard_prefix("/../evil", 2)
        assert len(weird) == 2 and weird.isalnum()
        assert shard_prefix("/../evil", 2) == weird  # deterministic

    def test_short_keys_still_bucket(self):
        assert len(shard_prefix("a", 2)) == 2

    def test_shard_path_is_under_root(self, tmp_path):
        path = shard_path(tmp_path, "c0ffee")
        assert path == tmp_path / "c0"


class TestShardedStore:
    def test_append_load_roundtrip(self, tmp_path):
        store = ShardedStore(tmp_path / "store")
        leftover = store.append({_fp(1): _entry("one"), _fp(2): _entry("two")})
        assert leftover == {}
        assert store.load_all() == {_fp(1): _entry("one"), _fp(2): _entry("two")}

    def test_later_record_wins(self, tmp_path):
        store = ShardedStore(tmp_path / "store")
        store.append({_fp(1): _entry("old")})
        store.append({_fp(1): _entry("new")})
        assert store.load_all()[_fp(1)] == _entry("new")
        assert store.record_count() == 2  # append-only until compaction

    def test_damaged_line_skipped_with_warning(self, tmp_path):
        store = ShardedStore(tmp_path / "store")
        store.append({_fp(1): _entry("keep"), _fp(2): _entry("also")})
        shard = store.shard_file(_fp(1))
        with open(shard, "a", encoding="utf-8") as handle:
            handle.write('{"fp": "torn...\n')
        with pytest.warns(CacheIntegrityWarning, match="undecodable"):
            entries = store.load_all()
        assert entries[_fp(1)] == _entry("keep")
        assert entries[_fp(2)] == _entry("also")

    def test_non_utf8_line_is_one_damaged_line(self, tmp_path):
        store = ShardedStore(tmp_path / "store")
        store.append({_fp(1): _entry("keep"), _fp(2): _entry("also")})
        with open(store.shard_file(_fp(1)), "ab") as handle:
            handle.write(b'{"fp": "\xff\xfe garbage\n')
        with pytest.warns(CacheIntegrityWarning, match="had 1 undecodable"):
            cache = SynthesisCache(tmp_path / "store", autosave=False)
        assert cache.get(_fp(1)).payload == {"message": "keep"}
        assert cache.get(_fp(2)).payload == {"message": "also"}

    def test_stale_version_records_warn_and_drop(self, tmp_path):
        old = ShardedStore(tmp_path / "store", code_version=CODE_VERSION + "-old")
        old.append({_fp(1): _entry("stale")})
        new = ShardedStore(tmp_path / "store")
        new.append({_fp(2): _entry("live")})
        with pytest.warns(StaleVersionWarning, match="1 entries from"):
            entries = new.load_all()
        assert entries == {_fp(2): _entry("live")}

    def test_torn_tail_healed_before_next_append(self, tmp_path):
        first, second = "0" * 64, "0" * 63 + "1"  # same shard, distinct keys
        store = ShardedStore(tmp_path / "store")
        store.append({first: _entry("first")})
        shard = store.shard_file(first)
        # Simulate a writer killed mid-append: no trailing newline.
        with open(shard, "ab") as handle:
            handle.write(b'{"fp": "half')
        store.append({second: _entry("second")})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            entries = store.load_all()
        assert entries[first] == _entry("first")
        assert entries[second] == _entry("second")

    def test_compaction_drops_dead_records(self, tmp_path):
        store = ShardedStore(tmp_path / "store", compact_min_records=4, compact_factor=2)
        # Rewrite one fingerprint until the shard is mostly dead weight.
        for round_number in range(12):
            store.append({_fp(1): _entry(f"round {round_number}")})
        assert store.compactions >= 1
        assert store.load_all()[_fp(1)] == _entry("round 11")
        assert store.record_count() < 12

    def test_forced_compact_reports_counts(self, tmp_path):
        store = ShardedStore(tmp_path / "store")
        store.append({_fp(1): _entry("a")})
        store.append({_fp(1): _entry("b")})
        result = store.compact()
        assert result["records_before"] == 2
        assert result["records_after"] == 1
        assert store.load_all()[_fp(1)] == _entry("b")


class TestSuffixRule:
    """No suffix picks a format: every store path is a shard directory."""

    def test_directory_path_is_sharded(self, tmp_path):
        cache = SynthesisCache(tmp_path / "store", autosave=False)
        cache.record_failure(_fp(1), "m")
        cache.save()
        assert (tmp_path / "store").is_dir()
        assert list((tmp_path / "store").glob("shard-*.jsonl"))

    def test_json_name_is_a_directory_and_a_regular_file_is_refused(self, tmp_path):
        suffixed = tmp_path / "store.json"
        cache = SynthesisCache(suffixed, autosave=False)
        cache.record_failure(_fp(1), "m")
        cache.save()
        assert suffixed.is_dir()
        assert list(suffixed.glob("shard-*.jsonl"))

        occupied = tmp_path / "occupied"
        contents = json.dumps({"version": CODE_VERSION, "entries": {_fp(2): _entry("m")}})
        occupied.write_bytes(contents.encode("utf-8"))
        with pytest.raises(ValueError, match=re.escape(str(occupied))):
            SynthesisCache(occupied)
        assert occupied.read_bytes() == contents.encode("utf-8")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["occupied", "store.json"]

    def test_sharded_save_appends_only_new_entries(self, tmp_path):
        cache = SynthesisCache(tmp_path / "store", autosave=False)
        cache.record_failure(_fp(1), "one")
        cache.save()
        store = ShardedStore(tmp_path / "store")
        assert store.record_count() == 1
        cache.record_failure(_fp(2), "two")
        cache.save()
        assert store.record_count() == 2  # not rewritten, appended

    def test_two_instances_merge_through_shards(self, tmp_path):
        a = SynthesisCache(tmp_path / "store", autosave=False)
        b = SynthesisCache(tmp_path / "store", autosave=False)
        a.record_failure(_fp(1), "from a")
        b.record_failure(_fp(2), "from b")
        a.save()
        b.save()
        assert b.get(_fp(1)) is not None  # merge-save folded a's entry in
        reread = SynthesisCache(tmp_path / "store", autosave=False)
        assert len(reread) == 2


class TestReadMemo:
    """One decode per change of a shard's bytes, whoever changed them."""

    def test_unchanged_shards_decode_once_across_handles_and_saves(
        self, tmp_path, shard_decodes
    ):
        ShardedStore(tmp_path / "store").append({_fp(n): _entry(str(n)) for n in range(40)})
        store = ShardedStore(tmp_path / "store", code_version=CODE_VERSION)
        files = len(store.shard_files())
        first = SynthesisCache(store, autosave=False)
        second = SynthesisCache(store, autosave=False)
        assert first.path == store.root and len(first) == len(second) == 40
        assert shard_decodes["count"] == files
        second.save()  # nothing dirty: nothing appended, nothing decoded
        assert shard_decodes["count"] == files
        first.record_failure(_fp(1000), "new")
        first.save()  # re-decodes the one shard it appended to
        assert shard_decodes["count"] == files + 1
        assert SynthesisCache(store).get(_fp(1000)) is not None
        assert shard_decodes["count"] == files + 1

    def test_handle_takes_the_stores_code_version(self, tmp_path):
        store = ShardedStore(tmp_path / "store", code_version=CODE_VERSION + "-next")
        assert SynthesisCache(store, code_version=CODE_VERSION).code_version == (
            CODE_VERSION + "-next"
        )

    def test_same_length_rewrite_with_restored_mtime_is_seen(self, tmp_path):
        store = ShardedStore(tmp_path / "store")
        store.append({_fp(1): _entry("aaaa")})
        assert store.load_all()[_fp(1)] == _entry("aaaa")
        shard = store.shard_file(_fp(1))
        before = shard.stat()
        shard.write_bytes(shard.read_bytes().replace(b"aaaa", b"bbbb"))
        os.utime(shard, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = shard.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert store.load_all()[_fp(1)] == _entry("bbbb")

    def test_another_processs_append_and_compaction_are_seen(self, tmp_path):
        root = tmp_path / "store"
        store = ShardedStore(root)
        store.append({_fp(1): _entry("one")})
        assert store.load_all() == {_fp(1): _entry("one")}

        def other_process(body: str) -> None:
            script = (
                "import sys\n"
                "from repro.cache import ShardedStore\n"
                "store = ShardedStore(sys.argv[1])\n"
                "entry = lambda m: {'status': 'failure', 'payload': {'message': m}, "
                "'kernel': 'k', 'created': 1.0}\n" + body
            )
            subprocess.run(
                [sys.executable, "-c", script, str(root)],
                env=_subprocess_env(), check=True, timeout=60,
            )

        other_process(f"store.append({{{_fp(2)!r}: entry('two')}})\n")
        assert store.load_all() == {_fp(1): _entry("one"), _fp(2): _entry("two")}
        other_process(
            f"store.append({{{_fp(1)!r}: entry('one again')}})\n"
            "assert store.compact()['records_after'] == 2\n"
        )
        assert store.load_all() == {_fp(1): _entry("one again"), _fp(2): _entry("two")}
        assert store.record_count() == 2

    def test_stale_and_damaged_lines_warn_on_every_open(self, tmp_path, shard_decodes):
        ShardedStore(tmp_path / "store", code_version=CODE_VERSION + "-old").append(
            {_fp(1): _entry("stale")}
        )
        store = ShardedStore(tmp_path / "store")
        store.append({_fp(2): _entry("live")})
        with open(store.shard_file(_fp(2)), "ab") as handle:
            handle.write(b'{"fp": "torn...\n')
        for _ in range(3):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                cache = SynthesisCache(store, autosave=False)
            assert len(cache) == 1
            assert sorted((w.category.__name__, str(w.message)[:40]) for w in caught) == [
                ("CacheIntegrityWarning", "sharded store store had 1 undecodable lo"),
                ("StaleVersionWarning", "sharded store store holds 1 entries from"),
            ]
        assert shard_decodes["count"] == len(store.shard_files())


WRITER_SCRIPT = r"""
import hashlib, sys
from repro.cache import ShardedStore
root, writer_id, rounds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
store = ShardedStore(root, compact_min_records=8, compact_factor=2)
def entry(msg):
    return {"status": "failure", "payload": {"message": msg}, "kernel": "k", "created": 1.0}
for n in range(rounds):
    fp = hashlib.sha256(("w%d-%d" % (writer_id, n)).encode()).hexdigest()
    # One unique entry plus a contended rewrite of a shared fingerprint:
    # the rewrites are the dead weight that forces compaction under load.
    leftover = store.append({fp: entry("w%d n%d" % (writer_id, n))})
    assert not leftover, leftover
    store.append({"ff" * 32: entry("hot w%d n%d" % (writer_id, n))})
print(store.compactions)
"""


class TestConcurrentWriters:
    def test_multiprocess_stress_loses_nothing(self, tmp_path):
        root = tmp_path / "store"
        writers, rounds = 4, 24
        env = _subprocess_env()
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", WRITER_SCRIPT, str(root), str(writer_id), str(rounds)],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for writer_id in range(writers)
        ]
        compactions = 0
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            compactions += int(out.strip() or 0)
        store = ShardedStore(root)
        entries = store.load_all()
        # Every unique entry from every writer survived...
        for writer_id in range(writers):
            for n in range(rounds):
                fp = hashlib.sha256(f"w{writer_id}-{n}".encode()).hexdigest()
                assert fp in entries, (writer_id, n)
        # ...the contended fingerprint holds one of the racers' values...
        assert entries["ff" * 32]["payload"]["message"].startswith("hot w")
        # ...and compaction really ran while writers contended.
        assert compactions > 0

    def test_threads_sharing_one_store_read_their_writes_and_count_compactions(
        self, tmp_path
    ):
        def rewrite_loop(store, prefix, rounds=24):
            for n in range(rounds):
                assert store.append({prefix * 64: _entry(f"{prefix} {n}")}) == {}
                assert store.load_all()[prefix * 64] == _entry(f"{prefix} {n}")

        alone = ShardedStore(tmp_path / "alone", compact_min_records=4, compact_factor=1)
        rewrite_loop(alone, "0")
        shared = ShardedStore(tmp_path / "shared", compact_min_records=4, compact_factor=1)
        prefixes = "01234567"  # one shard per thread, more threads than cores
        errors = []

        def worker(prefix):
            try:
                rewrite_loop(shared, prefix)
            except BaseException as exc:
                errors.append(exc)
                raise

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(p,)) for p in prefixes]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert alone.compactions > 0
        assert shared.compactions == len(prefixes) * alone.compactions
        assert shared.load_all() == ShardedStore(tmp_path / "shared").load_all()

    def test_kill_mid_append_leaves_store_loadable(self, tmp_path):
        root = tmp_path / "store"
        ShardedStore(root).append({_fp(1): _entry("survivor")})
        spec = write_spec(
            tmp_path / "faults.json",
            tmp_path / "faults-state",
            [{"site": "shard-append", "kind": "kill", "occurrences": [1]}],
        )
        env = _subprocess_env()
        env[ENV_VAR] = str(spec)
        script = (
            "from repro.cache import ShardedStore\n"
            f"store = ShardedStore({str(root)!r})\n"
            "store.append({'d' * 64: {'status': 'failure', "
            "'payload': {'message': 'doomed'}, 'kernel': 'k', 'created': 1.0}})\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, timeout=60
        )
        assert proc.returncode == -9  # SIGKILL, holding the shard lock
        store = ShardedStore(root, lock_timeout=5.0)
        assert store.load_all() == {_fp(1): _entry("survivor")}
        # The dead writer's shard lock is reclaimed, not a deadlock.
        leftover = store.append({_fp(2): _entry("after the crash")})
        assert leftover == {}
        assert len(store.load_all()) == 2

    def test_injected_torn_append_recovers_other_records(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        store = ShardedStore(root)
        survivor, doomed = "a" * 64, "b" * 64  # distinct shards
        store.append({survivor: _entry("before")})
        spec = write_spec(
            tmp_path / "faults.json",
            tmp_path / "faults-state",
            [{"site": "shard-log", "kind": "truncate", "occurrences": [1]}],
        )
        monkeypatch.setenv(ENV_VAR, str(spec))
        store.append({doomed: _entry("torn mid-write")})  # shard torn in half
        monkeypatch.delenv(ENV_VAR)
        with pytest.warns(CacheIntegrityWarning, match="undecodable"):
            entries = ShardedStore(root).load_all()
        assert entries == {survivor: _entry("before")}
        # The torn shard heals on the next append and compacts away the
        # damaged line once the shard crosses the compaction threshold.
        healed = ShardedStore(root, compact_min_records=2, compact_factor=100)
        healed.append({doomed: _entry("retried")})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert healed.load_all()[doomed] == _entry("retried")
        assert healed.compactions >= 1  # damage triggers the rewrite


class TestReportParity:
    SOURCE = (
        "subroutine doubler(n, a, b)\n"
        "real (kind=8), dimension(1:n) :: a\n"
        "real (kind=8), dimension(1:n) :: b\n"
        "integer :: n\n"
        "do i = 2, n-1\n"
        "  a(i) = b(i-1) + b(i+1)\n"
        "enddo\n"
        "end subroutine doubler\n"
    )

    def test_warm_reports_are_byte_identical_to_cold(self, tmp_path):
        options = PipelineOptions(verifier_environments=1, inductive=False)
        cold_cache = SynthesisCache(tmp_path / "store", autosave=False)
        cold = translate_application(
            self.SOURCE, options, cache=cold_cache, driver="doubler"
        )
        assert cold.cache_misses > 0
        # Warm through the store: same bytes, zero synthesis.
        warm_cache = SynthesisCache(tmp_path / "store", autosave=False)
        warm = translate_application(
            self.SOURCE, options, cache=warm_cache, driver="doubler"
        )
        assert warm.cache_misses == 0
        assert [report_signature(tk.report) for tk in warm.translated] == [
            report_signature(tk.report) for tk in cold.translated
        ]
