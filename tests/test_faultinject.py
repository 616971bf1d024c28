"""The deterministic fault-injection harness itself."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.testing import InjectedFault, InjectionPlan, corrupt_file, fire, write_spec
from repro.testing.faultinject import ENV_VAR, FaultSpec


class TestInactive:
    def test_fire_is_noop_without_env(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        fire("worker-job", "anything")  # must not raise

    def test_corrupt_is_noop_without_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv(ENV_VAR, raising=False)
        target = tmp_path / "file.bin"
        target.write_bytes(b"x" * 100)
        assert corrupt_file("shard-log", str(target), target) is False
        assert target.stat().st_size == 100


class TestMatching:
    def _spec(self, **overrides):
        base = dict(
            index=0, site="worker-job", key="heat", kind="raise", occurrences=(1,)
        )
        base.update(overrides)
        return FaultSpec(**base)

    def test_key_is_substring_match(self):
        spec = self._spec()
        assert spec.matches("worker-job", "heat_step_loop0")
        assert not spec.matches("worker-job", "copy_back_loop0")
        assert not spec.matches("site-lift", "heat_step_loop0")

    def test_empty_key_matches_everything(self):
        spec = self._spec(key="")
        assert spec.matches("worker-job", "anything")
        assert spec.matches("worker-job", "")


class TestOccurrences:
    def test_counters_allocate_in_order(self, tmp_path):
        plan = InjectionPlan(
            tmp_path / "state",
            [FaultSpec(index=0, site="s", key="", kind="raise", occurrences=(2,))],
        )
        plan.fire("s")  # occurrence 1: pass
        with pytest.raises(InjectedFault):
            plan.fire("s")  # occurrence 2: fault
        plan.fire("s")  # occurrence 3: pass again

    def test_counters_shared_across_plan_instances(self, tmp_path):
        """Two plans over one state_dir model two processes: a faulted
        occurrence consumed by one is never re-observed by the other."""
        faults = [FaultSpec(index=0, site="s", key="", kind="raise", occurrences=(1,))]
        first = InjectionPlan(tmp_path / "state", faults)
        second = InjectionPlan(tmp_path / "state", faults)
        with pytest.raises(InjectedFault):
            first.fire("s")
        second.fire("s")  # the retry sees occurrence 2 and passes

    def test_independent_specs_count_independently(self, tmp_path):
        plan = InjectionPlan(
            tmp_path / "state",
            [
                FaultSpec(index=0, site="a", key="", kind="raise", occurrences=(1,)),
                FaultSpec(index=1, site="b", key="", kind="raise", occurrences=(1,)),
            ],
        )
        with pytest.raises(InjectedFault):
            plan.fire("a")
        with pytest.raises(InjectedFault):
            plan.fire("b")


class TestTruncate:
    def test_truncate_keeps_requested_bytes(self, tmp_path):
        plan = InjectionPlan(
            tmp_path / "state",
            [
                FaultSpec(
                    index=0,
                    site="shard-log",
                    key="",
                    kind="truncate",
                    occurrences=(1,),
                    keep_bytes=7,
                )
            ],
        )
        target = tmp_path / "shard.jsonl"
        target.write_bytes(b"0123456789abcdef")
        assert plan.corrupt("shard-log", str(target), target) is True
        assert target.read_bytes() == b"0123456"

    def test_truncate_defaults_to_half(self, tmp_path):
        plan = InjectionPlan(
            tmp_path / "state",
            [
                FaultSpec(
                    index=0,
                    site="shard-log",
                    key="",
                    kind="truncate",
                    occurrences=(1,),
                )
            ],
        )
        target = tmp_path / "shard.jsonl"
        target.write_bytes(b"x" * 100)
        plan.corrupt("shard-log", str(target), target)
        assert target.stat().st_size == 50

    def test_fire_never_runs_truncate_specs(self, tmp_path):
        plan = InjectionPlan(
            tmp_path / "state",
            [
                FaultSpec(
                    index=0, site="s", key="", kind="truncate", occurrences=(1,)
                )
            ],
        )
        plan.fire("s")  # truncate is a file fault; fire must skip it
        # The occurrence was not consumed either: corrupt still fires.
        target = tmp_path / "f"
        target.write_bytes(b"xx")
        assert plan.corrupt("s", "", target) is True


class TestEnvPlumbing:
    def test_spec_round_trips_through_env(self, monkeypatch, tmp_path):
        spec = write_spec(
            tmp_path / "faults.json",
            tmp_path / "state",
            [{"site": "worker-job", "key": "bad", "kind": "raise", "occurrences": [1]}],
        )
        monkeypatch.setenv(ENV_VAR, str(spec))
        fire("worker-job", "good_kernel")  # key mismatch: no fault
        with pytest.raises(InjectedFault):
            fire("worker-job", "bad_kernel")

    def test_repointing_env_reloads_plan(self, monkeypatch, tmp_path):
        first = write_spec(
            tmp_path / "first.json",
            tmp_path / "state1",
            [{"site": "a", "kind": "raise", "occurrences": [1]}],
        )
        second = write_spec(
            tmp_path / "second.json",
            tmp_path / "state2",
            [{"site": "b", "kind": "raise", "occurrences": [1]}],
        )
        monkeypatch.setenv(ENV_VAR, str(first))
        with pytest.raises(InjectedFault):
            fire("a")
        monkeypatch.setenv(ENV_VAR, str(second))
        fire("a")  # the first plan is no longer active
        with pytest.raises(InjectedFault):
            fire("b")

    def test_broken_spec_raises_loudly(self, monkeypatch, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        monkeypatch.setenv(ENV_VAR, str(path))
        with pytest.raises(json.JSONDecodeError):
            fire("anything")


class TestProcessDeath:
    """kill/exit faults actually terminate the process (in a child)."""

    @pytest.mark.parametrize(
        "kind,expected",
        [("kill", -9), ("exit", 3)],
        ids=["sigkill", "os-exit"],
    )
    def test_child_dies_with_expected_status(self, kind, expected, tmp_path):
        import os

        import repro.testing.faultinject as fi_mod

        spec = write_spec(
            tmp_path / "faults.json",
            tmp_path / "state",
            [{"site": "worker-job", "kind": kind, "occurrences": [1]}],
        )
        src_dir = os.path.dirname(
            os.path.dirname(os.path.dirname(fi_mod.__file__))
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; sys.path.insert(0, sys.argv[1])\n"
                "from repro.testing import fire\n"
                "fire('worker-job', 'victim')\n"
                "print('SURVIVED')\n",
                src_dir,
            ],
            env={**os.environ, "REPRO_FAULTS": str(spec)},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == expected
        assert "SURVIVED" not in proc.stdout
