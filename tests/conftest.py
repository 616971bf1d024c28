"""Shared test configuration."""

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running proof/synthesis tests (seconds, not ms)"
    )


@pytest.fixture()
def shard_decodes(monkeypatch):
    """Counts shard-log decodes; an unchanged shard is read, not decoded."""
    from repro.cache import shards

    calls = {"count": 0}
    real = shards.decode_json_lines

    def counting(data):
        calls["count"] += 1
        return real(data)

    monkeypatch.setattr(shards, "decode_json_lines", counting)
    return calls
