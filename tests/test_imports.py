"""Every ``repro`` subpackage imports on its own, with no circular-import error.

A cycle only shows when its first module is imported before the rest of
the package graph, so each subpackage is imported from a clean state:
one subprocess clears ``repro.*`` from ``sys.modules`` before each
import (cheaper than one interpreter per package, and it still catches
order-dependent cycles).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import importlib, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import repro
names = sorted(m.name for m in pkgutil.iter_modules(repro.__path__) if m.ispkg)
failures = {}
for name in names:
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module("repro." + name)
    except Exception as exc:
        failures[name] = f"{type(exc).__name__}: {exc}"
print(json.dumps({"packages": names, "failures": failures}))
"""


def test_every_subpackage_imports_from_a_clean_state():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {"cache", "pipeline", "synthesis", "verification"} <= set(result["packages"])
    assert result["failures"] == {}
