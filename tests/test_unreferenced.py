"""Every definition under ``src/`` must be referenced somewhere.

A ``def`` or ``class`` whose name appears nowhere but at its own
definition is surface with no behaviour behind it: nothing calls it, so
nothing checks it.  The scan counts whole-word identifier occurrences
across the ``.py`` and ``.md`` files of the source, test, benchmark,
example and documentation trees, and fails on every non-dunder
definition under ``src/`` whose name occurs exactly once.  Counting
text rather than resolving imports keeps it conservative: a name that
two definitions share, or that a docstring, a string passed to
``getattr`` or a document mentions, counts as referenced.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "examples", "perfbench", "docs")
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _identifier_counts() -> Counter:
    counts: Counter = Counter()
    for directory in SCANNED:
        for path in (ROOT / directory).rglob("*"):
            if path.suffix in (".py", ".md") and path.is_file():
                counts.update(_IDENTIFIER.findall(path.read_text(encoding="utf-8")))
    return counts


def test_every_definition_under_src_is_referenced():
    counts = _identifier_counts()
    unreferenced = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if counts[name] == 1:
                unreferenced.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unreferenced, "definitions referenced nowhere else:\n" + "\n".join(
        unreferenced
    )
