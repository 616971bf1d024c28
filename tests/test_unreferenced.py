"""Every definition and import under ``src/`` must be referenced somewhere.

A ``def`` or ``class`` whose name appears nowhere but at its own
definition is surface with no behaviour behind it: nothing calls it, so
nothing checks it.  The scan counts whole-word identifier occurrences
across the ``.py`` and ``.md`` files of the source, test, benchmark,
example and documentation trees, and fails on every non-dunder
definition under ``src/`` whose name occurs exactly once.  Counting
text rather than resolving imports keeps it conservative: a name that
two definitions share, or that a docstring, a string passed to
``getattr`` or a document mentions, counts as referenced.

An import in a module other than a package ``__init__`` must bind a
name the module loads: in code, or in a string annotation such as
``"os.PathLike[str]"``.  Package ``__init__`` modules import to
re-export, so they are not scanned.
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


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for arg in (
                arguments.posonlyargs + arguments.args + arguments.kwonlyargs
                + [arguments.vararg, arguments.kwarg]
            ):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _loaded_names(tree: ast.AST) -> set:
    """Names the module reads, including those inside string annotations."""
    names = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


def _imported_names(tree: ast.AST):
    """``(line, bound name)`` of every import, ``__future__`` ones aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def test_every_import_under_src_is_used():
    unused = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = _loaded_names(tree)
        for line, name in _imported_names(tree):
            if name not in loaded:
                unused.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert not unused, "imports whose name the module never loads:\n" + "\n".join(unused)
