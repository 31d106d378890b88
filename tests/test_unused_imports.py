"""Every module of the package uses each name it imports.

A stdlib-only stand-in for a linter's unused-import rule: it parses each
module under src/thermosched/ except __init__.py (which re-exports) and
fails on an imported name that no expression of the module reads. An
import line that carries "# noqa: F401" is kept on purpose and skipped.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "thermosched"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names the module imports and never reads, as "line: name"."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a.asname or a.name.split(".")[0], a) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(a.asname or a.name, a) for a in node.names]
        else:
            continue
        for name, alias in names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_check_sees_an_unused_import_and_honours_noqa():
    source = (
        "import math\n"
        "from bisect import insort\n"
        "from typing import (\n"
        "    Callable,\n"
        "    Iterator,  # noqa: F401\n"
        ")\n"
        "x: Callable = math.pi\n"
    )
    assert unused_imports(source) == ["2: insort"]
