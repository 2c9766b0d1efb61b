"""Every import in the package modules is used: a name bound by an
import statement and never read is a leftover of deleted code."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# ``__init__`` imports in order to re-export.
SOURCES = sorted(p for p in (ROOT / "src" / "otkit").glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports (``__future__`` aside) that no
    name or attribute root in the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["%s (line %d)" % (name, line) for name, line in bound.items() if name not in read]


def test_sources_found():
    assert {p.parent.name for p in SOURCES} == {"otkit"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_import():
    assert unused_imports("import json\nimport math\nx = math.pi\n") == ["json (line 1)"]
    assert unused_imports("from .costs import _unused, center\ncenter\n") == ["_unused (line 1)"]
