"""Every private name and every ``module.attr`` of the package that README.md
cites in backticks is defined in the package: a stale name there points the
reader at deleted code."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = {p.stem: p for p in (ROOT / "src" / "otkit").glob("*.py")}
# A backticked name, dotted or called: ``_GridRows``, ``_GridStages.T``,
# ``smoothed_dual.project_H`` or ``_row_max(psi, C)``.
CITED_NAME = re.compile(r"([A-Za-z_]\w*(?:\.\w+)*)(?:\(.*\))?")


def top_level_names(tree) -> set[str]:
    """Names a module binds at its top level: definitions, assignments and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def all_names(tree) -> set[str]:
    """Every name a module defines or assigns at any depth, attributes included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def unresolved(text: str, modules: dict[str, str]) -> list[str]:
    """The backticked spans of ``text`` that cite a leading-underscore name
    no module defines, or ``module.attr`` for a package module that does not
    bind ``attr``; ``modules`` maps module names to their source."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    private = set().union(*(all_names(tree) for tree in trees.values()))
    missing = []
    for span in re.findall(r"`([^`\n]+)`", text):
        match = CITED_NAME.fullmatch(span)
        if match is None:
            continue
        parts = match.group(1).split(".")
        if parts[0].startswith("_") and parts[0] not in private:
            missing.append(span)
        elif (parts[0] in trees and len(parts) > 1
              and parts[1] not in top_level_names(trees[parts[0]])):
            missing.append(span)
    return missing


def test_modules_found():
    assert {"smoothed_dual", "solvers", "costs", "measures"} <= set(MODULES)


def test_readme_cites_only_defined_names():
    modules = {name: path.read_text() for name, path in MODULES.items()}
    assert unresolved((ROOT / "README.md").read_text(), modules) == []


def test_detects_stale_names():
    modules = {"smoothed_dual": "class _GridRows:\n    def __init__(self):\n"
                                "        self._u = None\n",
               "solvers": "from .smoothed_dual import _GridRows\n_COST_BATCH = 16\n"}
    text = ("`_GridRows`, `_GridRows.plan`, `_u`, `solvers._GridRows`, `_COST_BATCH`, "
            "`C.T`, `summary.json`, `(W0 e)_i`; stale: `_OldStep`, `_old_reductions(psi)`, "
            "`smoothed_dual._OldStep`, `solvers._u`")
    assert unresolved(text, modules) == ["_OldStep", "_old_reductions(psi)",
                                         "smoothed_dual._OldStep", "solvers._u"]
