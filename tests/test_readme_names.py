"""Every private name and every ``module.attr`` of the package that README.md,
or a module's own docstrings and comments, cite in backticks is defined in
the package, and every ``otbench`` flag README.md cites is an option of the
CLI: a stale name or flag there points the reader at deleted code."""

import argparse
import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

from otkit import cli

ROOT = Path(__file__).resolve().parents[1]
MODULES = {p.stem: p for p in (ROOT / "src" / "otkit").glob("*.py")}
# A backticked name, dotted or called: ``_GridRows``, ``_GridRows.row``,
# ``smoothed_dual.project_H`` or ``_row_max(psi, C)``.
CITED_NAME = re.compile(r"([A-Za-z_]\w*(?:\.\w+)*)(?:\(.*\))?")
# An ``otbench`` command line and its backslash-continued lines.
OTBENCH_COMMAND = re.compile(r"^otbench (?:.*\\\n)*.*$", re.M)


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


def own_text(source: str) -> str:
    """A module's docstrings and comments, double backticks read as single."""
    nodes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    parts = [ast.get_docstring(node, clean=False) or ""
             for node in ast.walk(ast.parse(source)) if isinstance(node, nodes)]
    parts += [token.string for token in tokenize.generate_tokens(io.StringIO(source).readline)
              if token.type == tokenize.COMMENT]
    return "\n".join(parts).replace("``", "`")


def test_modules_found():
    assert {"smoothed_dual", "solvers", "costs", "measures"} <= set(MODULES)


def test_readme_cites_only_defined_names():
    modules = {name: path.read_text() for name, path in MODULES.items()}
    assert unresolved((ROOT / "README.md").read_text(), modules) == []


@pytest.mark.parametrize("name", sorted(MODULES))
def test_module_text_cites_only_defined_names(name):
    modules = {module: path.read_text() for module, path in MODULES.items()}
    assert unresolved(own_text(modules[name]), modules) == []


def test_own_text_is_docstrings_and_comments():
    source = ('"""Module: ``_Gone``."""\n\n'
              'class _Kept:\n    """Class: ``_Kept`` and ``_Lost.attr``."""\n\n'
              '    def go(self):\n        """Method: ``_old(psi)``."""\n'
              '        return "``_NotText``"  # comment: ``_Stale``\n')
    assert unresolved(own_text(source), {"smoothed_dual": source}) == [
        "_Gone", "_Lost.attr", "_old(psi)", "_Stale"]


def test_detects_stale_names():
    modules = {"smoothed_dual": "class _GridRows:\n    def __init__(self):\n"
                                "        self._u = None\n",
               "solvers": "from .smoothed_dual import _GridRows\n_COST_BATCH = 16\n"}
    text = ("`_GridRows`, `_GridRows.plan`, `_u`, `solvers._GridRows`, `_COST_BATCH`, "
            "`C.T`, `summary.json`, `(W0 e)_i`; stale: `_OldStep`, `_old_reductions(psi)`, "
            "`smoothed_dual._OldStep`, `solvers._u`")
    assert unresolved(text, modules) == ["_OldStep", "_old_reductions(psi)",
                                         "smoothed_dual._OldStep", "solvers._u"]


def cited_flags(text: str) -> set[str]:
    """The ``--flags`` that ``text`` cites in backticks or in ``otbench`` commands."""
    flags = set(re.findall(r"`(--[\w-]+)", text))
    for command in OTBENCH_COMMAND.findall(text):
        flags.update(re.findall(r"(?<!\S)(--[\w-]+)", command))
    return flags


def test_readme_cites_only_cli_flags():
    parser = argparse.ArgumentParser()
    cli._add_shared_args(parser)
    options = {flag for action in parser._actions for flag in action.option_strings}
    assert cited_flags((ROOT / "README.md").read_text()) - options == set()


def test_cited_flags_are_backticked_or_otbench():
    text = ("Flags: `--seed`, `--tol 1e-9`.\n```\npip install -e . --no-build-isolation\n"
            "otbench run --m 5 \\\n    --no-center\notbench generate --out x\n```\n")
    assert cited_flags(text) == {"--seed", "--tol", "--m", "--no-center", "--out"}
