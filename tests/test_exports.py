"""Module hygiene: every export resolves and every import is used.

Each ``purespin`` module is parsed with ``ast``.  A name listed in
``__all__`` must exist on the imported module, and a name bound by an import
statement must occur somewhere else in the module, as an identifier or as a
word inside a string (string annotations, ``__all__`` re-exports).
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import purespin

MODULES = sorted(
    ["purespin"] + [f"purespin.{m.name}" for m in pkgutil.iter_modules(purespin.__path__)])


def _tree(name: str) -> ast.Module:
    module = importlib.import_module(name)
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _used_words(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(re.findall(r"\w+", node.value))
    return used


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in _exports(_tree(name)) if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_imports_are_used(name):
    tree = _tree(name)
    used = _used_words(tree)
    unused = [n for n in _imported_names(tree) if n not in used]
    assert not unused, f"{name} imports unused names {unused}"


def test_checks_catch_defects():
    tree = ast.parse('import os\nfrom x import y, z\n__all__ = ["gone"]\nprint(z, "use y")\n')
    used = _used_words(tree)
    assert [n for n in _imported_names(tree) if n not in used] == ["os"]
    assert _exports(tree) == ["gone"]
