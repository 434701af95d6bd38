"""No module of the package imports a name it never uses, or defines a
private (``_``-prefixed) module-level name it never uses.

The project ships no linter, and deleting a function easily leaves its
imports and private helpers behind.  ``__init__.py`` is exempt: its
imports are the package's exports.  A name that appears only in a string
annotation counts as used.
"""

import ast

import pytest

from conftest import REPO_ROOT

MODULES = sorted(p for p in (REPO_ROOT / "src" / "simxfer").glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef) and node.returns:
            yield node.returns


def private_definitions(tree: ast.Module) -> set[str]:
    """The module-level functions, classes and constants whose names start with one ``_``."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def used_names(tree: ast.AST) -> set[str]:
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for part in (part for annotation in annotations(tree) for part in ast.walk(annotation)):
        if isinstance(part, ast.Constant) and isinstance(part.value, str):
            names |= used_names(ast.parse(part.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(imported_names(tree) - used_names(tree))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_private_name_it_defines(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(private_definitions(tree) - used_names(tree))
    assert not unused, f"{path.name} defines private names it never uses: {unused}"


def test_an_unused_private_helper_is_found():
    tree = ast.parse("_USED, _LEFT = 1, 2\n"
                     "_SIZE: int = 3\n"
                     "def public(): return _USED + _helper()\n"
                     "def _helper(): return _SIZE\n"
                     "def _orphan(): return 0\n"
                     "class _Orphan: pass\n"
                     "__all__ = []\n")
    assert private_definitions(tree) - used_names(tree) == {"_LEFT", "_orphan", "_Orphan"}


def test_string_annotations_count_as_uses():
    tree = ast.parse("from __future__ import annotations\n"
                     "import numpy as np\n"
                     "from x import A, B, C, D\n"
                     "def f(a: 'A') -> 'list[B]':\n"
                     "    v: 'dict[str, D]' = np.zeros(1)\n")
    assert imported_names(tree) - used_names(tree) == {"C"}
