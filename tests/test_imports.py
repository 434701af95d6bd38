"""No module of the package imports a name it never uses.

The project ships no linter, and deleting a function easily leaves its
imports behind.  ``__init__.py`` is exempt: its imports are the
package's exports.  A name that appears only in a string annotation
counts as used.
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


def used_names(tree: ast.AST) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for part in (part for annotation in annotations(tree) for part in ast.walk(annotation)):
        if isinstance(part, ast.Constant) and isinstance(part.value, str):
            names |= used_names(ast.parse(part.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(imported_names(tree) - used_names(tree))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_string_annotations_count_as_uses():
    tree = ast.parse("from __future__ import annotations\n"
                     "import numpy as np\n"
                     "from x import A, B, C, D\n"
                     "def f(a: 'A') -> 'list[B]':\n"
                     "    v: 'dict[str, D]' = np.zeros(1)\n")
    assert imported_names(tree) - used_names(tree) == {"C"}
