"""Every name a package module imports is used in that module.

A name counts as used when the module's code loads it (alone or as the base
of an attribute chain) or when the module's `__all__` lists it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "unclosed"
MODULES = sorted(PACKAGE_DIR.glob("*.py"))


def imported_names(tree):
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "qseries.py", "sequences.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(
        f"{name} (line {line})"
        for name, line in imported_names(tree).items()
        if name not in used_names(tree)
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_detects_an_unused_import():
    tree = ast.parse("from .field import FieldElem, ONE\n__all__ = ['x']\nFieldElem(1)\n")
    names = imported_names(tree)
    assert [n for n in names if n not in used_names(tree)] == ["ONE"]
