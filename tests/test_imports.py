"""Every name a module imports is used, and every package definition is referenced.

A name counts as used when the module's code loads it (alone or as the base
of an attribute chain) or when the module's `__all__` lists it.  The check
covers the package modules and the demos.

The dead-code guard flags a module-level function or class, or a method
other than a dunder, defined in `src/unclosed/` that no code in `src/` or
`demos/` references by name outside the definition's own body.  A reference
is a loaded `ast.Name`, a loaded `ast.Attribute` or an import alias.  Names
are matched bare, so a definition whose name is referenced anywhere counts as
used: the guard can miss dead code but does not flag live code.  Dunder
methods are out of scope, since the interpreter calls them by operator.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "unclosed"
MODULES = sorted(PACKAGE_DIR.glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# called from outside src/ and demos/: the console script in pyproject.toml
ENTRY_POINTS = {"cli.main"}


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


def referenced_names(node):
    """Count of each name that `node` loads or imports."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            refs[sub.name.rpartition(".")[2]] += 1
    return refs


def definitions(tree):
    """(qualified name, node) of each module-level function or class and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                is_method = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                if is_method and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def unreferenced(package, others):
    """'module.name' of each definition in `package` ({module: tree}) referenced nowhere else."""
    total = Counter()
    for tree in [*package.values(), *others]:
        total += referenced_names(tree)
    dead = []
    for module, tree in package.items():
        for qualname, node in definitions(tree):
            if f"{module}.{qualname}" in ENTRY_POINTS:
                continue
            if total[node.name] == referenced_names(node)[node.name]:
                dead.append(f"{module}.{qualname}")
    return dead


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "qseries.py", "sequences.py"}
    assert DEMOS


@pytest.mark.parametrize(
    "path", MODULES + DEMOS, ids=lambda p: p.name if p.parent == PACKAGE_DIR else f"demos/{p.name}"
)
def test_no_unused_imports(path):
    tree = parse(path)
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


def test_no_unreferenced_definitions():
    dead = unreferenced({p.stem: parse(p) for p in MODULES}, [parse(p) for p in DEMOS])
    assert not dead, f"defined in src/unclosed but never referenced: {', '.join(dead)}"


def test_detects_an_unreferenced_method():
    planted = ast.parse(
        "class C:\n"
        "    def used(self):\n"
        "        return 1\n"
        "    def dead(self):\n"
        "        return self.dead()\n"
        "    def __repr__(self):\n"
        "        return 'C'\n"
        "def helper():\n"
        "    return helper()\n"
    )
    demo = ast.parse("from m import C\nC().used()\n")
    assert unreferenced({"m": planted}, [demo]) == ["m.C.dead", "m.helper"]
    assert unreferenced({"m": planted}, []) == ["m.C", "m.C.used", "m.C.dead", "m.helper"]
