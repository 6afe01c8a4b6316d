"""Every name a module imports is used, and every package definition is referenced.

A name counts as used when the module's code loads it (alone or as the base
of an attribute chain) or when the module's `__all__` lists it.  The check
covers the package modules and the demos.

The dead-code guard flags a module-level function or class, or a method
other than a dunder, defined in `src/unclosed/` that no code in `src/` or
`demos/` references by name outside the definition's own body.  A reference
to a function or class is a loaded `ast.Name`, a loaded `ast.Attribute` or an
import alias; a method is reached only through an attribute, so a loaded
`ast.Name` (a parameter or local of the same name) does not count for it.
Names are otherwise matched without their owner, so a definition whose name
is referenced anywhere counts as used: the guard can miss dead code but does
not flag live code.  Dunder methods are out of scope, since the interpreter
calls them by operator.
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
    """Counts of the names `node` loads bare, and of those it loads as an attribute or imports."""
    bare, qualified = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            bare[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            qualified[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            qualified[sub.name.rpartition(".")[2]] += 1
    return bare, qualified


def definitions(tree):
    """(qualified name, node, is method) of each module-level function or class and each
    non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                is_method = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                if is_method and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item, True


def unreferenced(package, others):
    """'module.name' of each definition in `package` ({module: tree}) referenced nowhere else."""
    bare, qualified = Counter(), Counter()
    for tree in [*package.values(), *others]:
        b, q = referenced_names(tree)
        bare += b
        qualified += q
    dead = []
    for module, tree in package.items():
        for qualname, node, is_method in definitions(tree):
            if f"{module}.{qualname}" in ENTRY_POINTS:
                continue
            own_bare, own_qualified = referenced_names(node)
            refs = qualified[node.name] - own_qualified[node.name]
            if not is_method:
                refs += bare[node.name] - own_bare[node.name]
            if not refs:
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
    # `size` is also a parameter of `used`; a bare name never reaches the method
    planted = ast.parse(
        "class C:\n"
        "    def used(self, size):\n"
        "        return [0] * size\n"
        "    def size(self):\n"
        "        return 1\n"
        "    def dead(self):\n"
        "        return self.dead()\n"
        "    def __repr__(self):\n"
        "        return 'C'\n"
        "def helper():\n"
        "    return helper()\n"
    )
    demo = ast.parse("from m import C\nC().used(2)\n")
    assert unreferenced({"m": planted}, [demo]) == ["m.C.size", "m.C.dead", "m.helper"]
    assert unreferenced({"m": planted}, []) == [
        "m.C", "m.C.used", "m.C.size", "m.C.dead", "m.helper"
    ]
