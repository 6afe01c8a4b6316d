"""Every name a module imports is used, and every package definition is referenced.

A name counts as used when the module's code loads it (alone or as the base
of an attribute chain) or when the module's `__all__` lists it.  The check
covers the package modules and the demos.

The dead-code guard flags a module-level function, class or assigned name,
or a method, defined in `src/unclosed/` that no code in `src/` or `demos/`
references by name outside the definition's own body (for an assigned name,
its own statement).  A reference to a module-level definition is a loaded
`ast.Name`, a loaded `ast.Attribute` or an import alias; a method is reached
only through an attribute, so a loaded `ast.Name` (a parameter or local of
the same name) does not count for it.  A listing in `__all__` is not a
reference.  Names are otherwise matched without their owner, so a definition
whose name is referenced anywhere counts as used: the guard can miss dead
code but does not flag live code.  Dunder names are out of scope: the
interpreter calls dunder methods by operator and reads `__all__` itself.

The import-time guard runs `import unclosed.cli` in a fresh interpreter and
flags any of the process-pool and serialization modules it loads:
direct.f_direct forks its one child with os.fork and passes ints back as
text, so none of them needs to load, and each would add to the CLI's
start-up time.

The knob guard flags a defaulted parameter of a module-level function or a
method defined in `src/unclosed/` that no call in `src/` or `demos/` passes,
by position or by keyword: every caller takes the default, so the parameter
is a constant dressed as an option.  Calls are matched by the called name
alone (`f(...)` or `x.f(...)`), `__init__` is called by its class name, and a
call that unpacks `*args` or `**kwargs` counts as passing everything.  Other
dunder methods are out of scope.
"""

import ast
import os
import subprocess
import sys
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


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(qualified name, node, is method) of each module-level function, class or assigned
    name other than a dunder, and each non-dunder method; an assigned name's node is its
    whole assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    stored = isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
                    if stored and not is_dunder(sub.id):
                        yield sub.id, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                is_method = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                if is_method and not is_dunder(item.name):
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
            name = qualname.rpartition(".")[2]
            own_bare, own_qualified = referenced_names(node)
            refs = qualified[name] - own_qualified[name]
            if not is_method:
                refs += bare[name] - own_bare[name]
            if not refs:
                dead.append(f"{module}.{qualname}")
    return dead


def defaulted_parameters(tree):
    """(qualified name, call name, parameter, position) of each defaulted parameter of a
    module-level function or a method; position counts the arguments a call passes, so a
    method's self or cls is not counted, and it is None for a keyword-only parameter."""
    functions = []
    for node in tree.body:
        functions.append((node, "", False))
        if isinstance(node, ast.ClassDef):
            functions += [(item, f"{node.name}.", True) for item in node.body]
    for node, owner, is_method in functions:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        qualname, call_name = owner + node.name, node.name
        if node.name == "__init__":
            call_name = qualname.partition(".")[0]
        elif is_dunder(node.name):
            continue
        positional = node.args.posonlyargs + node.args.args
        bound = is_method and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
        )
        first_defaulted = len(positional) - len(node.args.defaults)
        for i, arg in enumerate(positional[first_defaulted:], start=first_defaulted):
            yield qualname, call_name, arg.arg, i - bound
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield qualname, call_name, arg.arg, None


def passed_arguments(trees):
    """{called name: (most positional arguments a call passes, keywords passed)}; a call
    that unpacks *args or **kwargs passes every position or keyword."""
    passed = {}
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            most, keywords = passed.get(name, (0, set()))
            n = len(call.args)
            if any(isinstance(a, ast.Starred) for a in call.args):
                n = float("inf")
            keywords = keywords | {k.arg for k in call.keywords}
            passed[name] = (max(most, n), keywords)
    return passed


def unset_knobs(package, others):
    """'module.name(parameter)' of each defaulted parameter in `package` ({module: tree})
    that no call in `package` or `others` passes."""
    passed = passed_arguments([*package.values(), *others])
    knobs = []
    for module, tree in package.items():
        for qualname, call_name, param, position in defaulted_parameters(tree):
            if f"{module}.{qualname}" in ENTRY_POINTS:
                continue
            most, keywords = passed.get(call_name, (0, set()))
            by_position = position is not None and most > position
            if not (by_position or param in keywords or None in keywords):
                knobs.append(f"{module}.{qualname}({param})")
    return knobs


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


def test_detects_an_unreferenced_module_constant():
    # ZERO is only listed in __all__ and TWO is read by nobody; ONE counts as
    # used because TWO reads it, and LIMIT through the function that reads it
    planted = ast.parse(
        "__all__ = ['ZERO', 'ONE']\n"
        "ZERO = 0\n"
        "ONE = 1\n"
        "TWO = ONE + ONE\n"
        "A, B = 2, 3\n"
        "LIMIT: int = 10\n"
        "def below(n):\n"
        "    return n < LIMIT\n"
    )
    demo = ast.parse("import m\nm.below(m.A)\n")
    assert unreferenced({"m": planted}, [demo]) == ["m.ZERO", "m.TWO", "m.B"]
    assert unreferenced({"m": planted}, []) == [
        "m.ZERO", "m.TWO", "m.A", "m.B", "m.below"
    ]


def test_no_defaulted_parameter_that_no_caller_sets():
    knobs = unset_knobs({p.stem: parse(p) for p in MODULES}, [parse(p) for p in DEMOS])
    assert not knobs, f"defaulted parameters no call in src/ or demos/ passes: {', '.join(knobs)}"


def test_detects_a_defaulted_parameter_no_caller_sets():
    planted = ast.parse(
        "class C:\n"
        "    def __init__(self, size=1, fill=0):\n"
        "        self.cells = [fill] * size\n"
        "    def scale(self, factor=2, *, digits=30):\n"
        "        return factor\n"
        "    @staticmethod\n"
        "    def unit(n=1):\n"
        "        return n\n"
        "def helper(x, digits=40, guard=5):\n"
        "    return C(x).scale(3)\n"
        "def forwarded(*args, **kwargs):\n"
        "    return helper(*args, **kwargs)\n"
        "def tune(level=0):\n"
        "    return level\n"
        "def main(argv=None):\n"
        "    return argv\n"
    )
    demo = ast.parse("from m import C, tune\nC.unit(2)\ntune(level=1)\n")
    # C(x) reaches __init__ and passes size; .scale(3) passes factor, not self;
    # the forwarding call unpacks both kinds and so passes all of helper's
    assert unset_knobs({"m": planted}, [demo]) == [
        "m.C.__init__(fill)", "m.C.scale(digits)", "m.main(argv)"
    ]
    assert unset_knobs({"m": planted}, []) == [
        "m.C.__init__(fill)", "m.C.scale(digits)", "m.C.unit(n)", "m.tune(level)", "m.main(argv)"
    ]
    # cli.main is exempt by name, as the console script calls it
    assert unset_knobs({"cli": ast.parse("def main(argv=None):\n    return argv\n")}, []) == []


# modules that `import unclosed.cli` must not load
NOT_AT_IMPORT = ("multiprocessing", "concurrent.futures", "pickle", "subprocess")


def loaded_at_import(statements):
    """The NOT_AT_IMPORT modules a fresh interpreter holds after running `statements`."""
    script = f"import sys\n{statements}\nprint(*[m for m in {NOT_AT_IMPORT!r} if m in sys.modules])\n"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cli_import_loads_no_process_pool_or_pickle_module():
    loaded = loaded_at_import("import unclosed.cli")
    assert not loaded, f"import unclosed.cli loads {', '.join(loaded)}"


def test_detects_a_module_loaded_at_import():
    assert loaded_at_import("import unclosed.cli\nimport pickle") == ["pickle"]
    assert loaded_at_import("import concurrent.futures") == ["concurrent.futures"]
