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

The export guard runs `from unclosed.X import *` for each package module,
which fails when `__all__` lists a name the module does not bind.  The
unused-import and dead-code guards read `__all__` without importing, so a
stale entry would pass them.

The export-origin guard reads each package module and flags an `__all__`
entry that the module does not define at its top level (a function, class or
assigned name): an entry it imports instead would give the name a second
import path.

A record is a class defined with `@dataclass` or with `NamedTuple` (or
`typing.NamedTuple`) among its bases; its fields are the annotated names of
its body.  The package's records are NamedTuples, which keep
`dataclasses` and `inspect` out of the CLI's start-up; a reintroduced
dataclass is checked the same way.

The record-field guard flags a field of a record defined in
`src/unclosed/` that no loaded attribute in `src/`, `demos/` or `tests/`
reads (`x.field`).  Tests count here: a field that only a test reads may back
a check against an independent oracle.  A field name read on any object
counts, so the guard can miss a dead field but does not flag a read one.

The argument-field guard flags a field of a record defined in
`src/unclosed/` that a call in `src/unclosed/` fills, by keyword, with a
parameter of the calling function, unchanged or through `str`, `float` or
`int`: the caller already holds that value, so the field only repeats it.
Positional arguments are not matched.  ARGUMENT_FIELDS lists the fields
that stay, each with the reader that needs the value to travel with the
result.  An entry that the guard no longer flags is itself flagged, so the
list cannot keep a field that is gone.

The import-time guard runs `import unclosed.cli` in a fresh interpreter and
flags any of the process-pool, serialization and introspection modules it
loads: the package runs in one process and needs none of them, and each
would add to the CLI's start-up time (`dataclasses` also pulls in `inspect`,
`tokenize` and `linecache`).

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
import types
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "unclosed"
MODULES = sorted(PACKAGE_DIR.glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

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


def all_entries(tree):
    """The names the module's top-level `__all__` assignment lists."""
    entries = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            entries += ast.literal_eval(node.value)
    return entries


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(all_entries(tree))
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


def star_import_error(module_name):
    """The AttributeError that `from module_name import *` raises, or None."""
    try:
        exec(f"from {module_name} import *", {})
    except AttributeError as exc:
        return exc
    return None


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_all_entry_resolves(path):
    name = "unclosed" if path.stem == "__init__" else f"unclosed.{path.stem}"
    error = star_import_error(name)
    assert error is None, f"from {name} import * fails: {error}"


def test_detects_a_stale_all_entry(monkeypatch):
    planted = types.ModuleType("planted")
    exec("__all__ = ['kept', 'gone']\nkept = 1\n", planted.__dict__)
    monkeypatch.setitem(sys.modules, "planted", planted)
    assert "gone" in str(star_import_error("planted"))
    planted.gone = 2
    assert star_import_error("planted") is None


def undefined_exports(tree):
    """The `__all__` entries that the module does not define at its top level."""
    defined = {name for name, _, is_method in definitions(tree) if not is_method}
    return [name for name in all_entries(tree) if name not in defined]


def test_every_all_entry_is_defined_in_its_module():
    stray = [
        f"{p.name}: {name}"
        for p in MODULES
        for name in undefined_exports(parse(p))
    ]
    assert not stray, f"__all__ lists names the module does not define: {', '.join(stray)}"


def test_detects_an_imported_all_entry():
    planted = ast.parse(
        "from .field import FieldElem\n"
        "import mpmath as mp\n"
        "__all__ = ['LIMIT', 'Report', 'check', 'FieldElem', 'mp', 'gone']\n"
        "LIMIT: int = 10\n"
        "class Report:\n"
        "    def check(self):\n"
        "        return LIMIT\n"
        "def check():\n"
        "    return Report()\n"
    )
    assert undefined_exports(planted) == ["FieldElem", "mp", "gone"]
    # a method does not define a module-level name
    method_only = ast.parse("__all__ = ['check']\nclass R:\n    def check(self):\n        pass\n")
    assert undefined_exports(method_only) == ["check"]


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


def bare_name(node):
    """The last name of `x` or `a.b.x`, or None for any other expression."""
    return getattr(node, "id", getattr(node, "attr", None))


def is_record(node):
    """Whether the class `node` is a `@dataclass` or a `NamedTuple` subclass."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return (any(bare_name(d) == "dataclass" for d in decorators)
            or any(bare_name(b) == "NamedTuple" for b in node.bases))


def unread_fields(package, others):
    """'module.Class.field' of each record field in `package` ({module: tree}) that
    no loaded attribute in `package` or `others` reads."""
    read = set()
    for tree in [*package.values(), *others]:
        read |= {
            sub.attr for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
        }
    unread = []
    for module, tree in package.items():
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and is_record(node)):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    if item.target.id not in read:
                        unread.append(f"{module}.{node.name}.{item.target.id}")
    return unread


def test_no_dataclass_field_that_nothing_reads():
    unread = unread_fields(
        {p.stem: parse(p) for p in MODULES}, [parse(p) for p in DEMOS + TESTS]
    )
    assert not unread, f"record fields nothing reads: {', '.join(unread)}"


def test_detects_a_dataclass_field_that_nothing_reads():
    planted = ast.parse(
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n"
        "import dataclasses\n"
        "import typing\n"
        "@dataclass(frozen=True)\n"
        "class Row:\n"
        "    s: str\n"
        "    margin: float\n"
        "    unread: float\n"
        "    def line(self):\n"
        "        return self.s\n"
        "@dataclasses.dataclass\n"
        "class Report:\n"
        "    rows: tuple\n"
        "    spare: int = 0\n"
        "class Plain:\n"
        "    unread: int\n"
        "class Arc(NamedTuple):\n"
        "    v: float\n"
        "    unused: float\n"
        "class Edge(typing.NamedTuple):\n"
        "    weight: int\n"
        "class Pair(tuple):\n"
        "    unread: int\n"
        "def build(rows):\n"
        "    return Report(rows=rows, spare=1)\n"
    )
    # keyword construction and a stored attribute are not reads; a class whose
    # base is another tuple type is no record
    test = ast.parse("r = build([])\nr.rows[0].margin\nr.spare = 2\nArc(v=1.0, unused=0.0).v\n")
    assert unread_fields({"m": planted}, [test]) == [
        "m.Row.unread", "m.Report.spare", "m.Arc.unused", "m.Edge.weight"
    ]
    assert unread_fields({"m": planted}, []) == [
        "m.Row.margin", "m.Row.unread", "m.Report.rows", "m.Report.spare", "m.Arc.v",
        "m.Arc.unused", "m.Edge.weight"
    ]


# record fields that repeat an argument of their caller on purpose
ARGUMENT_FIELDS = {
    # perfbench/tracing.py's eval hook reads it to check the precision policy
    "qseries.EvalReport.s",
}


def argument_fields(package):
    """'module.Class.field' of each record field in `package` ({module: tree}) that a
    call in `package` fills by keyword with a parameter of the calling function, unchanged
    or through str, float or int."""
    owner = {
        node.name: module
        for module, tree in package.items() for node in tree.body
        if isinstance(node, ast.ClassDef) and is_record(node)
    }
    flagged = set()
    for tree in package.values():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = func.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            for call in ast.walk(func):
                if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) in owner):
                    continue
                cls = call.func.id
                for kw in call.keywords:
                    value = kw.value
                    if (isinstance(value, ast.Call) and len(value.args) == 1
                            and getattr(value.func, "id", None) in ("str", "float", "int")):
                        value = value.args[0]
                    if isinstance(value, ast.Name) and value.id in params:
                        flagged.add(f"{owner[cls]}.{cls}.{kw.arg}")
    return sorted(flagged)


def stale_argument_fields(package, allowed):
    """Entries of `allowed` that `argument_fields(package)` no longer flags."""
    return sorted(set(allowed) - set(argument_fields(package)))


def test_no_dataclass_field_that_repeats_an_argument():
    repeated = set(argument_fields({p.stem: parse(p) for p in MODULES})) - ARGUMENT_FIELDS
    assert not repeated, f"record fields that repeat an argument: {', '.join(sorted(repeated))}"


def test_every_allowed_argument_field_is_still_flagged():
    # an entry whose field is gone, or no longer repeats an argument, would
    # let a later field of that name pass unseen
    stale = stale_argument_fields({p.stem: parse(p) for p in MODULES}, ARGUMENT_FIELDS)
    assert not stale, f"ARGUMENT_FIELDS entries the guard no longer flags: {', '.join(stale)}"


def test_detects_a_stale_argument_field_entry():
    planted = ast.parse(
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n"
        "@dataclass(frozen=True)\n"
        "class Report:\n"
        "    label: str\n"
        "    size: int\n"
        "class Row(NamedTuple):\n"
        "    s: str\n"
        "    err: float\n"
        "def check(label, rows):\n"
        "    return Report(label=label, size=len(rows))\n"
        "def row(s, v):\n"
        "    return Row(s=str(s), err=abs(v))\n"
    )
    allowed = {"m.Report.label", "m.Report.size", "m.Report.order", "m.Row.s", "m.Row.err"}
    assert stale_argument_fields({"m": planted}, allowed) == [
        "m.Report.order", "m.Report.size", "m.Row.err"
    ]


def test_detects_a_dataclass_field_that_repeats_an_argument():
    planted = ast.parse(
        "from dataclasses import dataclass\n"
        "import typing\n"
        "@dataclass(frozen=True)\n"
        "class Report:\n"
        "    label: str\n"
        "    order: int\n"
        "    rows: tuple\n"
        "    err: float\n"
        "    size: int\n"
        "class Plain:\n"
        "    def __init__(self, label):\n"
        "        self.label = label\n"
        "class Row(typing.NamedTuple):\n"
        "    s: str\n"
        "    digits: int\n"
        "    err: float\n"
        "def check(label, v, *, order=2):\n"
        "    rows = (v,)\n"
        "    Plain(label=label)\n"
        "    return Report(label=str(label), order=order, rows=rows, err=float(v) / 2,\n"
        "                  size=len(rows))\n"
        "def build(n):\n"
        "    return Report(n, 0, (), 0.0, 0)\n"
        "def evaluate(s, digits):\n"
        "    Row(s, digits, 0.0)\n"
        "    return Row(s=s, digits=digits + 10, err=0.0)\n"
    )
    # a local, an expression of a parameter, a plain class and a positional
    # argument are not matched
    assert argument_fields({"m": planted}) == ["m.Report.label", "m.Report.order", "m.Row.s"]


# modules that `import unclosed.cli` must not load
NOT_AT_IMPORT = (
    "multiprocessing", "concurrent.futures", "pickle", "subprocess", "dataclasses", "inspect"
)


def run_fresh(script):
    """The stdout of `script` run in a fresh interpreter that imports from src/."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_at_import(statements):
    """The NOT_AT_IMPORT modules a fresh interpreter holds after running `statements`."""
    return run_fresh(
        f"import sys\n{statements}\nprint(*[m for m in {NOT_AT_IMPORT!r} if m in sys.modules])\n"
    ).split()


def parsers_built(statements):
    """How many argparse parsers a fresh interpreter builds while running `statements`."""
    return int(run_fresh(
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted_init(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted_init\n"
        f"{statements}\nprint(len(built))\n"
    ))


def test_cli_import_loads_no_process_pool_or_pickle_module():
    loaded = loaded_at_import("import unclosed.cli")
    assert not loaded, f"import unclosed.cli loads {', '.join(loaded)}"


def test_cli_import_builds_no_parser():
    # cli.main builds its parser on the first call, so the build stays out of
    # the set-up time every process pays
    assert parsers_built("import unclosed.cli") == 0
    assert parsers_built("import unclosed.cli\nunclosed.cli.build_parser()") > 0


def test_detects_a_module_loaded_at_import():
    assert loaded_at_import("import unclosed.cli\nimport pickle") == ["pickle"]
    assert loaded_at_import("import concurrent.futures") == ["concurrent.futures"]
    # dataclasses imports inspect
    assert loaded_at_import("import dataclasses") == ["dataclasses", "inspect"]
