"""Layering: only qmds.gf reads the tables of a Field, the command-line
front end chooses no oracle, importing it loads no process pool and no
dataclasses, each cached fact is written only by the function that computes
it, no module imports a name it never uses, every public function has a
caller outside the unit tests, and every source file parses as the oldest
Python the package supports.

Every other module of the package does its arithmetic through the field's
element methods and vector kernels, so the choice between the addition
table, Zech logarithms and packed digits is made in one place.  The private
attributes of a live Field are the tables, taken from one field on each
side of the addition-table cap, so a table added later is covered without
editing this test.  Likewise qmds.verify.run_checks alone turns a claim
into a check result, so the CLI imports none of the oracles or the
refusals that steer the choice between them, and a file's exact distance
claim is named only where the file is read and where its claims are
checked.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import qmds
from qmds.gf import field_for_q

PACKAGE = Path(qmds.__file__).resolve().parent
# GF(9) has an addition table and GF(529) Zech logarithms instead
TABLES = {name for q in (3, 23) for name in vars(field_for_q(q)) if name.startswith("_")}


def test_only_gf_reads_field_tables():
    assert {"_exp", "_log", "_add", "_zech", "_gram"} <= TABLES
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "gf.py")
    assert modules
    reads = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in TABLES
    ]
    assert not reads, reads


def test_only_the_reader_and_the_checker_name_a_files_distance_claims():
    # a code object holds what its constructor proved; known_distance lives
    # in a file's claims section, which cli reads and verify checks
    names = ("known_distance", "distance_claim")
    found = [
        f"{path.name}:{number} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in ("cli.py", "verify.py")
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        for name in names
        if name in line
    ]
    assert not found, found


ORACLES = {
    "min_distance_exact",
    "min_distance_at_least",
    "enumeration_classes",
    "dual_containing_check",
    "is_self_orthogonal",
    "EnumerationTooLarge",
    "WorkBudgetExceeded",
}


def test_cli_imports_no_oracle():
    path = PACKAGE / "cli.py"
    imported = [
        f"cli.py:{node.lineno} {alias.name}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name.rsplit(".", 1)[-1] in ORACLES
    ]
    assert not imported, imported


@cache
def modules_after_cli_import() -> frozenset[str]:
    """sys.modules of a fresh interpreter that has imported qmds.cli.

    A fresh interpreter, so modules other tests import do not count; -I
    ignores PYTHONPATH, so the package's parent directory goes on sys.path.
    """
    probe = f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import qmds.cli; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True, check=True)
    return frozenset(out.stdout.split())


def test_cli_import_loads_no_process_pool():
    pools = sorted(m for m in modules_after_cli_import() if m.split(".")[0] in ("concurrent", "multiprocessing"))
    assert pools == [], pools


def test_cli_import_loads_no_dataclasses_or_inspect():
    # each command is a fresh process, so what the import loads it pays
    # every time; dataclasses pulls in inspect, and with it ast and dis
    assert not {"dataclasses", "inspect"} & modules_after_cli_import()


# a cache slot -> the one function that fills it; constructors only set it to None
CACHE_OWNERS = {
    "_echelon": "linalg._eliminate",
    "_self_orthogonal": "grs.is_self_orthogonal",
    "_code": "grs.grs_generator",
}
CONSTRUCTORS = ("__init__", "_trusted")


def attribute_writes(tree: ast.AST, function: str | None = None):
    """(attribute, enclosing function, whether the value written is the
    constant None) for every assignment to an attribute under tree; a
    tuple target written from a tuple is paired item by item."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from attribute_writes(node, node.name)
            continue
        if isinstance(node, ast.Assign):
            pairs = [(target, node.value) for target in node.targets]
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            pairs = [(node.target, node.value)]
        else:
            pairs = []
        while pairs:
            target, value = pairs.pop()
            if isinstance(target, ast.Tuple):
                values = value.elts if isinstance(value, ast.Tuple) else [None] * len(target.elts)
                pairs += zip(target.elts, values)
            elif isinstance(target, ast.Attribute):
                yield target.attr, function, isinstance(value, ast.Constant) and value.value is None
        yield from attribute_writes(node, function)


def test_each_cached_fact_is_written_only_where_it_is_computed():
    # an echelon form, a Gram verdict and a spec's code are kept on the
    # object that computed them and never handed to a second object
    writers, initial = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for attr, function, is_none in attribute_writes(tree):
            if attr in CACHE_OWNERS:
                if is_none and function in CONSTRUCTORS:
                    initial.add(attr)
                else:
                    writers.add((attr, f"{path.stem}.{function}"))
    assert initial == set(CACHE_OWNERS)
    assert writers == set(CACHE_OWNERS.items())


def unused_imports(source: str) -> list[str]:
    """The names a module's top-level imports bind and its code never reads;
    __future__ imports bind nothing, and __all__ counts as a reader."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{line} {name}" for name, line in bound.items() if name not in read]


def test_the_unused_import_check_sees_an_unused_import():
    source = "\n".join(
        ["from __future__ import annotations", "import os, sys", "from .x import a, b as c", "__all__ = ['a']", "sys.exit()"]
    )
    assert unused_imports(source) == ["2 os", "3 c"]


def test_every_module_uses_what_it_imports():
    unused = [
        f"{path.name}:{entry}"
        for path in sorted(PACKAGE.glob("*.py"))
        for entry in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not unused, unused


ROOT = PACKAGE.parents[1]
# public functions that only the unit tests call, each with its reason
TEST_ONLY = {
    # tests check containment and code equality against rank(stack(...)),
    # an oracle that shares no code with row_space_contains
    "linalg.stack",
}


def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def package_trees() -> dict[str, ast.Module]:
    """Each module of the package by name; __init__ only re-exports."""
    return {path.stem: parsed(path) for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def caller_trees() -> list[ast.Module]:
    """The callers outside the package that count: the benchmark, the
    acceptance criteria and the golden-corpus script."""
    tests = ROOT / "tests"
    paths = [*sorted((ROOT / "perfbench").glob("*.py")), tests / "test_acceptance.py", tests / "golden" / "regen.py"]
    return [parsed(path) for path in paths]


def owned_nodes(module: str, tree: ast.Module):
    """(owner, node) for the top-level nodes of a module, with each class
    split into its statements: owner is the qualified name of a function or
    method, module.name or module.Class.name, and None for anything else."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                method = isinstance(item, ast.FunctionDef)
                yield (f"{module}.{node.name}.{item.name}" if method else None), item
            yield from ((None, n) for n in node.bases + node.decorator_list)
        else:
            yield (f"{module}.{node.name}" if isinstance(node, ast.FunctionDef) else None), node


def names_read(tree: ast.AST):
    """("attr", name) for each attribute read, ("import", name) for each
    name imported from a module and ("name", name) for each bare name read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield "attr", node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (("import", alias.name) for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield "name", node.id


def uncalled(modules: dict[str, ast.Module], callers: list[ast.Module]) -> list[str]:
    """The public functions and methods of modules that nothing outside
    their own body reads: a method through an attribute, and a function
    through an attribute, an import, or a bare name in its own module.  A
    bare name elsewhere is some other variable."""
    defined, reads = set(), set()
    for module, tree in modules.items():
        for owner, node in owned_nodes(module, tree):
            if owner and not owner.rsplit(".", 1)[1].startswith("_"):
                defined.add(owner)
            reads |= {(kind, name, module, owner) for kind, name in names_read(node)}
    for tree in callers:
        reads |= {(kind, name, None, None) for kind, name in names_read(tree)}

    def called(qualname: str) -> bool:
        module, *cls, name = qualname.split(".")
        return any(
            read == name and owner != qualname and (kind == "attr" or not cls and (kind == "import" or where == module))
            for kind, read, where, owner in reads
        )

    return sorted(q for q in defined if not called(q))


def test_every_public_function_has_a_caller_outside_the_unit_tests():
    # a public name only the unit tests call is a second way to an answer
    # some other function owns; TEST_ONLY lists the ones kept on purpose
    assert uncalled(package_trees(), caller_trees()) == sorted(TEST_ONLY)


@pytest.mark.parametrize(
    "qualname", ["verify.is_mds", "linalg.rref", "linalg.Matrix.identity", "gf.Field.div", "gf.Field.frobenius_q"]
)
def test_the_caller_check_sees_a_returning_test_only_name(qualname):
    # the public names that went because only tests called them
    modules = package_trees()
    module, *cls, name = qualname.split(".")
    body = modules[module].body
    if cls:
        body = next(node for node in body if isinstance(node, ast.ClassDef) and node.name == cls[0]).body
    body += ast.parse(f"def {name}(a, b):\n    return {name}").body
    assert uncalled(modules, caller_trees()) == sorted([qualname, *TEST_ONLY])


def test_every_exported_name_resolves():
    assert [name for name in qmds.__all__ if not hasattr(qmds, name)] == []


def test_every_source_file_parses_as_python_3_10():
    # requires-python is >=3.10; this checks syntax only, not the library calls made
    root = PACKAGE.parents[1]
    paths = sorted(p for top in ("src", "tests", "perfbench") for p in (root / top).rglob("*.py"))
    assert len(paths) > 20
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
        except SyntaxError as e:
            failures.append(f"{path.relative_to(root)}:{e.lineno} {e.msg}")
    assert not failures, failures
