"""Import and source guards: the `test` extra in pyproject.toml names every
package the tests import, fractions stay in the modules of the symbolic
form, only the two LaurentPoly constructors write a term map, and every
private helper of the package is used by the package."""

import ast
import re
import sys
from pathlib import Path

import pytest

from braidrep import cli

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).parents[1]
TEST_DIRS = (ROOT / "tests", ROOT / "perfbench" / "tests")


def _top_level_imports(path: Path) -> set:
    """The top-level module of every absolute import in a file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _local_modules(test_dir: Path) -> set:
    """braidrep, and the files next to a test or one directory up (the
    perfbench tests import the harness modules from there)."""
    return {"braidrep"} | {p.stem for d in (test_dir, test_dir.parent)
                           for p in d.glob("*.py")}


def test_every_third_party_import_is_in_the_test_extra():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower()
                .replace("-", "_") for req in extra}
    missing = {}
    for test_dir in TEST_DIRS:
        local = _local_modules(test_dir) | set(sys.stdlib_module_names)
        for path in sorted(test_dir.glob("*.py")):
            for name in _top_level_imports(path) - local - declared:
                missing.setdefault(name, []).append(path.name)
    assert not missing, f"imported by the tests, not in the test extra: {missing}"


def _names(path: Path) -> set:
    """Every identifier a file uses: names, attributes and imported names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_rational_function_stays_in_the_form():
    # laurent defines it, hermitian builds the symbolic form and its
    # determinant, and __init__ exports it; every other module, the
    # specializer included, works with Laurent and cyclotomic values only
    users = {path.name for path in sorted((ROOT / "src" / "braidrep").glob("*.py"))
             if "RationalFunction" in _names(path)}
    assert users == {"laurent.py", "hermitian.py", "__init__.py"}


def _term_map_writes(path: Path) -> list:
    """(class, function, line) of every write to a ``.terms`` attribute:
    an assignment or deletion of the attribute, or of one of its items."""
    writes = []

    def visit(node, cls, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, fn)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls, child.name)
                continue
            target = child.value if isinstance(child, ast.Subscript) else child
            if (isinstance(target, ast.Attribute) and target.attr == "terms"
                    and isinstance(child.ctx, (ast.Store, ast.Del))):
                writes.append((cls, fn, child.lineno))
            visit(child, cls, fn)

    visit(ast.parse(path.read_text(), str(path)), None, None)
    return writes


def test_only_the_constructors_write_a_term_map():
    # LaurentPoly.__init__ filters zero coefficients and LaurentPoly._raw
    # takes a map the arithmetic built itself; no code builds a polynomial
    # and then overwrites or edits its terms
    allowed = {("LaurentPoly", "__init__"), ("LaurentPoly", "_raw")}
    writes = [(path.name, cls, fn, line)
              for path in sorted((ROOT / "src" / "braidrep").glob("*.py"))
              for cls, fn, line in _term_map_writes(path)]
    assert {(cls, fn) for _, cls, fn, _ in writes} >= allowed
    outside = [f"{name}:{line} in {cls}.{fn}"
               for name, cls, fn, line in writes if (cls, fn) not in allowed]
    assert not outside, f"term maps written outside the constructors: {outside}"


def test_every_private_helper_is_used():
    # a function, method or class whose name starts with one underscore
    # serves the package only, so src/braidrep must reference it outside its
    # own definition; the _cmd_<name> handlers are looked up by name, so
    # they are matched against cli.COMMANDS instead
    defs, refs = [], []
    for path in sorted((ROOT / "src" / "braidrep").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defs.append((node.name, path.name, node.lineno,
                                 node.end_lineno))
            elif isinstance(node, ast.Name):
                refs.append((node.id, path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, path.name, node.lineno))
            elif isinstance(node, ast.alias):
                refs.append((node.name, path.name, node.lineno))
    handlers = {name[len("_cmd_"):] for name, *_ in defs
                if name.startswith("_cmd_")}
    assert handlers == set(cli.COMMANDS)
    unused = [f"{file}:{first} {name}" for name, file, first, last in defs
              if not name.startswith("_cmd_")
              and not any(ref == name and not (where == file
                                               and first <= line <= last)
                          for ref, where, line in refs)]
    assert not unused, f"private helpers nothing in the package uses: {unused}"
