"""Import guards: the `test` extra in pyproject.toml names every package
the tests import, and fractions stay in the modules of the symbolic form."""

import ast
import re
import sys
from pathlib import Path

import pytest

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
