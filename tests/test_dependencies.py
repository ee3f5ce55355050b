"""The package runs on the standard library alone, as pyproject.toml's
empty ``dependencies`` promises; the test tools installed beside it
would hide a stray import from every other test."""

import ast
import sys
from pathlib import Path

import radiolabel

PACKAGE = Path(radiolabel.__file__).resolve().parent


def imported_roots(source: str) -> set:
    """Top-level names of the absolute imports in ``source``; relative
    imports stay inside the package and give none."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_imported_roots_reads_every_import_form():
    source = ("import os.path, json\nfrom numpy import array\n"
              "from . import graphs\nfrom .errors import X\n"
              "def f():\n    import networkx\n")
    assert imported_roots(source) == {"os", "json", "numpy", "networkx"}


def test_package_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 8
    allowed = sys.stdlib_module_names | {"radiolabel"}
    for path in files:
        stray = imported_roots(path.read_text(encoding="utf-8")) - allowed
        assert not stray, f"{path.name} imports {sorted(stray)}"
