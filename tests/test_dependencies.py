"""The package runs on the standard library alone, as pyproject.toml's
empty ``dependencies`` promises; the test tools installed beside it
would hide a stray import from every other test.  Each module also uses
every name it imports, which no linter checks here."""

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


def unused_imports(source: str) -> set:
    """Names bound by the imports in ``source`` that no other name in it
    reads; ``from __future__`` imports bind none."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            bound.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used


def test_unused_imports_reads_every_import_form():
    source = ("from __future__ import annotations\n"
              "import os.path, json as j\nfrom typing import Callable, List\n"
              "from .errors import X\n"
              "def f(a: List) -> None:\n    return os.sep, X\n")
    assert unused_imports(source) == {"j", "Callable"}


def test_package_modules_use_every_import():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the public API
            continue
        unused = unused_imports(path.read_text(encoding="utf-8"))
        assert not unused, f"{path.name} imports {sorted(unused)} unused"
