"""The package runs on the standard library alone, as pyproject.toml's
empty ``dependencies`` promises; the test tools installed beside it
would hide a stray import from every other test.  Each module also uses
every name it imports, and each CLI flag is read by the code it is
meant to steer, which no linter checks here."""

import argparse
import ast
import inspect
import sys
from pathlib import Path

import radiolabel
from radiolabel import cli

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


# (subcommand, dest) of flags that are parsed and deliberately ignored:
# --symmetry-reduction stays accepted for scripts that pass it, though
# twin starts are now always skipped
INERT_FLAGS = {("radio-number", "symmetry_reduction")}


def args_read(function) -> set:
    """The attributes that ``function`` reads off its ``args``."""
    tree = ast.parse(inspect.getsource(function))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}


def test_every_cli_flag_is_read():
    parser = cli.build_parser()
    (subparsers,) = [action for action in parser._actions
                     if isinstance(action, argparse._SubParsersAction)]
    read_by_main = args_read(cli.main)
    unread = set()
    for command, sub in subparsers.choices.items():
        read = args_read(sub.get_default("handler")) | read_by_main
        unread.update((command, action.dest) for action in sub._actions
                      if action.dest != "help" and action.dest not in read)
    assert unread == INERT_FLAGS
