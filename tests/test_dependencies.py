"""The package runs on the standard library alone, as pyproject.toml's
empty ``dependencies`` promises; the test tools installed beside it
would hide a stray import from every other test.  Each module also uses
every name it imports, each CLI flag is read by the code it is meant to
steer, and only graphs knows that a distance row may be bytes, which no
linter checks here."""

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


def bytes_type_tests(source: str) -> list:
    """Line numbers in ``source`` that test a value's type against
    bytes: isinstance(x, bytes), also within a tuple of types, and
    type(x) compared with bytes by is, is not, == or !=."""
    def names_bytes(node):
        return isinstance(node, ast.Name) and node.id == "bytes"

    def is_type_call(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "type")

    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1]
            if any(map(names_bytes, kinds.elts if isinstance(
                    kinds, ast.Tuple) else [kinds])):
                lines.append(node.lineno)
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if (any(map(names_bytes, sides)) and any(map(is_type_call, sides))
                    and all(isinstance(op, (ast.Is, ast.IsNot, ast.Eq,
                                            ast.NotEq)) for op in node.ops)):
                lines.append(node.lineno)
    return sorted(lines)


def test_bytes_type_tests_reads_every_form():
    source = ("isinstance(a, bytes)\nisinstance(b, (list, bytes))\n"
              "type(c) is bytes\nbytes is not type(d)\ntype(e) == bytes\n"
              "isinstance(f, list)\ntype(g) is list\nbytes(h)\n"
              "type(i) != bytes\n")
    assert bytes_type_tests(source) == [1, 2, 3, 4, 5, 9]


def test_only_graphs_knows_the_row_type():
    # graphs stores distance rows as bytes below diameter 256 and packs
    # windows into bytes; every other module reads them through it
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "graphs.py":
            continue
        found = bytes_type_tests(path.read_text(encoding="utf-8"))
        assert not found, f"{path.name} tests for bytes on lines {found}"


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
