"""The package runs on the standard library alone, as pyproject.toml's
empty ``dependencies`` promises; the test tools installed beside it
would hide a stray import from every other test.  Each module also uses
every name it imports, each private module-level name is read somewhere
in the package, each exported name is read by the package, perfbench or
the README's library example, each CLI flag is read by the code it is
meant to steer, only cli._report reads --format, names json.dumps in
cli or dumps with an indent in the package, only graphs knows that a
distance row may be bytes, and no comment or string cites a wall-clock
figure or a host, which no linter checks here."""

import argparse
import ast
import inspect
import io
import re
import sys
import tokenize
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


def private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unread_names(sources: dict, wanted=private) -> set:
    """(module, name) of each module-level function, class or constant
    in ``sources``, a dict of module name to source, whose name passes
    ``wanted`` and that no code in them reads: as a name, or as an
    attribute of another module.  Reads within its own definition, such
    as a recursion, do not count."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = {}  # (module, name) -> the lines of its definition
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if wanted(name):
                    defined[module, name] = range(node.lineno,
                                                  node.end_lineno + 1)
    reads = set()  # (module, line, name)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                reads.add((module, node.lineno, node.attr))
    return {(module, name) for (module, name), lines in defined.items()
            if not any(read == name and not (where == module
                                             and line in lines)
                       for where, line, read in reads)}


def test_unread_private_names_reads_every_form():
    sources = {
        "a": ("_A = 1\n_B = 2\n__all__ = []\nPUBLIC = 3\n"
              "def _f():\n    return _A\n"
              "def _loop(n):\n    return _loop(n - 1)\n"
              "def _g():\n    pass\n_C = _D = 4\n"),
        "b": "from . import a\nX = a._g, a._C\n",
    }
    assert unread_names(sources) == {
        ("a", "_B"), ("a", "_f"), ("a", "_loop"), ("a", "_D")}


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_names(sources) == set()


# public names that no package module, perfbench module or the README's
# library example reads, each with the reason it is exported anyway
UNREAD_EXPORTS = {
    "all_pairs_distances": "the BFS table that tests check product "
                           "distances against, independent of the kernels",
    "knt_ordering_recursive": "the independent construction that "
                              "knt_ordering_matrix is tested against",
}


def unread_exports(init_source: str, sources: dict) -> set:
    """The names that the imports of ``init_source`` bind and that no
    code in ``sources`` reads outside the name's own definition."""
    exported = {alias.asname or alias.name
                for node in ast.walk(ast.parse(init_source))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    return {name for _module, name in unread_names(sources,
                                                   exported.__contains__)}


def test_unread_exports_reads_every_form():
    init = "from .a import A, K, UNUSED, f, g, h\nfrom .b import X\n"
    sources = {
        "a": ("class A:\n    def copy(self) -> A:\n        return A()\n"
              "def f(n):\n    return f(n - 1)\n"
              "def g():\n    pass\ndef h():\n    pass\nK = UNUSED = 1\n"),
        "b": "from .a import K\nX = K\n",
        "perfbench": "import radiolabel as rl\nrl.g(rl.X)\n",
        "README": "from radiolabel import h\nh()\n",
    }
    assert unread_exports(init, sources) == {"A", "UNUSED", "f"}


def test_every_export_is_read():
    repo = Path(__file__).resolve().parent.parent
    paths = sorted(PACKAGE.glob("*.py")) + sorted(
        (repo / "perfbench").glob("*.py"))
    sources = {f"{path.parent.name}.{path.stem}": path.read_text(
        encoding="utf-8") for path in paths}
    readme = (repo / "README.md").read_text(encoding="utf-8")
    (sources["README"],) = re.findall(r"```python\n(.*?)```", readme, re.S)
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert unread_exports(init, sources) == set(UNREAD_EXPORTS)


# a wall-clock figure, "0.5 s", "2.3 ms", "1-s budget", "40 µs", or a
# host; a percentage or a ratio such as "3-5x" is no figure in seconds
TIMING = re.compile(r"[0-9]\s*-?(?:s|ms|µs|us)\b|\b[Hh]osts?\b|vCPU")


def timing_citations(source: str) -> list:
    """(line, text) of each comment or string in ``source`` that cites a
    wall-clock figure or a host."""
    return [(token.start[0], token.string)
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type in (tokenize.COMMENT, tokenize.STRING)
            and TIMING.search(token.string)]


def test_timing_citations_reads_every_form():
    source = ('x = 1  # about 0.5 s\n"""took 2.3 ms"""\n"1-s budget"\n'
              '# 40 µs\n# 2-vCPU host\n# 3-5x faster, 20% less\n'
              '# 64 bits, 8 bytes\ny = "0.7ms"\nz = 5  # s\n')
    assert [line for line, _text in timing_citations(source)] == [
        1, 2, 3, 4, 5, 8]


def test_package_cites_no_timings():
    # host timings go stale with each change to the path they measure;
    # they are kept in ROADMAP.md and CHANGES.md, beside their dates
    for path in sorted(PACKAGE.glob("*.py")):
        found = timing_citations(path.read_text(encoding="utf-8"))
        assert not found, f"{path.name} cites timings: {found}"


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


def functions(source: str) -> dict:
    """Name -> ast node of each module-level function in ``source``."""
    return {node.name: node for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)}


def args_read(defs: dict, name: str, param: str = "args") -> set:
    """The attributes that the function ``name`` of ``defs`` reads off its
    parameter ``param``: itself, or through a function of ``defs`` that
    it passes ``param`` to as a positional argument."""
    read = set()
    for node in ast.walk(defs[name]):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == param):
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in defs and node.func.id != name):
            helper = node.func.id
            for arg, target in zip(node.args, defs[helper].args.args):
                if isinstance(arg, ast.Name) and arg.id == param:
                    read |= args_read(defs, helper, target.arg)
    return read


def test_args_read_follows_args_into_helpers():
    defs = functions(
        "def _report(args, f):\n    return args.format\n"
        "def _cmd_a(args):\n    _report(args, args.x)\n"
        "def _cmd_b(args):\n    return args.y, _other(1, args), _report\n"
        "def _other(n, opts):\n    return opts.z, args.w, _report(n, 2)\n"
        "def _cmd_c(args):\n    _report(None, args)\n")
    assert args_read(defs, "_cmd_a") == {"format", "x"}
    assert args_read(defs, "_cmd_b") == {"y", "z"}
    assert args_read(defs, "_cmd_c") == set()


def test_every_cli_flag_is_read():
    parser = cli.build_parser()
    (subparsers,) = [action for action in parser._actions
                     if isinstance(action, argparse._SubParsersAction)]
    defs = functions(inspect.getsource(cli))
    read_by_main = args_read(defs, "main")
    unread = set()
    for command, sub in subparsers.choices.items():
        handler = sub.get_default("handler").__name__
        read = args_read(defs, handler) | read_by_main
        unread.update((command, action.dest) for action in sub._actions
                      if action.dest != "help" and action.dest not in read)
    assert unread == INERT_FLAGS


def rendering_sites(source: str) -> set:
    """Names of the module-level functions in ``source``, or "<module>"
    for code outside them, that read ``args.format`` or name
    ``json.dumps``."""
    return {top.name if isinstance(top, ast.FunctionDef) else "<module>"
            for top in ast.parse(source).body for node in ast.walk(top)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and (node.value.id, node.attr) in {("args", "format"),
                                               ("json", "dumps")}}


def test_rendering_sites_reads_every_form():
    source = ("import json\n"
              "def _report(args):\n    return args.format, json.dumps\n"
              "def f(args):\n    def g():\n        return args.format\n"
              "def h(x):\n    print(json.dumps(x), x.format, args.k)\n"
              "DUMP = json.dumps\n")
    assert rendering_sites(source) == {"_report", "f", "h", "<module>"}


def test_only_report_renders_the_format():
    # the report commands hand their JSON fields and table text to
    # cli._report, which alone picks the one to build and print
    assert rendering_sites(inspect.getsource(cli)) == {"_report"}


def indented_dumps(source: str) -> set:
    """Names of the module-level functions in ``source``, or "<module>"
    for code outside them, that call json.dump or json.dumps, by either
    name, with an indent keyword or a ** mapping that may hold one."""
    def is_dump(func):
        name = (func.attr if isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "json"
                else func.id if isinstance(func, ast.Name) else None)
        return name in {"dump", "dumps"}

    return {top.name if isinstance(top, ast.FunctionDef) else "<module>"
            for top in ast.parse(source).body for node in ast.walk(top)
            if isinstance(node, ast.Call) and is_dump(node.func)
            and any(kw.arg in {"indent", None} for kw in node.keywords)}


def test_indented_dumps_reads_every_form():
    source = ("import json\nfrom json import dumps\n"
              "def _report(x):\n    return json.dumps(x, indent=2)\n"
              "def f(x):\n    return json.dumps(x)\n"
              "def g(x, kw):\n    return dumps(x, **kw)\n"
              "def h(x, out):\n    json.dump(x, out, indent=None)\n"
              "def i(x):\n    return x.dumps(x, indent=2)\n"
              "TEXT = json.dumps([], indent=4)\n")
    assert indented_dumps(source) == {"_report", "g", "h", "<module>"}


def test_only_report_dumps_with_an_indent():
    # with an indent, json.dumps runs its pure-Python encoder; a large
    # output is laid out by its own writer instead (labeling_to_json,
    # ordering_to_json, cli._verify_json), so only the small reports
    # that cli._report prints may take that encoder
    sites = {(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
             for name in indented_dumps(path.read_text(encoding="utf-8"))}
    assert sites == {("cli", "_report")}
