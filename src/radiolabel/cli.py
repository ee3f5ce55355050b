"""Command-line front door: graph I/O, checks, construction, search, bounds.

Exit codes: 0 on success, 1 when a validation or size guard fails, 2 on
usage errors.  Output is deterministic for fixed inputs and flags.

`main` builds only the parser of the subcommand it is given, and the
full parser only to print an error that the full parser alone prints:
no command or an unknown one, a leftover token, or the threshold rule.
Its help and usage errors read byte for byte as the full parser's.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import Callable, Optional, Sequence

from . import bounds, graphs, knt, labeling as lb, search
from .errors import RadioLabelError

TABLE = "table"
JSON = "json"


def _read_graph(path: str) -> graphs.Graph:
    return graphs.read_edge_list(sys.stdin if path == "-" else path)


def _read_text(path: str) -> str:
    return lb.read_text(sys.stdin if path == "-" else path)


def _emit(text: str, out: Optional[str]) -> None:
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=(TABLE, JSON), default=TABLE,
                        help="output style (default: table)")


def _budget_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--budget", type=float,
                        default=search.DEFAULT_TIME_BUDGET,
                        help="time budget in seconds (default: "
                             f"{search.DEFAULT_TIME_BUDGET:g})")


def _report(args, fields: Optional[Callable[[], dict]],
            table: Callable[[], str],
            json_text: Optional[Callable[[], str]] = None) -> None:
    """Print a command's report in its --format: json.dumps of
    ``fields()`` with indent 2, plus a newline, or ``table()``.  A
    command that lays out that JSON text itself passes ``json_text()``
    in place of ``fields``.  Only the rendering printed is built."""
    if args.format != JSON:
        text = table()
    elif json_text is not None:
        text = json_text()
    else:
        text = json.dumps(fields(), indent=2) + "\n"
    sys.stdout.write(text)


def _search_table(result: search.SearchResult) -> str:
    fields = result.to_dict()
    width = max(map(len, fields))
    lines = []
    for key, value in fields.items():
        if isinstance(value, list):
            value = " ".join(map(str, value))
        lines.append(f"{key:<{width}}  {'-' if value is None else value}\n")
    return "".join(lines)


def _verify_table(k: int, violations: list, span: int,
                  all_violations: bool) -> str:
    if not violations:
        return f"valid for k={k}, span {span}\n"
    lines = [f"invalid for k={k}: {len(violations)} violation(s)"
             + ("" if all_violations else " (first shown)")]
    lines += [f"  ({w.u}, {w.v}) gap {w.actual_gap} < required "
              f"{w.required_gap}" for w in violations]
    return "\n".join(lines) + "\n"


# one violation as json.dumps(w._asdict(), indent=2) writes it in the
# report's list
_VIOLATION_JSON = ('\n    {\n      "u": %d,\n      "v": %d,\n'
                   '      "required_gap": %d,\n      "actual_gap": %d\n    }')


def _verify_json(k: int, violations: list) -> str:
    """verify's JSON report, as json.dumps writes {"k": k, "valid": ...,
    "violations": [w._asdict() ...]} with indent 2, plus a newline: the
    violations, all exact ints, in one format call."""
    listed = ("[" + ",".join([_VIOLATION_JSON] * len(violations))
              % tuple(itertools.chain.from_iterable(violations)) + "\n  ]"
              if violations else "[]")
    return ('{\n  "k": %d,\n  "valid": %s,\n  "violations": %s\n}\n'
            % (k, "false" if violations else "true", listed))


def _threshold_table(report: bounds.ThresholdReport) -> str:
    lines = [f"n {report.n}  diam {report.diam}  s {report.s}"
             + (f"  closed-form {report.closed_form_s}"
                if report.closed_form_s is not None else "")]
    if report.verdicts:
        lines.append("t  verdict")
        lines += [f"{t}  {v}" for t, v in report.verdicts]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_builtin(args) -> int:
    builder = graphs.BUILDERS[args.name]
    graph = builder() if args.name == "petersen" else builder(args.n)
    _emit(graphs.format_edge_list(graph), args.out)
    return 0


def _cmd_product(args) -> int:
    g = _read_graph(args.graph_a)
    h = _read_graph(args.graph_b)
    product = graphs.cartesian_product(g, h)
    _emit(graphs.format_edge_list(product), args.out)
    return 0


def _cmd_power(args) -> int:
    g = _read_graph(args.graph)
    power = graphs.cartesian_power(g, args.t)
    _emit(graphs.format_edge_list(power), args.out)
    return 0


def _cmd_order_knt(args) -> int:
    order = knt.knt_ordering_matrix(args.n, args.t)
    if args.flat:
        order = knt.flat_indices(order, args.n)
    _emit(lb.ordering_to_json(order, args.n, args.t), args.out)
    return 0


def _cmd_induce(args) -> int:
    graph = _read_graph(args.graph)
    order = lb.ordering_from_json(_read_text(args.ordering), graph)
    result = lb.induced_labeling(graph, order)
    consecutive = result.span == graph.vertex_count
    _report(args, lambda: {"graph": args.graph, "labels": list(result.labels),
                           "span": result.span, "consecutive": consecutive},
            lambda: f"span {result.span}\n"
                    f"consecutive: {str(consecutive).lower()}\n")
    if args.out:
        _emit(lb.labeling_to_json(result, graph_file=args.graph), args.out)
    return 0


def _cmd_verify(args) -> int:
    graph = _read_graph(args.graph)
    lab = lb.labeling_from_json(_read_text(args.labeling))
    k = args.k if args.k is not None else max(graph.diameter(), 1)
    violations = lb.check_k_radio(graph, lab, k,
                                  fail_fast=not args.all_violations)
    _report(args, None,
            lambda: _verify_table(k, violations, lab.span,
                                  args.all_violations),
            lambda: _verify_json(k, violations))
    return 1 if violations else 0


def _cmd_radio_number(args) -> int:
    graph = _read_graph(args.graph)
    result = search.exact_radio_number(graph, prune=not args.no_prune,
                                       time_budget=args.budget)
    _report(args, result.to_dict, lambda: _search_table(result))
    return 0


def _cmd_search_consecutive(args) -> int:
    graph = _read_graph(args.graph)
    result = search.find_consecutive_ordering(graph, time_budget=args.budget)
    _report(args, result.to_dict, lambda: _search_table(result))
    return 0


def _cmd_threshold(args) -> int:
    ts = args.t or []
    if args.graph:
        report = bounds.threshold_report(_read_graph(args.graph), ts)
    else:
        report = bounds.threshold_report_params(args.n, args.diam, ts)
    _report(args, report.to_dict, lambda: _threshold_table(report))
    return 0


# ---------------------------------------------------------------------------
# subcommand arguments
# ---------------------------------------------------------------------------

def _builtin_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("name", choices=sorted(graphs.BUILDERS))
    p.add_argument("--n", type=int, default=3, help="size parameter")
    p.add_argument("--out", help="output file (default stdout)")


def _product_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    p.add_argument("--out")


def _power_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out")


def _order_knt_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--flat", action="store_true",
                   help="emit flat vertex indices instead of tuples")
    p.add_argument("--out")


def _induce_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph")
    p.add_argument("ordering", nargs="?", default="-",
                   help="ordering JSON (default stdin)")
    p.add_argument("--out", help="write the labeling JSON here")
    _format_flag(p)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph")
    p.add_argument("labeling", nargs="?", default="-",
                   help="labeling JSON (default stdin)")
    p.add_argument("--k", type=int, help="level k (default: diameter)")
    p.add_argument("--all-violations", action="store_true",
                   help="report every violating pair, not just the first")
    _format_flag(p)


def _radio_number_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph")
    p.add_argument("--no-prune", action="store_true",
                   help="plain enumeration of all orderings")
    p.add_argument("--symmetry-reduction", action="store_true",
                   help="no effect: twin starts are always skipped")
    _budget_flag(p)
    _format_flag(p)


def _search_consecutive_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph")
    _budget_flag(p)
    _format_flag(p)


def _threshold_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", help="base graph file (diameter is computed)")
    p.add_argument("--n", type=int, help="base vertex count")
    p.add_argument("--diam", type=int, help="base diameter")
    p.add_argument("--t", type=int, action="append",
                   help="power to classify (repeatable)")
    _format_flag(p)


# name -> (help line, adds its arguments, handler), in the usage line's order
COMMANDS = {
    "builtin": ("emit a named graph as an edge list",
                _builtin_args, _cmd_builtin),
    "product": ("Cartesian product of two graphs",
                _product_args, _cmd_product),
    "power": ("Cartesian power of a graph", _power_args, _cmd_power),
    "order-knt": ("consecutive-labeling ordering of K_n^t",
                  _order_knt_args, _cmd_order_knt),
    "induce": ("labeling induced by an ordering",
               _induce_args, _cmd_induce),
    "verify": ("check a labeling file", _verify_args, _cmd_verify),
    "radio-number": ("exact radio number (small |V|)",
                     _radio_number_args, _cmd_radio_number),
    "search-consecutive": ("backtracking search for a consecutive witness",
                           _search_consecutive_args,
                           _cmd_search_consecutive),
    "threshold": ("impossibility threshold s and power verdicts",
                  _threshold_args, _cmd_threshold),
}


def _command_parser(name: str, parser=None) -> argparse.ArgumentParser:
    """``name``'s arguments and handler, added to ``parser`` or to a
    parser of its own, whose prog is the full parser's subparser's."""
    if parser is None:
        parser = argparse.ArgumentParser(prog=f"radiolabel {name}")
    _, add_arguments, handler = COMMANDS[name]
    add_arguments(parser)
    parser.set_defaults(handler=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="radiolabel",
        description="Radio labelings of graphs: checks, consecutive "
                    "orderings of powers of complete graphs, exhaustive "
                    "search, and impossibility thresholds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in COMMANDS.items():
        _command_parser(name, sub.add_parser(name, help=help_line))
    return parser


def _threshold_rule_holds(args) -> bool:
    # --graph alone, or both --n and --diam without it
    return args.command != "threshold" or (
        [args.n, args.diam].count(None) == (2 if args.graph else 0))


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """``argv`` parsed as the full parser parses it; on a usage error,
    exit 2 with the full parser's message."""
    name = argv[0] if argv else None
    if name in COMMANDS:
        args, extras = _command_parser(name).parse_known_args(
            argv[1:], argparse.Namespace(command=name))
        if not extras and _threshold_rule_holds(args):
            return args
    # no command, an unknown one, a leftover token or the threshold rule
    # broken: only the full parser prints these errors
    parser = build_parser()
    args = parser.parse_args(argv)
    if not _threshold_rule_holds(args):
        parser.error("give either --graph or both --n and --diam")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.handler(args)
    except (RadioLabelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
