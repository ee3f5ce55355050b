"""Command-line front door: graph I/O, checks, construction, search, bounds.

Exit codes: 0 on success, 1 when a validation or size guard fails, 2 on
usage errors.  Output is deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

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


def _result_text(result: search.SearchResult, fmt: str) -> str:
    fields = result.to_dict()
    if fmt == JSON:
        return json.dumps(fields, indent=2) + "\n"
    width = max(map(len, fields))
    lines = []
    for key, value in fields.items():
        if isinstance(value, list):
            value = " ".join(map(str, value))
        lines.append(f"{key:<{width}}  {'-' if value is None else value}\n")
    return "".join(lines)


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
    order = knt.knt_ordering(args.n, args.t)
    payload = {"n": args.n, "t": args.t}
    if args.flat:
        payload["order"] = knt.flat_indices(order, args.n)
    else:
        payload["order"] = [list(coords) for coords in order]
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_induce(args) -> int:
    graph = _read_graph(args.graph)
    order = lb.ordering_from_json(_read_text(args.ordering), graph)
    result = lb.induced_labeling(graph, order)
    consecutive = result.span == graph.vertex_count
    if args.format == JSON:
        payload = {
            "graph": args.graph,
            "labels": list(result.labels),
            "span": result.span,
            "consecutive": consecutive,
        }
        _emit(json.dumps(payload, indent=2) + "\n", None)
    else:
        _emit(f"span {result.span}\n"
              f"consecutive: {str(consecutive).lower()}\n", None)
    if args.out:
        _emit(lb.labeling_to_json(result, graph_file=args.graph), args.out)
    return 0


def _cmd_verify(args) -> int:
    graph = _read_graph(args.graph)
    lab = lb.labeling_from_json(_read_text(args.labeling))
    k = args.k if args.k is not None else max(graph.diameter(), 1)
    violations = lb.check_k_radio(graph, lab, k,
                                  fail_fast=not args.all_violations)
    if args.format == JSON:
        payload = {
            "k": k,
            "valid": not violations,
            "violations": [
                {"u": w.u, "v": w.v, "required_gap": w.required_gap,
                 "actual_gap": w.actual_gap} for w in violations],
        }
        _emit(json.dumps(payload, indent=2) + "\n", None)
    elif violations:
        lines = [f"invalid for k={k}: {len(violations)} violation(s)"
                 + ("" if args.all_violations else " (first shown)")]
        lines += [f"  ({w.u}, {w.v}) gap {w.actual_gap} < required "
                  f"{w.required_gap}" for w in violations]
        _emit("\n".join(lines) + "\n", None)
    else:
        _emit(f"valid for k={k}, span {lab.span}\n", None)
    return 1 if violations else 0


def _cmd_radio_number(args) -> int:
    graph = _read_graph(args.graph)
    result = search.exact_radio_number(
        graph, prune=not args.no_prune,
        symmetry_reduction=args.symmetry_reduction, time_budget=args.budget)
    _emit(_result_text(result, args.format), None)
    return 0


def _cmd_search_consecutive(args) -> int:
    graph = _read_graph(args.graph)
    result = search.find_consecutive_ordering(graph, time_budget=args.budget)
    _emit(_result_text(result, args.format), None)
    return 0


def _cmd_threshold(args) -> int:
    ts = args.t or []
    if args.graph:
        report = bounds.threshold_report(_read_graph(args.graph), ts)
    else:
        report = bounds.threshold_report_params(args.n, args.diam, ts)
    if args.format == JSON:
        _emit(json.dumps(report.to_dict(), indent=2) + "\n", None)
        return 0
    lines = [f"n {report.n}  diam {report.diam}  s {report.s}"
             + (f"  closed-form {report.closed_form_s}"
                if report.closed_form_s is not None else "")]
    if report.verdicts:
        lines.append("t  verdict")
        lines += [f"{t}  {v}" for t, v in report.verdicts]
    _emit("\n".join(lines) + "\n", None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radiolabel",
        description="Radio labelings of graphs: checks, consecutive "
                    "orderings of powers of complete graphs, exhaustive "
                    "search, and impossibility thresholds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("builtin", help="emit a named graph as an edge list")
    p.add_argument("name", choices=sorted(graphs.BUILDERS))
    p.add_argument("--n", type=int, default=3, help="size parameter")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(handler=_cmd_builtin)

    p = sub.add_parser("product", help="Cartesian product of two graphs")
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_product)

    p = sub.add_parser("power", help="Cartesian power of a graph")
    p.add_argument("graph")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_power)

    p = sub.add_parser("order-knt",
                       help="consecutive-labeling ordering of K_n^t")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--flat", action="store_true",
                   help="emit flat vertex indices instead of tuples")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_order_knt)

    p = sub.add_parser("induce", help="labeling induced by an ordering")
    p.add_argument("graph")
    p.add_argument("ordering", nargs="?", default="-",
                   help="ordering JSON (default stdin)")
    p.add_argument("--out", help="write the labeling JSON here")
    _format_flag(p)
    p.set_defaults(handler=_cmd_induce)

    p = sub.add_parser("verify", help="check a labeling file")
    p.add_argument("graph")
    p.add_argument("labeling", nargs="?", default="-",
                   help="labeling JSON (default stdin)")
    p.add_argument("--k", type=int, help="level k (default: diameter)")
    p.add_argument("--all-violations", action="store_true",
                   help="report every violating pair, not just the first")
    _format_flag(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("radio-number", help="exact radio number (small |V|)")
    p.add_argument("graph")
    p.add_argument("--no-prune", action="store_true",
                   help="plain enumeration of all orderings")
    p.add_argument("--symmetry-reduction", action="store_true",
                   help="skip starts proved to share an automorphism orbit "
                        "with a smaller start (same span, witness and "
                        "labels; fewer orderings examined)")
    _budget_flag(p)
    _format_flag(p)
    p.set_defaults(handler=_cmd_radio_number)

    p = sub.add_parser("search-consecutive",
                       help="backtracking search for a consecutive witness")
    p.add_argument("graph")
    _budget_flag(p)
    _format_flag(p)
    p.set_defaults(handler=_cmd_search_consecutive)

    p = sub.add_parser("threshold",
                       help="impossibility threshold s and power verdicts")
    p.add_argument("--graph", help="base graph file (diameter is computed)")
    p.add_argument("--n", type=int, help="base vertex count")
    p.add_argument("--diam", type=int, help="base diameter")
    p.add_argument("--t", type=int, action="append",
                   help="power to classify (repeatable)")
    _format_flag(p)
    p.set_defaults(handler=_cmd_threshold)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # --graph alone, or both --n and --diam without it
    if args.command == "threshold" and (
            [args.n, args.diam].count(None) != (2 if args.graph else 0)):
        parser.error("give either --graph or both --n and --diam")
    try:
        return args.handler(args)
    except (RadioLabelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
