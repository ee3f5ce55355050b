import argparse
import contextlib
import io
import json
import os
import random
import sys
import tempfile

import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from conftest import complete_bipartite, counted_edge_list
from radiolabel import (cycle, flat_indices, format_edge_list, knt_ordering,
                        parse_edge_list)
from radiolabel import cli
from radiolabel.cli import main
from radiolabel.labeling import Violation, ordering_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    target = tmp_path / name
    target.write_text(text)
    return str(target)


def test_builtin_petersen(capsys):
    code, out, err = run(capsys, "builtin", "petersen")
    assert code == 0
    g = parse_edge_list(out)
    assert g.vertex_count == 10 and g.edge_count == 15


def test_builtin_to_file_round_trip(capsys, tmp_path):
    target = tmp_path / "c5.txt"
    code, out, err = run(capsys, "builtin", "cycle", "--n", "5",
                         "--out", str(target))
    assert code == 0 and out == ""
    g = parse_edge_list(target.read_text())
    assert g.vertex_count == 5 and g.edge_count == 5


def test_product_and_power(capsys, tmp_path):
    k3 = write(tmp_path, "k3.txt", "3 3\n0 1\n0 2\n1 2\n")
    p3 = write(tmp_path, "p3.txt", "3 2\n0 1\n1 2\n")
    code, out, _ = run(capsys, "product", k3, p3)
    assert code == 0
    assert parse_edge_list(out).edge_count == 15
    code, out, _ = run(capsys, "power", k3, "--t", "2")
    assert code == 0
    assert parse_edge_list(out).edge_count == 18


def test_order_knt_shapes(capsys):
    code, out, _ = run(capsys, "order-knt", "--n", "3", "--t", "2")
    assert code == 0
    data = json.loads(out)
    assert data["order"][:4] == [[0, 0], [1, 1], [2, 2], [0, 1]]
    code, out, _ = run(capsys, "order-knt", "--n", "3", "--t", "2", "--flat")
    data = json.loads(out)
    assert data["order"] == [0, 4, 8, 1, 5, 6, 2, 3, 7]


@pytest.mark.parametrize("n,t", [(3, 1), (3, 2), (4, 3), (5, 1), (5, 5)])
@pytest.mark.parametrize("flat", [False, True])
def test_order_knt_writes_what_json_dumps_writes(capsys, n, t, flat):
    order = knt_ordering(n, t)
    payload = {"n": n, "t": t,
               "order": (flat_indices(order, n) if flat
                         else [list(coords) for coords in order])}
    argv = ["order-knt", "--n", str(n), "--t", str(t)] + ["--flat"] * flat
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("t, order", [(1, [0]), (1, [(0,)]), (2, [(0, 0)])])
def test_ordering_json_on_one_vertex(t, order):
    # order-knt refuses n < 3, but the writer's layout holds for any
    # non-empty ordering: one flat index, or one tuple of t coordinates
    entries = [x if isinstance(x, int) else list(x) for x in order]
    assert ordering_to_json(order, 1, t) \
        == json.dumps({"n": 1, "t": t, "order": entries}, indent=2) + "\n"


def test_induce_verify_pipeline(capsys, tmp_path):
    k3 = write(tmp_path, "k3.txt", "3 3\n0 1\n0 2\n1 2\n")
    code, power_out, _ = run(capsys, "power", k3, "--t", "2")
    power_file = write(tmp_path, "k3p2.txt", power_out)
    code, order_out, _ = run(capsys, "order-knt", "--n", "3", "--t", "2")
    order_file = write(tmp_path, "order.json", order_out)
    labeling_file = str(tmp_path / "labeling.json")
    code, out, _ = run(capsys, "induce", power_file, order_file,
                       "--out", labeling_file)
    assert code == 0
    assert "span 9" in out and "consecutive: true" in out
    code, out, _ = run(capsys, "verify", power_file, labeling_file)
    assert code == 0
    assert out.startswith("valid")


def test_induce_json_format(capsys, tmp_path):
    p3 = write(tmp_path, "p3.txt", "3 2\n0 1\n1 2\n")
    order_file = write(tmp_path, "order.json", '{"order": [0, 2, 1]}\n')
    code, out, _ = run(capsys, "induce", p3, order_file, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["labels"] == [1, 4, 2]
    assert data["span"] == 4
    assert data["consecutive"] is False


def test_verify_invalid_exits_one(capsys, tmp_path):
    p3 = write(tmp_path, "p3.txt", "3 2\n0 1\n1 2\n")
    bad = write(tmp_path, "bad.json", '{"labels": [1, 2, 3], "span": 3}\n')
    code, out, _ = run(capsys, "verify", p3, bad)
    assert code == 1
    assert "invalid" in out
    code, out, _ = run(capsys, "verify", p3, bad, "--all-violations")
    assert out.count("required") == 2
    code, out, _ = run(capsys, "verify", p3, bad, "--format", "json")
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_verify_json_lists_violations_byte_for_byte(capsys, tmp_path):
    # sorted by label the vertices are 2, 1, 0, so both violating pairs
    # are found higher vertex first; each is reported as u < v, with the
    # keys in field order
    p3 = write(tmp_path, "p3.txt", "3 2\n0 1\n1 2\n")
    bad = write(tmp_path, "bad.json", '{"labels": [3, 2, 1]}\n')
    code, out, _ = run(capsys, "verify", p3, bad, "--format", "json",
                       "--all-violations")
    assert code == 1
    assert out == """\
{
  "k": 2,
  "valid": false,
  "violations": [
    {
      "u": 0,
      "v": 1,
      "required_gap": 2,
      "actual_gap": 1
    },
    {
      "u": 1,
      "v": 2,
      "required_gap": 2,
      "actual_gap": 1
    }
  ]
}
"""


# ints past 64 bits too, which json.dumps writes in full
INTS = st.integers() | st.integers(-10**40, 10**40)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(INTS, st.lists(st.builds(Violation, INTS, INTS, INTS, INTS),
                      max_size=40))
@example(2, [])
@example(3, [Violation(0, 1, 3, 1)])
@example(10**30, [Violation(u, u + 1, 10**30, -u) for u in range(50)])
def test_verify_json_writer_matches_json_dumps(k, violations):
    fields = {"k": k, "valid": not violations,
              "violations": [w._asdict() for w in violations]}
    assert cli._verify_json(k, violations) \
        == json.dumps(fields, indent=2) + "\n"


def test_verify_with_k_flag(capsys, tmp_path):
    p3 = write(tmp_path, "p3.txt", "3 2\n0 1\n1 2\n")
    lab = write(tmp_path, "lab.json", '{"labels": [1, 2, 3]}\n')
    code, out, _ = run(capsys, "verify", p3, lab, "--k", "1")
    assert code == 0 and out.startswith("valid")


def test_verify_k1_past_the_distance_cache(capsys, tmp_path):
    # a colouring of P_5000 is checked edge by edge, with no all-pairs
    # table, which 5000 vertices would exceed
    code, out, _ = run(capsys, "builtin", "path", "--n", "5000")
    p = write(tmp_path, "p5000.txt", out)
    labels = [1 + v % 2 for v in range(5000)]
    good = write(tmp_path, "good.json", json.dumps({"labels": labels}))
    assert run(capsys, "verify", p, good, "--k", "1") == \
        (0, "valid for k=1, span 2\n", "")
    labels[4999] = labels[4998]
    bad = write(tmp_path, "bad.json", json.dumps({"labels": labels}))
    assert run(capsys, "verify", p, bad, "--k", "1", "--all-violations") \
        == (1, "invalid for k=1: 1 violation(s)\n"
               "  (4998, 4999) gap 0 < required 1\n", "")


def test_radio_number_table_and_json(capsys, tmp_path):
    c4 = write(tmp_path, "c4.txt", "4 4\n0 1\n0 3\n1 2\n2 3\n")
    code, out, _ = run(capsys, "radio-number", c4)
    assert code == 0
    assert "span" in out and "5" in out
    code, out, _ = run(capsys, "radio-number", c4, "--format", "json")
    data = json.loads(out)
    assert data["span"] == 5
    assert data["ordering"] == [0, 2, 1, 3]
    code, out2, _ = run(capsys, "radio-number", c4, "--format", "json")
    assert out == out2  # byte-for-byte deterministic
    code, out3, _ = run(capsys, "radio-number", c4, "--format", "json",
                        "--no-prune")
    assert json.loads(out3)["span"] == 5


def test_radio_number_symmetry_flag_changes_nothing(capsys, tmp_path):
    # twin starts are always skipped; the flag is accepted and ignored.
    # K_{2,6} has twins on both sides, C_9 none
    for graph in (complete_bipartite(2, 6), cycle(9)):
        name = write(tmp_path, "g.txt", format_edge_list(graph))
        plain = run(capsys, "radio-number", name)
        assert plain[0] == 0 and "exact" in plain[1]
        assert run(capsys, "radio-number", name,
                   "--symmetry-reduction") == plain


def test_search_result_tables_are_pinned(capsys, tmp_path):
    c4 = write(tmp_path, "c4.txt", "4 4\n0 1\n0 3\n1 2\n2 3\n")
    assert run(capsys, "radio-number", c4) == (0, (
        "status              exact\n"
        "span                5\n"
        "ordering            0 2 1 3\n"
        "labels              1 4 2 5\n"
        "orderings_examined  1\n"), "")
    assert run(capsys, "search-consecutive", c4) == (0, (
        "status              exhausted-no-witness\n"
        "span                -\n"
        "ordering            -\n"
        "labels              -\n"
        "orderings_examined  0\n"), "")


def test_radio_number_refuses_only_past_the_distance_cache(capsys,
                                                         tmp_path):
    # ten vertices settle at once; only a flat graph past the 4096-vertex
    # distance cache is refused, with one error line before any search
    code, out, _ = run(capsys, "builtin", "petersen")
    pet = write(tmp_path, "pet.txt", out)
    code, out, err = run(capsys, "radio-number", pet, "--format", "json")
    assert (code, err) == (0, "")
    result = json.loads(out)
    assert (result["status"], result["span"]) == ("exact", 10)
    code, out, _ = run(capsys, "builtin", "path", "--n", "4097")
    big = write(tmp_path, "p4097.txt", out)
    code, out, err = run(capsys, "radio-number", big)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_search_consecutive(capsys, tmp_path):
    code, out, _ = run(capsys, "builtin", "petersen")
    pet = write(tmp_path, "pet.txt", out)
    code, out, _ = run(capsys, "search-consecutive", pet, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "witness-found"
    assert data["span"] == 10
    c4 = write(tmp_path, "c4.txt", "4 4\n0 1\n0 3\n1 2\n2 3\n")
    code, out, _ = run(capsys, "search-consecutive", c4)
    assert code == 0
    assert "exhausted-no-witness" in out


def test_search_consecutive_finds_a_k5_power_witness(capsys, tmp_path):
    # K_5^4 has 625 vertices; the witness search settles it in about 0.15 s
    # (about 12 s when each candidate was rescored by a scan of every
    # vertex)
    k5 = str(tmp_path / "k5.txt")
    power = str(tmp_path / "k5p4.txt")
    for argv in (("builtin", "complete", "--n", "5", "--out", k5),
                 ("power", k5, "--t", "4", "--out", power)):
        assert run(capsys, *argv)[0] == 0, argv
    code, out, err = run(capsys, "search-consecutive", power,
                         "--budget", "10", "--format", "json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert (data["status"], data["span"]) == ("witness-found", 625)
    labels = write(tmp_path, "labels.json",
                   json.dumps({"labels": data["labels"]}))
    assert run(capsys, "verify", power, labels) \
        == (0, "valid for k=4, span 625\n", "")


def test_threshold_params(capsys):
    code, out, _ = run(capsys, "threshold", "--n", "3", "--diam", "1",
                       "--t", "5")
    assert code == 0
    assert "s 5" in out
    assert "no-consecutive" in out
    code, out, _ = run(capsys, "threshold", "--n", "10", "--diam", "2",
                       "--format", "json")
    data = json.loads(out)
    assert data["s"] == 71
    assert data["closed_form_s"] is None


def test_threshold_from_graph(capsys, tmp_path):
    k4 = write(tmp_path, "k4.txt",
               "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "threshold", "--graph", k4,
                       "--t", "3", "--t", "7", "--t", "11")
    assert code == 0
    assert "has-consecutive" in out
    assert "unknown" in out
    assert "no-consecutive" in out


def test_threshold_usage_errors(capsys, tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["threshold"])
    assert info.value.code == 2
    k4 = write(tmp_path, "k4.txt", "2 1\n0 1\n")
    with pytest.raises(SystemExit) as info:
        main(["threshold", "--graph", k4, "--n", "2"])
    assert info.value.code == 2
    capsys.readouterr()


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as info:
        main(["builtin", "petersen", "--frobnicate"])
    assert info.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# main builds one subcommand's parser; what it parses and prints is the full
# parser's
# ---------------------------------------------------------------------------

# these parse, in main's parser and in the full one
PARSED_CASES = (["verify", "g", "l", "--all"],  # an abbreviated flag
                ["verify", "g", "--", "l"],
                ["induce", "g", "--out=o.json"])
USAGE_CASES = (
    [[], ["-h"]] + [[command, "-h"] for command in cli.COMMANDS]
    + [["verify"],  # a missing positional
       ["verify", "g.txt", "--bogus"],
       ["induce", "g.txt", "--format", "xml"],
       ["verify", "g.txt", "--k", "x"],
       ["nope"], ["verif"],  # an unknown command, and a prefix of one
       ["-h", "verify"], ["--bogus", "verify"],
       ["threshold", "--n", "3"],  # the group error main raises
       ["builtin", "complete", "--n", "4", "extra"],  # a stray positional
       ["builtin", "petersen", "--bogus", "-h"],
       ["threshold", "--graph", "g", "--n", "2"]]
    + list(PARSED_CASES))


def full_parse(argv):
    """``argv`` parsed by the parser with every subcommand, and then
    checked by main's threshold rule."""
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    if args.command == "threshold" and (
            [args.n, args.diam].count(None) != (2 if args.graph else 0)):
        parser.error("give either --graph or both --n and --diam")
    return args


def parse_outcome(parse, argv) -> tuple:
    """("parsed", the namespace ``parse(argv)`` returns, as a dict), or,
    if it exits, (exit code, stdout, stderr).  Floats in the dict are
    written out, since a --budget of nan is not equal to itself."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    return "parsed", {key: repr(value) if isinstance(value, float) else value
                      for key, value in vars(args).items()}


@pytest.mark.parametrize("argv", USAGE_CASES, ids=" ".join)
def test_usage_output_is_the_full_parsers(monkeypatch, argv):
    # help, usage lines and errors byte for byte, and the same namespace
    # when both parse
    monkeypatch.setenv("COLUMNS", "80")
    mine = parse_outcome(cli._parse, argv)
    assert mine == parse_outcome(full_parse, argv)
    assert mine[0] == ("parsed" if argv in PARSED_CASES
                       else 0 if "-h" in argv else 2)


def test_errors_with_no_command_name_the_command_argument():
    assert parse_outcome(cli._parse, [])[2].endswith(
        "radiolabel: error: the following arguments are required: "
        "command\n")
    assert "radiolabel: error: argument command: invalid choice: 'verif'" \
        in parse_outcome(cli._parse, ["verif"])[2]


def subparsers(parser) -> dict:
    """Subcommand name -> its parser."""
    (action,) = [action for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction)]
    return action.choices


def action_fields(parser) -> list:
    return [(type(a), a.option_strings, a.dest, a.default, a.type, a.choices,
             a.nargs, a.const, a.required, a.help, a.metavar)
            for a in parser._actions]


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_one_command_parser_has_the_full_parsers_arguments(command):
    alone = cli._command_parser(command)
    full = subparsers(cli.build_parser())[command]
    assert alone.prog == full.prog == f"radiolabel {command}"
    assert action_fields(alone) == action_fields(full)
    assert alone._defaults == full._defaults


def test_main_builds_one_parser_for_a_named_command(monkeypatch, capsys):
    # one command's parser costs about 0.2 ms a call, the full parser's
    # ten about 1.2 ms; help, an unknown command and a stray token are
    # reported by the full parser
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: built.append(
                            kwargs["prog"]) or init(self, *args, **kwargs))
    assert main(["builtin", "petersen"]) == 0
    assert built == ["radiolabel builtin"]
    full = ["radiolabel"] + [f"radiolabel {name}" for name in cli.COMMANDS]
    for argv, first in ((["-h"], []), (["nope"], []),
                        (["builtin", "petersen", "extra"],
                         ["radiolabel builtin"])):
        built.clear()
        with pytest.raises(SystemExit):
            main(argv)
        assert built == first + full, argv
    capsys.readouterr()


def test_disconnected_file_reports_error(capsys, tmp_path):
    bad = write(tmp_path, "bad.txt", "4 2\n0 1\n2 3\n")
    code, out, err = run(capsys, "radio-number", bad)
    assert code == 1
    assert "disconnected" in err


def test_missing_file_reports_error(capsys):
    code, out, err = run(capsys, "radio-number", "/nonexistent/graph.txt")
    assert code == 1
    assert "error" in err


def test_bad_size_cap_is_an_error_line(capsys, monkeypatch, tmp_path):
    k3 = write(tmp_path, "k3.txt", "3 3\n0 1\n0 2\n1 2\n")
    for bad in ("abc", "0", "-5", "1.5"):
        monkeypatch.setenv("RADIOLABEL_SIZE_CAP", bad)
        for argv in (("order-knt", "--n", "3", "--t", "2"),
                     ("power", k3, "--t", "2"),
                     ("builtin", "complete", "--n", "3")):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "", (bad, argv)
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "RADIOLABEL_SIZE_CAP" in err


def test_exponent_past_sys_maxsize_is_an_error_line(capsys, monkeypatch,
                                                   tmp_path):
    monkeypatch.delenv("RADIOLABEL_SIZE_CAP", raising=False)
    p3 = write(tmp_path, "p3.txt", "3 2\n0 1\n1 2\n")
    huge = str(10 ** 20)
    for argv, size in ((("power", p3, "--t", huge), f"3^{huge}"),
                       (("order-knt", "--n", huge, "--t", huge),
                        f"{huge}^{huge}")):
        assert run(capsys, *argv) == (
            1, "", f"error: {size} vertices, above the cap of 1000000\n")


def test_non_integer_json_numbers_rejected(capsys, tmp_path):
    c5 = write(tmp_path, "c5.txt", "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    good = write(tmp_path, "good.json", '{"labels": [1, 3, 5, 2, 4]}')
    assert run(capsys, "verify", c5, good)[0] == 0
    for labels in ("[1.9, 3, 5, 2, 4]", "[true, 3, 5, 2, 4]"):
        bad = write(tmp_path, "bad.json", '{"labels": %s}' % labels)
        code, out, err = run(capsys, "verify", c5, bad)
        assert code == 1 and out == "", labels
        assert err.startswith("error: ") and "integers" in err
    order = write(tmp_path, "order.json", '{"order": [0.7, 1, 2, 3, 4]}')
    code, out, err = run(capsys, "induce", c5, order)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "integers" in err


def test_bad_search_budget_is_an_error_line(capsys, tmp_path):
    c4 = write(tmp_path, "c4.txt", "4 4\n0 1\n1 2\n2 3\n3 0\n")
    for command in ("search-consecutive", "radio-number"):
        for budget in ("nan", "inf", "-1"):
            code, out, err = run(capsys, command, c4, "--budget", budget)
            assert code == 1 and out == "", (command, budget)
            assert err.startswith("error: time budget"), (command, budget)
            assert err.count("\n") == 1, (command, budget)


def test_radio_number_budget_prints_an_upper_bound(capsys, tmp_path):
    # the 16-path does not settle even in 3 s; rn(P_16) is 114 with labels
    # from 1 (Liu and Zhu)
    p16 = write(tmp_path, "p16.txt", counted_edge_list(
        16, [(v, v + 1) for v in range(15)]))
    code, out, err = run(capsys, "radio-number", p16, "--budget", "0.2",
                         "--format", "json")
    assert code == 0 and err == ""
    result = json.loads(out)
    assert result["status"] == "timeout"
    assert result["span"] >= 114
    assert max(result["labels"]) == result["span"]


P3 = "3 2\n0 1\n1 2\n"


@pytest.mark.parametrize("command, text, message", [
    ("verify", b"[1, 2, 3]", "must be an object"),
    ("induce", b"[0, 1, 2]", "must be an object"),
    ("verify", b'{"labels": [1, 2, 3', "malformed"),
    ("induce", b'{"order": [0, 1', "malformed"),
    ("induce", b'{"order": [[], [], []]}', "coordinate tuples"),
    ("verify", b"\xff\xfe", "not UTF-8"),
    ("verify", b'{"labels": [3, 1, 2], "span": 10.0}',
     'error: "span" must be an integer\n'),
    ("induce", b'{"order": [[0], [1], [2]], "n": 3.5}',
     'error: "n" must be an integer\n'),
    # 4000-digit integers, within int()'s limit, quoted cut short
    ("verify", b'{"labels": [3, 1, 2], "span": ' + b"9" * 4000 + b"}",
     "error: declared span " + "9" * 40 + "... (4000 digits) != max label "
     "3\n"),
    ("induce", b'{"order": [[0], [1], [2]], "n": ' + b"9" * 4000 + b"}",
     "error: " + "9" * 40 + "... (4000 digits)^1 coordinates do not index 3 "
     "vertices\n"),
    ("induce", b'{"order": [[0], [1], [' + b"9" * 4000 + b']], "n": 3}',
     "error: coordinate " + "9" * 40 + "... (4000 digits) not in [0, 3)\n"),
], ids=["labels-array", "order-array", "labels-truncated", "order-truncated",
        "empty-coordinates", "labels-not-utf8", "span-float", "n-float",
        "long-span",
        "long-base", "long-coordinate"])
def test_malformed_json_is_an_error_line(capsys, tmp_path, command, text,
                                         message):
    graph = write(tmp_path, "p3.txt", P3)
    target = tmp_path / "in.json"
    target.write_bytes(text)
    code, out, err = run(capsys, command, graph, str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("text, message", [
    (b"\xff\xfe", "not UTF-8"),
    (b"a b\n", "line 1: expected 'n m', got 'a b'"),
    (b"3 2\n0 1\n1 x\n", "line 3: expected 'u v', got '1 x'"),
    # lines of two digit tokens, one past int()'s 4300-digit limit
    (b"3 2\n0 1\n1 " + b"9" * 5000 + b"\n", "line 3: expected 'u v'"),
    (b"9" * 5000 + b" 2\n0 1\n1 2\n", "line 1: expected 'n m'"),
    (b"3 3\n0 1\n1 2\n0 1\n", "line 4: duplicate edge 0 1"),
    (b"# c\n3 3\n0 1\n1 2\n1 0\n", "line 5: duplicate edge 1 0"),
    (b"200000 0\n", "needed to connect 200000 vertices"),
    (b"# only a comment\n\n", "error: empty edge-list input\n"),
    (b"3 3\n0 1\n1 2\n", "error: header declares 3 edges, found 2\n"),
    (b"4 3\n0 1\n0 2\n1 2\n",
     "error: graph is disconnected (3 of 4 vertices reachable)\n"),
    # 4000-digit integers, within int()'s limit, quoted cut short
    (b"9" * 4000 + b" 2\n0 1\n1 2\n",
     "needed to connect " + "9" * 40 + "... (4000 digits) vertices\n"),
    (b"3 " + b"9" * 4000 + b"\n0 1\n1 2\n",
     "error: header declares " + "9" * 40 + "... (4000 digits) edges, "
     "found 2\n"),
    (b"3 2\n0 1\n1 " + b"9" * 4000 + b"\n",
     "error: edge (1, " + "9" * 40 + "... (4000 digits)) outside 0..2\n"),
], ids=["not-utf8", "header-token", "edge-token", "edge-digit-limit",
        "header-digit-limit", "duplicate-edge",
        "reversed-duplicate-edge", "too-few-edges", "empty", "edge-count",
        "disconnected", "long-vertex-count", "long-edge-count",
        "long-endpoint"])
def test_malformed_edge_list_is_an_error_line(capsys, tmp_path, text,
                                              message):
    target = tmp_path / "g.txt"
    target.write_bytes(text)
    code, out, err = run(capsys, "power", str(target), "--t", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    # a bad line or integer is quoted cut short, so a 5000-digit token
    # does not make a 5000-character error line
    assert len(err) < 300


def test_knt_pipeline_past_the_distance_cache(capsys, tmp_path):
    # K_6^5 has 7776 vertices, above the 4096-vertex BFS cache; the file
    # power writes reads back as the product, so induce and verify run
    k6 = str(tmp_path / "k6.txt")
    power = str(tmp_path / "k6p5.txt")
    order = str(tmp_path / "order.json")
    labels = str(tmp_path / "labels.json")
    for argv in (("builtin", "complete", "--n", "6", "--out", k6),
                 ("power", k6, "--t", "5", "--out", power),
                 ("order-knt", "--n", "6", "--t", "5", "--flat",
                  "--out", order),
                 ("induce", power, order, "--out", labels)):
        code, _out, err = run(capsys, *argv)
        assert code == 0 and err == "", argv
    code, out, err = run(capsys, "verify", power, labels)
    assert (code, out, err) == (0, "valid for k=5, span 7776\n", "")
    # the same graph under a relabelling stays flat and is refused
    text = (tmp_path / "k6p5.txt").read_text().splitlines()
    perm = list(range(7776))
    random.Random(5).shuffle(perm)
    shuffled = [text[0]] + [" ".join(str(perm[int(x)]) for x in line.split())
                            for line in text[1:]]
    relabelled = write(tmp_path, "shuffled.txt", "\n".join(shuffled) + "\n")
    code, out, err = run(capsys, "verify", relabelled, labels)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "4096-vertex cache" in err


# ---------------------------------------------------------------------------
# every subcommand over generated inputs: an exit code, never a traceback
# ---------------------------------------------------------------------------

@st.composite
def connected_edge_lists(draw):
    """Edge-list text of a connected graph on at most 6 vertices: a random
    tree plus random extra edges."""
    n = draw(st.integers(1, 6))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges |= {(min(e), max(e)) for e in draw(st.lists(pairs, max_size=6))
              if e[0] != e[1]}
    return counted_edge_list(n, sorted(edges))


SMALL = st.integers(-2, 9)
EDGE_LISTS = (
    st.builds(counted_edge_list, st.integers(-1, 5),
              st.lists(st.tuples(SMALL, SMALL), max_size=6))
    | st.text(alphabet="0123456789 -#x\n", max_size=24))
JSON_TEXTS = (
    st.builds(lambda order: json.dumps({"order": order}),
              st.lists(SMALL, max_size=8)
              | st.lists(st.lists(SMALL, max_size=3), max_size=8))
    | st.builds(lambda order, n: json.dumps({"order": order, "n": n}),
                st.lists(st.lists(SMALL, max_size=3), max_size=8),
                st.integers(-1, 10 ** 30))
    | st.builds(lambda labels, span: json.dumps(
                    {"labels": labels, "span": span}),
                st.lists(st.integers(-2, 40), max_size=8),
                st.none() | st.integers(-2, 40) | st.just(3.0))
    | st.text(alphabet='{}[]":,0123456789.labelsorder ', max_size=24))
FORMATS = st.sampled_from([[], ["--format", "table"], ["--format", "json"]])
BUDGETS = st.floats(0, 0.05) | st.sampled_from(["-1", "nan", "x"])


def maybe(draw, *words):
    """The words or nothing, evenly."""
    return draw(st.sampled_from([[], list(words)]))


def mostly(draw, *words):
    """The words, but about one time in eight nothing: a usage error
    where they are required."""
    return list(words) if draw(st.integers(0, 7)) < 7 else []


@st.composite
def cli_calls(draw):
    """(argv, {file name: text}, stdin text) for one subcommand; argv
    names the files relative to the working directory.  Most graphs are
    connected and most JSON fits them, so most calls get past the
    readers; the rest are malformed."""
    files = {}
    sizes = []
    stdin = ""

    def graph():
        name = f"g{len(files)}.txt"
        if draw(st.integers(0, 3)) < 3:
            text = draw(connected_edge_lists())
            sizes.append(int(text.split()[0]))
        else:
            text = draw(EDGE_LISTS)
        files[name] = text
        return name

    def json_file():
        nonlocal stdin
        n = sizes[-1] if sizes and draw(st.integers(0, 3)) < 3 else None
        if n is None:
            text = draw(JSON_TEXTS)
        elif draw(st.booleans()):
            text = json.dumps({"order": draw(st.permutations(range(n)))})
        else:
            text = json.dumps({"labels": draw(st.lists(
                st.integers(1, 3 * n), min_size=n, max_size=n))})
        if draw(st.booleans()):
            files["in.json"] = text
            return ["in.json"]
        stdin = text
        return []  # the command reads stdin

    command = draw(st.sampled_from([
        "builtin", "product", "power", "order-knt", "induce", "verify",
        "radio-number", "search-consecutive", "threshold"]))
    out = maybe(draw, "--out", "out.txt")
    if command == "builtin":
        # "star" is no builder: a usage error
        argv = [draw(st.sampled_from(["complete", "path", "cycle",
                                      "petersen", "star"]))]
        argv += maybe(draw, "--n", str(draw(st.integers(-1, 12)))) + out
    elif command == "product":
        argv = [graph(), graph()] + out
    elif command == "power":
        argv = [graph()] + mostly(draw, "--t", str(draw(
            st.integers(-1, 4)))) + out
    elif command == "order-knt":
        argv = (mostly(draw, "--n", str(draw(st.integers(-1, 6))))
                + mostly(draw, "--t", str(draw(st.integers(-1, 5))))
                + maybe(draw, "--flat") + out)
    elif command == "induce":
        argv = [graph()] + json_file() + out + draw(FORMATS)
    elif command == "verify":
        argv = ([graph()] + json_file()
                + maybe(draw, "--k", str(draw(SMALL)))
                + maybe(draw, "--all-violations") + draw(FORMATS))
    elif command == "radio-number":
        argv = ([graph()]
                + maybe(draw, "--no-prune")
                + maybe(draw, "--symmetry-reduction")
                + maybe(draw, "--budget", str(draw(BUDGETS))) + draw(FORMATS))
    elif command == "search-consecutive":
        argv = [graph()] + maybe(draw, "--budget", str(draw(BUDGETS))) + draw(
            FORMATS)
    else:
        source = draw(st.sampled_from(["graph", "params", "both"]))
        argv = ((["--graph", graph()] if source != "params" else [])
                + (["--n", str(draw(st.integers(-1, 10 ** 6))),
                    "--diam", str(draw(SMALL))] if source != "graph" else [])
                + [word for t in draw(st.lists(st.integers(-1, 12),
                                               max_size=3))
                   for word in ("--t", str(t))]
                + draw(FORMATS))
    if draw(st.integers(0, 15)) == 15:
        argv.append("--bogus")
    return [command] + argv, files, stdin


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(cli_calls())
def test_main_parses_every_call_as_the_full_parser(call):
    argv = call[0]
    assert parse_outcome(cli._parse, argv) == parse_outcome(full_parse,
                                                            argv), argv


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cli_calls())
def test_every_subcommand_exits_with_a_code(monkeypatch, call):
    # the cap keeps every construction the flags allow small
    monkeypatch.setenv("RADIOLABEL_SIZE_CAP", "4096")
    argv, files, stdin = call
    with tempfile.TemporaryDirectory() as work:
        for name, text in files.items():
            with open(os.path.join(work, name), "w",
                      encoding="utf-8") as handle:
                handle.write(text)
        monkeypatch.chdir(work)
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        monkeypatch.undo()
    assert code in (0, 1, 2), (argv, files, err.getvalue())
