"""Tests of the benchmark itself: metric names, tracing, oracles, failures.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys

import networkx as nx
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import radiolabel as rl  # noqa: E402
from perfbench import harness, oracles, tracing, workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_are_plain_and_match_benchmark_json():
    bench = benchmark_json()
    for group, emitted in (("end_to_end", harness.END_TO_END_UNITS),
                           ("per_layer", harness.PER_LAYER_UNITS)):
        for metric in emitted:
            assert NAME.fullmatch(metric), metric
        declared = {m["name"]: m["unit"] for m in bench[group]}
        assert declared == emitted, group
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(
        workloads.WORKLOADS)


class WrongAnswer(workloads.Search):
    """Two cheap searches, one with a deliberately wrong expected span."""

    name = "wrong-answer"
    POOL = {}
    FIXED = (
        ("radio-number", "C_9", (), workloads.EXACT, 14),  # truly 13
        ("search-consecutive", "Petersen", (), workloads.FOUND, 10),
    )


@pytest.fixture
def wrong_answer(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, WrongAnswer.name, WrongAnswer())
    return WrongAnswer.name


def test_wrong_expected_answer_is_counted_as_failed(wrong_answer, tmp_path):
    _info, result = harness.run(wrong_answer, 1, 0, False, str(tmp_path))
    assert result["attempted"] == 2
    assert result["failed"] == 1
    assert result["correct"] is False
    assert set(result["metrics"]) == set(harness.END_TO_END_UNITS)

    _info, result = harness.run(wrong_answer, 1, 0, True, str(tmp_path))
    assert result["metrics"]["failed_ratio"]["value"] == 0.5
    assert set(result["metrics"]) == set(harness.PER_LAYER_UNITS)


def test_scaled_times_cancel_a_host_slowdown():
    ref = harness.REF_S
    fast = [(0.1, ref), (0.2, ref), (0.3, ref)]
    # the same jobs on a host twice as slow for the job and the reference
    slow = [(2 * seconds, 2 * r) for seconds, r in fast]
    assert harness.scaled_median(fast) == pytest.approx(0.2)
    assert harness.scaled_median(slow) == pytest.approx(0.2)


def test_outputs_that_differ_between_runs_fail():
    ledger = harness.Ledger()
    ledger.add("job", ("same",))
    ledger.add("job", ("different",))
    bad = ledger.failures(workloads.WORKLOADS["search"], None)
    assert len(bad) == 2


def _bindings() -> dict:
    from radiolabel.graphs import Graph
    found = {(m.__name__, attr): value
             for m in tracing._package_modules()
             for attr, value in vars(m).items() if callable(value)}
    found[("Graph", "distance")] = Graph.__dict__["distance"]
    return found


def test_traced_run_removes_wrappers_and_repeats_its_counts(tmp_path):
    before = _bindings()
    runs = [harness.run("search", 7, 0, True, str(tmp_path))[1]
            for _ in range(2)]
    assert tracing.leftover_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    for result in runs:
        assert result["failed"] == 0
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if k in tracing.COUNT_METRICS} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["search.orderings_examined"] > 0


def test_tracer_sees_calls_through_every_binding():
    graph = rl.cycle(5)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.job("one"):
        # search imported induced_labeling by name
        rl.exact_radio_number(graph)
    names = {span[1] for span in tracer.spans}
    assert "labeling.induced_labeling" in names
    assert tracer.all_counts()["search.orderings_examined"] > 0
    assert tracer.self_times()["search.exact_s"] > 0


def test_jobs_look_up_package_functions_when_they_run(monkeypatch, tmp_path):
    workload = workloads.WORKLOADS["verify-large"]
    jobs = workload.jobs(workload.setup(1, str(tmp_path)))
    calls = []
    monkeypatch.setattr(rl, "check_radio",
                        lambda *args: calls.append("check_radio") or [])
    monkeypatch.setattr(rl, "check_k_radio",
                        lambda *args: calls.append("check_k_radio") or [])
    for job in jobs:
        job.run()
    assert calls == ["check_radio", "check_radio", "check_k_radio",
                     "check_radio", "check_radio"]


def test_cli_stdout_identical_traced_and_untraced(tmp_path):
    order = str(tmp_path / "order.json")
    argv = ("order-knt", "--n", 3, "--t", 2, "--flat")
    plain = workloads.run_cli(*argv)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.job("one"):
        traced = workloads.run_cli(*argv)
        workloads.run_cli(*argv, "--out", order)
    assert traced == plain
    assert {span[1] for span in tracer.spans} >= {"cli.main",
                                                  "knt.flat_indices"}


@pytest.mark.parametrize("n", range(4, 9))
def test_liu_zhu_closed_form_matches_exact_search(n):
    assert oracles.liu_zhu_span(n) == rl.exact_radio_number(rl.path(n)).span


def test_hamming_radio_oracle_accepts_knt_and_rejects_row_major_order():
    oracles.expect_radio_hamming(rl.flat_indices(rl.knt_ordering(4, 3), 4),
                                 4, 3)
    # vertices 0 and 1 are adjacent, so labels 1 and 2 on them violate
    with pytest.raises(oracles.OracleError):
        oracles.expect_radio_hamming(list(range(64)), 4, 3)


def test_hamming_edges_use_the_package_vertex_numbering():
    product = rl.cartesian_power(rl.complete(3), 3)
    assert oracles.hamming_edges(3, 3) == set(product.edges())


@pytest.mark.parametrize("seed", range(4))
def test_violations_match_brute_force(seed):
    rng = random.Random(seed)
    graph = nx.petersen_graph() if seed % 2 else oracles.hamming_graph(3, 3)
    n = graph.number_of_nodes()
    dist = dict(nx.all_pairs_shortest_path_length(graph))
    distances = oracles.Distances(graph, seed=seed)
    assert distances.diameter == nx.diameter(graph)
    for k in range(1, distances.diameter + 1):
        labels = [rng.randint(1, n // 2) for _ in range(n)]
        wanted = [(u, v, k + 1 - dist[u][v], abs(labels[u] - labels[v]))
                  for u in range(n) for v in range(u + 1, n)
                  if abs(labels[u] - labels[v]) < k + 1 - dist[u][v]]
        assert distances.violations(labels, k) == wanted


def test_networkx_is_not_loaded_while_jobs_run():
    # peak_rss_mb is read before the oracles run; the library they use must
    # not be in it
    code = ("import sys; sys.path[:0] = ['src', '.']; "
            "import perfbench.harness; print('networkx' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "False", proc.stderr


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
