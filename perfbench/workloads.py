"""The three workloads: inputs made from a seed, the jobs, and their checks.

A job is one user task: one CLI pipeline, one search or one verification.
Each workload builds its inputs in ``setup`` (timed as ``setup_s``), hands
the harness one round of jobs, and checks each distinct job output against
the oracles after the timed phase.
"""

from __future__ import annotations

import functools
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

import radiolabel as rl
from radiolabel import cli as rl_cli
from radiolabel import labeling as rl_labeling
from radiolabel import search as rl_search

from . import oracles
from .oracles import expect

# seeded vertex pairs timed per call for graphs.distance_ns in traced runs
SAMPLE_PAIRS = 20_000


class Job(NamedTuple):
    key: str
    run: Callable[[], Any]  # timed, from the job's start to its verdict
    collect: Callable[[Any], Any]  # untimed: the result as an observation


def _identity(value):
    return value


def run_cli(*argv) -> tuple:
    """One in-process CLI command: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = rl_cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _pairs(rng: random.Random, n: int) -> list:
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(SAMPLE_PAIRS)]


def _flat(coords, n: int) -> int:
    index = 0
    for c in coords:
        index = index * n + c
    return index


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _knt_labels(rng: random.Random, n: int, t: int) -> tuple:
    """The consecutive labeling of K_n^t from the package's ordering, and a
    copy with two labels swapped so that a violation is certain: x_i's
    label moves to a neighbour of x_{i+1}, one label step away from it."""
    order = rl.knt_ordering(n, t)
    flat = rl.flat_indices(order, n)
    labels = [0] * len(flat)
    for position, v in enumerate(flat):
        labels[v] = position + 1
    i = rng.randrange(len(flat) - 1)
    coords = list(order[i + 1])
    j = rng.randrange(t)
    coords[j] = (coords[j] + rng.randrange(1, n)) % n
    x, y = flat[i], _flat(coords, n)
    swapped = list(labels)
    swapped[x], swapped[y] = swapped[y], swapped[x]
    return labels, swapped


class KntPower:
    name = "knt-power"
    # (n, t) of each K_n^t, built as products, so distances are
    # coordinatewise; K_6^5 (7776 vertices) takes about 0.3 s per job
    SIZES = ((6, 4), (7, 4), (5, 5), (8, 4), (6, 5))

    def setup(self, seed: int, workdir: str) -> SimpleNamespace:
        graphs = {(n, t): rl.cartesian_power(rl.complete(n), t)
                  for n, t in self.SIZES}
        largest = max(graphs, key=lambda size: size[0] ** size[1])
        return SimpleNamespace(
            graphs=graphs, largest=largest,
            pairs=_pairs(random.Random(seed), largest[0] ** largest[1]))

    def jobs(self, inputs) -> list:
        return [Job(f"K_{n}^{t}",
                    functools.partial(self._pipeline, inputs.graphs[n, t], n, t),
                    _identity)
                for n, t in self.SIZES]

    @staticmethod
    def _pipeline(graph, n: int, t: int) -> tuple:
        flat = rl.flat_indices(rl.knt_ordering(n, t), n)
        labeling = rl.induced_labeling(graph, flat)
        consecutive = rl.check_consecutive_ordering(graph, flat)
        text = rl_labeling.labeling_to_json(labeling)
        return (tuple(flat), consecutive,
                rl_labeling.labeling_from_json(text).labels)

    def check(self, inputs, key: str, observation) -> None:
        n, t = map(int, key[2:].split("^"))
        size = n ** t
        flat, consecutive, labels = observation
        expect(sorted(flat) == list(range(size)),
               "ordering is not a permutation of the vertices")
        expect(consecutive is True, "ordering reported not consecutive")
        values = oracles.expect_labels(labels, size)
        oracles.expect_consecutive(values)
        expect(all(values[v] == i + 1 for i, v in enumerate(flat)),
               "labels are not the positions of the ordering")
        oracles.expect_radio_hamming(flat, n, t)

    def distance_graph(self, inputs):
        return inputs.graphs[inputs.largest]


class CliKnt:
    name = "cli-knt"
    # (n, t) of each K_n^t; every pipeline takes under 0.3 s on the fast
    # state of the host, so a run repeats each one dozens of times
    SIZES = ((4, 3), (5, 3), (6, 3), (7, 3), (4, 4))

    def setup(self, seed: int, workdir: str) -> SimpleNamespace:
        """Per size, the edge-list file of K_n^t and a seeded corrupted
        labeling of it, which the last step of each pipeline verifies."""
        rng = random.Random(seed)
        graphs, corrupt = {}, {}
        for n, t in self.SIZES:
            graphs[n, t] = os.path.join(workdir, f"input-K{n}-{t}.txt")
            rl.write_edge_list(rl.cartesian_power(rl.complete(n), t),
                               graphs[n, t])
            _valid, swapped = _knt_labels(rng, n, t)
            path = os.path.join(workdir, f"corrupt-K{n}-{t}.json")
            _write(path, json.dumps({"labels": swapped}) + "\n")
            corrupt[n, t] = (path, swapped)
        largest = max(n ** t for n, t in self.SIZES)
        return SimpleNamespace(workdir=workdir, graphs=graphs, corrupt=corrupt,
                               pairs=_pairs(rng, largest), checked={})

    def _files(self, workdir: str, n: int, t: int) -> tuple:
        return tuple(os.path.join(workdir, f"{stem}-K{n}-{t}.{ext}")
                     for stem, ext in (("base", "txt"), ("power", "txt"),
                                       ("order", "json"), ("labels", "json")))

    def jobs(self, inputs) -> list:
        return [Job(f"K_{n}^{t}",
                    functools.partial(self._pipeline, inputs, n, t),
                    functools.partial(self._collect, inputs, n, t))
                for n, t in self.SIZES]

    def _pipeline(self, inputs, n: int, t: int) -> tuple:
        base, power, order, labels = self._files(inputs.workdir, n, t)
        return (
            run_cli("threshold", "--n", n, "--diam", 1, "--t", t,
                    "--format", "json"),
            run_cli("builtin", "complete", "--n", n, "--out", base),
            run_cli("power", base, "--t", t, "--out", power),
            run_cli("order-knt", "--n", n, "--t", t, "--flat", "--out", order),
            run_cli("induce", power, order, "--out", labels),
            run_cli("verify", power, labels),
            run_cli("verify", inputs.graphs[n, t], inputs.corrupt[n, t][0],
                    "--all-violations", "--format", "json"),
        )

    def _collect(self, inputs, n: int, t: int, steps: tuple) -> tuple:
        texts = []
        for path in self._files(inputs.workdir, n, t):
            texts.append(_read(path) if os.path.exists(path) else None)
            if os.path.exists(path):
                os.remove(path)  # a failed step must not find stale files
        return steps, tuple(texts)

    def check(self, inputs, key: str, observation) -> None:
        n, t = map(int, key[2:].split("^"))
        size = n ** t
        steps, (base, power, order, labels) = observation
        codes = tuple(code for code, _out, _err in steps)
        expect(codes == (0, 0, 0, 0, 0, 0, 1), f"exit codes {codes}")
        expect(all(err == "" for _c, _o, err in steps), "stderr not empty")
        threshold, _b, _p, _o, induce, verify, corrupt = (
            out for _code, out, _err in steps)

        s = oracles.threshold_complete(n)
        expect(oracles.load_json(threshold) == {
            "n": n, "diam": 1, "s": s, "closed_form_s": s,
            "verdicts": [{"t": t, "verdict": "has-consecutive"}]},
            f"threshold report {threshold!r}")

        expect(base is not None and oracles.edge_set(
            oracles.parse_edge_list(base)) == {
                (u, v) for u in range(n) for v in range(u + 1, n)},
            f"builtin complete --n {n} is not K_{n}")
        expect(power is not None, "power wrote no file")
        graph = oracles.parse_edge_list(power)
        expect(oracles.edge_set(graph) == oracles.hamming_edges(n, t),
               f"power file is not K_{n}^{t}")
        if key not in inputs.checked:
            expect(oracles.edge_set(oracles.parse_edge_list(
                _read(inputs.graphs[n, t]))) == oracles.hamming_edges(n, t),
                f"input file is not K_{n}^{t}")
            inputs.checked[key] = oracles.Distances(graph, seed=n)
        distances = inputs.checked[key]
        diam = distances.diameter

        expect(order is not None, "order-knt wrote no file")
        flat = oracles.load_json(order)["order"]
        expect(sorted(flat) == list(range(size)),
               "ordering is not a permutation of the vertices")

        expect(induce == f"span {size}\nconsecutive: true\n",
               f"induce printed {induce!r}")
        expect(labels is not None, "induce wrote no labeling")
        payload = oracles.load_json(labels)
        values = oracles.expect_labels(payload["labels"], size)
        expect(payload["span"] == size, "labeling file declares a wrong span")
        expect(all(values[v] == i + 1 for i, v in enumerate(flat)),
               "labels are not the positions of the ordering")
        oracles.expect_radio(distances, values, span=size)

        expect(verify == f"valid for k={diam}, span {size}\n",
               f"verify printed {verify!r}")
        wanted = distances.violations(inputs.corrupt[n, t][1], diam)
        expect(bool(wanted), "the corrupted labeling has no violation")
        expect(oracles.load_json(corrupt) == {
            "k": diam, "valid": False,
            "violations": oracles.violations_json(wanted)},
            "verify --all-violations disagrees with the oracle")

    def distance_graph(self, inputs):
        # read back from text, so distances come from the cached BFS matrix
        n, t = max(self.SIZES, key=lambda size: size[0] ** size[1])
        return rl.read_edge_list(inputs.graphs[n, t])


class VerifyLarge:
    name = "verify-large"
    # (n, t, cases) per K_n^t; the k = 1 colouring scan makes a distance
    # call for about 3/5 of all pairs, so it runs on the smaller graph only
    GRAPHS = ((5, 4, ("valid", "swap", "colouring-k1")),
              (6, 4, ("valid", "swap")))

    def setup(self, seed: int, workdir: str) -> SimpleNamespace:
        rng = random.Random(seed)
        graphs, cases = {}, {}
        for n, t, kinds in self.GRAPHS:
            graph = rl.cartesian_power(rl.complete(n), t)
            diam = graph.diameter()
            valid, swapped = _knt_labels(rng, n, t)
            colouring = []
            for v in range(n ** t):
                total = 0
                while v:
                    v, c = divmod(v, n)
                    total += c
                colouring.append(1 + total % n)
            graphs[n, t] = graph
            labelings = {"valid": (valid, diam), "swap": (swapped, diam),
                         "colouring-k1": (colouring, 1)}
            for kind in kinds:
                cases[f"K_{n}^{t} {kind}"] = ((n, t), kind) + labelings[kind]
        largest = max(graphs, key=lambda size: size[0] ** size[1])
        return SimpleNamespace(graphs=graphs, cases=cases, largest=largest,
                               pairs=_pairs(rng, largest[0] ** largest[1]),
                               distances={})

    def jobs(self, inputs) -> list:
        return [Job(key, functools.partial(self._check, inputs, key),
                    self._collect) for key in inputs.cases]

    @staticmethod
    def _check(inputs, key: str) -> list:
        # the package functions are looked up at call time, so a traced
        # round sees the tracing wrappers
        size, kind, labels, k = inputs.cases[key]
        if kind == "colouring-k1":
            return rl.check_k_radio(inputs.graphs[size], labels, k)
        return rl.check_radio(inputs.graphs[size], labels)

    @staticmethod
    def _collect(violations: list) -> tuple:
        return tuple((w.u, w.v, w.required_gap, w.actual_gap)
                     for w in violations)

    def check(self, inputs, key: str, observation) -> None:
        size, kind, labels, k = inputs.cases[key]
        if size not in inputs.distances:
            inputs.distances[size] = oracles.Distances(
                oracles.hamming_graph(*size))
        wanted = inputs.distances[size].violations(labels, k)
        expect(kind == "swap" or not wanted, f"{key} input is not valid")
        expect(observation == tuple(wanted),
               f"{len(observation)} violations reported, oracle finds "
               f"{len(wanted)}")

    def distance_graph(self, inputs):
        return inputs.graphs[inputs.largest]


# random connected 9-vertex graphs from a fixed generator; their spans were
# confirmed once by `radiolabel radio-number --no-prune`
POOL = {
    "rand-a": (18, ((0, 5), (1, 2), (1, 4), (1, 5), (2, 3), (2, 8), (3, 8),
                    (4, 6), (4, 8), (5, 6), (5, 7), (6, 7))),
    "rand-b": (16, ((0, 1), (0, 2), (0, 4), (0, 5), (1, 3), (1, 5), (1, 6),
                    (1, 8), (2, 5), (2, 8), (3, 8), (4, 7), (4, 8), (5, 7),
                    (6, 7), (7, 8))),
    "rand-c": (14, ((0, 4), (0, 5), (0, 6), (0, 7), (1, 5), (2, 4), (2, 8),
                    (3, 5), (3, 6), (3, 8), (4, 5), (4, 6), (5, 7), (6, 8))),
    "rand-d": (18, ((0, 5), (0, 6), (1, 2), (1, 3), (2, 4), (3, 5), (4, 8),
                    (5, 7), (5, 8), (6, 8), (7, 8))),
}

EXACT = "exact"
FOUND = "witness-found"
EXHAUSTED = "exhausted-no-witness"


class Search:
    name = "search"
    POOL = POOL
    # (command, graph, extra flags, expected status, expected span); spans
    # of C_9 and P_3xP_3 were confirmed once by --no-prune
    FIXED = (
        ("radio-number", "P_9", (), EXACT, oracles.liu_zhu_span(9)),
        ("radio-number", "C_9", (), EXACT, 13),
        ("radio-number", "C_9", ("--symmetry-reduction",), EXACT, 13),
        ("radio-number", "P_3xP_3", (), EXACT, 18),
        ("search-consecutive", "Petersen", (), FOUND, 10),
        ("search-consecutive", "Petersen^2", (), FOUND, 100),
        ("search-consecutive", "K_4^3", (), FOUND, 64),
        ("search-consecutive", "C_4", (), EXHAUSTED, None),
        ("search-consecutive", "C_5^2", (), EXHAUSTED, None),
    )

    def setup(self, seed: int, workdir: str) -> SimpleNamespace:
        petersen = rl.petersen()
        graphs = {
            "P_9": rl.path(9),
            "C_9": rl.cycle(9),
            "P_3xP_3": rl.cartesian_power(rl.path(3), 2),
            "Petersen": petersen,
            "Petersen^2": rl.cartesian_power(petersen, 2),
            "K_4^3": rl.cartesian_power(rl.complete(4), 3),
            "C_4": rl.cycle(4),
            "C_5^2": rl.cartesian_power(rl.cycle(5), 2),
        }
        # each pool graph appears under a seeded relabelling of its vertices,
        # which keeps its span and changes the search's walk
        rng = random.Random(seed)
        for name, (_span, edges) in self.POOL.items():
            perm = list(range(9))
            rng.shuffle(perm)
            graphs[name] = rl.build_graph(
                9, [(perm[u], perm[v]) for u, v in edges])
        files, texts = {}, {}
        for name, graph in graphs.items():
            texts[name] = rl.format_edge_list(graph)
            files[name] = os.path.join(workdir, f"{name}.txt")
            _write(files[name], texts[name])
        cases = {}
        for command, name, flags, status, span in self.FIXED:
            cases[" ".join((command, name) + flags)] = (
                command, name, flags, status, span)
        for name, (span, _edges) in self.POOL.items():
            cases[f"radio-number {name}"] = (
                "radio-number", name, (), EXACT, span)
        return SimpleNamespace(files=files, texts=texts, cases=cases,
                               pairs=_pairs(rng, 100), distances={})

    def jobs(self, inputs) -> list:
        return [Job(key, functools.partial(
                    run_cli, command, inputs.files[name], *flags,
                    "--format", "json"), _identity)
                for key, (command, name, flags, _s, _sp)
                in inputs.cases.items()]

    def check(self, inputs, key: str, observation) -> None:
        _command, name, _flags, status, span = inputs.cases[key]
        code, out, err = observation
        expect(code == 0 and err == "", f"exit {code}, stderr {err!r}")
        result = oracles.load_json(out)
        expect(result["status"] == status,
               f"status {result['status']}, expected {status}")
        expect(result["span"] == span,
               f"span {result['span']}, expected {span}")
        if status == EXHAUSTED:
            expect(result["ordering"] is None and result["labels"] is None,
                   "an exhausted search returned a witness")
            return
        if name not in inputs.distances:
            inputs.distances[name] = oracles.Distances(
                oracles.parse_edge_list(inputs.texts[name]))
        distances = inputs.distances[name]
        order, labels = result["ordering"], result["labels"]
        expect(sorted(order) == list(range(distances.n)),
               "ordering is not a permutation")
        oracles.expect_radio(distances, labels, span=span)
        steps = [labels[v] for v in order]
        expect(all(a < b for a, b in zip(steps, steps[1:])),
               "labels do not increase along the ordering")
        if status == FOUND:
            graph = rl.parse_edge_list(inputs.texts[name])
            expect(rl_search.verify_witness(graph, order),
                   "verify_witness rejects the witness")

    def distance_graph(self, inputs):
        return rl.read_edge_list(inputs.files["Petersen^2"])


WORKLOADS = {w.name: w for w in (KntPower(), CliKnt(), VerifyLarge(),
                                  Search())}
