"""Checks of job outputs that share nothing with the code paths the jobs time.

They run after the timed phase.  Graphs are re-read from the edge-list text
by the parser here (or built from the coordinate rule of K_n^t) into
networkx graphs, distances come from breadth-first search over those
graphs, and rn(P_n) comes from the closed form of Liu and Zhu.
"""

from __future__ import annotations

import json
import random
from collections import defaultdict
from typing import TYPE_CHECKING, Iterable, Sequence

# networkx is imported inside the functions that use it, so the benchmark's
# peak memory, read before the oracles run, does not include the library
if TYPE_CHECKING:
    import networkx as nx

# sources whose BFS levels are cross-checked against networkx on large graphs
CHECKED_SOURCES = 4


class OracleError(Exception):
    """A job output disagrees with its independent check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def liu_zhu_span(n: int) -> int:
    """Optimal radio-labeling span of the path P_n with labels from 1.

    Liu and Zhu (SIAM J. Discrete Math. 19, 2005) give rn(P_{2k+1}) =
    2k^2 + 2 and rn(P_{2k}) = 2k^2 - 2k + 1 for n >= 4, counting labels
    from 0; labels from 1 add one.
    """
    if n < 4:
        raise ValueError("the closed form holds for n >= 4")
    k, odd = divmod(n, 2)
    return (2 * k * k + 2 if odd else 2 * k * k - 2 * k + 1) + 1


def threshold_complete(n: int) -> int:
    """1 + n(n^2 - 1)/6, the impossibility threshold of a complete base."""
    return 1 + n * (n * n - 1) // 6


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> nx.Graph:
    """The 'n m' header plus 'u v' lines format, with '#' comments."""
    import networkx as nx
    rows = [line.split("#", 1)[0].split() for line in text.splitlines()]
    rows = [row for row in rows if row]
    expect(bool(rows) and len(rows[0]) == 2, "edge list lacks an 'n m' header")
    n, m = int(rows[0][0]), int(rows[0][1])
    expect(len(rows) - 1 == m, f"header declares {m} edges, "
                               f"file has {len(rows) - 1}")
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for row in rows[1:]:
        expect(len(row) == 2, f"bad edge line {row}")
        graph.add_edge(int(row[0]), int(row[1]))
    expect(graph.number_of_edges() == m, "edge list repeats an edge")
    return graph


def edge_set(graph: nx.Graph) -> set:
    return {(min(u, v), max(u, v)) for u, v in graph.edges()}


def hamming_edges(n: int, t: int) -> set:
    """Edges of K_n^t on flat indices, last coordinate fastest: pairs that
    differ in exactly one coordinate."""
    edges = set()
    for v in range(n ** t):
        place = 1
        for _ in range(t):
            c = v // place % n
            for d in range(c + 1, n):
                edges.add((v, v + (d - c) * place))
            place *= n
    return edges


def hamming_graph(n: int, t: int) -> nx.Graph:
    import networkx as nx
    graph = nx.Graph()
    graph.add_nodes_from(range(n ** t))
    graph.add_edges_from(hamming_edges(n, t))
    return graph


# ---------------------------------------------------------------------------
# distances and radio conditions
# ---------------------------------------------------------------------------

class Distances:
    """All-pairs hop distances of a connected graph by bit-parallel BFS.

    ``within[d][v]`` has bit u set iff d(u, v) <= d.  A level costs one OR
    per directed edge.  On K_5^5 this takes 0.15 s with its cross-checks,
    where per-source BFS in networkx takes about 23 s (2-vCPU VM, Python
    3.11.7).  The levels are cross-checked against
    ``networkx.single_source_shortest_path_length`` from ``CHECKED_SOURCES``
    seeded sources (every source on small graphs).
    """

    def __init__(self, graph: nx.Graph, seed: int = 0):
        import networkx as nx
        n = graph.number_of_nodes()
        expect(sorted(graph.nodes()) == list(range(n)),
               "vertices are not 0..n-1")
        adjacency = [list(graph.adj[v]) for v in range(n)]
        level = [1 << v for v in range(n)]
        self.within = [level]
        while True:
            grown = []
            for v, neighbours in enumerate(adjacency):
                bits = level[v]
                for w in neighbours:
                    bits |= level[w]
                grown.append(bits)
            if grown == level:
                break
            self.within.append(grown)
            level = grown
        full = (1 << n) - 1
        expect(all(bits == full for bits in level), "graph is disconnected")
        self.n = n
        self.diameter = len(self.within) - 1
        sources = (range(n) if n <= 128
                   else random.Random(seed).sample(range(n), CHECKED_SOURCES))
        for s in sources:
            reference = nx.single_source_shortest_path_length(graph, s)
            for v in range(n):
                expect(self.distance(s, v) == reference[v],
                       f"bit-parallel BFS disagrees with networkx at "
                       f"({s}, {v})")

    def distance(self, u: int, v: int) -> int:
        for d, row in enumerate(self.within):
            if row[v] >> u & 1:
                return d
        raise OracleError(f"no path between {u} and {v}")

    def violations(self, labels: Sequence[int], k: int) -> list:
        """Sorted (u, v, required_gap, actual_gap) with u < v and
        |f(u) - f(v)| < k + 1 - d(u, v).

        Such a pair has d(u, v) <= k - gap, so only vertices within that
        distance and at label gap below k are tested.
        """
        expect(len(labels) == self.n, "one label per vertex expected")
        by_label = defaultdict(int)
        for v, label in enumerate(labels):
            by_label[label] |= 1 << v
        out = []
        for u, label in enumerate(labels):
            for gap in range(k):
                near = self.within[min(k - gap, self.diameter)][u]
                near = near >> (u + 1) << (u + 1)
                for other in {label - gap, label + gap}:
                    hits = by_label.get(other, 0) & near
                    while hits:
                        low = hits & -hits
                        hits ^= low
                        v = low.bit_length() - 1
                        out.append((u, v, k + 1 - self.distance(u, v), gap))
        out.sort()
        return out


# ---------------------------------------------------------------------------
# labelings
# ---------------------------------------------------------------------------

def expect_labels(labels: Iterable, n: int) -> list:
    labels = list(labels)
    expect(len(labels) == n, f"{len(labels)} labels for {n} vertices")
    expect(all(type(x) is int and x >= 1 for x in labels),
           "labels are not positive integers")
    return labels


def expect_radio_hamming(order: Sequence[int], n: int, t: int) -> None:
    """Labels 1..n^t along ``order`` form a radio labeling of K_n^t.

    Distances are Hamming distances of the base-n digits, the package's
    vertex numbering for products; only pairs fewer than t + 1 positions
    apart can violate |f(u)-f(v)| >= t + 1 - d(u,v)."""
    digits = []
    for v in order:
        row = []
        for _ in range(t):
            v, c = divmod(v, n)
            row.append(c)
        digits.append(row)
    for i, a in enumerate(digits):
        for gap in range(1, t + 1):
            if i + gap == len(digits):
                break
            d = sum(x != y for x, y in zip(a, digits[i + gap]))
            expect(gap >= t + 1 - d,
                   f"positions {i} and {i + gap} violate the radio condition")


def expect_consecutive(labels: Sequence[int]) -> None:
    expect(sorted(labels) == list(range(1, len(labels) + 1)),
           "labels are not exactly 1..|V|")


def expect_radio(distances: Distances, labels: Sequence[int],
                 span: int) -> None:
    labels = expect_labels(labels, distances.n)
    bad = distances.violations(labels, max(distances.diameter, 1))
    expect(not bad, f"{len(bad)} radio violations, first {bad[0] if bad else None}")
    expect(max(labels) == span, f"max label {max(labels)} != span {span}")


def violations_json(violations: Sequence[tuple]) -> list:
    return [{"u": u, "v": v, "required_gap": r, "actual_gap": a}
            for u, v, r, a in violations]


def load_json(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise OracleError(f"output is not JSON: {exc}") from None
