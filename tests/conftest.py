"""Shared corpus helpers for the test suite."""

from __future__ import annotations

import random

from radiolabel import (
    Graph,
    build_graph,
    cartesian_power,
    cartesian_product,
    complete,
    cycle,
    path,
    petersen,
)


def star(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def counted_edge_list(n: int, edges: list) -> str:
    """Edge-list text whose header counts the edges given."""
    return "\n".join([f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges])


def random_connected(n: int, extra_edges: int, rng: random.Random) -> Graph:
    """Random spanning tree plus extra random edges; always connected."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    attempts = 0
    while len(edges) < n - 1 + extra_edges and attempts < 50 * extra_edges:
        attempts += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return build_graph(n, sorted(edges))


def small_corpus() -> list:
    """Named connected graphs with at most 6 vertices."""
    graphs = []
    for n in range(2, 7):
        graphs.append((f"K{n}", complete(n)))
        graphs.append((f"P{n}", path(n)))
    for n in range(3, 7):
        graphs.append((f"C{n}", cycle(n)))
        graphs.append((f"star{n - 1}", star(n - 1)))
    rng = random.Random(20260809)
    for i in range(6):
        n = rng.randrange(4, 7)
        graphs.append((f"rand{i}", random_connected(n, rng.randrange(0, 4), rng)))
    return graphs


def kernel_corpus() -> list:
    """Named flat graphs and products covering each branch of the fast
    distance kernel: BFS rows, Hamming distance over complete factors, and
    summed factor tables."""
    k3 = complete(3)
    return [
        ("P5", path(5)),
        ("C6", cycle(6)),
        ("petersen", petersen()),
        ("K4^3", cartesian_power(complete(4), 3)),
        ("P4xC5", cartesian_product(path(4), cycle(5))),
        ("K3xP4xC5", cartesian_product(cartesian_product(k3, path(4)),
                                        cycle(5))),
        ("petersen^2", cartesian_power(petersen(), 2)),
        ("K1xC5", cartesian_product(complete(1), cycle(5))),
        ("K3^2x(P3xK2)", cartesian_product(
            cartesian_power(k3, 2), cartesian_product(path(3), complete(2)))),
    ]
