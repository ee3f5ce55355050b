"""Shared corpus helpers and the per-test time bound for the test suite."""

from __future__ import annotations

import faulthandler
import os
import random

import pytest

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

# The slowest test takes a few seconds; a search whose deadline poll is
# lost would otherwise hang the run with no word of where it hangs.
TEST_TIME_LIMIT = 120.0

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # a copy of the terminal's stderr, taken while output is not captured:
    # a traceback written to the captured stream would be lost on exit
    config.stash[_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def time_bound(request):
    """Ends the run, with a traceback of every thread on stderr, when a
    test runs past TEST_TIME_LIMIT seconds."""
    faulthandler.dump_traceback_later(
        TEST_TIME_LIMIT, exit=True, file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


def star(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return build_graph(a + b, [(u, v) for u in range(a)
                               for v in range(a, a + b)])


def counted_edge_list(n: int, edges: list) -> str:
    """Edge-list text whose header counts the edges given."""
    return "\n".join([f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges])


def relabelled(graph, seed: int):
    """The graph with its vertices renumbered by a seeded permutation, and
    that permutation: an edge list of it is read back flat."""
    perm = list(range(graph.vertex_count))
    random.Random(seed).shuffle(perm)
    return build_graph(graph.vertex_count,
                       [(perm[u], perm[v]) for u, v in graph.edges()]), perm


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
    summed factor tables.  The complete-factor products include sizes
    that fill their packed bit field exactly (K_2, K_8), mixed sizes and
    a K_1 factor."""
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
        ("K2^5", cartesian_power(complete(2), 5)),
        ("K8^2", cartesian_power(complete(8), 2)),
        ("K2xK3xK5", cartesian_product(cartesian_product(complete(2), k3),
                                        complete(5))),
        ("K8xK1xK2", cartesian_product(cartesian_product(complete(8),
                                                          complete(1)),
                                        complete(2))),
    ]
