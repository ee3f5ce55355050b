import random
import sys
import time
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import relabelled, small_corpus, star
from radiolabel import (
    EXACT,
    EXHAUSTED,
    InvalidParameterError,
    TIMEOUT,
    TooLargeError,
    WITNESS_FOUND,
    all_pairs_distances,
    build_graph,
    cartesian_power,
    check_radio,
    complete,
    cycle,
    exact_radio_number,
    find_consecutive_ordering,
    induced_labeling,
    is_consecutive,
    path,
    petersen,
    verify_witness,
)
from radiolabel.search import _first_vertex_representatives


def orbit_minima_by_scan(graph) -> list:
    """Least vertex of each automorphism orbit, by trying every permutation
    of the vertex set; the reference for the backtracking test."""
    n = graph.vertex_count
    adj = graph.adjacency
    edges = graph.edges()
    least = list(range(n))
    for perm in permutations(range(n)):
        if all(perm[v] in adj[perm[u]] for u, v in edges):
            for v in range(n):
                least[perm[v]] = min(least[perm[v]], v)
    return sorted(set(least))


# ---------------------------------------------------------------------------
# exact radio numbers
# ---------------------------------------------------------------------------

def test_complete_graphs():
    for n in range(2, 6):
        result = exact_radio_number(complete(n))
        assert result.status == EXACT
        assert result.span == n


def test_p3_value_and_witness():
    result = exact_radio_number(path(3))
    assert result.span == 4
    assert result.ordering == (0, 2, 1)
    assert result.labeling.labels == (1, 4, 2)


def test_c4_value_frozen_by_enumeration():
    # 24 orderings; value and lexicographically first witness were fixed by
    # unpruned enumeration before the pruned walk existed
    unpruned = exact_radio_number(cycle(4), prune=False)
    assert unpruned.span == 5
    assert unpruned.ordering == (0, 2, 1, 3)
    assert unpruned.orderings_examined == 24
    pruned = exact_radio_number(cycle(4))
    assert pruned.span == 5
    assert pruned.ordering == (0, 2, 1, 3)
    assert pruned.labeling.labels == (1, 4, 2, 5)


def test_p4_lexicographic_tie_break():
    # the smallest optimal ordering of the 4-path does not start at 0
    result = exact_radio_number(path(4))
    assert result.span == 6
    assert result.ordering == (1, 3, 0, 2)
    assert result.ordering == exact_radio_number(path(4), prune=False).ordering


def liu_zhu_span(n: int) -> int:
    """rn(P_n) for n >= 4 by Liu and Zhu (SIAM J. Discrete Math. 19, 2005):
    2k^2 + 2 for n = 2k + 1 and 2k^2 - 2k + 1 for n = 2k, with labels
    counted from 0; labels here start at 1."""
    k, odd = divmod(n, 2)
    return (2 * k * k + 2 if odd else 2 * k * k - 2 * k + 1) + 1


@pytest.mark.parametrize("n", range(4, 12))
def test_path_spans_match_liu_zhu(n):
    # P_11 took about 10 s under the eccentricity bound alone; the level
    # bound settles it in about 1 s
    result = exact_radio_number(path(n), limit=n, time_budget=5)
    assert (result.status, result.span) == (EXACT, liu_zhu_span(n))


def one_per_step_walk(graph, starts) -> tuple:
    """(span, ordering, labels, orderings_examined) of the exact search
    pruning with one label step per unplaced vertex, the weakest admissible
    bound; the reference for the eccentricity bound."""
    n = graph.vertex_count
    dist = all_pairs_distances(graph)
    diam = max(map(max, dist))
    best = [None, None, 0]  # span, ordering, leaves reached
    order, labels, used = [0] * n, [0] * n, [False] * n

    def walk(depth):
        if depth == n:
            best[2] += 1
            if best[0] is None or labels[-1] < best[0]:
                best[0], best[1] = labels[-1], tuple(order)
            return
        for v in (starts if depth == 0 else range(n)):
            if used[v]:
                continue
            label = max([labels[depth - 1] + 1 if depth else 1]
                        + [labels[depth - c] + diam + 1
                           - dist[v][order[depth - c]]
                           for c in range(1, min(diam, depth) + 1)])
            if best[0] is not None and label + (n - depth - 1) >= best[0]:
                continue
            order[depth], labels[depth], used[v] = v, label, True
            walk(depth + 1)
            used[v] = False

    walk(0)
    return (best[0], best[1], induced_labeling(graph, best[1]).labels,
            best[2])


# the four random connected 9-vertex graphs of the benchmark's search
# workload (perfbench/workloads.py), with their radio numbers
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


def bound_corpus() -> list:
    graphs = small_corpus() + [(f"P{n}", path(n)) for n in range(7, 10)]
    graphs += [("C9", cycle(9)), ("P3xP3", cartesian_power(path(3), 2))]
    rng = random.Random(9)
    for name, (_span, edges) in POOL.items():
        perm = list(range(9))
        rng.shuffle(perm)
        graphs.append((name, build_graph(
            9, [(perm[u], perm[v]) for u, v in edges])))
    return graphs


@pytest.mark.parametrize("symmetry_reduction", [False, True])
def test_eccentricity_bound_walks_like_the_one_per_step_bound(
        symmetry_reduction):
    for name, g in bound_corpus():
        starts = (_first_vertex_representatives(g) if symmetry_reduction
                  else range(g.vertex_count))
        result = exact_radio_number(g, symmetry_reduction=symmetry_reduction)
        assert result.status == EXACT, name
        assert (result.span, result.ordering, result.labeling.labels,
                result.orderings_examined) == one_per_step_walk(g, starts), \
            name
        if name in POOL:
            assert result.span == POOL[name][0], name


@st.composite
def small_connected_graphs(draw):
    n = draw(st.integers(2, 7))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges |= {(min(e), max(e)) for e in draw(st.lists(pairs, max_size=8))
              if e[0] != e[1]}
    return build_graph(n, sorted(edges))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(small_connected_graphs(), st.booleans())
def test_pruned_equals_unpruned_on_random_graphs(g, symmetry_reduction):
    pruned = exact_radio_number(g, symmetry_reduction=symmetry_reduction)
    unpruned = exact_radio_number(g, prune=False,
                                  symmetry_reduction=symmetry_reduction)
    assert (pruned.status, pruned.span, pruned.ordering, pruned.labeling) \
        == (unpruned.status, unpruned.span, unpruned.ordering,
            unpruned.labeling)


def test_pruned_equals_unpruned_on_corpus():
    for name, g in small_corpus():
        pruned = exact_radio_number(g)
        unpruned = exact_radio_number(g, prune=False)
        assert pruned.span == unpruned.span, name
        assert pruned.ordering == unpruned.ordering, name
        assert pruned.labeling == unpruned.labeling, name


def test_span_at_least_vertex_count():
    for name, g in small_corpus():
        result = exact_radio_number(g)
        assert result.span >= g.vertex_count, name


def test_equality_iff_consecutive_witness_exists():
    for name, g in small_corpus():
        exact = exact_radio_number(g)
        witness = find_consecutive_ordering(g, time_budget=30)
        assert witness.status in (WITNESS_FOUND, EXHAUSTED), name
        if exact.span == g.vertex_count:
            assert witness.status == WITNESS_FOUND, name
        else:
            assert witness.status == EXHAUSTED, name


def test_optimum_labeling_is_valid():
    for name, g in small_corpus():
        result = exact_radio_number(g)
        assert result.labeling.span == result.span, name
        from radiolabel import check_radio
        assert check_radio(g, result.labeling) == [], name


def test_deterministic_repeat_runs():
    g = cycle(6)
    first = exact_radio_number(g)
    second = exact_radio_number(g)
    assert first == second


def test_too_large_guard():
    with pytest.raises(TooLargeError):
        exact_radio_number(petersen())
    with pytest.raises(TooLargeError):
        exact_radio_number(complete(5), limit=4)


def test_unpruned_counts_every_ordering():
    assert exact_radio_number(path(3), prune=False).orderings_examined == 6


def test_symmetry_reduction_preserves_optimum():
    from radiolabel import check_radio
    for name, g in small_corpus():
        reduced = exact_radio_number(g, symmetry_reduction=True)
        full = exact_radio_number(g)
        assert reduced.span == full.span, name
        assert check_radio(g, reduced.labeling) == [], name


def test_symmetry_reduction_single_start_on_transitive_graphs():
    from radiolabel import build_graph
    cube = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                           (4, 5), (5, 6), (6, 7), (7, 4),
                           (0, 4), (1, 5), (2, 6), (3, 7)])
    assert _first_vertex_representatives(complete(6)) == [0]
    assert _first_vertex_representatives(cycle(6)) == [0]
    assert _first_vertex_representatives(cube) == [0]
    # a path folds onto itself end to end; on P_200 only mirror vertices
    # share sorted distance rows, so the finder backtracks on 100 pairs
    # (it took about 13 s when it backtracked on every pair)
    assert _first_vertex_representatives(path(4)) == [0, 1]
    assert _first_vertex_representatives(path(200), time.monotonic() + 5) \
        == list(range(100))
    assert _first_vertex_representatives(star(3)) == [0, 1]
    assert _first_vertex_representatives(petersen()) == [0]


def test_orbit_representatives_match_permutation_scan():
    # in "asym" the vertex pairs 0/4, 1/3 and 2/5 share sorted distance
    # rows but no automorphism joins them, so the rows cannot decide alone
    asym = build_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4),
                           (2, 4), (3, 5), (4, 5)])
    graphs = small_corpus() + [("C9", cycle(9)),
                               ("P3xP3", cartesian_power(path(3), 2)),
                               ("asym", asym)]
    for name, g in graphs:
        assert _first_vertex_representatives(g) == orbit_minima_by_scan(g), \
            name


def test_symmetry_reduction_runs_deeper_than_the_recursion_limit():
    # the orbit backtracking recurses once per vertex: 1100 vertices need
    # more than the default limit of 1000
    before = sys.getrecursionlimit()
    start = time.monotonic()
    result = exact_radio_number(cycle(1100), limit=1100,
                                symmetry_reduction=True, time_budget=1)
    assert time.monotonic() - start < 3.0
    assert (result.status, result.span, result.ordering) \
        == (TIMEOUT, None, None)
    assert sys.getrecursionlimit() == before


# ---------------------------------------------------------------------------
# consecutive-labeling witnesses
# ---------------------------------------------------------------------------

def test_petersen_has_witness():
    result = find_consecutive_ordering(petersen(), time_budget=10)
    assert result.status == WITNESS_FOUND
    assert result.span == 10
    assert verify_witness(petersen(), result.ordering)
    assert is_consecutive(petersen(), result.labeling)


def test_c4_exhausts_without_witness():
    result = find_consecutive_ordering(cycle(4), time_budget=10)
    assert result.status == EXHAUSTED
    assert result.ordering is None
    assert result.span is None


def test_complete_graphs_find_identity_witness():
    for n in (3, 5, 8):
        result = find_consecutive_ordering(complete(n), time_budget=10)
        assert result.status == WITNESS_FOUND
        assert result.ordering == tuple(range(n))
        assert result.span == n


def test_c5_witness():
    result = find_consecutive_ordering(cycle(5), time_budget=10)
    assert result.status == WITNESS_FOUND
    assert result.ordering == (0, 2, 4, 1, 3)


def test_star_exhausts():
    # every pair of leaves is at distance 2 = diam, but consecutive
    # positions need distance 2 while the hub is adjacent to everything
    result = find_consecutive_ordering(star(3), time_budget=10)
    assert result.status == EXHAUSTED


def test_petersen_squared_witness():
    # hundred vertices, diameter 4; the onward-options candidate order
    # reaches a witness in well under a second
    from radiolabel import cartesian_power
    g = cartesian_power(petersen(), 2)
    result = find_consecutive_ordering(g, time_budget=60.0)
    assert result.status == WITNESS_FOUND
    assert result.span == 100
    assert verify_witness(g, result.ordering)


def test_witness_search_refuses_graphs_past_the_distance_cache():
    # 15625 vertices: the search needs the full distance table, so it
    # refuses before any work instead of running out its budget
    g = cartesian_power(complete(5), 6)
    start = time.monotonic()
    with pytest.raises(TooLargeError):
        find_consecutive_ordering(g, time_budget=60.0)
    assert time.monotonic() - start < 1.0


def test_zero_budget_times_out():
    result = find_consecutive_ordering(petersen(), time_budget=0.0)
    assert result.status == TIMEOUT
    assert result.ordering is None


def test_witness_search_restores_the_recursion_limit():
    # a 1000-vertex graph needs a deeper stack than the default 1000
    before = sys.getrecursionlimit()
    result = find_consecutive_ordering(cycle(1000), time_budget=0.0)
    assert result.status == TIMEOUT
    assert sys.getrecursionlimit() == before


def test_exact_search_runs_deeper_than_the_recursion_limit():
    # the walk recurses once per position: 1001 positions need more than
    # the default limit of 1000; the first ordering meets the bound
    before = sys.getrecursionlimit()
    g = star(1000)
    result = exact_radio_number(g, limit=1001, time_budget=10.0)
    assert (result.status, result.span) == (EXACT, 1002)
    assert sys.getrecursionlimit() == before


def test_budget_must_be_finite_and_non_negative():
    # NaN would never reach the deadline; C_4 keeps a miss fast
    for budget in (float("nan"), float("inf"), -1.0):
        with pytest.raises(InvalidParameterError, match="time budget"):
            find_consecutive_ordering(cycle(4), time_budget=budget)
        with pytest.raises(InvalidParameterError, match="time budget"):
            exact_radio_number(cycle(4), time_budget=budget)


def test_witness_budget_bounds_the_distance_table():
    # 1296 vertices: the deadline starts before the table is built, and a
    # product's table is summed from its factors' tables, not found by BFS
    g = cartesian_power(complete(6), 4)
    start = time.monotonic()
    result = find_consecutive_ordering(g, time_budget=0)
    assert result.status == TIMEOUT
    assert time.monotonic() - start < 0.5


@pytest.mark.parametrize("search", ["witness", "exact"])
def test_budget_bounds_a_flat_graph_table(search):
    # a relabelled K_6^4 reads flat, so its 1296 rows are found by BFS;
    # filling them all took about 2 s before the deadline was polled
    # between rows
    g, _ = relabelled(cartesian_power(complete(6), 4), 10)
    n = g.vertex_count
    assert g.factors is None
    start = time.monotonic()
    if search == "witness":
        result = find_consecutive_ordering(g, time_budget=0)
    else:
        result = exact_radio_number(g, limit=n, time_budget=0)
    assert time.monotonic() - start < 0.5
    assert result.status == TIMEOUT
    assert (result.span, result.ordering) == (None, None)


def test_exact_budget_returns_an_upper_bound():
    # P_12 takes several seconds to settle; the walk completes orderings
    # long before the budget runs out
    g = path(12)
    start = time.monotonic()
    result = exact_radio_number(g, limit=12, time_budget=0.5)
    assert time.monotonic() - start < 2.0
    assert result.status == TIMEOUT
    assert result.span >= liu_zhu_span(12)
    assert sorted(result.ordering) == list(range(12))
    assert result.labeling.span == result.span
    assert check_radio(g, result.labeling) == []


@pytest.mark.parametrize("graph", [path(200), cycle(300)],
                         ids=["P200", "C300"])
def test_budget_bounds_the_symmetry_reduction(graph):
    # finding the orbit representatives took about 15 s on P_200 and 2.5 s
    # on C_300 before the deadline was polled between vertices
    start = time.monotonic()
    result = exact_radio_number(graph, limit=graph.vertex_count,
                                symmetry_reduction=True, time_budget=0.2)
    assert time.monotonic() - start < 1.0
    assert (result.status, result.span, result.ordering) \
        == (TIMEOUT, None, None)


def test_witness_budget_is_polled_inside_the_candidate_scan():
    # all 2048 vertices of K_2^11 are candidates at the first position, and
    # scoring their onward options took about 3 s without the poll
    g = cartesian_power(complete(2), 11)
    g.distance_matrix()
    start = time.monotonic()
    result = find_consecutive_ordering(g, time_budget=0.2)
    assert time.monotonic() - start < 1.0
    assert (result.status, result.ordering) == (TIMEOUT, None)


def test_unpruned_enumeration_polls_the_budget():
    # the 9! orderings of P_9 took about 8 s to enumerate
    result = exact_radio_number(path(9), prune=False, time_budget=0.2)
    assert result.status == TIMEOUT
    assert result.span >= liu_zhu_span(9)
    assert result.orderings_examined > 0
    assert result.labeling.span == result.span


def test_exact_zero_budget_times_out_without_an_ordering():
    for prune in (True, False):
        result = exact_radio_number(path(5), prune=prune, time_budget=0)
        assert result.status == TIMEOUT, prune
        assert (result.span, result.ordering, result.labeling) \
            == (None, None, None), prune


def test_witnesses_verify_on_corpus():
    for name, g in small_corpus():
        result = find_consecutive_ordering(g, time_budget=30)
        if result.status == WITNESS_FOUND:
            assert verify_witness(g, result.ordering), name


def test_verify_witness_examples():
    from radiolabel import cartesian_power, flat_indices, knt_ordering
    g = cartesian_power(complete(3), 2)
    assert verify_witness(g, flat_indices(knt_ordering(3, 2), 3))
    assert not verify_witness(cycle(4), (0, 1, 2, 3))
    assert verify_witness(complete(3), (0, 1, 2))


def test_result_dict_shape():
    result = exact_radio_number(path(3))
    data = result.to_dict()
    assert data == {
        "status": "exact",
        "span": 4,
        "ordering": [0, 2, 1],
        "labels": [1, 4, 2],
        "orderings_examined": data["orderings_examined"],
    }
