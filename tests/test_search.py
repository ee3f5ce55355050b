import math
import random
import sys
import threading
import time
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (kernel_corpus, random_connected, relabelled,
                      small_corpus, star)
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
    cartesian_product,
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
from radiolabel.search import (_automorphism_test,
                               _first_vertex_representatives)


def representatives(graph, deadline=math.inf) -> list:
    return list(_first_vertex_representatives(
        graph, graph.distance_matrix(), deadline))


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
    result = exact_radio_number(path(n), time_budget=5)
    assert (result.status, result.span) == (EXACT, liu_zhu_span(n))


def greedy_spans(graph) -> list:
    """Span of the greedy ordering from each start vertex: each step
    appends the unplaced vertex of least label, ties to the lowest index,
    the label checked against every placed vertex by the radio condition
    d(u, v) + |f(u) - f(v)| >= diam + 1; the reference for the search's
    incumbent."""
    n = graph.vertex_count
    dist = all_pairs_distances(graph)
    diam = max(map(max, dist))
    spans = []
    for start in range(n):
        labels = {start: 1}
        while len(labels) < n:
            top = max(labels.values())
            label, v = min(
                (max([top + 1] + [f + diam + 1 - dist[u][w]
                                  for u, f in labels.items()]), w)
                for w in range(n) if w not in labels)
            labels[v] = label
        spans.append(max(labels.values()))
    return spans


def one_per_step_walk(graph, starts, incumbent) -> tuple:
    """(span, ordering, labels, orderings_examined) of the exact search
    pruning with one label step per unplaced vertex, the weakest admissible
    bound; the reference for the eccentricity bound.  incumbent is the span
    to beat from the start: only orderings of smaller span are reached."""
    n = graph.vertex_count
    dist = all_pairs_distances(graph)
    diam = max(map(max, dist))
    best = [incumbent, None, 0]  # span, ordering, leaves reached
    order, labels, used = [0] * n, [0] * n, [False] * n

    def walk(depth):
        if depth == n:
            best[2] += 1
            best[0], best[1] = labels[-1], tuple(order)
            return
        for v in (starts if depth == 0 else range(n)):
            if used[v]:
                continue
            label = max([labels[depth - 1] + 1 if depth else 1]
                        + [labels[depth - c] + diam + 1
                           - dist[v][order[depth - c]]
                           for c in range(1, min(diam, depth) + 1)])
            if label + (n - depth - 1) >= best[0]:
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
    # diameter 2 on 9 vertices: the walk runs six levels past its window,
    # where the gap vectors carry terms from far more than diam back
    graphs.append(("K3xK3", cartesian_power(complete(3), 2)))
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
        starts = (representatives(g) if symmetry_reduction
                  else range(g.vertex_count))
        result = exact_radio_number(g, symmetry_reduction=symmetry_reduction)
        assert result.status == EXACT, name
        # the search seeds its walk one above the best greedy span
        assert (result.span, result.ordering, result.labeling.labels,
                result.orderings_examined) \
            == one_per_step_walk(g, starts, min(greedy_spans(g)) + 1), name
        if name in POOL:
            assert result.span == POOL[name][0], name


def test_c9_keeps_the_lexicographically_first_optimum():
    # the first greedy ordering of the optimal span 13 starts at vertex 1
    # (from 0 the greedy span is 14); the walk, seeded one above it, still
    # reports the least optimum, which starts at 0
    spans = greedy_spans(cycle(9))
    assert (spans[0], spans.index(13)) == (14, 1)
    result = exact_radio_number(cycle(9))
    assert result.span == 13
    assert result.ordering == (0, 4, 7, 2, 5, 8, 3, 6, 1)


# (status, span, ordering, labels, orderings_examined) of instances deeper
# than the one-per-step oracle reaches, as the walk that recomputed each
# candidate's label from its window reported them
PINNED = {
    "P10": (path(10), (EXACT, 42, (4, 9, 1, 6, 2, 7, 3, 8, 0, 5),
                       (37, 8, 19, 30, 1, 42, 13, 24, 35, 6), 2)),
    "C10": (cycle(10), (EXACT, 18, (0, 5, 2, 7, 4, 9, 6, 1, 8, 3),
                        (1, 14, 5, 18, 9, 2, 13, 6, 17, 10), 1)),
}


@pytest.mark.parametrize("symmetry_reduction", [False, True])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_exact_outputs_pinned_past_the_oracle(name, symmetry_reduction):
    g, expected = PINNED[name]
    result = exact_radio_number(g, symmetry_reduction=symmetry_reduction)
    assert (result.status, result.span, result.ordering,
            result.labeling.labels, result.orderings_examined) == expected


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
    # the oracle is the full enumeration, whatever the pruned side skips
    pruned = exact_radio_number(g, symmetry_reduction=symmetry_reduction)
    unpruned = exact_radio_number(g, prune=False)
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


def test_unpruned_counts_every_ordering():
    assert exact_radio_number(path(3), prune=False).orderings_examined == 6


def test_unpruned_enumeration_never_tests_orbits(monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle called the orbit filter")

    monkeypatch.setattr("radiolabel.search._first_vertex_representatives",
                        refuse)
    result = exact_radio_number(cycle(4), prune=False,
                                symmetry_reduction=True)
    assert (result.status, result.span, result.orderings_examined) \
        == (EXACT, 5, 24)


def test_symmetry_reduction_preserves_optimum():
    # the lexicographically first optimum starts at the least vertex of
    # its orbit, so skipping the other starts changes only the count
    graphs = bound_corpus() + [
        ("C10", cycle(10)),
        ("K3xP3", cartesian_product(complete(3), path(3)))]
    for name, g in graphs:
        reduced = exact_radio_number(g, symmetry_reduction=True)
        full = exact_radio_number(g)
        assert (reduced.status, reduced.span, reduced.ordering,
                reduced.labeling) == (full.status, full.span, full.ordering,
                                      full.labeling), name
        assert reduced.status == EXACT, name
        assert check_radio(g, reduced.labeling) == [], name


def test_symmetry_reduction_single_start_on_transitive_graphs():
    from radiolabel import build_graph
    cube = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                           (4, 5), (5, 6), (6, 7), (7, 4),
                           (0, 4), (1, 5), (2, 6), (3, 7)])
    assert representatives(complete(6)) == [0]
    assert representatives(cycle(6)) == [0]
    assert representatives(cube) == [0]
    # a path folds onto itself end to end; on P_200 only mirror vertices
    # share sorted distance rows, so the finder backtracks on 100 pairs
    # (it took about 13 s when it backtracked on every pair)
    assert representatives(path(4)) == [0, 1]
    assert representatives(path(200), time.monotonic() + 5) \
        == list(range(100))
    assert representatives(star(3)) == [0, 1]
    assert representatives(petersen()) == [0]


def test_orbit_representatives_match_permutation_scan():
    # in "asym" the vertex pairs 0/4, 1/3 and 2/5 share sorted distance
    # rows but no automorphism joins them, so the rows cannot decide alone
    asym = build_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4),
                           (2, 4), (3, 5), (4, 5)])
    graphs = small_corpus() + [("C9", cycle(9)),
                               ("P3xP3", cartesian_power(path(3), 2)),
                               ("asym", asym)]
    for name, g in graphs:
        assert representatives(g) == orbit_minima_by_scan(g), name


def test_symmetry_reduction_runs_deeper_than_the_recursion_limit():
    # 1100 positions, more than the default limit of 1000; a greedy
    # ordering from one start takes about 0.1 s, so the greedy orderings
    # outlast the budget and the best of them is reported
    start = time.monotonic()
    result = exact_radio_number(cycle(1100), symmetry_reduction=True,
                                time_budget=1)
    assert time.monotonic() - start < 3.0
    assert result.status == TIMEOUT
    assert sorted(result.ordering) == list(range(1100))
    assert result.labeling.span == result.span


# ---------------------------------------------------------------------------
# consecutive-labeling witnesses
# ---------------------------------------------------------------------------

def fewest_onward_walk(graph) -> tuple:
    """(status, ordering) of the witness search by its scalar rule: every
    vertex is tested against the window to find the candidates, and again
    to count each candidate's onward options; the reference for the
    bitset kernel."""
    n = graph.vertex_count
    dist = all_pairs_distances(graph)
    diam = max(map(max, dist))
    order, used = [0] * n, [False] * n

    def admissible(v, depth):
        return all(dist[order[depth - c]][v] >= diam - c + 1
                   for c in range(1, min(diam, depth) + 1))

    def extend(depth):
        if depth == n:
            return tuple(order)
        scored = []
        for v in range(n):
            if used[v] or not admissible(v, depth):
                continue
            order[depth] = v
            scored.append((sum(1 for w in range(n)
                               if not used[w] and w != v
                               and admissible(w, depth + 1)), v))
        for _, v in sorted(scored):
            order[depth], used[v] = v, True
            found = extend(depth + 1)
            used[v] = False
            if found is not None:
                return found
        return None

    witness = extend(0)
    return (WITNESS_FOUND if witness is not None else EXHAUSTED), witness


# P_300 has a window of 299 positions, K_1 one of none
WITNESS_CORPUS = small_corpus() + kernel_corpus() + [
    ("P300", path(300)), ("K1", complete(1))]


@pytest.mark.parametrize("g", [g for _, g in WITNESS_CORPUS],
                         ids=[name for name, _ in WITNESS_CORPUS])
def test_witness_kernel_walks_like_the_scalar_rule(g):
    result = find_consecutive_ordering(g, time_budget=30)
    assert (result.status, result.ordering) == fewest_onward_walk(g)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(0, 12), st.integers(0, 2 ** 32 - 1))
def test_witness_kernel_walks_like_the_scalar_rule_on_random_graphs(
        n, extra_edges, seed):
    g = random_connected(n, extra_edges, random.Random(seed))
    result = find_consecutive_ordering(g, time_budget=30)
    assert (result.status, result.ordering) == fewest_onward_walk(g)


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


@pytest.mark.parametrize("search", [find_consecutive_ordering,
                                    exact_radio_number],
                         ids=["witness", "exact"])
def test_witness_search_refuses_graphs_past_the_distance_cache(search):
    # 15625 vertices: both searches need the full distance table, so they
    # refuse before any work instead of running out their budget; the
    # cache limit is the only size guard either search has
    g = cartesian_power(complete(5), 6)
    start = time.monotonic()
    with pytest.raises(TooLargeError):
        search(g, time_budget=60.0)
    assert time.monotonic() - start < 1.0


def test_zero_budget_times_out():
    result = find_consecutive_ordering(petersen(), time_budget=0.0)
    assert result.status == TIMEOUT
    assert result.ordering is None


def deep_searches() -> dict:
    """Searches that walk one level per vertex, past the default recursion
    limit of 1000: name -> a call returning its result."""
    k32 = cartesian_power(complete(32), 2)
    return {
        # the first ordering meets the bound
        "star": lambda: exact_radio_number(star(1000)),
        "K32^2": lambda: find_consecutive_ordering(k32),
    }


def test_witness_search_restores_the_recursion_limit():
    # the 1024-vertex walk goes one level per vertex, past the default
    # limit of 1000, and leaves the limit as it found it
    before = sys.getrecursionlimit()
    result = deep_searches()["K32^2"]()
    assert result.status == WITNESS_FOUND
    assert len(result.ordering) == 1024
    assert sys.getrecursionlimit() == before


def test_exact_search_runs_deeper_than_the_recursion_limit():
    # the walk goes one level per position: 1001 positions are more than
    # the default limit of 1000; the first ordering meets the bound
    before = sys.getrecursionlimit()
    result = deep_searches()["star"]()
    assert (result.status, result.span) == (EXACT, 1002)
    assert sys.getrecursionlimit() == before


def test_exact_walk_keeps_one_list_slot_per_gap():
    # the walk reaches a leaf of star(400), so it holds a gap vector at
    # each of the 401 depths; every gap lies in 1..diam + 1, a cached small
    # int, so the vectors cost about one 8-byte slot an entry (a vector of
    # labels, each its own int object past 256, took about 22 bytes)
    g = star(400)
    g.distance_matrix()
    tracemalloc.start()
    try:
        result = exact_radio_number(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.status, result.span) == (EXACT, 402)
    assert result.orderings_examined >= 1
    assert peak < 16 * 401 ** 2


def test_deep_walks_never_touch_the_recursion_limit(monkeypatch):
    def refuse(limit):
        raise AssertionError("the recursion limit is process-wide")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    searches = deep_searches()
    result = searches["star"]()
    assert (result.status, result.span) == (EXACT, 1002)
    result = searches["K32^2"]()
    assert result.status == WITNESS_FOUND
    assert len(result.ordering) == 1024
    assert verify_witness(cartesian_power(complete(32), 2), result.ordering)
    g = cycle(1100)
    assert _automorphism_test(g, g.distance_matrix(), 0)(1) is True


def test_deep_searches_run_in_two_threads_at_once():
    before = sys.getrecursionlimit()
    searches = deep_searches()
    alone = {name: run().to_dict() for name, run in searches.items()}
    together = {}

    def run_into(name):
        together[name] = searches[name]().to_dict()

    threads = [threading.Thread(target=run_into, args=(name,))
               for name in searches]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # interleave the two walks finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert together == alone
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
    assert g.factors is None
    start = time.monotonic()
    if search == "witness":
        result = find_consecutive_ordering(g, time_budget=0)
    else:
        result = exact_radio_number(g, time_budget=0)
    assert time.monotonic() - start < 0.5
    assert result.status == TIMEOUT
    assert (result.span, result.ordering) == (None, None)


def test_exact_budget_returns_an_upper_bound():
    # P_14 takes far longer than the budget to settle (P_13 alone takes
    # several seconds); the greedy orderings are complete long before the
    # budget runs out, so the span is at most the best greedy span
    g = path(14)
    start = time.monotonic()
    result = exact_radio_number(g, time_budget=0.5)
    assert time.monotonic() - start < 2.0
    assert result.status == TIMEOUT
    assert liu_zhu_span(14) <= result.span <= min(greedy_spans(g))
    assert sorted(result.ordering) == list(range(14))
    assert result.labeling.span == result.span
    assert check_radio(g, result.labeling) == []


@pytest.mark.parametrize("graph", [path(200), cycle(300)],
                         ids=["P200", "C300"])
def test_budget_bounds_the_symmetry_reduction(graph, monkeypatch):
    # finding the orbit representatives took about 15 s on P_200 and 2.5 s
    # on C_300 before the deadline was polled between vertices; with the
    # table filled and no budget the walk's poll fires before its first
    # start, however fast the host would test the orbits
    dist = graph.distance_matrix()
    start = time.monotonic()
    result = exact_radio_number(graph, symmetry_reduction=True,
                                time_budget=0)
    assert time.monotonic() - start < 1.0
    assert (result.status, result.span, result.ordering) \
        == (TIMEOUT, None, None)

    # an expired deadline yields every vertex, and tests none
    def refuse(*args):
        raise AssertionError("an orbit test ran past the deadline")

    monkeypatch.setattr("radiolabel.search._automorphism_test", refuse)
    assert list(_first_vertex_representatives(
        graph, dist, time.monotonic() - 1)) == list(range(graph.vertex_count))


def test_budget_bounds_each_orbit_test():
    # a star's leaves are twins, and one orbit test costs O(n^3): at 600
    # leaves the search ran 3-4 s on a 1-s budget when the backtrack
    # did not poll the deadline, and returned no ordering.  Past the
    # deadline the remaining starts are yielded untested and the bounds
    # cut each of them at the first position, so the answer is exact
    g = star(600)
    start = time.monotonic()
    result = exact_radio_number(g, symmetry_reduction=True, time_budget=1)
    assert time.monotonic() - start < 2.0
    assert (result.status, result.span) == (EXACT, 602)


def test_symmetry_reduction_times_out_with_an_upper_bound():
    # the orbit pre-pass used to spend the whole budget on C_300 and
    # return no ordering; the greedy orderings from all 300 starts take
    # about 2.4 s, so the best of those finished is reported
    g = cycle(300)
    result = exact_radio_number(g, symmetry_reduction=True, time_budget=0.5)
    assert result.status == TIMEOUT
    assert sorted(result.ordering) == list(range(300))
    assert check_radio(g, result.labeling) == []


def test_witness_budget_is_polled_inside_the_candidate_scan():
    # all 2187 vertices of K_3^7 are candidates at the first position, and
    # the whole walk takes about 9 s: t = 7 reaches the threshold
    # s(K_3) = 5, so the graph has no consecutive labeling
    g = cartesian_power(complete(3), 7)
    g.distance_matrix()
    start = time.monotonic()
    result = find_consecutive_ordering(g, time_budget=0.2)
    assert time.monotonic() - start < 1.0
    assert (result.status, result.ordering) == (TIMEOUT, None)


def test_witness_budget_bounds_the_first_scan_at_the_cache_limit():
    # K_4^6 has 4096 vertices, the most the distance cache holds; the first
    # scan builds a mask per vertex from its 4096-entry row, which took
    # about 0.85 s without the poll inside the scan
    g = cartesian_power(complete(4), 6)
    g.distance_matrix()
    start = time.monotonic()
    result = find_consecutive_ordering(g, time_budget=0.05)
    assert time.monotonic() - start < 0.5
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
