import math
import random
import sys
import threading
import time
import tracemalloc
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (complete_bipartite, kernel_corpus, random_connected,
                      relabelled, small_corpus, star)
from radiolabel import (
    EXACT,
    Graph,
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
from radiolabel import search
from radiolabel.search import (DEFAULT_TIME_BUDGET,
                               _first_vertex_representatives, _largest_triple)


def representatives(graph) -> list:
    return list(_first_vertex_representatives(graph))


def unfiltered(monkeypatch, graph):
    """exact_radio_number with the twin filter replaced by every vertex:
    the walk with no start skipped."""
    with monkeypatch.context() as patch:
        patch.setattr(search, "_first_vertex_representatives",
                      lambda g: iter(range(g.vertex_count)))
        return exact_radio_number(graph)


def orbit_minima_by_scan(graph) -> list:
    """The least vertex of each vertex's automorphism orbit, by trying
    every permutation of the vertex set; an oracle for the twin filter."""
    n = graph.vertex_count
    adj = graph.adjacency
    edges = graph.edges()
    least = list(range(n))
    for perm in permutations(range(n)):
        if all(perm[v] in adj[perm[u]] for u, v in edges):
            for v in range(n):
                least[perm[v]] = min(least[perm[v]], v)
    return least


def untwinned_by_distances(graph) -> list:
    """The vertices with no smaller twin, read off the distance table:
    the swap (u v) keeps every distance exactly when the rows of u and v
    agree outside {u, v}; an oracle for the twin filter that never looks
    at a neighbourhood."""
    dist = graph.distance_matrix()
    n = graph.vertex_count
    return [v for v in range(n)
            if not any(all(dist[u][x] == dist[v][x]
                           for x in range(n) if x not in (u, v))
                       for u in range(v))]


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


@pytest.mark.parametrize("n", range(4, 15))
def test_path_spans_match_liu_zhu(n):
    # P_11 took about 10 s under the eccentricity bound alone.  The level
    # bound without its end term took 4-5 s on P_14 and 1-1.4 s on P_13;
    # with the end term P_14 is exact in 0.6-1 s (2-vCPU host)
    result = exact_radio_number(path(n), time_budget=5)
    assert (result.status, result.span) == (EXACT, liu_zhu_span(n))


def liu_zhu_cycle_span(n: int) -> int:
    """rn(C_n) for n >= 3 by Liu and Zhu (SIAM J. Discrete Math. 19, 2005),
    labels from 1: with n = 4k + r and phi = k + 1 if r = 1, else k + 2,
    (n - 2) / 2 * phi + 2 for even n and (n - 1) / 2 * phi + 1 for odd n."""
    k, r = divmod(n, 4)
    phi = k + 1 if r == 1 else k + 2
    return (n - 2) // 2 * phi + 2 if n % 2 == 0 else (n - 1) // 2 * phi + 1


@pytest.mark.parametrize("n", range(4, 61))
def test_cycle_spans_match_liu_zhu(n):
    # under the eccentricity and level bounds alone C_11 took about 1.5 s,
    # C_12 several, and every cycle from C_16 up ran out of budget; the
    # pair bound settles each of these in a few milliseconds
    result = exact_radio_number(cycle(n), time_budget=5)
    assert (result.status, result.span) == (EXACT, liu_zhu_cycle_span(n))


# orderings_examined of the walk before the level bound's end term, on the
# paths and the grid where the end term cuts candidates, and on C_9, a
# benchmark graph it leaves alone: a tighter admissible bound seeded with
# the same incumbent reaches the same leaves
EXAMINED_BEFORE_THE_END_TERM = {
    **{f"P{n}": (path(n), liu_zhu_span(n), count)
       for n, count in zip(range(6, 13), (2, 1, 2, 2, 2, 2, 2))},
    "P3xP4": (cartesian_product(path(3), path(4)), 28, 2),
    "C9": (cycle(9), liu_zhu_cycle_span(9), 1),
}


@pytest.mark.parametrize("name", list(EXAMINED_BEFORE_THE_END_TERM))
def test_end_term_keeps_the_leaves_reached(name):
    g, span, examined = EXAMINED_BEFORE_THE_END_TERM[name]
    result = exact_radio_number(g, time_budget=5)
    assert (result.status, result.span, result.orderings_examined) \
        == (EXACT, span, examined)
    if g.vertex_count <= 7:  # at most 5040 orderings to enumerate
        assert result.ordering \
            == exact_radio_number(g, prune=False).ordering


def test_c100_is_exact_within_the_default_budget():
    result = exact_radio_number(cycle(100), time_budget=DEFAULT_TIME_BUDGET)
    assert (result.status, result.span) == (EXACT, liu_zhu_cycle_span(100))


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


@pytest.mark.parametrize("twin_starts", [False, True])
def test_eccentricity_bound_walks_like_the_one_per_step_bound(
        monkeypatch, twin_starts):
    # without twin starts, the same walk from every vertex
    for name, g in bound_corpus():
        if twin_starts:
            starts, result = representatives(g), exact_radio_number(g)
        else:
            starts, result = range(g.vertex_count), unfiltered(monkeypatch, g)
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


def largest_triple_by_scan(graph) -> int:
    """The largest d(a, b) + d(b, c) + d(a, c) over three distinct
    vertices, by trying every triple; the reference for the triple scan."""
    dist = all_pairs_distances(graph)
    return max(dist[a][b] + dist[b][c] + dist[a][c]
               for a, b, c in combinations(range(graph.vertex_count), 3))


def pair_step(diam: int, largest: int) -> int:
    """The least rise of the label over two consecutive steps: each pair
    among x, y, z asks for diam + 1 - d, and the three add up to twice
    the rise from x to z."""
    return max(2, math.ceil((3 * (diam + 1) - largest) / 2))


TRIPLE_CORPUS = ([(name, g) for name, g in bound_corpus()
                  if g.vertex_count >= 3]
                 + [(f"star{k}", star(k)) for k in (2, 3, 7, 20)]
                 + [(f"C{n}", cycle(n)) for n in (3, 8, 13, 24)])


@pytest.mark.parametrize("name,g", TRIPLE_CORPUS,
                         ids=[name for name, _ in TRIPLE_CORPUS])
def test_triple_scan_matches_every_triple(name, g):
    # the scan may stop at the first triple of 3 diam - 1 or more, where
    # the pair bound is already down to its floor of 2
    diam = g.diameter()
    expected = largest_triple_by_scan(g)
    found = _largest_triple(g.distance_matrix(), diam, math.inf)
    if expected >= 3 * diam - 1:
        assert 3 * diam - 1 <= found <= expected
    else:
        assert found == expected
    assert pair_step(diam, found) == pair_step(diam, expected)


def test_triple_scan_stops_at_the_first_triple_past_the_floor(monkeypatch):
    # star(1000): the hub's row has no triple above 4, the first pair of
    # leaves with any third leaf reaches 6 >= 3 diam - 1, so the scan
    # polls the clock for two rows of the 1000
    g = star(1000)
    dist = g.distance_matrix()
    polls = []
    monkeypatch.setattr(search.time, "monotonic",
                        lambda: polls.append(None) or 0.0)
    assert _largest_triple(dist, 2, 1.0) == 6
    assert len(polls) == 2


def test_triple_scan_polls_the_deadline_per_row():
    g = cycle(60)
    assert _largest_triple(g.distance_matrix(), 30,
                           time.monotonic() - 1) is None


def test_cycle_1100_times_out_on_time_with_a_greedy_ordering():
    # one greedy ordering takes about 0.1 s and the triple scan of all
    # 1100 rows far longer than the budget; polled per row, it ends there.
    # 1100 positions are more than the default recursion limit of 1000
    start = time.monotonic()
    g = cycle(1100)
    g.distance_matrix()
    filled = time.monotonic()
    result = exact_radio_number(g, time_budget=1)
    assert time.monotonic() - filled < 1.5
    assert time.monotonic() - start < 3.0
    assert result.status == TIMEOUT
    assert sorted(result.ordering) == list(range(1100))
    assert result.labeling.span == result.span


# (status, span, ordering, labels, orderings_examined) of instances deeper
# than the one-per-step oracle reaches, as the walk that recomputed each
# candidate's label from its window reported them
PINNED = {
    "P10": (path(10), (EXACT, 42, (4, 9, 1, 6, 2, 7, 3, 8, 0, 5),
                       (37, 8, 19, 30, 1, 42, 13, 24, 35, 6), 2)),
    "C10": (cycle(10), (EXACT, 18, (0, 5, 2, 7, 4, 9, 6, 1, 8, 3),
                        (1, 14, 5, 18, 9, 2, 13, 6, 17, 10), 1)),
}


@pytest.mark.parametrize("twin_starts", [False, True])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_exact_outputs_pinned_past_the_oracle(monkeypatch, name, twin_starts):
    g, expected = PINNED[name]
    result = (exact_radio_number(g) if twin_starts
              else unfiltered(monkeypatch, g))
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
@given(small_connected_graphs())
def test_pruned_equals_unpruned_on_random_graphs(g):
    # the oracle is the full enumeration, whatever the pruned side skips
    pruned = exact_radio_number(g)
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
    result = exact_radio_number(cycle(4), prune=False)
    assert (result.status, result.span, result.orderings_examined) \
        == (EXACT, 5, 24)


def test_symmetry_reduction_preserves_optimum(monkeypatch):
    # the lexicographically first optimum starts at the least vertex of
    # its orbit, and a start skipped as the twin of a smaller one has
    # only orderings that its twin's already match, so no leaf is lost
    graphs = bound_corpus() + [
        ("C10", cycle(10)),
        ("K3xP3", cartesian_product(complete(3), path(3))),
        ("K2,6", complete_bipartite(2, 6))]
    for name, g in graphs:
        reduced = exact_radio_number(g)
        full = unfiltered(monkeypatch, g)
        assert reduced == full, name
        assert reduced.status == EXACT, name
        assert check_radio(g, reduced.labeling) == [], name


def test_the_walk_takes_its_starts_from_the_twin_filter(monkeypatch):
    calls = []

    def recorded(graph):
        calls.append(graph)
        return _first_vertex_representatives(graph)

    monkeypatch.setattr(search, "_first_vertex_representatives", recorded)
    g = complete_bipartite(2, 4)
    assert exact_radio_number(g).status == EXACT
    assert calls == [g]


def test_twin_starts_settle_a_complete_bipartite_graph():
    # every start of K_{2,9} but 0 and 2 is a twin of a smaller one; the
    # walk from every start took 2.3-2.7 s, the filtered one 0.2-0.35 s
    start = time.monotonic()
    result = exact_radio_number(complete_bipartite(2, 9))
    assert time.monotonic() - start < 2.0
    assert (result.status, result.span) == (EXACT, 12)


def test_twin_representatives_pinned():
    # K_6 is one twin class, a star's leaves are false twins, and so are
    # opposite vertices of C_4; a swap of twins is the only symmetry the
    # filter sees, so the twin-free cycle, cube, Petersen graph and path
    # keep every start however transitive they are
    cube = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                           (4, 5), (5, 6), (6, 7), (7, 4),
                           (0, 4), (1, 5), (2, 6), (3, 7)])
    assert representatives(complete(6)) == [0]
    assert representatives(star(3)) == [0, 1]
    assert representatives(cycle(4)) == [0, 1]
    for g in (cycle(6), cube, petersen(), path(4)):
        assert representatives(g) == list(range(g.vertex_count))


def twin_corpus() -> list:
    # in "asym" the vertex pairs 0/4, 1/3 and 2/5 share sorted distance
    # rows but no automorphism joins them; K_{2,3} has false twins on
    # both sides and K_5 less an edge true twins
    asym = build_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4),
                           (2, 4), (3, 5), (4, 5)])
    k23 = build_graph(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
    k5e = build_graph(5, [e for e in combinations(range(5), 2)
                          if e != (0, 4)])
    return small_corpus() + [("C9", cycle(9)),
                             ("P3xP3", cartesian_power(path(3), 2)),
                             ("asym", asym), ("K23", k23), ("K5-e", k5e)]


def test_twin_representatives_are_sound_against_permutation_scan():
    # every orbit's least vertex is yielded, and every skipped vertex has
    # a smaller yielded vertex in its orbit
    for name, g in twin_corpus():
        reps = representatives(g)
        least = orbit_minima_by_scan(g)
        assert set(least) <= set(reps), name
        for v in set(range(g.vertex_count)) - set(reps):
            assert any(least[u] == least[v] for u in reps if u < v), name


def test_twin_representatives_match_the_distance_table():
    for name, g in twin_corpus():
        assert representatives(g) == untwinned_by_distances(g), name


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
    # the default limit of 1000; the first ordering meets the bound.  An
    # automorphism backtrack over the leaves spent the whole default
    # budget; the twin keys skip them in O(|V| + |E|)
    before = sys.getrecursionlimit()
    star_search = deep_searches()["star"]
    start = time.monotonic()
    result = star_search()
    assert time.monotonic() - start < 2.0
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
@pytest.mark.parametrize("build", [
    lambda: cartesian_power(complete(4), 6),
    lambda: cartesian_product(path(2048), complete(2)),
], ids=["K4^6", "P2048xK2"])
def test_budget_bounds_a_product_table(build, search):
    # summing the factors' tables into the product's took 0.7-1.5 s on
    # K_4^6 and 1.9-3.3 s on P_2048 x K_2 before the fill was polled
    # between rows and filled its factors under the same deadline
    g = build()
    start = time.monotonic()
    if search == "witness":
        result = find_consecutive_ordering(g, time_budget=0)
    else:
        result = exact_radio_number(g, time_budget=0)
    assert time.monotonic() - start < 0.5
    assert (result.status, result.ordering) == (TIMEOUT, None)


def test_exact_budget_is_polled_before_the_root_scans(monkeypatch):
    # with K_4^6's table already filled, the cost and level scans over its
    # 4096^2 entries took about 0.36 s before the first poll; the diameter
    # is read just before them
    g = cartesian_power(complete(4), 6)
    g.distance_matrix()

    def refuse(self):
        raise AssertionError("the table was scanned past the deadline")

    monkeypatch.setattr(Graph, "diameter", refuse)
    start = time.monotonic()
    result = exact_radio_number(g, time_budget=0)
    assert time.monotonic() - start < 0.5
    assert (result.status, result.ordering) == (TIMEOUT, None)


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
    # P_16 does not settle even in 3 s: its greedy span, 115, is one above
    # rn(P_16) and the walk does not reach 114 in that time (P_14 settles
    # in under 1 s); the greedy orderings are complete long before the
    # budget runs out, so the span is at most the best greedy span
    g = path(16)
    start = time.monotonic()
    result = exact_radio_number(g, time_budget=0.5)
    assert time.monotonic() - start < 2.0
    assert result.status == TIMEOUT
    assert liu_zhu_span(16) <= result.span <= min(greedy_spans(g))
    assert sorted(result.ordering) == list(range(16))
    assert result.labeling.span == result.span
    assert check_radio(g, result.labeling) == []


@pytest.mark.parametrize("graph", [path(200), cycle(300)],
                         ids=["P200", "C300"])
def test_budget_bounds_the_symmetry_reduction(graph):
    # finding the orbit representatives took about 15 s on P_200 and 2.5 s
    # on C_300 before the deadline was polled between vertices; with the
    # table filled and no budget the walk's poll fires before its first
    # start
    graph.distance_matrix()
    start = time.monotonic()
    result = exact_radio_number(graph, time_budget=0)
    assert time.monotonic() - start < 1.0
    assert (result.status, result.span, result.ordering) \
        == (TIMEOUT, None, None)


def test_budget_bounds_each_orbit_test():
    # a star's leaves are twins: at 600 leaves the search ran 3-4 s on a
    # 1-s budget when an automorphism backtrack tested each leaf and did
    # not poll the deadline, and returned no ordering.  The twin filter
    # skips every leaf with one key each, so the answer is exact
    g = star(600)
    start = time.monotonic()
    result = exact_radio_number(g, time_budget=1)
    assert time.monotonic() - start < 2.0
    assert (result.status, result.span) == (EXACT, 602)


def test_symmetry_reduction_costs_a_cycle_nothing(monkeypatch):
    # C_300 is twin-free, so the filter skips no start and changes no
    # output; an orbit test on each start before the root cuts made the
    # filtered walk take about three times as long (1.45-1.78 s against
    # 0.51 s).  Best of two runs a side, interleaved, so host drift hits
    # both
    g = cycle(300)
    g.distance_matrix()
    seconds = {False: [], True: []}
    outputs = {}
    for filtered in (False, True, False, True):
        start = time.monotonic()
        result = (exact_radio_number(g) if filtered
                  else unfiltered(monkeypatch, g))
        seconds[filtered].append(time.monotonic() - start)
        outputs[filtered] = (result.status, result.span, result.ordering,
                             result.orderings_examined)
    assert outputs[True] == outputs[False]
    assert outputs[True][:2] == (EXACT, 11475)
    assert min(seconds[True]) < 1.5 * min(seconds[False]) + 0.1


def test_symmetry_reduction_times_out_with_an_upper_bound():
    # the orbit pre-pass used to spend the whole budget on C_300 and
    # return no ordering.  The start filter now waits for the walk, which
    # waits for a greedy ordering and the triple scan; the pair bound
    # settles C_300 in about the 0.5 s of its scan, but C_600's scan
    # takes about 6 s, so the greedy ordering is reported
    g = cycle(600)
    result = exact_radio_number(g, time_budget=0.5)
    assert result.status == TIMEOUT
    assert sorted(result.ordering) == list(range(600))
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


def test_unpruned_enumeration_induces_each_ordering_once(monkeypatch):
    # the best ordering's labeling is the one the enumeration induced: the
    # 3! orderings of P_3 take 6 calls, not 7
    calls = []

    def counted(graph, order):
        calls.append(order)
        return induced_labeling(graph, order)

    monkeypatch.setattr("radiolabel.search.induced_labeling", counted)
    result = exact_radio_number(path(3), prune=False)
    assert (result.status, result.span, result.ordering) \
        == (EXACT, 4, (0, 2, 1))
    assert result.labeling.labels == (1, 4, 2)
    assert sorted(calls) == list(permutations(range(3)))


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
