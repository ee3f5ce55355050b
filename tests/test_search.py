import sys
import time
from itertools import permutations

import pytest

from conftest import small_corpus, star
from radiolabel import (
    EXACT,
    EXHAUSTED,
    InvalidParameterError,
    TIMEOUT,
    TooLargeError,
    WITNESS_FOUND,
    cartesian_power,
    complete,
    cycle,
    exact_radio_number,
    find_consecutive_ordering,
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


@pytest.mark.parametrize("n", range(4, 10))
def test_path_spans_match_liu_zhu(n):
    assert exact_radio_number(path(n)).span == liu_zhu_span(n)


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
    # the 4-path folds onto itself end to end
    assert _first_vertex_representatives(path(4)) == [0, 1]
    assert _first_vertex_representatives(star(3)) == [0, 1]
    assert _first_vertex_representatives(petersen()) == [0]


def test_orbit_representatives_match_permutation_scan():
    graphs = small_corpus() + [("C9", cycle(9)),
                               ("P3xP3", cartesian_power(path(3), 2))]
    for name, g in graphs:
        assert _first_vertex_representatives(g) == orbit_minima_by_scan(g), \
            name


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


def test_budget_must_be_finite_and_non_negative():
    # NaN would never reach the deadline; C_4 keeps a miss fast
    for budget in (float("nan"), float("inf"), -1.0):
        with pytest.raises(InvalidParameterError, match="time budget"):
            find_consecutive_ordering(cycle(4), time_budget=budget)


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
