import enum
import json
import math
import random
import re
import time
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import kernel_corpus, small_corpus
from radiolabel import (
    Graph,
    IncompleteLabelingError,
    IndexOutOfRangeError,
    InvalidParameterError,
    KOutOfRangeError,
    Labeling,
    RadioLabelError,
    SizeLimitExceededError,
    Violation,
    all_pairs_distances,
    build_graph,
    cartesian_power,
    check_consecutive_ordering,
    check_k_radio,
    check_radio,
    complete,
    cycle,
    flat_indices,
    induced_labeling,
    is_consecutive,
    knt_ordering,
    path,
    petersen,
)
from radiolabel import graphs, labeling
from radiolabel.labeling import (
    labeling_from_json,
    labeling_to_json,
    ordering_from_json,
    ordering_to_json,
)


def naive_induced(graph, order):
    """Reference labeling: the defining formula with a full scan over all
    earlier vertices, no windowing."""
    dist = all_pairs_distances(graph)
    diam = max(map(max, dist))
    labels = [0] * graph.vertex_count
    for i, v in enumerate(order):
        if i == 0:
            labels[v] = 1
            continue
        best = labels[order[i - 1]] + 1
        for j in range(i):
            u = order[j]
            best = max(best, labels[u] + diam + 1 - dist[u][v])
        labels[v] = best
    return labels


# reference loops: the checks as written against the checked per-call
# Graph.distance, which the fast distance kernel must agree with (the
# induced labeling is checked against naive_induced above)

def reference_k_radio(graph, labels, k, fail_fast=False):
    violations = []
    n = graph.vertex_count
    for u in range(n):
        for v in range(u + 1, n):
            gap = abs(labels[u] - labels[v])
            if gap > k:
                continue
            required = k + 1 - graph.distance(u, v)
            if gap < required:
                violations.append(Violation(u, v, required, gap))
                if fail_fast:
                    return violations
    return violations


def reference_window(graph, order):
    diam = graph.diameter()
    n = len(order)
    return all(graph.distance(order[i], order[i + c]) >= diam - c + 1
               for i in range(n - 1)
               for c in range(1, min(diam, n - 1 - i) + 1))


# ---------------------------------------------------------------------------
# k-radio checks
# ---------------------------------------------------------------------------

def test_k3_consecutive_is_radio():
    assert check_k_radio(complete(3), (1, 2, 3), 1) == []


def test_p3_consecutive_fails_at_k2():
    violations = check_k_radio(path(3), (1, 2, 3), 2)
    assert [(w.u, w.v, w.required_gap, w.actual_gap) for w in violations] == [
        (0, 1, 2, 1),
        (1, 2, 2, 1),
    ]


def test_distinct_labels_pass_k1():
    for name, g in small_corpus():
        n = g.vertex_count
        labels = list(range(1, n + 1))
        random.Random(n).shuffle(labels)
        assert check_k_radio(g, labels, 1) == [], name


def test_p3_valid_radio_labeling():
    g = path(3)
    assert check_radio(g, (3, 1, 4)) == []
    assert Labeling((3, 1, 4)).span == 4


def test_p3_invalid_radio_labeling():
    assert check_radio(path(3), (1, 2, 3)) != []


def test_complete_any_consecutive_order_valid():
    rng = random.Random(1)
    for n in range(2, 8):
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        assert check_radio(complete(n), labels) == []


def test_fail_fast_stops_early():
    g = path(3)
    assert len(check_k_radio(g, (1, 2, 3), 2, fail_fast=True)) == 1


def test_k_out_of_range():
    with pytest.raises(KOutOfRangeError):
        check_k_radio(path(3), (1, 2, 3), 0)
    with pytest.raises(KOutOfRangeError):
        check_k_radio(path(3), (1, 2, 3), 3)


def test_k_must_be_an_integer():
    # 1.0 must not slip onto the k = 1 edge scan, nor 2.0 into range()
    g = path(3)
    for k in (1.0, 2.0, "1"):
        with pytest.raises(InvalidParameterError, match="^k must be an "
                           "integer, not (float|str)$"):
            check_k_radio(g, (1, 2, 3), k)

    class Level(int):
        pass

    assert check_k_radio(g, (1, 1, 2), 1) == [Violation(0, 1, 1, 0)]
    assert check_k_radio(g, (1, 1, 2), Level(1)) == [Violation(0, 1, 1, 0)]
    assert check_k_radio(g, (1, 2, 3), Level(2)) == \
        check_k_radio(g, (1, 2, 3), 2)


def test_incomplete_labeling_rejected():
    with pytest.raises(IncompleteLabelingError):
        check_radio(path(3), (1, 2))
    with pytest.raises(IncompleteLabelingError):
        check_radio(path(3), (1, 0, 2))


def test_monotone_in_k():
    rng = random.Random(3)
    for name, g in small_corpus():
        diam = g.diameter()
        if diam < 2:
            continue
        n = g.vertex_count
        labels = [rng.randrange(1, 2 * n) for _ in range(n)]
        for k in range(diam, 1, -1):
            if not check_k_radio(g, labels, k):
                assert not check_k_radio(g, labels, k - 1), name


def test_k1_equals_proper_coloring():
    rng = random.Random(4)
    for name, g in small_corpus():
        n = g.vertex_count
        for _ in range(5):
            labels = [rng.randrange(1, 4) for _ in range(n)]
            proper = all(labels[u] != labels[v] for u, v in g.edges())
            assert (check_k_radio(g, labels, 1) == []) == proper, name


def test_k1_scans_edges_past_the_distance_cache():
    # P_5000 has no all-pairs table (DISTANCE_CACHE_LIMIT is 4096); at
    # k = 1 only the edges are read, so none is filled
    g = path(5000)
    assert g.vertex_count > graphs.DISTANCE_CACHE_LIMIT
    colouring = [1 + v % 2 for v in range(5000)]
    assert check_k_radio(g, colouring, 1) == []
    colouring[4999] = colouring[4998]
    for fail_fast in (False, True):
        assert check_k_radio(g, colouring, 1, fail_fast) == \
            [Violation(4998, 4999, 1, 0)]
    assert g._dist is None


def test_k1_builds_no_product_adjacency():
    g = cartesian_power(complete(5), 4)
    colouring = [1 + sum(graphs.decode_index(v, g.factor_sizes)) % 5
                 for v in range(g.vertex_count)]
    assert check_k_radio(g, colouring, 1) == []
    # vertex 0 takes label 2, as each neighbour with one coordinate 1 has
    colouring[0] = colouring[1]
    assert check_k_radio(g, colouring, 1) == \
        [Violation(0, v, 1, 0) for v in (1, 5, 25, 125)]
    assert g._adjacency is None


def test_k1_reads_no_diameter_or_distance(monkeypatch):
    rng = random.Random(34)
    cases = []
    for name, g in kernel_corpus() + small_corpus():
        n = g.vertex_count
        for top in (2, 3, n):
            labels = [rng.randint(1, top) for _ in range(n)]
            cases += [(name, g, labels, fail_fast,
                       reference_k_radio(g, labels, 1, fail_fast))
                      for fail_fast in (False, True)]

    def refuse(*args, **kwargs):
        raise AssertionError("distance or diameter read at k = 1")

    for attr in ("diameter", "distance_matrix", "_distance_function"):
        monkeypatch.setattr(Graph, attr, refuse)
    for name, g, labels, fail_fast, expected in cases:
        assert check_k_radio(g, labels, 1, fail_fast) == expected, name
    assert any(expected for *_, expected in cases)


# ---------------------------------------------------------------------------
# induced labelings
# ---------------------------------------------------------------------------

def test_p3_induced_example():
    lab = induced_labeling(path(3), (0, 2, 1))
    assert lab.labels == (1, 4, 2)
    assert lab.span == 4


def test_k3_induced_identity():
    assert induced_labeling(complete(3), (0, 1, 2)).labels == (1, 2, 3)


def test_c4_induced_example():
    lab = induced_labeling(cycle(4), (0, 2, 1, 3))
    assert lab.labels == (1, 4, 2, 5)
    assert lab.span == 5


def test_induced_matches_naive_everywhere():
    rng = random.Random(5)
    for name, g in small_corpus():
        n = g.vertex_count
        orders = list(permutations(range(n))) if n <= 4 else [
            tuple(rng.sample(range(n), n)) for _ in range(30)]
        for order in orders:
            assert list(induced_labeling(g, order).labels) == \
                naive_induced(g, order), (name, order)


def test_induced_passes_radio_and_increases():
    rng = random.Random(6)
    for name, g in small_corpus():
        n = g.vertex_count
        for _ in range(10):
            order = tuple(rng.sample(range(n), n))
            lab = induced_labeling(g, order)
            assert check_radio(g, lab) == [], name
            along = [lab.labels[v] for v in order]
            assert along[0] == 1, name
            assert all(a < b for a, b in zip(along, along[1:])), name


def test_checks_agree_with_per_call_distance_loops():
    rng = random.Random(11)
    windows = set()
    for name, g in kernel_corpus():
        n = g.vertex_count
        orders = [tuple(rng.sample(range(n), n)) for _ in range(3)]
        if name == "K4^3":
            knt = flat_indices(knt_ordering(4, 3), 4)
            late = list(knt)
            late[-1], late[-3] = late[-3], late[-1]
            orders += [tuple(knt), tuple(late)]
        labelings = [tuple(rng.randint(1, n) for _ in range(n))]
        for order in orders:
            window = check_consecutive_ordering(g, order)
            assert window == reference_window(g, order), (name, order)
            windows.add(window)
            labels = induced_labeling(g, order).labels
            assert list(labels) == naive_induced(g, order), (name, order)
            swapped = list(labels)
            i, j = rng.sample(range(n), 2)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            labelings += [labels, tuple(swapped)]
        for labels in labelings:
            for k in range(1, max(g.diameter(), 1) + 1):
                for fail_fast in (False, True):
                    found = check_k_radio(g, labels, k, fail_fast)
                    assert found == sorted(found) == \
                        reference_k_radio(g, labels, k, fail_fast), (name, k)
    assert windows == {True, False}


def one_swaps(order, diam):
    """The ordering with positions i and i + diam swapped, for one i in
    its first, middle and last window."""
    n = len(order)
    out = []
    for i in (0, n // 2 - diam // 2, n - 1 - diam):
        if 0 <= i < i + diam < n:
            swapped = list(order)
            swapped[i], swapped[i + diam] = swapped[i + diam], swapped[i]
            out.append(tuple(swapped))
    return out


def window_orders(name, g, rng):
    """The K_n^t ordering of a K_n^t graph, else a seeded random ordering,
    with its one-swap variants."""
    power = re.fullmatch(r"K(\d+)\^(\d+)", name)
    base, t = map(int, power.groups()) if power else (0, 0)
    if 3 <= base and t <= base:
        order = tuple(flat_indices(knt_ordering(base, t), base))
    else:
        n = g.vertex_count
        order = tuple(rng.sample(range(n), n))
    return [order] + one_swaps(order, g.diameter())


def assert_window_bytes(g, order, offsets):
    dist = g._distance_function()
    window = graphs._packed_window(g.factor_sizes, order)
    for c in offsets:
        distances = window(c)
        assert isinstance(distances, bytes), c
        assert list(distances) == [dist(order[i], order[i + c])
                                   for i in range(len(order) - c)], c


COMPLETE_PRODUCTS = [(name, g) for name, g in kernel_corpus()
                     if g.factors and all(f.is_complete() for f in g.factors)]


def test_window_kernel_covers_the_named_products():
    # K2^5 counts up to 5 differing coordinates a segment, more than its
    # 2-bit coordinate field holds; K8xK1xK2 has a K_1 factor and a full
    # 3-bit field; K2xK3xK5 mixes field fillings
    names = [name for name, _ in COMPLETE_PRODUCTS]
    assert {"K4^3", "K8^2", "K2^5", "K8xK1xK2", "K2xK3xK5"} <= set(names)


@pytest.mark.parametrize("name, g", COMPLETE_PRODUCTS,
                         ids=[name for name, _ in COMPLETE_PRODUCTS])
def test_window_kernel_matches_the_distance_function(name, g):
    rng = random.Random(name)
    windows = set()
    for order in window_orders(name, g, rng):
        assert_window_bytes(g, order, range(1, g.diameter() + 2))
        window = check_consecutive_ordering(g, order)
        assert window == reference_window(g, order), order
        windows.add(window)
        assert list(induced_labeling(g, order).labels) == \
            naive_induced(g, order), order
    if name in ("K4^3", "K8^2"):
        assert True in windows


@pytest.mark.parametrize("name, g", COMPLETE_PRODUCTS,
                         ids=[name for name, _ in COMPLETE_PRODUCTS])
def test_packed_and_mapped_windows_give_the_same_verdicts(name, g,
                                                          monkeypatch):
    # the packed path tests each offset's bytes by deleting those far
    # enough; with _packed_window refused, the same orderings take the
    # min() over the mapped distances
    rng = random.Random(name)
    n = g.vertex_count
    orders = window_orders(name, g, rng)
    orders += [tuple(rng.sample(range(n), n)) for _ in range(5)]
    assert all(isinstance(graphs._packed_window(g.factor_sizes, order)(1),
                          bytes) for order in orders)
    packed = [check_consecutive_ordering(g, order) for order in orders]
    refused = []
    monkeypatch.setattr(graphs, "_packed_window",
                        lambda sizes, order: refused.append(order))
    assert [check_consecutive_ordering(g, order) for order in orders] \
        == packed == [reference_window(g, order) for order in orders]
    assert refused == orders
    assert False in packed
    if name in ("K4^3", "K8^2"):
        assert True in packed


def test_window_kernel_offsets_past_the_ordering_are_empty():
    g = cartesian_power(complete(2), 2)
    order = (0, 3, 1, 2)
    assert_window_bytes(g, order, (3, 4, 5, 9))
    assert graphs._packed_window(g.factor_sizes, order)(4) == b""


def test_window_kernel_on_a_one_vertex_product():
    g = Graph._product([complete(1)] * 3)
    assert g.diameter() == 0
    assert graphs._packed_window(g.factor_sizes, (0,))(1) == b""
    assert check_consecutive_ordering(g, (0,))
    assert induced_labeling(g, (0,)).labels == (1,)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data(),
       sizes=st.lists(st.integers(1, 9), min_size=1, max_size=5).filter(
           lambda sizes: math.prod(sizes) <= 512))
def test_window_kernel_matches_on_random_products(data, sizes):
    g = Graph._product([complete(size) for size in sizes])
    n = g.vertex_count
    order = tuple(data.draw(st.permutations(range(n)), label="order"))
    assert_window_bytes(g, order, range(1, n + 1))


def test_window_past_64_bits_takes_the_mapped_distances():
    # K_130^2: 9-bit fields, so a segment of two rounds up to 72 bits, and
    # the window check falls back to one distance query per pair
    g = Graph._product([complete(130)] * 2)
    order = tuple(flat_indices(knt_ordering(130, 2), 130))
    assert graphs._packed_window(g.factor_sizes, order) is None
    # vertex 1 swapped to position 1, next to its neighbour 0
    swapped = list(order)
    j = swapped.index(1)
    swapped[1], swapped[j] = swapped[j], swapped[1]
    assert order[0] == 0
    for order, holds in ((order, True), (tuple(swapped), False)):
        assert reference_window(g, order) is holds
        assert check_consecutive_ordering(g, order) is holds
        labels = induced_labeling(g, order).labels
        assert (max(labels) == g.vertex_count) is holds
        assert check_radio(g, labels) == []


CHECK_CORPUS = kernel_corpus() + small_corpus()


@pytest.mark.parametrize("name, g", CHECK_CORPUS,
                         ids=[name for name, _ in CHECK_CORPUS])
@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(data=st.data())
def test_k_radio_agrees_with_pairwise_scan(name, g, data):
    # narrow labels repeat heavily, so for k < diam many equal-label pairs
    # are tested; wide labels leave gaps in the span.  Distinct labels
    # take the offset scan: a permutation of 1..N, as a consecutive
    # labeling has, and N labels drawn from 1..3N
    n = g.vertex_count
    top = data.draw(st.sampled_from((max(2, n // 4), 3 * n)), label="top")
    labels = data.draw(st.lists(st.integers(1, top), min_size=n,
                                max_size=n), label="labels")
    consecutive = data.draw(st.permutations(range(1, n + 1)),
                            label="consecutive")
    spread = data.draw(st.lists(st.integers(1, 3 * n), min_size=n,
                                max_size=n, unique=True), label="spread")
    for labels in (labels, consecutive, spread):
        for k in range(1, max(g.diameter(), 1) + 1):
            for fail_fast in (False, True):
                found = check_k_radio(g, labels, k, fail_fast)
                assert found == sorted(found) == \
                    reference_k_radio(g, labels, k, fail_fast), (name, k)


def test_violations_name_the_lower_vertex_first():
    # sorted by label the P_4 vertices are 2, 3, 1, 0: at offset 1 the
    # pairs (3, 1) and (1, 0) put the higher vertex first, and offset 2
    # finds (1, 2) after offset 1 found (1, 3).  A Violation is a named
    # tuple in field order, so the report equals, sorts and hashes as
    # plain tuples do
    labels = (4, 3, 1, 2)
    report = check_radio(path(4), labels)
    plain = [(0, 1, 3, 1), (1, 2, 3, 2), (1, 3, 2, 1), (2, 3, 3, 1)]
    assert [(w.u, w.v, w.required_gap, w.actual_gap)
            for w in report] == plain
    assert report == plain == sorted(report)
    assert set(report) == set(plain)
    assert check_radio(path(4), labels, fail_fast=True) == \
        [Violation(0, 1, 3, 1)] == [(0, 1, 3, 1)]


def test_radio_check_reads_no_window_kernel(monkeypatch):
    # the check audits what the window kernels compute, so it must not
    # lean on them
    g = cartesian_power(complete(4), 3)
    labels = list(induced_labeling(g, flat_indices(knt_ordering(4, 3), 4))
                  .labels)
    swapped = list(labels)
    swapped[5], swapped[40] = swapped[40], swapped[5]

    def refuse(*args):
        raise AssertionError("window kernel called")

    monkeypatch.setattr(graphs, "_packed_window", refuse)
    monkeypatch.setattr(Graph, "_window_holds", refuse)
    assert check_radio(g, labels) == [] == reference_k_radio(g, labels, 3)
    found = check_radio(g, swapped)
    assert found and found == reference_k_radio(g, swapped, 3)
    # k = 1 on a colouring of K_4^3 by coordinate sum mod 4, and on that
    # colouring with one label copied onto a neighbour
    colouring = [1 + sum(graphs.decode_index(v, g.factor_sizes)) % 4
                 for v in range(g.vertex_count)]
    assert check_k_radio(g, colouring, 1) == [] == \
        reference_k_radio(g, colouring, 1)
    colouring[5] = colouring[4]
    found = check_k_radio(g, colouring, 1)
    assert found and found == reference_k_radio(g, colouring, 1)


def test_fail_fast_stops_after_the_first_violating_offset(monkeypatch):
    # a random permutation of P_400's labels at k = diam breaks at the
    # first offset; the full scan would make up to N k queries
    g = path(400)
    n = g.vertex_count
    labels = list(range(1, n + 1))
    random.Random(29).shuffle(labels)
    calls = []
    kernel = Graph._distance_function

    def counted(graph):
        dist = kernel(graph)

        def query(u, v):
            calls.append(None)
            return dist(u, v)
        return query

    monkeypatch.setattr(Graph, "_distance_function", counted)
    first = check_radio(g, labels, fail_fast=True)
    assert len(calls) <= 3 * n
    assert first == reference_k_radio(g, labels, n - 1, fail_fast=True)


@pytest.mark.parametrize("check", [induced_labeling,
                                   check_consecutive_ordering])
def test_induced_rejects_non_permutation(check):
    # a repeat, a short ordering, and one of the right length with a
    # vertex out of range
    for order in ((0, 1, 1), (0, 1), (0, 1, 3)):
        with pytest.raises(InvalidParameterError):
            check(path(3), order)


# ---------------------------------------------------------------------------
# consecutive labelings and orderings
# ---------------------------------------------------------------------------

def test_k3_with_123_consecutive():
    assert is_consecutive(complete(3), (1, 2, 3))


def test_p3_never_consecutive():
    g = path(3)
    for perm in permutations((1, 2, 3)):
        assert not is_consecutive(g, perm)


def test_k3_squared_ordering_consecutive():
    g = cartesian_power(complete(3), 2)
    order = flat_indices(knt_ordering(3, 2), 3)
    assert check_consecutive_ordering(g, order)
    lab = induced_labeling(g, order)
    assert is_consecutive(g, lab)
    assert lab.span == 9


def test_c4_no_ordering_is_consecutive():
    g = cycle(4)
    for order in permutations(range(4)):
        assert not check_consecutive_ordering(g, order)


def test_complete_any_ordering_consecutive():
    rng = random.Random(8)
    for n in (3, 5, 8):
        g = complete(n)
        for _ in range(5):
            order = tuple(rng.sample(range(n), n))
            assert check_consecutive_ordering(g, order)


# (n, t) of the K_n^t orderings up to 256 vertices, t >= 2
SMALL_POWERS = [(n, t) for n in range(3, 17) for t in range(2, n + 1)
                if n ** t <= 256]


def test_window_check_equals_consecutive_induced():
    # exhaustively on small graphs, sampled on larger ones
    rng = random.Random(9)
    cube = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                           (4, 5), (5, 6), (6, 7), (7, 4),
                           (0, 4), (1, 5), (2, 6), (3, 7)])
    cases = [g for _, g in small_corpus() if g.vertex_count <= 6]
    for g in cases:
        for order in permutations(range(g.vertex_count)):
            window = check_consecutive_ordering(g, order)
            lab = induced_labeling(g, order)
            assert window == is_consecutive(g, lab)
            assert window == (lab.span == g.vertex_count)
    for g in (cube, petersen()):
        n = g.vertex_count
        for _ in range(200):
            order = tuple(rng.sample(range(n), n))
            window = check_consecutive_ordering(g, order)
            lab = induced_labeling(g, order)
            assert window == is_consecutive(g, lab)
            assert window == (lab.span == n)
    # K_n^t up to 256 vertices, where both checks take the packed window
    # kernel: the O(N^2) radio check, which does not, audits them
    windows = set()
    for n, t in SMALL_POWERS:
        g = cartesian_power(complete(n), t)
        order = tuple(flat_indices(knt_ordering(n, t), n))
        for variant in [order] + one_swaps(order, t):
            window = check_consecutive_ordering(g, variant)
            lab = induced_labeling(g, variant)
            assert window == is_consecutive(g, lab) == \
                (lab.span == n ** t), (n, t, variant)
            windows.add(window)
    assert windows == {True, False}


@pytest.mark.parametrize("g, order", [
    pytest.param(complete(1), (0,), id="K1")] + [
    pytest.param(cartesian_power(complete(n), t),
                 tuple(flat_indices(knt_ordering(n, t), n)), id=f"K{n}^{t}")
    for n, t in SMALL_POWERS])
def test_positions_labeling_is_a_checked_labeling(monkeypatch, g, order):
    # when the window criterion holds, induced_labeling returns the
    # positions without Labeling's checks; the result must be the
    # checked Labeling of the same labels in every way it is read
    checks = []
    post_init = Labeling.__post_init__
    monkeypatch.setattr(Labeling, "__post_init__",
                        lambda self: checks.append(post_init(self)))
    fast = induced_labeling(g, order)
    assert checks == []  # the fast path ran
    checked = Labeling(list(fast.labels))
    assert len(checks) == 1
    assert fast == checked and hash(fast) == hash(checked)
    assert repr(fast) == repr(checked)
    assert fast.span == checked.span == g.vertex_count
    assert type(fast.labels) is tuple
    assert set(map(type, fast.labels)) == {int}


def test_consecutive_span_is_vertex_count():
    g = cycle(5)
    order = (0, 2, 4, 1, 3)
    assert check_consecutive_ordering(g, order)
    assert induced_labeling(g, order).span == 5


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------

def test_ordering_json_round_trip():
    order = (2, 0, 1, 3)
    assert ordering_from_json(ordering_to_json(order, 4, 1)) == order
    # the coordinate form reads back through the "n" the writer records
    coords = knt_ordering(3, 2)
    assert ordering_from_json(ordering_to_json(coords, 3, 2)) \
        == tuple(flat_indices(coords, 3))


def test_ordering_json_coordinates():
    g = cartesian_power(complete(3), 2)
    text = json.dumps({"n": 3, "order": [[0, 0], [1, 1], [2, 2], [0, 1],
                                         [1, 2], [2, 0], [0, 2], [1, 0],
                                         [2, 1]]})
    order = ordering_from_json(text, g)
    assert order == (0, 4, 8, 1, 5, 6, 2, 3, 7)


def test_ordering_json_bad_inputs():
    with pytest.raises(InvalidParameterError):
        ordering_from_json('{"order": []}')
    with pytest.raises(InvalidParameterError):
        ordering_from_json('{"order": [[0, 1], [0]]}')
    with pytest.raises(InvalidParameterError):
        ordering_from_json('{"order": [[], []]}')
    g = cartesian_power(complete(3), 2)
    with pytest.raises(InvalidParameterError):
        ordering_from_json('{"n": 2, "order": [[0, 1], [1, 0]]}', g)
    with pytest.raises(IndexOutOfRangeError):
        ordering_from_json('{"n": 2, "order": [[0, 1], [1, 2]]}')


def test_ordering_json_huge_base_is_refused_at_once():
    # the base^width check multiplies one factor at a time and stops past
    # the vertex count, instead of building the 1.2-million-digit power
    text = json.dumps({"order": [[0] * 4000], "n": 10 ** 300})
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError,
                           match=r"\^4000 coordinates do not index 3 "
                                 r"vertices$"):
            ordering_from_json(text, path(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 << 10


def test_ordering_json_huge_base_without_a_graph_is_refused_at_once():
    # with no graph to compare against, the size guard bounds base^width
    # before any tuple is encoded over the base
    text = json.dumps({"order": [[1] * 2000], "n": 10 ** 300})
    start = time.perf_counter()
    with pytest.raises(SizeLimitExceededError,
                       match=r"\^2000 coordinates, above the cap"):
        ordering_from_json(text)
    assert time.perf_counter() - start < 0.5


def test_ordering_json_huge_base_without_a_graph_is_quoted_cut_short():
    text = json.dumps({"order": [[0], [1]], "n": int("9" * 4000)})
    with pytest.raises(SizeLimitExceededError) as caught:
        ordering_from_json(text)
    assert str(caught.value).startswith("9" * 40 + "... (4000 digits)^1 ")
    assert len(str(caught.value)) < 100


def test_ordering_json_rejects_non_integers():
    for text in ('{"order": [0.7, 1, 2, 3, 4]}',
                 '{"order": [true, 1, 2]}',
                 '{"order": [[0, 1], [1, 0.0]]}',
                 '{"order": [[0, 1], [false, 0]]}'):
        with pytest.raises(InvalidParameterError):
            ordering_from_json(text)
    with pytest.raises(InvalidParameterError,
                       match='^"n" must be an integer$'):
        ordering_from_json('{"n": 2.0, "order": [[0, 1], [1, 0]]}')


def test_labeling_json_round_trip():
    lab = Labeling((1, 4, 2, 5))
    again = labeling_from_json(labeling_to_json(lab, "g.txt"))
    assert again == lab
    data = json.loads(labeling_to_json(lab, "g.txt"))
    assert data["graph"] == "g.txt"
    assert data["span"] == 5


# graph file names with quotes, backslashes, non-ASCII text and control
# characters, which json.dumps escapes
FILE_NAMES = st.sampled_from(
    ("-", "g.txt", 'say "hi".txt', "back\\slash", "k\u00e9\u00f1.txt",
     "\u56fe.txt", "tab\there", "\U0001f600")) | st.text(max_size=12)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 10**12), min_size=1, max_size=40), FILE_NAMES)
def test_labeling_writer_matches_json_dumps(labels, graph_file):
    labeling = Labeling(tuple(labels))
    assert labeling_to_json(labeling, graph_file) == json.dumps(
        {"graph": graph_file, "labels": labels, "span": max(labels)},
        indent=2) + "\n"


@st.composite
def orderings(draw):
    """A non-empty list of flat indices, or of tuples of one width."""
    width = draw(st.integers(0, 4))
    entry = (st.integers(0, 10**12) if width == 0
             else st.tuples(*[st.integers(0, 10**12)] * width))
    return draw(st.lists(entry, min_size=1, max_size=30))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(orderings(), st.integers(1, 10**12), st.integers(1, 10**12))
def test_ordering_writer_matches_json_dumps(order, n, t):
    entries = [x if isinstance(x, int) else list(x) for x in order]
    assert ordering_to_json(order, n, t) == json.dumps(
        {"n": n, "t": t, "order": entries}, indent=2) + "\n"


def test_labeling_json_span_mismatch():
    with pytest.raises(InvalidParameterError):
        labeling_from_json('{"labels": [1, 2], "span": 9}')


def test_labeling_json_rejects_non_integers():
    for text in ('{"labels": [1.9, 3, 5, 2, 4]}',
                 '{"labels": [true, 3, 5, 2, 4]}',
                 '{"labels": [1.0, 3, 5, 2, 4]}'):
        with pytest.raises(InvalidParameterError,
                           match="^labels must be integers$"):
            labeling_from_json(text)
    for text in ('{"labels": [3, 1, 4], "span": 4.0}',
                 '{"labels": [1], "span": true}',
                 '{"labels": [3, 1, 4], "span": "4"}'):
        with pytest.raises(InvalidParameterError,
                           match='^"span" must be an integer$'):
            labeling_from_json(text)


class Level(enum.IntEnum):
    ONE = 1


def test_long_labelings_reject_a_late_bad_label():
    # 7776 labels (K_6^5), one bad value near the end: the C-level type
    # test rejects what a per-label generator rejected, with its message
    for bad in (True, 2.0, 0, Level.ONE, -4, "3", None):
        labels = list(range(1, 7777))
        labels[7770] = bad
        with pytest.raises(IncompleteLabelingError,
                           match="^labels must be positive integers$"):
            Labeling(labels)
        with pytest.raises(IncompleteLabelingError,
                           match="^labels must be positive integers$"):
            Labeling(iter(labels))
    for bad, error, message in (
            ("true", InvalidParameterError, "labels must be integers"),
            ("2.0", InvalidParameterError, "labels must be integers"),
            ("0", IncompleteLabelingError, "labels must be positive integers")):
        text = ('{"labels": [' + ", ".join(map(str, range(1, 7771))) + ", "
                + bad + ", " + ", ".join(map(str, range(7772, 7777))) + "]}")
        with pytest.raises(error, match=f"^{message}$"):
            labeling_from_json(text)
    # JSON text cannot carry an IntEnum member; the reader's check can
    # still be handed one
    labels = list(range(1, 7777))
    labels[7770] = Level.ONE
    with pytest.raises(InvalidParameterError,
                       match="^labels must be integers$"):
        labeling._json_ints(labels, "labels")
    assert Labeling(range(1, 7777)).labels[-1] == 7776


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.integers(-2, 5) | st.booleans() | st.floats(-2, 5)
                | st.sampled_from((Level.ONE, "1", None)),
                min_size=1, max_size=12))
def test_label_checks_reject_what_a_per_label_test_rejects(values):
    def positive(x):
        return type(x) is int and x >= 1
    try:
        Labeling(values)
    except IncompleteLabelingError as exc:
        assert str(exc) == "labels must be positive integers"
        assert not all(map(positive, values))
    else:
        assert all(map(positive, values))
    try:
        labeling._json_ints(values, "labels")
    except InvalidParameterError as exc:
        assert str(exc) == "labels must be integers"
        assert any(type(x) is not int for x in values)
    else:
        assert all(type(x) is int for x in values)


JSON_KEYS = st.sampled_from(("order", "labels", "span", "n", "graph"))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=12)
# lists the readers mostly accept, so that fuzzing reaches past the shape
# checks: small integers, and coordinate tuples of one width
INT_LISTS = st.lists(st.integers(-1, 9), min_size=1, max_size=8)
TUPLE_LISTS = st.integers(1, 3).flatmap(lambda width: st.lists(
    st.lists(st.integers(-1, 4), min_size=width, max_size=width),
    min_size=1, max_size=8))
JSON_TEXTS = st.text() | st.dictionaries(
    JSON_KEYS, JSON_VALUES | INT_LISTS | TUPLE_LISTS,
    max_size=4).map(json.dumps)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(JSON_TEXTS)
def test_json_readers_return_a_value_or_a_package_error(text):
    try:
        order = ordering_from_json(text)
    except RadioLabelError:
        pass
    else:
        assert all(type(v) is int for v in order)
    try:
        labeling = labeling_from_json(text)
    except RadioLabelError:
        pass
    else:
        assert labeling_from_json(labeling_to_json(labeling)) == labeling


def test_labeling_validation():
    with pytest.raises(IncompleteLabelingError):
        Labeling(())
    with pytest.raises(IncompleteLabelingError, match="empty"):
        Labeling(iter([]))
    with pytest.raises(IncompleteLabelingError):
        Labeling((1, -2))
    with pytest.raises(IncompleteLabelingError):
        Labeling((True, 2))
    with pytest.raises(IncompleteLabelingError):
        check_radio(path(3), (True, 3, 2))


def test_labeling_from_an_iterator_keeps_its_labels():
    # validating before the tuple was made used the iterator up
    lab = Labeling(iter([3, 1, 2]))
    assert lab.labels == (3, 1, 2) and lab.span == 3
    assert lab == Labeling((3, 1, 2))
    assert check_radio(path(3), iter([3, 1, 5])) == []
    with pytest.raises(IncompleteLabelingError):
        Labeling(x for x in (2, 0))
