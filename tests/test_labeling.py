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
                    assert check_k_radio(g, labels, k, fail_fast) == \
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
    window = g._window_distances(order)
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


def test_window_kernel_offsets_past_the_ordering_are_empty():
    g = cartesian_power(complete(2), 2)
    order = (0, 3, 1, 2)
    assert_window_bytes(g, order, (3, 4, 5, 9))
    assert g._window_distances(order)(4) == b""


def test_window_kernel_on_a_one_vertex_product():
    g = Graph._product([complete(1)] * 3)
    assert g.diameter() == 0
    assert g._window_distances((0,))(1) == b""
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


CHECK_CORPUS = kernel_corpus() + small_corpus()


@pytest.mark.parametrize("name, g", CHECK_CORPUS,
                         ids=[name for name, _ in CHECK_CORPUS])
@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(data=st.data())
def test_k_radio_agrees_with_pairwise_scan(name, g, data):
    # narrow labels repeat heavily, so for k < diam many equal-label pairs
    # are tested; wide labels leave gaps in the span
    n = g.vertex_count
    top = data.draw(st.sampled_from((max(2, n // 4), 3 * n)), label="top")
    labels = data.draw(st.lists(st.integers(1, top), min_size=n,
                                max_size=n), label="labels")
    for k in range(1, max(g.diameter(), 1) + 1):
        for fail_fast in (False, True):
            assert check_k_radio(g, labels, k, fail_fast) == \
                reference_k_radio(g, labels, k, fail_fast), (name, k)


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
    for n, t in ((n, t) for n in range(3, 17) for t in range(2, n + 1)
                 if n ** t <= 256):
        g = cartesian_power(complete(n), t)
        order = tuple(flat_indices(knt_ordering(n, t), n))
        for variant in [order] + one_swaps(order, t):
            window = check_consecutive_ordering(g, variant)
            lab = induced_labeling(g, variant)
            assert window == is_consecutive(g, lab) == \
                (lab.span == n ** t), (n, t, variant)
            windows.add(window)
    assert windows == {True, False}


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
    assert ordering_from_json(ordering_to_json(order)) == order


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


def test_ordering_json_rejects_non_integers():
    for text in ('{"order": [0.7, 1, 2, 3, 4]}',
                 '{"order": [true, 1, 2]}',
                 '{"order": [[0, 1], [1, 0.0]]}',
                 '{"order": [[0, 1], [false, 0]]}',
                 '{"n": 2.0, "order": [[0, 1], [1, 0]]}'):
        with pytest.raises(InvalidParameterError):
            ordering_from_json(text)


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


def test_labeling_json_span_mismatch():
    with pytest.raises(InvalidParameterError):
        labeling_from_json('{"labels": [1, 2], "span": 9}')


def test_labeling_json_rejects_non_integers():
    for text in ('{"labels": [1.9, 3, 5, 2, 4]}',
                 '{"labels": [true, 3, 5, 2, 4]}',
                 '{"labels": [1.0, 3, 5, 2, 4]}',
                 '{"labels": [3, 1, 4], "span": 4.0}',
                 '{"labels": [1], "span": true}',
                 '{"labels": [3, 1, 4], "span": "4"}'):
        with pytest.raises(InvalidParameterError, match="integers"):
            labeling_from_json(text)


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
    with pytest.raises(IncompleteLabelingError):
        Labeling((1, -2))
    with pytest.raises(IncompleteLabelingError):
        Labeling((True, 2))
    with pytest.raises(IncompleteLabelingError):
        check_radio(path(3), (True, 3, 2))
