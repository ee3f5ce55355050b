import io
import random
import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from conftest import kernel_corpus, random_connected, small_corpus
from radiolabel import (
    DisconnectedError,
    IndexOutOfRangeError,
    Graph,
    InvalidParameterError,
    RadioLabelError,
    SelfLoopError,
    SizeLimitExceededError,
    all_pairs_distances,
    build_graph,
    cartesian_power,
    cartesian_product,
    complete,
    cycle,
    decode_index,
    encode_coordinates,
    format_edge_list,
    parse_edge_list,
    path,
    petersen,
)

PETERSEN_EDGES = (
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
)


def girth(graph) -> int:
    # shortest cycle: for each edge, shortest path between its ends
    # avoiding the edge itself
    best = None
    for u, v in graph.edges():
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for w in graph.adjacency[x]:
                if (x, w) in ((u, v), (v, u)):
                    continue
                if w not in dist:
                    dist[w] = dist[x] + 1
                    queue.append(w)
        if v in dist:
            best = dist[v] + 1 if best is None else min(best, dist[v] + 1)
    return best


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_build_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.vertex_count == 3
    assert g.edge_count == 3
    assert g.diameter() == 1


def test_build_rejects_disconnected():
    with pytest.raises(DisconnectedError):
        build_graph(4, [(0, 1), (2, 3)])


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        build_graph(3, [(0, 0), (0, 1), (1, 2)])


def test_build_rejects_bad_index():
    with pytest.raises(IndexOutOfRangeError):
        build_graph(3, [(0, 3)])


def test_build_petersen_edge_set():
    g = build_graph(10, PETERSEN_EDGES)
    assert all(g.degree(v) == 3 for v in range(10))
    assert g.edge_count == 15


def test_duplicate_edges_normalized():
    g = build_graph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_k3_distances():
    dist = all_pairs_distances(complete(3))
    assert all(dist[u][v] == (0 if u == v else 1)
               for u in range(3) for v in range(3))


def test_petersen_diameter():
    assert petersen().diameter() == 2


def test_path_distance():
    g = path(3)
    assert g.distance(0, 2) == 2


def test_distance_matrix_invariants():
    for name, g in small_corpus():
        dist = all_pairs_distances(g)
        n = g.vertex_count
        for u in range(n):
            assert dist[u][u] == 0, name
            for v in range(n):
                assert dist[u][v] == dist[v][u], name
                if u != v:
                    assert dist[u][v] >= 1, name
                for w in range(n):
                    assert dist[u][v] <= dist[u][w] + dist[w][v], name
        assert max(map(max, dist)) == g.diameter(), name


def test_distance_function_matches_bfs():
    for name, g in kernel_corpus():
        dist = g._distance_function()
        bfs = all_pairs_distances(g)
        n = g.vertex_count
        assert all(dist(u, v) == bfs[u][v]
                   for u in range(n) for v in range(n)), name


# ---------------------------------------------------------------------------
# products and powers
# ---------------------------------------------------------------------------

def test_k3_box_p3():
    g = cartesian_product(complete(3), path(3))
    assert g.vertex_count == 9
    assert g.edge_count == 15  # 3*3 + 3*2


def test_k1_box_g_identity():
    g = petersen()
    prod = cartesian_product(complete(1), g)
    assert prod.vertex_count == g.vertex_count
    assert prod.adjacency == g.adjacency


def test_k2_box_k2_is_c4():
    g = cartesian_product(complete(2), complete(2))
    assert g.vertex_count == 4
    assert sorted(g.degree(v) for v in range(4)) == [2, 2, 2, 2]
    assert g.diameter() == 2
    assert g.edges() == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_power_of_one_returns_same_graph():
    g = petersen()
    assert cartesian_power(g, 1) is g


def test_k3_squared():
    g = cartesian_power(complete(3), 2)
    assert g.vertex_count == 9
    assert g.edge_count == 18  # 2 * 3 * 3
    assert g.diameter() == 2


def test_petersen_squared():
    g = cartesian_power(petersen(), 2)
    assert g.vertex_count == 100
    assert g.diameter() == 4


def test_power_counts_and_diameter_formulas():
    for base in (complete(3), complete(4), path(3), cycle(5)):
        e, d = base.edge_count, base.diameter()
        n = base.vertex_count
        for t in (2, 3):
            g = cartesian_power(base, t)
            brute_edges = sum(len(g.adjacency[v]) for v in range(g.vertex_count)) // 2
            assert brute_edges == t * n ** (t - 1) * e
            assert g.diameter() == t * d
            assert max(map(max, all_pairs_distances(g))) == t * d


def test_size_cap():
    with pytest.raises(SizeLimitExceededError):
        cartesian_power(complete(10), 7)
    with pytest.raises(SizeLimitExceededError):
        cartesian_power(complete(4), 3, size_cap=63)
    with pytest.raises(SizeLimitExceededError):
        cartesian_product(complete(8), complete(8), size_cap=63)


def test_size_cap_from_environment(monkeypatch):
    monkeypatch.setenv("RADIOLABEL_SIZE_CAP", "63")
    with pytest.raises(SizeLimitExceededError):
        cartesian_power(complete(4), 3)
    assert cartesian_power(complete(4), 3, size_cap=64).vertex_count == 64
    for bad in ("abc", "0", "-5", "1.5"):
        monkeypatch.setenv("RADIOLABEL_SIZE_CAP", bad)
        with pytest.raises(InvalidParameterError):
            cartesian_power(complete(4), 3)


def test_big_flat_graph_refuses_distance_cache():
    # a large product re-read from an edge list loses its factor structure;
    # distance queries must fail with advice rather than build an n^2 cache
    from radiolabel import TooLargeError, parse_edge_list
    big = cartesian_power(complete(6), 6)
    assert big.distance(0, 7) >= 1  # factor-backed: fine
    flat = parse_edge_list(format_edge_list(cartesian_power(complete(3), 2)))
    assert flat.distance(0, 4) == 2  # small flat graph: fine
    assert flat.distance_matrix() is flat.distance_matrix()
    assert flat.distance_matrix() == all_pairs_distances(flat)
    grid = cartesian_power(cycle(80), 2)  # 6400 > cache limit
    flat_big = parse_edge_list(format_edge_list(grid))
    with pytest.raises(TooLargeError):
        flat_big.distance(0, 1)
    with pytest.raises(TooLargeError):
        flat_big.distance_matrix()
    with pytest.raises(TooLargeError):
        flat_big._distance_function()


def test_power_rejects_bad_t():
    with pytest.raises(InvalidParameterError):
        cartesian_power(complete(3), 0)


def test_product_distance_matches_bfs():
    rng = random.Random(7)
    for _ in range(4):
        g = random_connected(rng.randrange(3, 7), rng.randrange(0, 3), rng)
        h = random_connected(rng.randrange(3, 7), rng.randrange(0, 3), rng)
        prod = cartesian_product(g, h)
        bfs = all_pairs_distances(prod)
        dg = all_pairs_distances(g)
        dh = all_pairs_distances(h)
        nh = h.vertex_count
        for u in range(prod.vertex_count):
            for v in range(prod.vertex_count):
                expected = dg[u // nh][v // nh] + dh[u % nh][v % nh]
                assert bfs[u][v] == expected
                assert prod.distance(u, v) == expected


def test_flat_encoding_round_trip():
    for base, t in ((complete(3), 3), (path(4), 2), (petersen(), 2)):
        g = cartesian_power(base, t)
        sizes = g.factor_sizes
        assert sizes == (base.vertex_count,) * t
        for v in range(g.vertex_count):
            coords = g.coordinates_of(v)
            assert encode_coordinates(coords, sizes) == v
            assert decode_index(v, sizes) == coords
            assert g.index_of(coords) == v


def test_last_coordinate_varies_fastest():
    g = cartesian_power(complete(3), 2)
    assert g.coordinates_of(0) == (0, 0)
    assert g.coordinates_of(1) == (0, 1)
    assert g.coordinates_of(3) == (1, 0)


def test_product_of_products_flattens():
    g = cartesian_product(cartesian_power(complete(3), 2), path(2))
    assert g.factor_sizes == (3, 3, 2)
    assert g.vertex_count == 18
    bfs = all_pairs_distances(g)
    for u in range(18):
        for v in range(18):
            assert bfs[u][v] == g.distance(u, v)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_complete_builder():
    g = complete(4)
    assert g.edge_count == 6
    assert g.diameter() == 1
    assert g.is_complete()


def test_cycle_builder():
    assert cycle(4).diameter() == 2
    with pytest.raises(InvalidParameterError):
        cycle(2)


def test_path_builder():
    assert path(5).diameter() == 4
    with pytest.raises(InvalidParameterError):
        path(0)


def test_petersen_builder():
    g = petersen()
    assert g.edge_count == 15
    assert all(g.degree(v) == 3 for v in range(10))
    assert g.diameter() == 2
    assert girth(g) == 5
    assert sorted(g.edges()) == sorted(
        (min(u, v), max(u, v)) for u, v in PETERSEN_EDGES)


# ---------------------------------------------------------------------------
# edge-list text format
# ---------------------------------------------------------------------------

def test_edge_list_round_trip():
    for name, g in small_corpus():
        text = format_edge_list(g)
        again = parse_edge_list(text)
        assert again.vertex_count == g.vertex_count, name
        assert again.edges() == g.edges(), name
        assert format_edge_list(again) == text, name


def test_edge_list_comments_and_blanks():
    text = "# triangle\n3 3\n0 1\n\n1 2  # last two\n0 2\n"
    g = parse_edge_list(text)
    assert g.vertex_count == 3
    assert g.edge_count == 3


def test_edge_list_header_mismatch():
    with pytest.raises(InvalidParameterError):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(InvalidParameterError):
        parse_edge_list("")


def test_edge_list_too_few_edges_fails_before_building():
    # n - 1 edges are needed to connect n vertices, so this header is
    # refused without allocating anything per vertex
    tracemalloc.start()
    try:
        with pytest.raises(DisconnectedError,
                           match="fewer than the 199999 needed"):
            parse_edge_list("200000 0\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert parse_edge_list("1 0\n").vertex_count == 1


def counted_edge_list(n: int, edges: list) -> str:
    return "\n".join([f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges])


EDGE_TOKENS = st.integers(-1, 5).map(str) | st.sampled_from(
    ("x", "#", "1.5", "", "10000000000"))
# free text, lines of loose tokens, and headers that count the edges given
EDGE_TEXTS = (
    st.text()
    | st.lists(st.lists(EDGE_TOKENS, max_size=3).map(" ".join),
               max_size=8).map("\n".join)
    | st.builds(counted_edge_list, st.integers(1, 4),
                st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         max_size=6)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(EDGE_TEXTS)
def test_parse_edge_list_returns_a_graph_or_a_package_error(text):
    try:
        g = parse_edge_list(text)
    except RadioLabelError:
        return
    assert isinstance(g, Graph)
    assert parse_edge_list(format_edge_list(g)).edges() == g.edges()


def test_edge_list_deterministic_order():
    g = build_graph(3, [(2, 1), (1, 0), (2, 0)])
    assert format_edge_list(g) == "3 3\n0 1\n0 2\n1 2\n"


def test_edge_list_io_objects():
    g = cycle(5)
    buf = io.StringIO()
    from radiolabel import read_edge_list, write_edge_list
    write_edge_list(g, buf)
    buf.seek(0)
    assert read_edge_list(buf).edges() == g.edges()
