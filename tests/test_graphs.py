import io
import itertools
import random
import time
import tracemalloc
from collections import deque

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (counted_edge_list, kernel_corpus, random_connected,
                      small_corpus)
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


def test_size_cap(monkeypatch):
    with pytest.raises(SizeLimitExceededError):
        cartesian_power(complete(10), 7)
    monkeypatch.setenv("RADIOLABEL_SIZE_CAP", "63")
    with pytest.raises(SizeLimitExceededError):
        cartesian_power(complete(4), 3)
    with pytest.raises(SizeLimitExceededError):
        cartesian_product(complete(8), complete(8))


def test_size_cap_from_environment(monkeypatch):
    monkeypatch.setenv("RADIOLABEL_SIZE_CAP", "63")
    with pytest.raises(SizeLimitExceededError):
        cartesian_power(complete(4), 3)
    monkeypatch.setenv("RADIOLABEL_SIZE_CAP", "64")
    assert cartesian_power(complete(4), 3).vertex_count == 64
    for bad in ("abc", "0", "-5", "1.5"):
        monkeypatch.setenv("RADIOLABEL_SIZE_CAP", bad)
        with pytest.raises(InvalidParameterError):
            cartesian_power(complete(4), 3)


def test_huge_power_is_refused_at_once(monkeypatch):
    # the guard multiplies factor sizes and stops past the cap, instead of
    # building the 4.8-million-digit 3^(10^7) first
    monkeypatch.delenv("RADIOLABEL_SIZE_CAP", raising=False)
    start = time.monotonic()
    with pytest.raises(SizeLimitExceededError,
                       match=r"^3\^10000000 vertices, above the cap of "
                             r"1000000$"):
        cartesian_power(complete(3), 10 ** 7)
    assert time.monotonic() - start < 1.0


def test_power_of_one_vertex_graph_is_that_graph():
    k1 = complete(1)
    tracemalloc.start()
    try:
        power = cartesian_power(k1, 10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert power is k1 and power.vertex_count == 1
    assert peak < 1 << 20


def relabelled(graph, seed: int):
    """The graph with its vertices renumbered by a seeded permutation, and
    that permutation: an edge list of it is read back flat."""
    perm = list(range(graph.vertex_count))
    random.Random(seed).shuffle(perm)
    return build_graph(graph.vertex_count,
                       [(perm[u], perm[v]) for u, v in graph.edges()]), perm


def test_big_flat_graph_refuses_distance_cache():
    # a large product re-read from a relabelled edge list loses its factor
    # structure; distance queries must fail with advice rather than build
    # an n^2 cache
    from radiolabel import TooLargeError, parse_edge_list
    big = cartesian_power(complete(6), 6)
    assert big.distance(0, 7) >= 1  # factor-backed: fine
    small, perm = relabelled(cartesian_power(complete(3), 2), 3)
    flat = parse_edge_list(format_edge_list(small))
    assert flat.factors is None
    assert flat.distance(perm[0], perm[4]) == 2  # small flat graph: fine
    assert flat.distance_matrix() is flat.distance_matrix()
    assert flat.distance_matrix() == all_pairs_distances(flat)
    grid = cartesian_power(cycle(80), 2)  # 6400 > cache limit
    flat_big = parse_edge_list(format_edge_list(relabelled(grid, 80)[0]))
    assert flat_big.factors is None and flat_big.vertex_count == 6400
    with pytest.raises(TooLargeError):
        flat_big.distance(0, 1)
    with pytest.raises(TooLargeError):
        flat_big.distance_matrix()
    with pytest.raises(TooLargeError):
        flat_big._distance_function()
    # in the numbering cartesian_power gives it, the file reads back as
    # the product, with no cache
    grid_again = parse_edge_list(format_edge_list(grid))
    assert grid_again.factor_sizes == (80, 80)
    assert grid_again.distance(0, 1) == 1


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
            coords = decode_index(v, sizes)
            assert len(coords) == t
            assert all(0 <= c < base.vertex_count for c in coords)
            assert encode_coordinates(coords, sizes) == v


def test_last_coordinate_varies_fastest():
    sizes = cartesian_power(complete(3), 2).factor_sizes
    assert decode_index(0, sizes) == (0, 0)
    assert decode_index(1, sizes) == (0, 1)
    assert decode_index(3, sizes) == (1, 0)
    assert encode_coordinates((1, 2), sizes) == 5


def test_product_adjacency_follows_the_coordinate_codec():
    # u ~ v exactly when their decoded coordinates differ in one position
    # k and are adjacent in factor k: the definition of the Cartesian
    # product, checked against the adjacency built by folding the factors
    for name, g in kernel_corpus():
        if g.factors is None:
            continue
        sizes = g.factor_sizes
        coords = [decode_index(v, sizes) for v in range(g.vertex_count)]
        for u in range(g.vertex_count):
            expected = set()
            for v in range(g.vertex_count):
                differ = [k for k, (a, b)
                          in enumerate(zip(coords[u], coords[v])) if a != b]
                if len(differ) == 1:
                    k = differ[0]
                    if coords[v][k] in g.factors[k].adjacency[coords[u][k]]:
                        expected.add(v)
            assert g.adjacency[u] == expected, (name, u)


def test_named_builders_honour_the_size_cap(monkeypatch):
    monkeypatch.setenv("RADIOLABEL_SIZE_CAP", "100")
    assert path(100).vertex_count == 100
    assert cycle(100).vertex_count == 100
    assert complete(10).vertex_count == 10  # 90 adjacency entries
    for build, n in ((path, 101), (cycle, 101), (complete, 11)):
        with pytest.raises(SizeLimitExceededError,
                           match=r", above the cap of 100$"):
            build(n)


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


# ---------------------------------------------------------------------------
# recognising Cartesian powers in parsed edge lists
# ---------------------------------------------------------------------------

def power_edges(factor_edges, m: int, t: int) -> set:
    """Edges of F^t over flat indices, from the definition: two tuples in
    flat-index order are adjacent iff they differ in one coordinate, where
    F joins the two values."""
    adjacent = {(u, v) for u, v in factor_edges} | {
        (v, u) for u, v in factor_edges}
    tuples = list(itertools.product(range(m), repeat=t))
    index = {coords: i for i, coords in enumerate(tuples)}
    edges = set()
    for coords in tuples:
        for k, c in enumerate(coords):
            for d in range(c + 1, m):
                if (c, d) in adjacent:
                    other = coords[:k] + (d,) + coords[k + 1:]
                    edges.add((index[coords], index[other]))
    return edges


def is_power_of_prefix(n: int, edges: set) -> bool:
    """Whether the edge set is F^t, t >= 2, for F its subgraph on the
    first m vertices: the recognition rule, restated by brute force."""
    for t in range(2, n.bit_length()):
        for m in range(2, n + 1):
            if m ** t == n:
                prefix = [(u, v) for u, v in edges if v < m]
                if power_edges(prefix, m, t) == edges:
                    return True
    return False


def test_recognised_powers_keep_every_distance():
    for name, g in kernel_corpus():
        again = parse_edge_list(format_edge_list(g))
        assert again.edges() == g.edges(), name
        n = again.vertex_count
        dist = again._distance_function()
        bfs = all_pairs_distances(again)
        assert all(dist(u, v) == bfs[u][v]
                   for u in range(n) for v in range(n)), name
        # the powers come back as products; products of distinct factors
        # have no prefix subgraph to be a power of, and stay flat
        expected = {"K4^3": (4, 4, 4), "petersen^2": (10, 10)}.get(name)
        assert again.factor_sizes == expected, name


def test_recognition_prefers_complete_factors():
    # K_4^4 is also (K_4^2)^2; the finer factorisation keeps the
    # Hamming-distance kernel
    g = parse_edge_list(format_edge_list(cartesian_power(complete(4), 4)))
    assert g.factor_sizes == (4, 4, 4, 4)
    assert all(f.is_complete() for f in g.factors)


def test_recognised_power_shares_the_parsed_adjacency():
    g = parse_edge_list(format_edge_list(cartesian_power(path(3), 3)))
    assert g.factor_sizes == (3, 3, 3)
    assert g.edges() == cartesian_power(path(3), 3).edges()
    # the repr counts edges only when the adjacency is already held
    assert g.diameter() == 6 and repr(g) == "Graph(vertices=27, edges=54)"


def test_recognition_ignores_the_size_cap(monkeypatch):
    text = format_edge_list(cartesian_power(complete(4), 2))
    monkeypatch.setenv("RADIOLABEL_SIZE_CAP", "10")
    g = parse_edge_list(text)
    assert g.edges() == parse_edge_list(text).edges()
    assert g.vertex_count == 16 and g.edge_count == 48
    assert g.factor_sizes == (4, 4)


def test_recognition_falls_back_to_a_flat_graph():
    # 9 vertices whose first three have no edge among them
    nine = [(0, 3), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)]
    # 16 vertices, 24 edges: the count of F^2 for F = K_3 plus a lone
    # vertex on 0..3, which is disconnected
    sixteen = ([(0, 1), (0, 2), (1, 2), (0, 4)]
               + [(v, v + 1) for v in range(3, 15)]
               + [(4, 6), (4, 7), (5, 8), (6, 9), (7, 10), (8, 11),
                  (9, 12), (10, 13)])
    assert len(sixteen) == 24
    for n, edges in ((9, nine), (16, sixteen), (9, path(9).edges()),
                     (9, cycle(9).edges())):
        g = parse_edge_list(counted_edge_list(n, edges))
        assert g.factors is None, n
        assert g.edges() == sorted((min(e), max(e)) for e in edges), n


def test_duplicate_edge_is_reported_before_recognition():
    # C_4 is K_2^2; the repeat is still named by its line
    with pytest.raises(InvalidParameterError, match="line 6: duplicate edge"):
        parse_edge_list("4 5\n0 1\n0 2\n1 3\n2 3\n1 0\n")


def test_recognition_builds_no_product_adjacency(monkeypatch):
    # the candidate F^t is checked through its distance kernel, edge by
    # parsed edge; its own adjacency is never materialised
    powers = [cartesian_power(complete(4), 3), cartesian_power(path(3), 3),
              cartesian_power(petersen(), 2)]
    expected = [(g.factor_sizes, format_edge_list(g)) for g in powers]

    def refuse(self):
        raise AssertionError("product adjacency materialised")

    monkeypatch.setattr(Graph, "_materialize_product_adjacency", refuse)
    for sizes, text in expected:
        again = parse_edge_list(text)
        assert again.factor_sizes == sizes
        assert format_edge_list(again) == text


def test_factor_past_the_distance_cache_reads_back_flat(monkeypatch):
    text = format_edge_list(cartesian_power(complete(3), 2))
    monkeypatch.setattr("radiolabel.graphs.DISTANCE_CACHE_LIMIT", 2)
    g = parse_edge_list(text)
    assert g.factors is None
    assert g.vertex_count == 9 and g.edge_count == 18


POWER_BASES = st.sampled_from(
    [complete(2), complete(3), path(3), cycle(4), path(4)])


@st.composite
def altered_powers(draw):
    """A small power F^t, relabelled or with one edge moved so that it
    stays connected, as (vertex count, edges)."""
    base = draw(POWER_BASES)
    t = draw(st.integers(2, 3))
    g = cartesian_power(base, t)
    n = g.vertex_count
    edges = g.edges()
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        return n, [(perm[u], perm[v]) for u, v in edges]
    edges.pop(draw(st.integers(0, len(edges) - 1)))
    absent = sorted(set(itertools.combinations(range(n), 2)) - set(edges))
    edges.append(draw(st.sampled_from(absent)))
    try:
        build_graph(n, edges)
    except DisconnectedError:
        assume(False)
    return n, edges


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(altered_powers())
def test_only_exact_powers_are_recognised(case):
    n, edges = case
    g = parse_edge_list(counted_edge_list(n, edges))
    wanted = {(min(e), max(e)) for e in edges}
    assert set(g.edges()) == wanted
    if g.factors is None:
        assert not is_power_of_prefix(n, wanted)
    else:
        sizes = g.factor_sizes
        factor = g.factors[0]
        assert all(f is factor for f in g.factors)
        assert power_edges(factor.edges(), sizes[0], len(sizes)) == wanted
