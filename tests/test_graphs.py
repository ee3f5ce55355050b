import io
import itertools
import math
import random
import sys
import time
import tracemalloc
from collections import deque

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (counted_edge_list, kernel_corpus, random_connected,
                      relabelled, small_corpus)
from radiolabel import graphs
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
    assert all(len(g.adjacency[v]) == 3 for v in range(10))
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


def test_flat_diameter_reads_the_table_once(monkeypatch):
    # a flat graph's diameter scans the whole table, so it is kept
    g = path(40)
    reads = []
    table = Graph.distance_matrix
    monkeypatch.setattr(Graph, "distance_matrix",
                        lambda self, *args: reads.append(self)
                        or table(self, *args))
    assert (g.diameter(), g.diameter()) == (39, 39)
    assert reads == [g]


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
        # a product's table is summed from its factors' tables
        assert [list(row) for row in g.distance_matrix()] == bfs, name


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=4).filter(
    lambda sizes: math.prod(sizes) <= 512))
@example(sizes=[1])
def test_hamming_kernel_matches_bfs(sizes):
    # products of complete factors, the packed-code branch; field widths
    # from 1 to 4 bits, filled exactly or not, and K_1 factors
    g = Graph._product([complete(size) for size in sizes])
    dist = g._distance_function()
    bfs = all_pairs_distances(g)
    n = g.vertex_count
    assert all(dist(u, v) == row[v] for u, row in enumerate(bfs)
               for v in range(n))


def test_flat_table_stops_at_the_deadline():
    g = build_graph(10, PETERSEN_EDGES)
    assert g.distance_matrix(time.monotonic() - 1) is None
    # nothing half-built was kept: the table fills whole, once
    table = g.distance_matrix(time.monotonic() + 60)
    assert [list(row) for row in table] == all_pairs_distances(g)
    assert g.distance_matrix() is table
    assert g.distance_matrix(time.monotonic() - 1) is table


def test_product_table_stops_at_the_deadline():
    # a product's rows come through the same polled loop as a flat graph's:
    # with no factor table filled the first factor's fill gives up, and
    # with every factor's table filled the loop gives up before a row
    g = cartesian_product(cartesian_product(path(3), cycle(4)), complete(2))
    assert g.distance_matrix(time.monotonic() - 1) is None
    for factor in g.factors:
        assert factor.distance_matrix(time.monotonic() - 1) is None
        factor.distance_matrix()
    assert g.distance_matrix(time.monotonic() - 1) is None
    table = g.distance_matrix(time.monotonic() + 60)
    assert [list(row) for row in table] == all_pairs_distances(g)
    assert g.distance_matrix(time.monotonic() - 1) is table


def middle_first_path(n: int) -> Graph:
    """P_n numbered from its middle vertex: vertex 0's BFS row fits in a
    byte, the rows of the far ends do not once n > 257."""
    label = [(i - n // 2) % n for i in range(n)]
    return build_graph(n, [(label[i], label[i + 1]) for i in range(n - 1)])


@pytest.mark.parametrize("build, row_type", [
    (petersen, bytes),
    # a product of factors that are not complete
    (lambda: cartesian_product(cartesian_product(path(3), cycle(4)),
                               complete(2)), bytes),
    (lambda: cartesian_power(complete(4), 3), bytes),
    (lambda: path(256), bytes),
    (lambda: path(300), list),
    (lambda: middle_first_path(300), list),
    # factors of diameter 254 and 2, each with bytes rows
    (lambda: cartesian_product(path(255), path(3)), list),
], ids=["Petersen", "P3xC4xK2", "K4^3", "P256", "P300", "P300-middle-first",
        "P255xP3"])
def test_distance_rows_are_bytes_below_diameter_256(build, row_type):
    # one row type per table: bytes while the diameter is below 256, else
    # lists, equal entry by entry to the BFS oracle's rows either way
    g = build()
    table = g.distance_matrix()
    assert {type(row) for row in table} == {row_type}
    assert [list(row) for row in table] == all_pairs_distances(g)
    assert g.diameter() == max(map(max, table))


@pytest.mark.parametrize("build, rows, row_type", [
    (lambda: cartesian_power(petersen(), 2), range(100), bytes),
    (lambda: cartesian_power(complete(4), 3), range(64), bytes),
    # diameter 299, with entries past 255 in the end rows
    (lambda: path(300), (0, 1, 100, 149, 150, 298, 299), list),
], ids=["Petersen^2", "K4^3", "P300"])
def test_at_least_mask_sets_the_far_entries(build, rows, row_type):
    g = build()
    table = g.distance_matrix()
    diam = g.diameter()
    assert {type(table[u]) for u in rows} == {row_type}
    for u in rows:
        row = table[u]
        for k in range(1, diam + 2):
            assert graphs._at_least_mask(row, k) == sum(
                1 << w for w, d in enumerate(row) if d >= k), (u, k)


def test_product_table_takes_a_byte_an_entry():
    # K_4^6's 4096 lists of 4096 ints took 129 MiB; its bytes rows take 16
    g = cartesian_power(complete(4), 6)
    tracemalloc.start()
    try:
        table = g.distance_matrix()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 << 20
    # the entries of a sample of rows, against the coordinatewise sum
    for u in range(0, 4096, 455):
        assert list(table[u]) == [g.distance(u, v) for v in range(4096)]


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
    assert sorted(len(g.adjacency[v]) for v in range(4)) == [2, 2, 2, 2]
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


def test_power_past_sys_maxsize_is_refused(monkeypatch):
    # the guard counts the exponent with range, which itertools.repeat
    # cannot do past sys.maxsize
    monkeypatch.delenv("RADIOLABEL_SIZE_CAP", raising=False)
    t = 10 ** 20
    assert t > sys.maxsize
    with pytest.raises(SizeLimitExceededError,
                       match=rf"^3\^{t} vertices, above the cap of 1000000$"):
        cartesian_power(path(3), t)


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
    assert [list(row) for row in flat.distance_matrix()] \
        == all_pairs_distances(flat)
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


def codec_edges(g):
    """The edges (u, v), u < v, of product ``g``, sorted, by the
    definition of the Cartesian product: the decoded coordinates differ
    in one position k and are adjacent in factor k.  Shares no code with
    graphs._forward_lists."""
    sizes = g.factor_sizes
    coords = [decode_index(v, sizes) for v in range(g.vertex_count)]
    edges = []
    for u in range(g.vertex_count):
        for v in range(u + 1, g.vertex_count):
            differ = [k for k, (a, b)
                      in enumerate(zip(coords[u], coords[v])) if a != b]
            if len(differ) == 1:
                k = differ[0]
                if coords[v][k] in g.factors[k].adjacency[coords[u][k]]:
                    edges.append((u, v))
    return edges


def test_product_adjacency_follows_the_coordinate_codec():
    # the adjacency and the written text, both read from the one fold,
    # against edges that decode coordinates
    for name, g in kernel_corpus():
        if g.factors is None:
            continue
        edges = codec_edges(g)
        expected = [set() for _ in range(g.vertex_count)]
        for u, v in edges:
            expected[u].add(v)
            expected[v].add(u)
        for u in range(g.vertex_count):
            assert g.adjacency[u] == expected[u], (name, u)
        assert format_edge_list(g) == f"{g.vertex_count} {len(edges)}\n" + (
            "".join(f"{u} {v}\n" for u, v in edges)), name


def list_comprehension_forward_lists(graph):
    """_forward_lists as a list comprehension per level, building each
    neighbour's int: the oracle of the itemgetter fold."""
    if graph.factors is None:
        return [sorted([w for w in nbrs if w > v])
                for v, nbrs in enumerate(graph.adjacency)]
    forward = list_comprehension_forward_lists(graph.factors[0])
    for f in graph.factors[1:]:
        h_forward = list_comprehension_forward_lists(f)
        nh = len(h_forward)
        forward = [[g * nh + y for y in h_above]
                   + [x * nh + h for x in g_above]
                   for g, g_above in enumerate(forward)
                   for h, h_above in enumerate(h_forward)]
    return forward


def mapped_names_text(graph):
    """The edge-list text joined from the oracle fold through
    map(name, ...): the oracle of the writer, flat graphs included."""
    n = graph.vertex_count
    forward = list_comprehension_forward_lists(graph)
    names = list(map(str, range(n)))
    name = names.__getitem__
    body = "".join([head + head.join(map(name, above))
                    for head, above in zip([f"\n{u} " for u in names],
                                           forward)
                    if above])
    return f"{n} {sum(map(len, forward))}{body}\n"


def fold_corpus():
    """kernel_corpus, first powers, products with a K_1 factor, and the
    complete powers K_4^3..K_7^3, K_4^4 and K_6^5."""
    corpus = kernel_corpus()
    corpus += [(f"{name}^1", cartesian_power(g, 1)) for name, g in corpus]
    k1 = complete(1)
    corpus += [("(K1)", Graph._product([k1])),
               ("(K3)", Graph._product([complete(3)])),
               ("C5xK1", cartesian_product(cycle(5), k1)),
               ("K1xK1xP3", Graph._product([k1, k1, path(3)])),
               ("K1xK1", Graph._product([k1, k1]))]
    corpus += [(f"K{n}^{t}", cartesian_power(complete(n), t))
               for n, t in [(4, 3), (5, 3), (6, 3), (7, 3), (4, 4), (6, 5)]]
    return corpus


def test_itemgetter_fold_matches_the_list_comprehension_fold():
    for name, g in fold_corpus():
        expected = list_comprehension_forward_lists(g)
        assert list(map(list, graphs._forward_lists(g))) == expected, name
        names = [f"v{v}" for v in range(g.vertex_count)]
        assert list(map(list, graphs._forward_lists(g, names))) == [
            [names[w] for w in above] for above in expected], name
        assert format_edge_list(g) == mapped_names_text(g), name


def one_level_hamming_codes(sizes):
    """_hamming_codes as one fold over every factor: the oracle of the
    fold in halves."""
    w = (max(sizes) - 1).bit_length()
    field = max(w + 1, len(sizes).bit_length())
    codes, low = [0], 0
    for size in sizes:
        codes = [p << field | c for p in codes for c in range(size)]
        low = low << field | 1
    guard = low << w
    return codes, guard - low, guard, field


def test_hamming_codes_in_halves_match_one_fold():
    complete_products = [g for _name, g in kernel_corpus()
                         if g.factors is not None
                         and all(f.is_complete() for f in g.factors)]
    assert {g.factor_sizes for g in complete_products} >= {
        (2,) * 5, (8, 8), (8, 1, 2)}
    rng = random.Random(33)
    drawn = [tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 6)))
             for _ in range(600)]
    # t = 1 leaves the high half empty
    assert any(len(sizes) == 1 for sizes in drawn)
    for sizes in [g.factor_sizes for g in complete_products] + drawn:
        assert graphs._hamming_codes(sizes) == one_level_hamming_codes(
            sizes), sizes


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
    assert all(len(g.adjacency[v]) == 3 for v in range(10))
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
        expected = {"K4^3": (4, 4, 4), "petersen^2": (10, 10),
                    "K2^5": (2,) * 5, "K8^2": (8, 8)}.get(name)
        assert again.factor_sizes == expected, name


def test_recognition_prefers_complete_factors():
    # K_4^4 is also (K_4^2)^2; the finer factorisation keeps the
    # Hamming-distance kernel
    g = parse_edge_list(format_edge_list(cartesian_power(complete(4), 4)))
    assert g.factor_sizes == (4, 4, 4, 4)
    assert all(f.is_complete() for f in g.factors)


def test_recognised_power_holds_no_adjacency_until_asked():
    g = parse_edge_list(format_edge_list(cartesian_power(path(3), 3)))
    assert g.factor_sizes == (3, 3, 3)
    # the repr counts edges only when the adjacency is already held
    assert g.diameter() == 6 and repr(g) == "Graph(vertices=27, factors=3)"
    assert g.edges() == cartesian_power(path(3), 3).edges()
    assert repr(g) == "Graph(vertices=27, edges=54)"


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


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("base, t", [(complete(3), 2), (path(3), 2),
                                     (complete(2), 3), (complete(4), 3)],
                         ids=["K3^2", "P3^2", "K2^3", "K4^3"])
def test_power_file_with_a_repeated_edge_is_not_a_power(base, t, reverse):
    # the last edge replaced by the one before, outside the factor F on
    # the first vertices: the edge count and every distance still fit
    # F^t, and only the repeat tells the file apart
    lines = format_edge_list(cartesian_power(base, t)).splitlines()
    u, v = lines[-2].split()
    lines[-1] = f"{v} {u}" if reverse else lines[-2]
    with pytest.raises(InvalidParameterError, match=(
            rf"^line {len(lines)}: duplicate edge {lines[-1]}$")):
        parse_edge_list("\n".join(lines) + "\n")


def test_recognition_builds_no_product_adjacency():
    # written texts take _written_power: the candidate F^t is written
    # again from its factors' lists and compared; a leading comment
    # sends the same text through the token path, whose pairs are
    # written in that form and compared the same way.  Neither builds
    # the product's adjacency, nor does writing it again
    powers = [cartesian_power(complete(4), 3), cartesian_power(path(3), 3),
              cartesian_power(petersen(), 2)]
    expected = [(g.factor_sizes, format_edge_list(g)) for g in powers]
    for prefix in ("", "# commented\n"):
        parsed = [parse_edge_list(prefix + text) for _, text in expected]
        for again, (sizes, text) in zip(parsed, expected):
            assert again.factor_sizes == sizes
            assert format_edge_list(again) == text
        assert all(again._adjacency is None for again in parsed)


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


def check_recognition(g, n: int, pairs: list) -> None:
    """g, parsed from the pairs on n vertices, has their edges, and is a
    product F^t exactly when they are F^t for F on the first vertices."""
    wanted = {(min(e), max(e)) for e in pairs}
    assert set(g.edges()) == wanted
    if g.factors is None:
        assert not is_power_of_prefix(n, wanted)
    else:
        sizes = g.factor_sizes
        factor = g.factors[0]
        assert all(f is factor for f in g.factors)
        assert power_edges(factor.edges(), sizes[0], len(sizes)) == wanted


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(altered_powers())
def test_only_exact_powers_are_recognised(case):
    n, edges = case
    check_recognition(parse_edge_list(counted_edge_list(n, edges)), n, edges)


# ---------------------------------------------------------------------------
# the written shortcut against the token path
# ---------------------------------------------------------------------------

def parse_outcome(parse, text):
    try:
        g = parse(text)
    except RadioLabelError as exc:
        return type(exc), str(exc)
    return g.vertex_count, g.edges(), g.factor_sizes


def parse_by_tokens(text):
    """parse_edge_list without the written shortcut: every text tokenised
    line by line."""
    return graphs._graph_from_tokens(text, graphs._line_tokens(text))


WHITESPACE_LINES = ("", " ", "\t ", "\x0c", "\x1c", "\xa0", "\u2028")
# between the tokens of a line: str.split() separators, all but the
# first two of them line breaks to str.splitlines()
SEPARATORS = ("\t", "\xa0", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028")
# fullwidth digits, which int() reads
NON_ASCII_DIGITS = str.maketrans("0123456789",
                                 "".join(map(chr, range(0xFF10, 0xFF1A))))


@st.composite
def mutated_power_files(draw):
    """An edge-list file of a small power F^t with one mutation: a token
    moved onto the line above, other line ends, blank lines, no final
    newline, other whitespace between two tokens, tokens that int() reads
    but are not ASCII digits, an edge line made a duplicate, a self-loop
    or out of range, two edge lines swapped, a pair written as 'v u', the
    header's edge count off by one, or a trailing space on a line."""
    g = cartesian_power(draw(POWER_BASES), draw(st.integers(2, 3)))
    n = g.vertex_count
    lines = format_edge_list(g).splitlines()
    i = draw(st.integers(1, len(lines) - 1))  # an edge line
    u, v = lines[i].split()
    sep = end = "\n"
    kind = draw(st.sampled_from((
        "3+1", "crlf", "cr", "blank", "no-final-newline", "separator",
        "plus", "underscore", "non-ascii", "duplicate", "self-loop",
        "range", "swap", "reversed", "count", "trailing-space")))
    if kind == "3+1":  # two lines of three and one tokens
        a, b = lines[i - 1].split()
        lines[i - 1:i + 1] = [f"{a} {b} {u}", v]
    elif kind in ("crlf", "cr"):
        sep = end = "\r\n" if kind == "crlf" else "\r"
    elif kind == "blank":
        lines.insert(i, draw(st.sampled_from(WHITESPACE_LINES)))
    elif kind == "no-final-newline":
        end = ""
    elif kind == "separator":
        lines[i] = f"{u}{draw(st.sampled_from(SEPARATORS))}{v}"
    elif kind == "plus":
        lines[i] = f"+{u} {v}"
    elif kind == "underscore":
        lines[i] = f"{u[0]}_{u[1:] or 0} {v}"
    elif kind == "non-ascii":
        lines[i] = lines[i].translate(NON_ASCII_DIGITS)
    elif kind == "duplicate":  # another edge's line, in either orientation
        j = draw(st.integers(1, len(lines) - 1).filter(lambda j: j != i))
        x, y = lines[j].split()
        lines[i] = draw(st.sampled_from((f"{x} {y}", f"{y} {x}")))
    elif kind == "self-loop":
        lines[i] = f"{u} {u}"
    elif kind == "range":
        lines[i] = f"{u} {n + draw(st.integers(0, 2))}"
    elif kind == "swap":
        j = draw(st.integers(1, len(lines) - 1).filter(lambda j: j != i))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "reversed":
        lines[i] = f"{v} {u}"
    elif kind == "count":
        lines[0] = f"{n} {len(lines) - 1 + draw(st.sampled_from((-1, 1)))}"
    else:
        lines[i] += " "
    return sep.join(lines) + end


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(EDGE_TEXTS)
def test_written_shortcut_parses_like_the_token_path(text):
    # same graph, factorisation and error, message and line included
    assert (parse_outcome(parse_edge_list, text)
            == parse_outcome(parse_by_tokens, text))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(mutated_power_files())
def test_written_shortcut_reads_power_files_like_the_token_path(text):
    assert (parse_outcome(parse_edge_list, text)
            == parse_outcome(parse_by_tokens, text))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(mutated_power_files())
def test_only_exact_power_files_are_recognised(text):
    # both sides above read powers through _written_power; this oracle
    # does not.  A file without '#' that parses splits into the tokens
    # of its line walk
    try:
        g = parse_edge_list(text)
    except RadioLabelError:
        return
    n, _m, *tokens = map(int, text.split())
    check_recognition(g, n, list(zip(tokens[::2], tokens[1::2])))


def test_three_and_one_token_lines_name_their_line():
    # an even token count does not make a file of 'u v' lines
    with pytest.raises(InvalidParameterError,
                       match=r"line 1: expected 'n m', got '1 2 3'"):
        parse_edge_list("1 2 3\n4 5 6\n")
    with pytest.raises(InvalidParameterError,
                       match=r"line 2: expected 'u v', got '0 1 0'"):
        parse_edge_list("3 2\n0 1 0\n2\n")


def test_a_long_bad_line_is_quoted_cut_short():
    # a token past int()'s 4300-digit limit used to be quoted whole, in
    # an error of 5032 characters
    with pytest.raises(InvalidParameterError) as caught:
        parse_edge_list("3 2\n0 1\n1 " + "9" * 5000 + "\n")
    assert str(caught.value) == ("line 3: expected 'u v', got '1 "
                                 + "9" * 38 + "'... (5002 characters)")


@pytest.mark.parametrize("n", [4, 7])
def test_power_files_skip_the_line_walk(monkeypatch, n):
    text = format_edge_list(cartesian_power(complete(n), 3))

    def refuse(text):
        raise AssertionError("line walk on a file of 'u v' lines")

    monkeypatch.setattr(graphs, "_content_lines", refuse)
    g = parse_edge_list(text)
    assert g.factor_sizes == (n, n, n)
    monkeypatch.undo()
    assert format_edge_list(g) == text


def test_parsed_power_keeps_no_adjacency():
    # K_6^4: 1296 vertices, 12960 edges; frozensets of the parsed
    # adjacency kept about 2.2 MiB
    text = format_edge_list(cartesian_power(complete(6), 4))
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.factor_sizes == (6,) * 4
    assert kept < 100_000


# ---------------------------------------------------------------------------
# reading a written power back by writing it again
# ---------------------------------------------------------------------------

WRITTEN_POWERS = {
    "K4^3": cartesian_power(complete(4), 3),
    "K7^3": cartesian_power(complete(7), 3),
    "petersen^2": cartesian_power(petersen(), 2),
    "P3^3": cartesian_power(path(3), 3),
    "C5^2": cartesian_power(cycle(5), 2),
}


@pytest.mark.parametrize("name", WRITTEN_POWERS)
def test_written_powers_are_read_back_without_tokenising(monkeypatch, name):
    power = WRITTEN_POWERS[name]
    text = format_edge_list(power)

    def refuse(*args):
        raise AssertionError("token path on a written power")

    monkeypatch.setattr(graphs, "_line_tokens", refuse)
    again = parse_edge_list(text)
    monkeypatch.undo()
    assert again.factor_sizes == power.factor_sizes
    assert again.edges() == power.edges()


@pytest.mark.parametrize("kind", ["swap", "reversed"])
@pytest.mark.parametrize("name", WRITTEN_POWERS)
def test_powers_out_of_written_form_take_the_token_path(monkeypatch, name,
                                                        kind):
    power = WRITTEN_POWERS[name]
    lines = format_edge_list(power).splitlines()
    if kind == "swap":
        lines[1], lines[-1] = lines[-1], lines[1]
    else:
        u, v = lines[1].split()
        lines[1] = f"{v} {u}"
    text = "\n".join(lines) + "\n"
    tokenise, written_power = graphs._line_tokens, graphs._written_power
    tokenised, tested = [], []

    def tokenise_spy(text):
        tokenised.append(text)
        return tokenise(text)

    def written_power_spy(text):
        tested.append((text, written_power(text)))
        return tested[-1][1]

    monkeypatch.setattr(graphs, "_line_tokens", tokenise_spy)
    monkeypatch.setattr(graphs, "_written_power", written_power_spy)
    again = parse_edge_list(text)
    # refused as written, tokenised, then read back from its pairs
    # written in that form
    assert tokenised == [text]
    assert [(t, p is None) for t, p in tested] == [
        (text, True), (format_edge_list(power), False)]
    assert tested[-1][1] is again
    assert again.factor_sizes == power.factor_sizes
    assert again.edges() == power.edges()


def adjacency_text(graph) -> str:
    """The edge-list text of ``graph`` read off its adjacency: its sorted
    edges under an "n m" header."""
    edges = sorted((u, v) for u, nbrs in enumerate(graph.adjacency)
                   for v in nbrs if u < v)
    return "".join([f"{graph.vertex_count} {len(edges)}\n"]
                   + [f"{u} {v}\n" for u, v in edges])


def test_products_are_written_without_their_adjacency():
    corpus = kernel_corpus() + [
        ("K1xP3", cartesian_product(complete(1), path(3))),
        ("(K3xP3)x(C4xK2)", cartesian_product(
            cartesian_product(complete(3), path(3)),
            cartesian_product(cycle(4), complete(2)))),
    ]
    for name, g in corpus:
        text = format_edge_list(g)
        if g.factors is not None:
            assert g._adjacency is None, name
        assert text == adjacency_text(g), name


@pytest.mark.parametrize("text", [
    "9" * 4000 + " 2\n0 1\n1 2\n",
    "3 " + "9" * 4000 + "\n0 1\n1 2\n",
    "3 2\n0 1\n1 " + "9" * 4000 + "\n",
    "9" * 5000 + " 2\n0 1\n1 2\n",
    "16 " + "9" * 5000 + "\n0 1\n",
    # written P_3^2 with the line "0 3" among F's leading lines made huge
    format_edge_list(cartesian_power(path(3), 2)).replace(
        "\n0 3\n", "\n0 " + "9" * 5000 + "\n"),
], ids=["huge-n", "huge-m", "huge-vertex", "n-past-int", "m-past-int",
        "vertex-past-int"])
def test_huge_integers_are_not_read_back_as_written(text):
    # refused before any root is taken or any text is written
    assert graphs._written_power(text) is None
