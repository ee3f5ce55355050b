"""Graph representation, BFS distances, Cartesian products, and named builders.

Vertices are the integers 0..n-1.  Graphs are immutable once built and safe
to share between threads; the lazily filled caches (distance matrix,
product adjacency) are idempotent, so a duplicated fill is harmless.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import re
import sys
import time
from array import array
from collections import deque
from typing import (Callable, Iterable, Iterator, Optional, Sequence, TextIO,
                    Union)

from .errors import (
    ArityMismatchError,
    DisconnectedError,
    IndexOutOfRangeError,
    InvalidParameterError,
    SelfLoopError,
    SizeLimitExceededError,
    TooLargeError,
)

DEFAULT_SIZE_CAP = 1_000_000
SIZE_CAP_ENV = "RADIOLABEL_SIZE_CAP"

# largest graph whose full distance matrix is cached implicitly; products,
# whether built by cartesian_product/cartesian_power or recognised by
# parse_edge_list, never need it: their distances sum per coordinate
DISTANCE_CACHE_LIMIT = 4096

# a list of rows indexed [u][v]: each row is bytes when the diameter is
# below 256, a list of ints otherwise; either row yields ints
DistanceMatrix = list


def encode_coordinates(coords: Sequence[int], sizes: Sequence[int]) -> int:
    """Flat index of a coordinate tuple, last coordinate fastest-varying:
    the number a product with factor sizes ``sizes`` gives that vertex."""
    if len(coords) != len(sizes):
        raise ArityMismatchError(
            f"{len(coords)} coordinates for {len(sizes)} factors")
    index = 0
    for c, size in zip(coords, sizes):
        if not 0 <= c < size:
            raise IndexOutOfRangeError(
                f"coordinate {_cut(c, 'digits')} not in "
                f"[0, {_cut(size, 'digits')})")
        index = index * size + c
    return index


def decode_index(index: int, sizes: Sequence[int]) -> tuple:
    """Inverse of encode_coordinates."""
    coords = [0] * len(sizes)
    for k in range(len(sizes) - 1, -1, -1):
        index, coords[k] = divmod(index, sizes[k])
    if index:
        raise IndexOutOfRangeError("flat index exceeds the coordinate space")
    return tuple(coords)


def _hamming_codes(sizes: Sequence[int]) -> tuple:
    """(codes, fill, guard, field) for counting differing coordinates in a
    product with factor sizes ``sizes``: codes[v] packs vertex v's
    coordinates into one int, coordinate k in field k of ``field`` bits,
    first coordinate highest, so the codes come out in flat-index order,
    and d(u, v) = (((codes[u] ^ codes[v]) + fill) & guard).bit_count().
    A field also holds any count of differing coordinates.  O(N) time
    and N ints for N vertices; the README derives the layout and the
    fold.
    """
    t = len(sizes)
    w = (max(sizes) - 1).bit_length()
    field = max(w + 1, t.bit_length())
    high, low = [0], [0]
    for size in sizes[:t // 2]:
        high = [p << field | c for p in high for c in range(size)]
    for size in sizes[t // 2:]:
        low = [p << field | c for p in low for c in range(size)]
    shift = (t - t // 2) * field
    codes = [p | c for p in [q << shift for q in high] for c in low]
    ones = sum(1 << k * field for k in range(t))  # bit 0 of every field
    guard = ones << w
    return codes, guard - ones, guard, field


class Graph:
    """Simple connected undirected graph.

    Graphs built as Cartesian products keep references to their factors and
    answer distance queries by summing factor distances coordinatewise;
    their adjacency is materialized lazily on first access.
    """

    __slots__ = ("_n", "_adjacency", "_factors", "_sizes", "_dist", "_diam")

    def __init__(self, vertex_count: int, edges: Iterable[tuple]):
        self._n = vertex_count
        self._adjacency: Optional[tuple] = _adjacency_from_edges(
            vertex_count, edges)
        self._factors: Optional[tuple] = None
        self._sizes: Optional[tuple] = None
        self._dist: Optional[DistanceMatrix] = None
        self._diam: Optional[int] = None
        unreached = bfs_distances(self, 0).count(-1)
        if unreached:
            raise DisconnectedError(
                f"graph is disconnected ({vertex_count - unreached} of "
                f"{vertex_count} vertices reachable)")

    @classmethod
    def _product(cls, factors: Sequence["Graph"]) -> "Graph":
        g = cls.__new__(cls)
        g._sizes = tuple(f.vertex_count for f in factors)
        # bounded by the callers: _check_size, or a parsed graph's own size
        g._n = math.prod(g._sizes)
        g._adjacency = None
        g._factors = tuple(factors)
        g._dist = None
        g._diam = None
        return g

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def factors(self) -> Optional[tuple]:
        """Factor graphs when built as a product, else None."""
        return self._factors

    @property
    def factor_sizes(self) -> Optional[tuple]:
        """Factor vertex counts when built as a product, else None; vertex
        v has coordinates decode_index(v, factor_sizes)."""
        return self._sizes

    @property
    def adjacency(self) -> tuple:
        """Per-vertex frozenset of neighbors; built on demand for products."""
        if self._adjacency is None:
            # a product's: each forward edge (see _forward_lists) is
            # added to both its ends
            forward = _forward_lists(self)
            nbrs = [list(above) for above in forward]
            for u, above in enumerate(forward):
                for w in above:
                    nbrs[w].append(u)
            self._adjacency = tuple(map(frozenset, nbrs))
        return self._adjacency

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def edges(self) -> list:
        """Sorted list of (u, v) pairs with u < v."""
        out = []
        for u, nbrs in enumerate(self.adjacency):
            out.extend((u, v) for v in nbrs if u < v)
        out.sort()
        return out

    def distance(self, u: int, v: int) -> int:
        """Hop distance; coordinatewise sum for products, else cached BFS."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise IndexOutOfRangeError(f"vertex pair ({u}, {v}) out of range")
        if self._factors is not None:
            return sum(map(Graph.distance, self._factors,
                           decode_index(u, self._sizes),
                           decode_index(v, self._sizes)))
        # inline cache read: every product distance makes one per factor
        if self._dist is None:
            self.distance_matrix()
        return self._dist[u][v]

    def distance_matrix(self, deadline: float = math.inf
                        ) -> Optional[DistanceMatrix]:
        """All-pairs hop distances, filled once and cached: a flat graph's
        rows by BFS from each source, a product's summed from its factors'
        tables.  Every row is bytes, one byte an entry, below diameter 256,
        and a list of ints otherwise.

        If time.monotonic() passes ``deadline`` between two rows, or while
        a factor's table is filled under the same deadline, the partial
        table is dropped and None returned; without a deadline the result
        is never None.  Raises TooLargeError above DISTANCE_CACHE_LIMIT
        vertices.
        """
        if self._dist is None:
            if self._n > DISTANCE_CACHE_LIMIT:
                raise TooLargeError(
                    f"all-pairs distances for {self._n} vertices exceed the "
                    f"{DISTANCE_CACHE_LIMIT}-vertex cache; products sum "
                    f"distances per coordinate without it, whether built by "
                    f"cartesian_power or read from an edge list in the "
                    f"vertex numbering it gives them")
            pack = self._factors is None
            if pack:
                rows = (bfs_distances(self, s) for s in range(self._n))
            else:
                tables = [f.distance_matrix(deadline) for f in self._factors]
                if None in tables:
                    return None
                # the factors are flat and their tables filled, so the
                # diameter is their diameters' sum
                diam = self.diameter()
                # adders[a] adds a to every byte up to 255 - a, for each
                # a <= diam: no entry of a factor's row is larger
                adders = ([bytes(range(a, 256)) + bytes(a)
                           for a in range(diam + 1)] if diam < 256 else None)
                rows = tables[0]
                for h_table in tables[1:]:
                    rows = _product_rows(rows, h_table, adders)
            table = []
            for row in rows:
                if time.monotonic() > deadline:
                    return None
                if pack:
                    try:
                        row = bytes(row)
                    except ValueError:  # a distance past 255: lists
                        pack = False
                        table = list(map(list, table))
                table.append(row)
            self._dist = table
        return self._dist

    def _distance_function(self) -> Callable[[int, int], int]:
        """Unchecked dist(u, v) for loops that query many in-range pairs.

        Flat graphs read the cached BFS rows.  On a product of complete
        factors the distance is the number of differing coordinates, read
        off one packed integer code per vertex (see _hamming_codes).  Other
        products decode every vertex once and sum the factors' distance
        matrices.  Built on each call; nothing is cached on the graph.
        While the function lives it holds O(N) ints: one packed code per
        vertex on the Hamming branch, one coordinate tuple per vertex on
        the table-sum branch.
        """
        if self._factors is None:
            rows = self.distance_matrix()
            return lambda u, v: rows[u][v]
        if all(f.is_complete() for f in self._factors):
            # same answers as the table sum below, whose K_n tables hold
            # only 0 and 1, but faster
            codes, fill, guard, _field = _hamming_codes(self._sizes)
            return lambda u, v: (((codes[u] ^ codes[v]) + fill)
                                 & guard).bit_count()
        # itertools.product yields coordinate tuples in flat-index order
        coords = list(itertools.product(*map(range, self._sizes)))
        tables = [f.distance_matrix() for f in self._factors]
        at = operator.getitem  # tables[k][cu[k]][cv[k]], summed over k
        return lambda u, v: sum(map(at, map(at, tables, coords[u]), coords[v]))

    def _window_holds(self, order: tuple) -> bool:
        """The window criterion on a validated ordering: d(order[i],
        order[i + c]) >= diam - c + 1 for every i and c <= diam, checked
        offset by offset.

        Where _packed_window gives an offset's distances as bytes, each
        below 256, the offset holds when deleting every byte of at least
        diam - c + 1 leaves none, a C-level pass instead of a min() over
        one int object per distance.  Elsewhere the offset maps
        _distance_function over its pairs and takes the min().
        """
        diam = self.diameter()
        window = None
        if (self._factors is not None
                and all(f.is_complete() for f in self._factors)):
            window = _packed_window(self._sizes, order)
        dist = self._distance_function() if window is None else None
        for c in range(1, diam + 1):
            need = diam - c + 1
            if window is not None:
                if window(c).translate(None, bytes(range(need, 256))):
                    return False
            elif min(map(dist, order, order[c:]), default=need) < need:
                return False
        return True

    def diameter(self) -> int:
        """Computed on the first call and kept: on a flat graph it is a
        scan of the whole distance table.  Threads that race on the first
        call store the same value."""
        if self._diam is None:
            self._diam = (sum(f.diameter() for f in self._factors)
                          if self._factors is not None
                          else max(map(max, self.distance_matrix())))
        return self._diam

    def is_complete(self) -> bool:
        return self._n == 1 or self.diameter() == 1

    def __repr__(self) -> str:
        if self._factors is not None and self._adjacency is None:
            return f"Graph(vertices={self._n}, factors={len(self._factors)})"
        return f"Graph(vertices={self._n}, edges={self.edge_count})"


def _product_rows(rows: Iterable, h_table: DistanceMatrix,
                  adders: Optional[list]) -> Iterator:
    """The distance rows of G x H from G's rows and H's table, built one
    at a time as they are asked for, numbering (g, h) as g|H| + h, as
    _forward_lists does.  Without adders the rows are lists.  With
    adders, the translate tables that add a to every byte for each a up
    to the product's diameter, the rows are bytes: H's row shifted by
    each entry of G's, by C-level translates, joined.  A function, so
    that each fold stage keeps its own h_table: a generator expression's
    inner for looks its name up only when it runs."""
    if adders is None:
        return ([a + b for a in ra for b in rh]
                for ra in rows for rh in h_table)
    return (b"".join([rh.translate(adders[a]) for a in ra])
            for ra in rows for rh in h_table)


# _DIGITS[256 - k:512 - k] maps a byte d to the base-2 digit of d >= k,
# for 0 <= k <= 256
_DIGITS = b"0" * 256 + b"1" * 256
# a list row's bools -> base-2 digits
_BINARY = bytes.maketrans(b"\0\1", b"01")


def _at_least_mask(row: Sequence[int], k: int) -> int:
    """The int whose bit w is set iff row[w] >= k, for a row of a
    distance table: the digit of row[w] >= k, for w from the last down
    to 0, read in base 2.  A bytes row takes one C-level translate; a
    list row, of a table past diameter 255, a pass over its ints."""
    if isinstance(row, bytes):
        return int(row[::-1].translate(_DIGITS[256 - k:512 - k]), 2)
    return int(bytes(map(k.__le__, reversed(row))).translate(_BINARY), 2)


def _packed_window(sizes: Sequence[int], order: tuple
                   ) -> Optional[Callable[[int], bytes]]:
    """window(c), the bytes d(order[i], order[i + c]) for i < len(order)
    - c, in that order, on a product of complete factors with sizes
    ``sizes``; or None when a position's segment of t fields, rounded
    up to whole bytes and fields, would pass 64 bits (K_2^16, K_200^2).
    Built on each call; the packed int takes at most 8 bytes per vertex,
    3 on K_6^5.  The README derives the big-int operations.
    """
    codes, fill, guard, field = _hamming_codes(sizes)
    t = len(sizes)
    step = math.lcm(8, field)
    bits = -(-t * field // step) * step  # t fields, whole bytes and fields
    if bits > 64:
        return None
    size = bits // 8
    n = len(order)
    packed = array(next(code for code in "BHIQ"
                        if array(code).itemsize >= size),
                   _gatherer(order)(codes))
    if sys.byteorder == "big":
        packed.byteswap()
    raw = packed.tobytes()
    if packed.itemsize > size:  # drop each item's zero top bytes
        wide, raw = raw, bytearray(n * size)
        for k in range(size):
            raw[k::size] = wide[k::packed.itemsize]
    x = int.from_bytes(raw, "little")
    fills = int.from_bytes(fill.to_bytes(size, "little") * n, "little")
    guards = int.from_bytes(guard.to_bytes(size, "little") * n, "little")
    # the flag of field j times the adder's term t - 1 - j lands on
    # top + shift: byte `start`, at or above the first coordinate's flag
    top = guard.bit_length() - 1
    shift = -top % 8
    start = (top + shift) // 8
    adder = sum(1 << (k * field + shift) for k in range(t))
    # the next partial count up starts a field above the sum
    low = (1 << min(field, 8)) - 1
    table = bytes(b & low for b in range(256))
    length = (n + 2) * size  # room for the last segment's partial counts

    def window(c: int) -> bytes:
        y = x ^ (x >> c * bits)
        sums = ((y + fills) & guards) * adder
        return sums.to_bytes(length, "little")[
            start:start + max(n - c, 0) * size:size].translate(table)

    return window


def _adjacency_from_edges(vertex_count: int, edges: Iterable[tuple]) -> tuple:
    if vertex_count < 1:
        raise InvalidParameterError("vertex count must be positive")
    adjacency = [set() for _ in range(vertex_count)]
    for u, v in edges:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise IndexOutOfRangeError(
                f"edge ({_cut(u, 'digits')}, {_cut(v, 'digits')}) outside "
                f"0..{_cut(vertex_count - 1, 'digits')}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        adjacency[u].add(v)
        adjacency[v].add(u)
    return tuple(frozenset(nbrs) for nbrs in adjacency)


def build_graph(vertex_count: int, edges: Iterable[tuple]) -> Graph:
    """Build a simple connected graph from an edge list."""
    return Graph(vertex_count, edges)


def bfs_distances(graph: Graph, source: int) -> list:
    """Hop distances from one vertex, by breadth-first search."""
    adjacency = graph.adjacency
    dist = [-1] * graph.vertex_count
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for w in adjacency[u]:
            if dist[w] < 0:
                dist[w] = du
                queue.append(w)
    return dist


def all_pairs_distances(graph: Graph) -> DistanceMatrix:
    """Exact hop distances between all vertex pairs, by repeated BFS.

    Always walks the adjacency structure, so on product graphs it is an
    independent cross-check of the coordinatewise distance sum.
    """
    return [bfs_distances(graph, s) for s in range(graph.vertex_count)]


def _bounded_product(sizes: Iterable[int], bound: int) -> Optional[int]:
    """Product of ``sizes``, or None once a partial product exceeds
    ``bound``: the sizes are multiplied one at a time and the loop stops
    there, so a huge product such as n^t is never computed."""
    count = 1
    for size in sizes:
        count *= size
        if count > bound:
            return None
    return count


def _check_size(sizes: Iterable[int], what: str) -> None:
    """Refuse a construction whose size, the product of ``sizes``, is
    more than RADIOLABEL_SIZE_CAP (default DEFAULT_SIZE_CAP) allows;
    ``what`` names the size in the error."""
    env = os.environ.get(SIZE_CAP_ENV)
    if env and (not env.isdecimal() or int(env) < 1):
        raise InvalidParameterError(
            f"{SIZE_CAP_ENV}={env!r} is not a positive integer")
    cap = int(env) if env else DEFAULT_SIZE_CAP
    if _bounded_product(sizes, cap) is None:
        raise SizeLimitExceededError(f"{what}, above the cap of {cap}")


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (u,v) ~ (u',v') iff equal in one coordinate and
    adjacent in the other.  Factor lists flatten, so products of products
    keep coordinatewise distances exact."""
    _check_size((g.vertex_count, h.vertex_count),
                f"product has {g.vertex_count * h.vertex_count} vertices")
    return Graph._product((g.factors or (g,)) + (h.factors or (h,)))


def cartesian_power(g: Graph, t: int) -> Graph:
    """t-fold Cartesian product of ``g`` with itself; returns g when t = 1
    or when g has one vertex (K_1^t is K_1)."""
    if t < 1:
        raise InvalidParameterError("power must be at least 1")
    n = g.vertex_count
    trivial = t == 1 or n == 1
    # the size is never formatted: n^t can pass the digit limit of str(int);
    # range, not itertools.repeat, counts past sys.maxsize
    _check_size(() if trivial else (n for _ in range(t)), f"{n}^{t} vertices")
    if trivial:
        return g
    return Graph._product((g.factors or (g,)) * t)


# ---------------------------------------------------------------------------
# named builders
# ---------------------------------------------------------------------------

def complete(n: int) -> Graph:
    """K_n; the size cap bounds its n(n - 1) adjacency entries, which is
    what it allocates, not its n vertices."""
    if n < 1:
        raise InvalidParameterError("complete graph needs n >= 1")
    _check_size((n, n - 1), f"K_{n} has {n * (n - 1)} adjacency entries")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError("path graph needs n >= 1")
    _check_size((n,), f"P_{n} has {n} vertices")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidParameterError("cycle graph needs n >= 3")
    _check_size((n,), f"C_{n} has {n} vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9 (i ~ i+2 mod 5), spokes."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph(10, edges)


BUILDERS = {
    "complete": complete,
    "path": path,
    "cycle": cycle,
    "petersen": petersen,
}


# ---------------------------------------------------------------------------
# edge-list text format: first line "n m", then m lines "u v", '#' comments
# ---------------------------------------------------------------------------

_QUOTED = 40  # characters of a bad line or integer an error quotes


def _cut(value: object, unit: str, quote: Callable[[str], str] = str
         ) -> str:
    """str(value) quoted for an error: whole, or its first _QUOTED
    characters and its length in ``unit`` when longer, so the error
    stays one short line."""
    text = str(value)
    return quote(text) if len(text) <= _QUOTED else (
        f"{quote(text[:_QUOTED])}... ({len(text)} {unit})")


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text.  A token that is not an integer, or an edge
    listed twice in either orientation, is an error naming its line.

    A graph whose edges are exactly those of a Cartesian power F^t
    (t >= 2) of its subgraph F on the first vertices, in the numbering
    cartesian_power gives it, comes back as that product, with no
    adjacency until one is asked for, so its distances sum per
    coordinate; any other graph, such as a relabelled power, comes back
    flat.  The edges are the same either way.  One rule, _written_power,
    decides what is a power (see the README's edge-list section).
    """
    power = _written_power(text)
    if power is not None:
        return power
    return _graph_from_tokens(text, _line_tokens(text))


def _content_lines(text: str) -> Iterable[tuple]:
    """(line number, text) of each line left non-blank once its '#'
    comment is cut off, yielded lazily so a parse walks the text once."""
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line


def _line_tokens(text: str) -> list:
    """[n, m, u1, v1, u2, v2, ...] read line by line, naming the first
    line that is not two integers and quoting at most its first
    _QUOTED characters, so the error stays one short line."""
    tokens = []
    for number, line in _content_lines(text):
        try:
            u, v = line.split()  # ValueError unless two tokens
            tokens += int(u), int(v)
        except ValueError:
            shape = "u v" if tokens else "n m"
            got = _cut(line, "characters", repr)
            raise InvalidParameterError(
                f"line {number}: expected {shape!r}, got {got}") from None
    return tokens


def _graph_from_tokens(text: str, tokens: list) -> Graph:
    """The graph of an edge list's tokens, header first; ``text`` is read
    again only to name the line of a duplicate edge."""
    if not tokens:
        raise InvalidParameterError("empty edge-list input")
    n, m = tokens[0], tokens[1]
    us, vs = tokens[2::2], tokens[3::2]
    # checked before building, so a short file cannot make the builder
    # allocate for a huge n: a connected graph has at least n - 1 edges
    if m < n - 1:
        raise DisconnectedError(
            f"graph is disconnected: the header declares {_cut(m, 'digits')} "
            f"edges, fewer than the {_cut(n - 1, 'digits')} needed to connect "
            f"{_cut(n, 'digits')} vertices")
    if len(us) != m:
        raise InvalidParameterError(
            f"header declares {_cut(m, 'digits')} edges, found {len(us)}")
    if us and min(min(us), min(vs)) >= 0 and max(max(us), max(vs)) < n:
        # the sorted pairs are dropped before _written_power writes its
        # candidates
        written = _pairs_text(n, sorted(zip(map(min, us, vs),
                                            map(max, us, vs))))
        # a text already in that form was refused before it was tokenised
        power = _written_power(written) if written != text else None
        if power is not None:
            return power
    graph = Graph(n, zip(us, vs))
    if graph.edge_count != m:  # the graph merged a repeat: name the first
        seen = set()
        numbers = itertools.islice(_content_lines(text), 1, None)
        for (number, _), u, v in zip(numbers, us, vs):
            if (v, u) in seen or (u, v) in seen:
                raise InvalidParameterError(
                    f"line {number}: duplicate edge {u} {v}")
            seen.add((u, v))
    return graph


# a line of a written edge list (see _edge_list_text), the header or an
# edge, with its line break
_WRITTEN_LINE = re.compile(r"([0-9]+) ([0-9]+)\n")


def _written_power(text: str) -> Optional[Graph]:
    """The product F^t, t >= 2, whose text format_edge_list writes is
    exactly ``text``, F being its subgraph on the first n^(1/t) vertices
    and at most DISTANCE_CACHE_LIMIT of them, the largest t first; else
    None.  The product has no adjacency yet and skips _check_size.  A
    candidate t whose header or leading lines do not fit costs at most
    its F's lines; one that fits is written again and compared, O(N +
    |E|) time and memory."""
    header = _WRITTEN_LINE.match(text)
    if header is None:
        return None
    try:
        n, edge_count = int(header[1]), int(header[2])
    except ValueError:  # past int()'s digit limit
        return None
    # a written text ends each edge line and the header with a line break
    if edge_count < n - 1 or edge_count != text.count("\n") - 1:
        return None
    for t in range(n.bit_length() - 1, 1, -1):
        m = round(n ** (1 / t))
        if m ** t != n or m > DISTANCE_CACHE_LIMIT:
            continue
        count, rest = divmod(edge_count, t * m ** (t - 1))
        if rest or not count:
            continue
        # up to count edges within 0..m-1, stopping at a line of vertex
        # m or above, or at a line not in written form or not in F^t: a
        # vertex u < m has F's edges and edges to u + x m^k, k >= 1
        edges, pos = [], header.end()
        while len(edges) < count:
            line = _WRITTEN_LINE.match(text, pos)
            if line is None:
                break
            try:
                u, v = int(line[1]), int(line[2])
            except ValueError:  # past int()'s digit limit
                break
            if u >= m or (v >= m and (v - u) % m):
                break
            if v < m:
                edges.append((u, v))
            pos = line.end()
        if len(edges) != count:
            continue
        try:
            factor = Graph(m, edges)
        except (DisconnectedError, SelfLoopError):
            continue
        power = Graph._product((factor,) * t)
        if _edge_list_text(power) == text:
            return power
    return None


def format_edge_list(graph: Graph) -> str:
    """The edge-list text of ``graph``: the line "n m", then one line
    "u v" per edge, u < v, in sorted order, each line ending in "\\n".

    A product is written from its factors' neighbour lists, without
    materialising its adjacency: a graph that was built as a product
    keeps none after it is written.
    """
    return _edge_list_text(graph)


def _edge_list_text(graph: Graph) -> str:
    """format_edge_list's text: a flat graph's from its sorted edges, a
    product's from _forward_lists over its vertex names, with no
    adjacency, no sort and no int per neighbour; O(N + |E|) memory."""
    n = graph.vertex_count
    if graph._factors is None:
        return _pairs_text(n, graph.edges())
    names = list(map(str, range(n)))
    forward = _forward_lists(graph, names)
    # each vertex's lines, a line break before each: "\nu v1\nu v2..."
    body = "".join([head + head.join(above)
                    for head, above in zip([f"\n{u} " for u in names],
                                           forward)
                    if above])
    return f"{n} {sum(map(len, forward))}{body}\n"


def _pairs_text(n: int, pairs: Sequence[tuple]) -> str:
    """The written edge list of ``n`` vertices and ``pairs``, in the order
    given, in one format call that builds no string per line."""
    return f"{n} {len(pairs)}\n" + "%d %d\n" * len(pairs) % tuple(
        itertools.chain.from_iterable(pairs))


def _forward_lists(graph: Graph, items: Optional[Sequence] = None) -> list:
    """Each vertex's neighbours above it, ascending, as items[w] for each
    neighbour w (w itself without ``items``).  A product numbers (g, h)
    as g|H| + h, folding its factors left to right, so each vertex has
    the index encode_coordinates gives its tuple, and its lists share
    their items: O(N + |E|) memory."""
    if graph._factors is None:
        forward = [sorted([w for w in nbrs if w > v])
                   for v, nbrs in enumerate(graph.adjacency)]
        if items is None:
            return forward
        levels = [forward]
    else:
        levels = [_forward_lists(f) for f in graph._factors]
    # the first factor's lists are already its ints; names start from K_1
    forward = levels.pop(0) if items is None else [()]
    for depth, h_forward in enumerate(levels, 1):
        nh = len(h_forward)
        size = len(forward) * nh
        last = depth == len(levels) and items is not None
        seq = tuple(items if last else range(size))
        blocks = [seq[i:i + nh] for i in range(0, size, nh)]
        cols = [seq[h::nh] for h in range(nh)]
        h_gets = list(map(_gatherer, h_forward))
        forward = [h_get(block) + g_get(col)
                   for block, g_get in zip(blocks, map(_gatherer, forward))
                   for h_get, col in zip(h_gets, cols)]
    return forward


def _gatherer(indices: Sequence[int]) -> Callable[[tuple], tuple]:
    """operator.itemgetter over ``indices``, returning a tuple for any
    count: one index or none is a slice."""
    if len(indices) > 1:
        return operator.itemgetter(*indices)
    start = indices[0] if indices else 0
    return operator.itemgetter(slice(start, start + len(indices)))


def read_text(source: Union[str, os.PathLike, TextIO]) -> str:
    """Whole text of a path or an open text stream, which must be UTF-8."""
    try:
        if hasattr(source, "read"):
            return source.read()
        with open(source, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        name = getattr(source, "name", source)
        raise InvalidParameterError(
            f"{name}: not UTF-8 text ({exc})") from exc


def read_edge_list(source: Union[str, os.PathLike, TextIO]) -> Graph:
    return parse_edge_list(read_text(source))


def write_edge_list(graph: Graph,
                    target: Union[str, os.PathLike, TextIO]) -> None:
    text = format_edge_list(graph)
    if hasattr(target, "write"):
        target.write(text)
        return
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(text)
