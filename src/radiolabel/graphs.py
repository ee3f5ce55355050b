"""Graph representation, BFS distances, Cartesian products, and named builders.

Vertices are the integers 0..n-1.  Graphs are immutable once built and safe
to share between threads; the lazily filled caches (BFS distance matrix,
product adjacency) are idempotent, so a duplicated fill is harmless.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from collections import deque
from typing import Callable, Iterable, Optional, Sequence, TextIO, Union

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

DistanceMatrix = list  # list[list[int]], indexed [u][v]


def encode_coordinates(coords: Sequence[int], sizes: Sequence[int]) -> int:
    """Flat index of a coordinate tuple, last coordinate fastest-varying:
    the number a product with factor sizes ``sizes`` gives that vertex."""
    if len(coords) != len(sizes):
        raise ArityMismatchError(
            f"{len(coords)} coordinates for {len(sizes)} factors")
    index = 0
    for c, size in zip(coords, sizes):
        if not 0 <= c < size:
            raise IndexOutOfRangeError(f"coordinate {c} not in [0, {size})")
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


class Graph:
    """Simple connected undirected graph.

    Graphs built as Cartesian products keep references to their factors and
    answer distance queries by summing factor distances coordinatewise;
    their adjacency is materialized lazily on first access.
    """

    __slots__ = ("_n", "_adjacency", "_factors", "_sizes", "_dist")

    def __init__(self, vertex_count: int, edges: Iterable[tuple]):
        self._n = vertex_count
        self._adjacency: Optional[tuple] = _adjacency_from_edges(
            vertex_count, edges)
        self._factors: Optional[tuple] = None
        self._sizes: Optional[tuple] = None
        self._dist: Optional[DistanceMatrix] = None
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
            self._adjacency = self._materialize_product_adjacency()
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

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

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

    def distance_matrix(self) -> DistanceMatrix:
        """All-pairs hop distances, filled once by BFS and cached.

        Raises TooLargeError above DISTANCE_CACHE_LIMIT vertices.
        """
        if self._dist is None:
            if self._n > DISTANCE_CACHE_LIMIT:
                raise TooLargeError(
                    f"all-pairs distances for {self._n} vertices exceed the "
                    f"{DISTANCE_CACHE_LIMIT}-vertex cache; products sum "
                    f"distances per coordinate without it, whether built by "
                    f"cartesian_power or read from an edge list in the "
                    f"vertex numbering it gives them")
            self._dist = all_pairs_distances(self)
        return self._dist

    def _distance_function(self) -> Callable[[int, int], int]:
        """Unchecked dist(u, v) for loops that query many in-range pairs.

        Flat graphs read the cached BFS rows.  Products decode every vertex
        once, then count differing coordinates when every factor is
        complete, else sum the factors' distance matrices.  Built on each
        call; nothing is cached on the graph.  On a product of t factors
        the decoded coordinates hold about 48 + 8t bytes per vertex while
        the function lives: about 96 MB for a 10^6-vertex sixth power.
        """
        if self._factors is None:
            rows = self.distance_matrix()
            return lambda u, v: rows[u][v]
        # itertools.product yields coordinate tuples in flat-index order
        coords = list(itertools.product(*map(range, self._sizes)))
        if all(f.is_complete() for f in self._factors):
            # same answers as the table sum below, whose K_n tables hold
            # only 0 and 1, but it skips the table reads: the benchmark's
            # knt-power jobs run about 1.4x as many per second with it
            ne = operator.ne
            return lambda u, v: sum(map(ne, coords[u], coords[v]))
        tables = [f.distance_matrix() for f in self._factors]
        at = operator.getitem  # tables[k][cu[k]][cv[k]], summed over k
        return lambda u, v: sum(map(at, map(at, tables, coords[u]), coords[v]))

    def diameter(self) -> int:
        if self._factors is not None:
            return sum(f.diameter() for f in self._factors)
        return max(map(max, self.distance_matrix()))

    def is_complete(self) -> bool:
        return self._n == 1 or self.diameter() == 1

    def _materialize_product_adjacency(self) -> tuple:
        # folding the factors left to right, numbering (g, h) as g|H| + h,
        # gives each vertex the index encode_coordinates gives its tuple
        adjacency = self._factors[0].adjacency
        for f in self._factors[1:]:
            h_adj = f.adjacency
            nh = len(h_adj)
            adjacency = tuple(
                frozenset([x * nh + h for x in g_nbrs]
                          + [g * nh + y for y in h_nbrs])
                for g, g_nbrs in enumerate(adjacency)
                for h, h_nbrs in enumerate(h_adj))
        return adjacency

    def __repr__(self) -> str:
        if self._factors is not None and self._adjacency is None:
            return f"Graph(vertices={self._n}, factors={len(self._factors)})"
        return f"Graph(vertices={self._n}, edges={self.edge_count})"


def _adjacency_from_edges(vertex_count: int, edges: Iterable[tuple]) -> tuple:
    if vertex_count < 1:
        raise InvalidParameterError("vertex count must be positive")
    adjacency = [set() for _ in range(vertex_count)]
    for u, v in edges:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise IndexOutOfRangeError(
                f"edge ({u}, {v}) outside 0..{vertex_count - 1}")
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
    # the size is never formatted: n^t can pass the digit limit of str(int)
    _check_size(() if trivial else itertools.repeat(n, t),
                f"{n}^{t} vertices")
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

def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text.  A token that is not an integer, or an edge
    listed twice in either orientation, is an error naming its line.

    A graph whose edges are exactly those of a Cartesian power F^t
    (t >= 2) of its subgraph F on the first vertices, in the numbering
    cartesian_power gives it, comes back as that product, so its
    distances sum per coordinate; any other graph, such as a relabelled
    power, comes back flat.  The edges are the same either way.
    """
    pairs = []
    for number, line in _content_lines(text):
        try:
            u, v = line.split()  # ValueError unless two tokens
            pairs.append((int(u), int(v)))
        except ValueError:
            shape = "u v" if pairs else "n m"
            raise InvalidParameterError(
                f"line {number}: expected {shape!r}, got {line!r}") from None
    if not pairs:
        raise InvalidParameterError("empty edge-list input")
    (n, m), edges = pairs[0], pairs[1:]
    # checked before building, so a short file cannot make the builder
    # allocate for a huge n: a connected graph has at least n - 1 edges
    if m < n - 1:
        raise DisconnectedError(
            f"graph is disconnected: the header declares {m} edges, fewer "
            f"than the {n - 1} needed to connect {n} vertices")
    if len(edges) != m:
        raise InvalidParameterError(
            f"header declares {m} edges, found {len(edges)}")
    graph = build_graph(n, edges)
    if graph.edge_count != m:  # the graph merged a repeat: name the first
        seen = set()
        numbers = itertools.islice(_content_lines(text), 1, None)
        for (number, _), (u, v) in zip(numbers, edges):
            if (v, u) in seen or (u, v) in seen:
                raise InvalidParameterError(
                    f"line {number}: duplicate edge {u} {v}")
            seen.add((u, v))
    return _recognise_power(graph.adjacency, m) or graph


def _content_lines(text: str) -> Iterable[tuple]:
    """(line number, text) of each line left non-blank once its '#'
    comment is cut off, yielded lazily so a parse walks the text once."""
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line


def _recognise_power(adjacency: tuple, edge_count: int) -> Optional[Graph]:
    """The graph with this adjacency as a product F^t, t >= 2, where F is
    its subgraph on vertices 0..m-1, if F^t has exactly these edges; else
    None.  F^t has t * m^(t-1) * |E(F)| edges, so with that many parsed
    edges, each at distance 1 in F^t, the edge sets are equal and no
    distance can change.  The largest t is tried first, so a K_n^t file
    gets complete factors.  A factor past DISTANCE_CACHE_LIMIT, whose
    distances the product could not serve, leaves the graph flat.  The
    product is built without _check_size: the graph is already in
    memory, and a file that parses must not fail under a small
    RADIOLABEL_SIZE_CAP.  Recognising a relabelled product needs the
    linear-time factorisation of Imrich and Peterin ("Recognizing
    Cartesian products in linear time", Discrete Math. 307, 2007)."""
    n = len(adjacency)
    for t in range(n.bit_length() - 1, 1, -1):
        m = round(n ** (1 / t))
        if m ** t != n:
            continue
        factor_edges = [(u, v) for u in range(m) for v in adjacency[u]
                        if u < v < m]
        if edge_count != t * m ** (t - 1) * len(factor_edges):
            continue
        try:
            power = Graph._product((Graph(m, factor_edges),) * t)
            dist = power._distance_function()
        except (DisconnectedError, TooLargeError):
            continue  # F is disconnected, so F^t is, or past the cache
        if all(dist(u, w) == 1 for u, nbrs in enumerate(adjacency)
               for w in nbrs if u < w):
            power._adjacency = adjacency  # the parsed copy; none is built
            return power
    return None


def format_edge_list(graph: Graph) -> str:
    edges = graph.edges()
    lines = [f"{graph.vertex_count} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


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
