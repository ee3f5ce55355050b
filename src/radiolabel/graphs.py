"""Graph representation, BFS distances, Cartesian products, and named builders.

Vertices are the integers 0..n-1.  Graphs are immutable once built and safe
to share between threads; the lazily filled caches (BFS distance matrix,
product adjacency) are idempotent, so a duplicated fill is harmless.
"""

from __future__ import annotations

import itertools
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

# largest graph whose full distance matrix is cached implicitly; products
# built as products never need it, their distances sum per coordinate
DISTANCE_CACHE_LIMIT = 4096

DistanceMatrix = list  # list[list[int]], indexed [u][v]


def encode_coordinates(coords: Sequence[int], sizes: Sequence[int]) -> int:
    """Flat index of a coordinate tuple, last coordinate fastest-varying."""
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

    __slots__ = ("_n", "_adjacency", "_factors", "_sizes", "_places", "_dist")

    def __init__(self, vertex_count: int, edges: Iterable[tuple]):
        adjacency = _adjacency_from_edges(vertex_count, edges)
        _require_connected(adjacency)
        self._n = vertex_count
        self._adjacency: Optional[tuple] = adjacency
        self._factors: Optional[tuple] = None
        self._sizes: Optional[tuple] = None
        self._places: Optional[tuple] = None
        self._dist: Optional[DistanceMatrix] = None

    @classmethod
    def _product(cls, factors: Sequence["Graph"]) -> "Graph":
        g = cls.__new__(cls)
        sizes = tuple(f.vertex_count for f in factors)
        n = 1
        for s in sizes:
            n *= s
        places = [1] * len(sizes)
        for k in range(len(sizes) - 2, -1, -1):
            places[k] = places[k + 1] * sizes[k + 1]
        g._n = n
        g._adjacency = None
        g._factors = tuple(factors)
        g._sizes = sizes
        g._places = tuple(places)
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

    def coordinates_of(self, v: int) -> tuple:
        if self._sizes is None:
            raise InvalidParameterError("graph was not built as a product")
        return decode_index(v, self._sizes)

    def index_of(self, coords: Sequence[int]) -> int:
        if self._sizes is None:
            raise InvalidParameterError("graph was not built as a product")
        return encode_coordinates(coords, self._sizes)

    def distance(self, u: int, v: int) -> int:
        """Hop distance; coordinatewise sum for products, else cached BFS."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise IndexOutOfRangeError(f"vertex pair ({u}, {v}) out of range")
        if self._factors is not None:
            total = 0
            for f, place in zip(self._factors, self._places):
                cu, u = divmod(u, place)
                cv, v = divmod(v, place)
                total += f.distance(cu, cv)
            return total
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
                    f"{DISTANCE_CACHE_LIMIT}-vertex cache; cartesian_power "
                    f"products sum distances per coordinate without it")
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
        assert self._factors is not None
        factor_adj = [f.adjacency for f in self._factors]
        adjacency = [[] for _ in range(self._n)]
        for v in range(self._n):
            coords = decode_index(v, self._sizes)
            for k, place in enumerate(self._places):
                base = v - coords[k] * place
                for w in factor_adj[k][coords[k]]:
                    adjacency[v].append(base + w * place)
        return tuple(frozenset(nbrs) for nbrs in adjacency)

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


def _require_connected(adjacency: Sequence[frozenset]) -> None:
    n = len(adjacency)
    seen = bytearray(n)
    seen[0] = 1
    queue = deque([0])
    reached = 1
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if not seen[w]:
                seen[w] = 1
                reached += 1
                queue.append(w)
    if reached != n:
        raise DisconnectedError(
            f"graph is disconnected ({reached} of {n} vertices reachable)")


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


def _resolve_cap(size_cap: Optional[int]) -> int:
    """The vertex cap on constructions: the argument when given, else
    RADIOLABEL_SIZE_CAP, else DEFAULT_SIZE_CAP."""
    if size_cap is not None:
        return size_cap
    env = os.environ.get(SIZE_CAP_ENV)
    if not env:
        return DEFAULT_SIZE_CAP
    if not env.isdecimal() or int(env) < 1:
        raise InvalidParameterError(
            f"{SIZE_CAP_ENV}={env!r} is not a positive integer")
    return int(env)


def cartesian_product(g: Graph, h: Graph,
                      size_cap: Optional[int] = None) -> Graph:
    """Cartesian product: (u,v) ~ (u',v') iff equal in one coordinate and
    adjacent in the other.  Factor lists flatten, so products of products
    keep coordinatewise distances exact."""
    cap = _resolve_cap(size_cap)
    factors = (g.factors or (g,)) + (h.factors or (h,))
    count = 1
    for f in factors:
        count *= f.vertex_count
    if count > cap:
        raise SizeLimitExceededError(
            f"product has {count} vertices, above the cap of {cap}")
    return Graph._product(factors)


def cartesian_power(g: Graph, t: int, size_cap: Optional[int] = None) -> Graph:
    """t-fold Cartesian product of ``g`` with itself; returns g when t = 1."""
    if t < 1:
        raise InvalidParameterError("power must be at least 1")
    cap = _resolve_cap(size_cap)
    if t == 1:
        return g
    if g.vertex_count ** t > cap:
        raise SizeLimitExceededError(
            f"{g.vertex_count}^{t} vertices, above the cap of {cap}")
    base = g.factors or (g,)
    return Graph._product(base * t)


# ---------------------------------------------------------------------------
# named builders
# ---------------------------------------------------------------------------

def complete(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError("complete graph needs n >= 1")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError("path graph needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidParameterError("cycle graph needs n >= 3")
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
    listed twice in either orientation, is an error naming its line."""
    rows = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((number, line))
    if not rows:
        raise InvalidParameterError("empty edge-list input")
    pairs = []
    for number, line in rows:
        try:
            u, v = line.split()  # ValueError unless two tokens
            pairs.append((int(u), int(v)))
        except ValueError:
            shape = "u v" if pairs else "n m"
            raise InvalidParameterError(
                f"line {number}: expected {shape!r}, got {line!r}") from None
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
        for (number, _), (u, v) in zip(rows[1:], edges):
            if (v, u) in seen or (u, v) in seen:
                raise InvalidParameterError(
                    f"line {number}: duplicate edge {u} {v}")
            seen.add((u, v))
    return graph


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
