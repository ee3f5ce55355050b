"""Exhaustive search oracles: exact radio numbers and consecutive witnesses.

The exact search walks orderings in lexicographic order and reports the
lexicographically smallest optimum; the witness search follows a fixed
fewest-onward-options rule.  Either way, repeated runs return identical
results.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from itertools import permutations
from typing import Optional

from .errors import TooLargeError
from .graphs import Graph
from .labeling import Labeling, induced_labeling, is_consecutive

EXACT = "exact"
WITNESS_FOUND = "witness-found"
EXHAUSTED = "exhausted-no-witness"
TIMEOUT = "timeout"

DEFAULT_EXACT_LIMIT = 9
DEFAULT_TIME_BUDGET = 30.0


@dataclass(frozen=True)
class SearchResult:
    status: str
    span: Optional[int]
    ordering: Optional[tuple]
    labeling: Optional[Labeling]
    orderings_examined: int

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "span": self.span,
            "ordering": list(self.ordering) if self.ordering else None,
            "labels": list(self.labeling.labels) if self.labeling else None,
            "orderings_examined": self.orderings_examined,
        }


def _first_vertex_representatives(graph: Graph) -> list:
    """The least vertex of each automorphism orbit, in increasing order."""
    reps = []
    for v in range(graph.vertex_count):
        if not any(_some_automorphism_maps(graph, r, v) for r in reps):
            reps.append(v)
    return reps


def _some_automorphism_maps(graph: Graph, r: int, v: int) -> bool:
    """Whether some automorphism sends r to v.

    Backtracks over maps fixing r -> v, extended in BFS order from r: each
    vertex goes to an unused neighbour of its BFS parent's image with the
    same degree and the same adjacency to every vertex mapped before it.
    """
    adj = graph.adjacency
    n = graph.vertex_count
    order, parent = [r], {r: r}
    for u in order:
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                order.append(w)
    image = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        u = order[i]
        for w in (adj[image[parent[u]]] if i else (v,)):
            if used[w] or len(adj[w]) != len(adj[u]):
                continue
            if any((x in adj[u]) != (image[x] in adj[w]) for x in order[:i]):
                continue
            image[u] = w
            used[w] = True
            if extend(i + 1):
                return True
            used[w] = False
        return False

    return extend(0)


def exact_radio_number(graph: Graph, limit: int = DEFAULT_EXACT_LIMIT,
                       prune: bool = True,
                       symmetry_reduction: bool = False) -> SearchResult:
    """Minimum span over every ordering-induced radio labeling.

    The pruned walk cuts a partial ordering once its last label plus the
    number of unplaced vertices reaches the best known span (labels rise by
    at least one per step, so no completion can do better).  With
    prune=False the search degenerates to plain enumeration of all |V|!
    orderings through the labeling module, kept as the cross-check oracle.

    symmetry_reduction restricts the first position to one vertex per
    automorphism class.  The optimum is unaffected (an automorphism carries
    any optimal ordering to one starting at a representative), but the
    witness may then differ from the unreduced lexicographic one, so the
    flag defaults to off.
    """
    n = graph.vertex_count
    if n > limit:
        raise TooLargeError(
            f"{n} vertices exceeds the exhaustive limit of {limit}")
    starts = (_first_vertex_representatives(graph) if symmetry_reduction
              else range(n))
    if not prune:
        return _enumerate_all(graph, set(starts))

    diam = graph.diameter()
    bound = diam + 1
    dist = graph.distance_matrix()
    best_span = None
    best_order = None
    examined = 0
    order = [0] * n
    labels = [0] * n
    used = [False] * n

    def walk(depth: int) -> None:
        nonlocal best_span, best_order, examined
        if depth == n:
            examined += 1
            span = labels[depth - 1]
            if best_span is None or span < best_span:
                best_span = span
                best_order = tuple(order)
            return
        prev = labels[depth - 1] if depth else 0
        for v in (starts if depth == 0 else range(n)):
            if used[v]:
                continue
            label = prev + 1
            row = dist[v]
            for c in range(1, min(diam, depth) + 1):
                candidate = labels[depth - c] + bound - row[order[depth - c]]
                if candidate > label:
                    label = candidate
            if best_span is not None and label + (n - depth - 1) >= best_span:
                continue
            order[depth] = v
            labels[depth] = label
            used[v] = True
            walk(depth + 1)
            used[v] = False

    walk(0)
    labeling = induced_labeling(graph, best_order)
    return SearchResult(EXACT, best_span, best_order, labeling, examined)


def _enumerate_all(graph: Graph, starts: set) -> SearchResult:
    best_span = None
    best_order = None
    examined = 0
    for order in permutations(range(graph.vertex_count)):
        if order[0] not in starts:
            continue
        examined += 1
        span = induced_labeling(graph, order).span
        if best_span is None or span < best_span:
            best_span = span
            best_order = order
    labeling = induced_labeling(graph, best_order)
    return SearchResult(EXACT, best_span, best_order, labeling, examined)


def find_consecutive_ordering(graph: Graph,
                              time_budget: float = DEFAULT_TIME_BUDGET
                              ) -> SearchResult:
    """Backtracking search for an ordering whose induced labeling is
    consecutive, pruning with d(x_i, x_{i+c}) >= diam - c + 1.

    At each position the surviving candidates are tried fewest-onward-
    options first, ties broken by vertex index; the guidance matters on
    instances like the hundred-vertex Petersen square, where plain index
    order strands the walk in a barren subtree.  The rule is fixed, so
    repeated runs return the identical witness.  Returns witness-found,
    exhausted-no-witness when the whole tree was explored, or timeout once
    the budget runs out.  Raises TooLargeError above the distance cache
    limit, graphs.DISTANCE_CACHE_LIMIT vertices.
    """
    n = graph.vertex_count
    diam = graph.diameter()
    dist = graph.distance_matrix()
    deadline = time.monotonic() + time_budget
    examined = 0
    order = [0] * n
    used = [False] * n
    timed_out = False
    if sys.getrecursionlimit() < n + 100:
        sys.setrecursionlimit(n + 100)

    def admissible(v: int, depth: int) -> bool:
        for c in range(1, min(diam, depth) + 1):
            if dist[order[depth - c]][v] < diam - c + 1:
                return False
        return True

    def extend(depth: int) -> Optional[tuple]:
        nonlocal examined, timed_out
        if depth == n:
            examined += 1
            return tuple(order)
        if time.monotonic() > deadline:
            timed_out = True
            return None
        scored = []
        for v in range(n):
            if used[v] or not admissible(v, depth):
                continue
            # rescoring a wide candidate set can outlast the budget on its
            # own, so the deadline is also polled inside the scan
            if time.monotonic() > deadline:
                timed_out = True
                return None
            order[depth] = v
            onward = sum(1 for w in range(n)
                         if not used[w] and w != v
                         and admissible(w, depth + 1))
            scored.append((onward, v))
        scored.sort()
        for _, v in scored:
            order[depth] = v
            used[v] = True
            found = extend(depth + 1)
            used[v] = False
            if found is not None or timed_out:
                return found
        return None

    witness = extend(0)
    if witness is not None:
        labeling = induced_labeling(graph, witness)
        return SearchResult(WITNESS_FOUND, labeling.span, witness, labeling,
                            examined)
    status = TIMEOUT if timed_out else EXHAUSTED
    return SearchResult(status, None, None, None, examined)


def verify_witness(graph: Graph, order) -> bool:
    """Independent audit: the induced labeling is consecutive.

    Goes only through the labeling module, sharing no state with the
    searches above.
    """
    return is_consecutive(graph, induced_labeling(graph, order))
