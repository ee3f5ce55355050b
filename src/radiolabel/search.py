"""Exhaustive search oracles: exact radio numbers and consecutive witnesses.

The exact search walks orderings in lexicographic order and reports the
lexicographically smallest optimum; the witness search follows a fixed
fewest-onward-options rule.  Either way, repeated runs return identical
results.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Optional

from .errors import InvalidParameterError, TooLargeError
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


def _first_vertex_representatives(graph: Graph,
                                  deadline: float = math.inf
                                  ) -> Optional[list]:
    """The least vertex of each automorphism orbit, in increasing order, or
    None once the monotonic clock passes deadline while the cached table
    graph.distance_matrix(deadline) fills or before a vertex is tested.  An
    automorphism keeps distances, so v is backtracked against r only when
    their sorted distance rows agree: a cheap invariant first (McKay and
    Piperno, J. Symbolic Comput. 60, 2014)."""
    dist = graph.distance_matrix(deadline)
    if dist is None:
        return None
    profile = [sorted(row) for row in dist]
    reps = {}  # each representative r: its test of r -> v
    for v in range(graph.vertex_count):
        if time.monotonic() > deadline:
            return None
        if not any(profile[r] == profile[v] and maps_r_to(v)
                   for r, maps_r_to in reps.items()):
            reps[v] = _automorphism_test(graph, dist, v)
    return list(reps)


def _automorphism_test(graph: Graph, dist: list, r: int) -> Callable:
    """The test of whether some automorphism sends r to v: a backtrack over
    maps fixing r -> v, extended in order of distance from r, sorted once
    per r.  Each vertex goes to a neighbour of its parent's image (its
    parent is its least neighbour one step nearer r) of the same degree,
    keeping its distance to every vertex mapped before it; a map that keeps
    distances is one-to-one, and once onto, an automorphism."""
    adj = graph.adjacency
    n = graph.vertex_count
    from_r = dist[r]
    order = sorted(range(n), key=from_r.__getitem__)
    parent = {u: min(w for w in adj[u] if from_r[w] < from_r[u])
              for u in order[1:]}
    image = [-1] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        u = order[i]
        for w in adj[image[parent[u]]]:
            if len(adj[w]) == len(adj[u]) and all(
                    dist[u][x] == dist[w][image[x]] for x in order[:i]):
                image[u] = w
                if extend(i + 1):
                    return True
        return False

    def maps_r_to(v: int) -> bool:
        image[r] = v
        return _run_deep(lambda: extend(1), n)

    return maps_r_to


def _deadline(time_budget: float) -> float:
    """The monotonic-clock deadline of a search given time_budget seconds.

    Raises InvalidParameterError for a budget that is negative, infinite
    or NaN.
    """
    if not 0 <= time_budget < math.inf:  # a NaN would never expire
        raise InvalidParameterError(
            f"time budget {time_budget} must be finite seconds >= 0")
    return time.monotonic() + time_budget


def _run_deep(walk: Callable[[], object], depth: int):
    """walk() with room for depth nested calls; the searches and the orbit
    finder recurse once per position.  The old limit is put back after."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, depth + 100))
    try:
        return walk()
    finally:
        sys.setrecursionlimit(limit)


def exact_radio_number(graph: Graph, limit: int = DEFAULT_EXACT_LIMIT,
                       prune: bool = True,
                       symmetry_reduction: bool = False,
                       time_budget: float = DEFAULT_TIME_BUDGET
                       ) -> SearchResult:
    """Minimum span over every ordering-induced radio labeling.

    The pruned walk cuts a partial ordering once its last label plus a
    lower bound on the cost of the unplaced vertices reaches the best known
    span; the bound is the larger of two.  Each step from u to the next
    vertex w raises the label by at least diam + 1 - d(u, w), and by at
    least 1.
    - Eccentricity bound: d(u, w) <= ecc(w), so the sum of
      max(1, diam + 1 - ecc(w)) over the unplaced w.
    - Level bound: fix a centre c, the vertex of least total distance
      (lowest index on ties), and let L(x) = d(c, x).  By the triangle
      inequality through c, d(u, w) <= L(u) + L(w).  Summed over the r
      steps after the last placed vertex v, the rest costs at least
      r(diam + 1) - L(v) - 2 * (sum of L(w) over the unplaced w): each
      unplaced vertex is an end of at most two of those steps, v of one.
    The eccentricity argument is the one Liu and Zhu use for paths and
    cycles, and the level sum the one they use for paths (SIAM J. Discrete
    Math. 19, 2005) and Liu uses for trees ("Radio number for trees",
    Discrete Math. 308, 2008).  Both sums are carried through the walk in
    O(1) per move.  The walk is lexicographic and reaches a leaf only when
    it strictly improves the best span, so the witness and
    orderings_examined are those of any other admissible bound.  With
    prune=False the search degenerates to plain enumeration of all |V|!
    orderings through the labeling module, kept as the cross-check oracle.

    symmetry_reduction restricts the first position to one vertex per
    automorphism class.  The optimum is unaffected (an automorphism carries
    any optimal ordering to one starting at a representative), but the
    witness may then differ from the unreduced lexicographic one, so the
    flag defaults to off.

    The time budget starts on entry and also bounds the search for orbit
    representatives and the filling of a flat graph's distance table.
    Once it runs out the search returns timeout with the best ordering
    found so far, whose span is an upper bound on the radio number, or
    with no ordering if none was completed.  Raises
    InvalidParameterError for a budget that is negative, infinite or NaN,
    and TooLargeError above limit vertices or above the distance cache
    limit, graphs.DISTANCE_CACHE_LIMIT vertices.
    """
    deadline = _deadline(time_budget)
    n = graph.vertex_count
    if n > limit:
        raise TooLargeError(
            f"{n} vertices exceeds the exhaustive limit of {limit}; try "
            f"search-consecutive for a consecutive-labeling witness")
    starts = (_first_vertex_representatives(graph, deadline)
              if symmetry_reduction else range(n))
    dist = graph.distance_matrix(deadline) if starts is not None else None
    if dist is None:
        return _result(graph, TIMEOUT, None, 0)
    if not prune:
        return _enumerate_all(graph, set(starts), deadline)

    diam = graph.diameter()
    bound = diam + 1
    cost = [max(1, bound - max(row)) for row in dist]
    level = min(dist, key=sum)  # distances from the first central vertex
    best_span, best_order = math.inf, None
    examined = 0
    order = [0] * n
    labels = [0] * n
    used = [False] * n
    timed_out = False

    def walk(depth: int, rest: int, levels: int) -> None:
        # rest and levels are the sums of cost and level over the unplaced
        # vertices
        nonlocal best_span, best_order, examined, timed_out
        if depth == n:
            examined += 1
            span = labels[depth - 1]
            if span < best_span:
                best_span = span
                best_order = tuple(order)
            return
        if time.monotonic() > deadline:
            timed_out = True
            return
        prev = labels[depth - 1] if depth else 0
        # the level bound on the steps after candidate v is reach + level[v]
        reach = (n - depth - 1) * bound - 2 * levels
        for v in (starts if depth == 0 else range(n)):
            if used[v]:
                continue
            label = prev + 1
            row = dist[v]
            for c in range(1, min(diam, depth) + 1):
                candidate = labels[depth - c] + bound - row[order[depth - c]]
                if candidate > label:
                    label = candidate
            after = rest - cost[v]
            if (label + after >= best_span
                    or label + reach + level[v] >= best_span):
                continue
            order[depth] = v
            labels[depth] = label
            used[v] = True
            walk(depth + 1, after, levels - level[v])
            used[v] = False
            if timed_out:
                return

    _run_deep(lambda: walk(0, sum(cost), sum(level)), n)
    return _result(graph, TIMEOUT if timed_out else EXACT, best_order,
                   examined)


def _enumerate_all(graph: Graph, starts: set, deadline: float
                   ) -> SearchResult:
    best_span, best_order = math.inf, None
    examined = 0
    for order in permutations(range(graph.vertex_count)):
        if time.monotonic() > deadline:
            return _result(graph, TIMEOUT, best_order, examined)
        if order[0] not in starts:
            continue
        examined += 1
        span = induced_labeling(graph, order).span
        if span < best_span:
            best_span = span
            best_order = order
    return _result(graph, EXACT, best_order, examined)


def _result(graph: Graph, status: str, order: Optional[tuple],
            examined: int) -> SearchResult:
    """The one place a SearchResult is built: order is the best or witness
    ordering, or None, and the span and labels are those it induces."""
    labeling = induced_labeling(graph, order) if order is not None else None
    return SearchResult(status, labeling.span if labeling else None, order,
                        labeling, examined)


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
    the budget, which starts on entry and also bounds the filling of a
    flat graph's distance table, runs out.  Raises TooLargeError
    above the distance cache limit, graphs.DISTANCE_CACHE_LIMIT vertices,
    and InvalidParameterError for a budget that is negative, infinite or
    NaN.
    """
    deadline = _deadline(time_budget)
    n = graph.vertex_count
    dist = graph.distance_matrix(deadline)
    if dist is None:
        return _result(graph, TIMEOUT, None, 0)
    diam = graph.diameter()
    order = [0] * n
    used = [False] * n
    timed_out = False

    def admissible(v: int, depth: int) -> bool:
        for c in range(1, min(diam, depth) + 1):
            if dist[order[depth - c]][v] < diam - c + 1:
                return False
        return True

    def extend(depth: int) -> Optional[tuple]:
        nonlocal timed_out
        if depth == n:
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

    witness = _run_deep(lambda: extend(0), n)
    status = (WITNESS_FOUND if witness is not None
              else TIMEOUT if timed_out else EXHAUSTED)
    return _result(graph, status, witness, int(witness is not None))


def verify_witness(graph: Graph, order) -> bool:
    """Independent audit: the induced labeling is consecutive.

    Goes only through the labeling module, sharing no state with the
    searches above.
    """
    return is_consecutive(graph, induced_labeling(graph, order))
