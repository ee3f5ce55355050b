"""Exhaustive search oracles: exact radio numbers and consecutive witnesses.

The exact search walks orderings in lexicographic order and reports the
lexicographically smallest optimum; the witness search follows a fixed
fewest-onward-options rule.  Either way, repeated runs return identical
results.

Every walk, the orbit backtrack of the symmetry reduction included, is a
loop over per-depth state with one level per vertex, so its depth is not
bound by the interpreter's recursion limit.  No search keeps or writes
process-wide state: searches may run in several threads at once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterator, Optional

from .errors import InvalidParameterError
from .graphs import Graph
from .labeling import Labeling, induced_labeling, is_consecutive

EXACT = "exact"
WITNESS_FOUND = "witness-found"
EXHAUSTED = "exhausted-no-witness"
TIMEOUT = "timeout"

DEFAULT_TIME_BUDGET = 30.0

_BINARY = bytes.maketrans(b"\0\1", b"01")  # a row of bools -> base-2 digits


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


def _first_vertex_representatives(graph: Graph, dist: list,
                                  deadline: float = math.inf
                                  ) -> Iterator[int]:
    """Every vertex in increasing order, except those proved to lie in the
    automorphism orbit of a vertex yielded before them; dist is the graph's
    distance table.  A vertex is tested only when the next one is asked
    for.  An automorphism keeps distances, so v is backtracked against r
    only when their sorted distance rows agree: a cheap invariant first
    (McKay and Piperno, J. Symbolic Comput. 60, 2014).

    Once the monotonic clock passes deadline nothing more is proved and
    the remaining vertices are yielded untested.  Yielding a vertex that
    shares an orbit with an earlier one is always safe for the exact
    search: its lexicographically first optimum starts at the least vertex
    of an orbit, or an automorphism would carry it to a smaller optimum,
    and this filter never skips an orbit's least vertex."""
    n = graph.vertex_count
    reps = []  # (sorted distance row of r, the test of r -> v)
    for v in range(n):
        if time.monotonic() > deadline:
            yield from range(v, n)
            return
        profile = sorted(dist[v])
        if not any(key == profile and maps_r_to(v)
                   for key, maps_r_to in reps):
            reps.append((profile, _automorphism_test(graph, dist, v,
                                                     deadline)))
            yield v


def _automorphism_test(graph: Graph, dist: list, r: int,
                       deadline: float = math.inf) -> Callable:
    """The test of whether some automorphism sends r to v: a backtrack over
    maps fixing r -> v, extended in order of distance from r, sorted once
    per r.  Each vertex goes to a neighbour of its parent's image (its
    parent is its least neighbour one step nearer r) of the same degree,
    keeping its distance to every vertex mapped before it; a map that keeps
    distances is one-to-one, and once onto, an automorphism.  The
    backtrack is a loop with one level per vertex, polling the monotonic
    clock at each; past the deadline it gives up and answers False."""
    adj = graph.adjacency
    n = graph.vertex_count
    from_r = dist[r]
    order = sorted(range(n), key=from_r.__getitem__)
    parent = {u: min(w for w in adj[u] if from_r[w] < from_r[u])
              for u in order[1:]}
    image = [-1] * n

    def maps_r_to(v: int) -> bool:
        image[r] = v
        # per position i: the images of order[i] not yet tried; order[1]
        # is a neighbour of r, so its images are the neighbours of v
        tries = [None, iter(adj[v])] + [None] * (n - 2)
        i = 1
        while 0 < i < n:
            if time.monotonic() > deadline:
                return False
            u = order[i]
            for w in tries[i]:
                if len(adj[w]) == len(adj[u]) and all(
                        dist[u][x] == dist[w][image[x]] for x in order[:i]):
                    image[u] = w
                    i += 1
                    if i < n:
                        tries[i] = iter(adj[image[parent[order[i]]]])
                    break
            else:
                i -= 1
        return i == n

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


def exact_radio_number(graph: Graph, prune: bool = True,
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
    Discrete Math. 308, 2008).  Each node of the walk carries both bounds,
    its last label and a gap vector: w placed next takes that label plus
    gap[w], where the label w takes is the maximum over the placed p of
    label(p) + diam + 1 - d(w, p), and 1 at the root (last label 0, every
    gap 1).  The last placed vertex's term alone exceeds its label, since
    d <= diam, and a term from more than diam positions back never decides
    the label (see induced_labeling), so this is w's induced label.  Once
    v is placed, the child's gaps are max(gap[w] - gap[v], diam + 1 -
    d(v, w)), one pass over v's row, and each candidate's label is one
    read.  Every gap lies in 1..diam + 1, so below diameter 256 it is one
    of CPython's cached small ints and a vector costs one 8-byte list slot
    an entry.  At full depth the vectors take |V|^2 slots, as much as the
    distance table: on the 4096 vertices of star(4095) the walk's
    tracemalloc peak is 130 MiB, beside the table's 128 MiB.  Above
    diameter 255 an entry may also hold its own int object, up to about
    40 bytes.

    Before the walk, a greedy ordering is built from each start vertex:
    it repeatedly appends the unplaced vertex of least induced label,
    ties to the lowest index, in O(|V|^2) per start.  A start whose two
    bounds at the first position already reach the best greedy span so
    far is skipped, since its greedy ordering cannot be strictly better.
    The walk starts with the best greedy ordering as its incumbent and
    best span one above its span, so the bounds prune from the first
    node.  The walk is lexicographic and reaches a leaf only when it
    strictly improves the best span, so it still reaches the
    lexicographically first optimum, even when a greedy ordering is
    optimal too, and the witness and orderings_examined are those of
    any other admissible bound seeded the same way.  orderings_examined
    counts the leaves the walk reached, not the greedy orderings; it is
    at least 1 on every exact result.  With prune=False the search
    degenerates to plain enumeration of all |V|! orderings through the
    labeling module, kept as the cross-check oracle; it builds no
    greedy ordering.

    symmetry_reduction skips, at the first position, each vertex proved to
    share an automorphism orbit with a smaller start; the orbits are
    tested lazily, as the walk asks for its next start.  Span, witness and
    labels are unchanged: the lexicographically first optimum starts at
    the least vertex of its orbit, since an automorphism sending its start
    to a smaller vertex would carry it to a smaller optimum.  Only
    orderings_examined drops, when the search completes.  With prune=False
    the flag is ignored, so the oracle stays independent of the orbit
    test.  The flag defaults to off because an orbit test costs O(|V|^3)
    on a graph with many twins, such as a star, where the bounds alone
    settle the search.

    The time budget, which starts on entry, is the only bound on running
    time: it also bounds the greedy orderings, the orbit tests and the
    filling of a flat graph's distance table.  Once it runs out the
    search returns timeout with the best ordering found so far, greedy or
    walked, whose span is an upper bound on the radio number and at most
    the best greedy span, or with no ordering if not even one greedy
    ordering was completed.  Three steps run past it (2-vCPU host): the
    reported labeling is induced once more, in O(|V| diam) (P_2000, table
    filled, 1-s budget: 1.5-1.6 s, 0.5-0.6 s of it this labeling); with
    prune=False each ordering is induced in full between polls (P_4096,
    table filled, 1-s budget: 4.6-4.8 s); and a product's table, summed
    from its factors' tables, is not polled (K_4^6, budget 0: 0.9-1.2 s).
    Raises InvalidParameterError for a budget that is negative, infinite
    or NaN, and TooLargeError above the distance cache limit,
    graphs.DISTANCE_CACHE_LIMIT vertices, before any search.
    """
    deadline = _deadline(time_budget)
    n = graph.vertex_count
    dist = graph.distance_matrix(deadline)
    if dist is None:
        return _result(graph, TIMEOUT, None, 0)
    if not prune:
        return _enumerate_all(graph, deadline)

    diam = graph.diameter()
    bound = diam + 1
    cost = [max(1, bound - max(row)) for row in dist]
    level = min(dist, key=sum)  # distances from the first central vertex
    rest = sum(cost)
    reach = (n - 1) * bound - 2 * sum(level)
    greedy_span, best_order = _greedy_incumbent(
        dist, bound, [1 + max(rest - c, reach + l)
                      for c, l in zip(cost, level)], deadline)
    # one above the greedy span, so the walk still reaches the
    # lexicographically first optimum when the greedy ordering is one
    best_span = greedy_span + 1
    starts = (_first_vertex_representatives(graph, dist, deadline)
              if symmetry_reduction else range(n))
    examined = 0
    order = [0] * n
    used = [False] * n
    # per depth: the candidates not yet tried there, the sum of cost over
    # the unplaced vertices, the last label placed, gap: the label each
    # vertex takes if placed there less that last label, and reach: the
    # level bound on the steps after candidate v is reach + level[v]
    nodes = [None] * n
    nodes[0] = (iter(starts), rest, 0, [1] * n, reach)
    depth = 0
    timed_out = time.monotonic() > deadline
    while depth >= 0 and not timed_out:
        candidates, rest, last, gap, reach = nodes[depth]
        for v in candidates:
            if used[v]:
                continue
            step = gap[v]
            label = last + step
            after = rest - cost[v]
            if (label + after >= best_span
                    or label + reach + level[v] >= best_span):
                continue
            order[depth] = v
            if depth + 1 == n:
                # a leaf: after is 0, so the cut above let through only a
                # span below the best
                examined += 1
                best_span, best_order = label, tuple(order)
                continue
            used[v] = True
            depth += 1
            # max(x, step + bound - d) - step: the gaps past label
            top = step + bound
            nodes[depth] = (iter(range(n)), after, label,
                            [x - step if x > (y := top - d) else y - step
                             for x, d in zip(gap, dist[v])],
                            reach - bound + 2 * level[v])
            timed_out = time.monotonic() > deadline
            break
        else:
            depth -= 1
            if depth >= 0:
                used[order[depth]] = False

    return _result(graph, TIMEOUT if timed_out else EXACT, best_order,
                   examined)


def _greedy_incumbent(dist: list, bound: int, floors: list,
                      deadline: float) -> tuple:
    """(span, ordering) of the best greedy ordering, or (inf, None) if none
    was completed before the deadline.  dist is the distance table, bound
    is diam + 1, and floors[s] is a lower bound on the span of every
    ordering starting at s.

    A greedy ordering starts at s and repeatedly appends the unplaced
    vertex of least induced label, ties to the lowest index.  lab[w] is
    the maximum over the placed p of labels[p] + bound - d(w, p); the term
    of the last placed vertex alone exceeds its label, since d <= diam, so
    lab[w] is the label w takes if placed next.  Terms of vertices more
    than diam positions back never decide it (see induced_labeling), so
    the greedy span is the induced span.  One pass over the new vertex's
    row updates lab: O(n^2) per start.  A start whose floor reaches the
    best greedy span so far is skipped, as its ordering cannot be
    strictly better; on a star whose hub is vertex 0 every leaf is
    skipped this way.  The deadline is polled before each start and each
    step, and an ordering cut short counts for nothing."""
    n = len(dist)
    best_span, best_order = math.inf, None
    for s in range(n):
        if time.monotonic() > deadline:
            return best_span, best_order
        if floors[s] >= best_span:
            continue
        order = [s]
        label = 1
        lab = [label + bound - d for d in dist[s]]
        lab[s] = math.inf
        while len(order) < n:
            if time.monotonic() > deadline:
                return best_span, best_order
            label = min(lab)
            v = lab.index(label)
            order.append(v)
            top = label + bound
            lab = [x if x > (y := top - d) else y
                   for x, d in zip(lab, dist[v])]
            lab[v] = math.inf
        if label < best_span:
            best_span, best_order = label, tuple(order)
    return best_span, best_order


def _enumerate_all(graph: Graph, deadline: float) -> SearchResult:
    best_span, best_order = math.inf, None
    examined = 0
    for order in permutations(range(graph.vertex_count)):
        if time.monotonic() > deadline:
            return _result(graph, TIMEOUT, best_order, examined)
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
    repeated runs return the identical witness.

    The walk runs over bitsets held in Python ints, as in San Segundo,
    Rodriguez-Losada and Jimenez's bit-parallel maximum-clique search
    (Computers & Operations Research 38, 2011).  far(k, v) has bit w set
    iff d(v, w) >= k; it is built from dist[v] at C speed on first use and
    kept for this call only, since only the masks the walk touches are
    ever needed (all n * diam of them would take n^2 * diam / 8 bytes).
    The candidates at depth d are the unused vertices in far(diam - c + 1,
    x_{d-c}) for every c <= min(diam, d).  A candidate v's onward options
    are far(diam, v) ANDed with the same window one position on, which is
    built once per node, so scoring v costs one AND and one popcount
    instead of a scan of all n vertices.

    Returns witness-found, exhausted-no-witness when the whole tree was
    explored, or timeout once the budget, which starts on entry and also
    bounds the filling of a flat graph's distance table, runs out.  Raises
    TooLargeError above the distance cache limit,
    graphs.DISTANCE_CACHE_LIMIT vertices, and InvalidParameterError for a
    budget that is negative, infinite or NaN.
    """
    deadline = _deadline(time_budget)
    n = graph.vertex_count
    dist = graph.distance_matrix(deadline)
    if dist is None:
        return _result(graph, TIMEOUT, None, 0)
    diam = graph.diameter()
    order = [0] * n
    masks = {}  # k * n + v -> far(k, v), for this call only

    def far(k: int, v: int) -> int:
        # bit w set iff d(v, w) >= k
        mask = masks.get(k * n + v)
        if mask is None:
            mask = masks[k * n + v] = int(bytes(
                map(k.__le__, reversed(dist[v]))).translate(_BINARY), 2)
        return mask

    def window(unused: int, depth: int, first: int) -> int:
        # the unused vertices at distance >= diam - c + 1 from
        # order[depth - c] for every c in first..min(diam, depth)
        for c in range(first, min(diam, depth) + 1):
            unused &= far(diam - c + 1, order[depth - c])
        return unused

    tries = [None] * n  # per depth: the candidates not yet tried there
    unused = (1 << n) - 1
    depth = 0
    while True:  # entering a node at depth < n
        if time.monotonic() > deadline:
            return _result(graph, TIMEOUT, None, 0)
        candidates = window(unused, depth, 1)
        # the window at depth + 1 without its c = 1 term, far(diam, v), which
        # each candidate v placed here adds; far(diam, v) never holds v
        # itself, as d(v, v) = 0 < diam unless the graph is K_1
        onward_base = window(unused, depth + 1, 2)
        scored = []
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            v = low.bit_length() - 1
            # a candidate's first mask costs O(n), so a wide candidate set
            # can outlast the budget on its own: the deadline is also
            # polled inside the scan
            if time.monotonic() > deadline:
                return _result(graph, TIMEOUT, None, 0)
            scored.append(((far(diam, v) & onward_base).bit_count(), v))
        scored.sort()
        tries[depth] = iter(scored)
        # place the next untried candidate, backtracking past the depths
        # that have none left
        while (tried := next(tries[depth], None)) is None:
            depth -= 1
            if depth < 0:
                return _result(graph, EXHAUSTED, None, 0)
            unused |= 1 << order[depth]
        v = order[depth] = tried[1]
        unused ^= 1 << v
        depth += 1
        if depth == n:
            return _result(graph, WITNESS_FOUND, tuple(order), 1)


def verify_witness(graph: Graph, order) -> bool:
    """Independent audit: the induced labeling is consecutive.

    Goes only through the labeling module, sharing no state with the
    searches above.
    """
    return is_consecutive(graph, induced_labeling(graph, order))
