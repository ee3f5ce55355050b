"""Exhaustive search oracles: exact radio numbers and consecutive witnesses.

The exact search walks orderings in lexicographic order and reports the
lexicographically smallest optimum; the witness search follows a fixed
fewest-onward-options rule.  Either way, repeated runs return identical
results.

Every walk is a loop over per-depth state with one level per vertex, so
its depth is not bound by the interpreter's recursion limit.  No search
keeps or writes process-wide state: searches may run in several threads
at once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import permutations
from operator import add
from typing import Iterable, Iterator, Optional

from .errors import InvalidParameterError
from .graphs import Graph, _at_least_mask
from .labeling import Labeling, induced_labeling, is_consecutive

EXACT = "exact"
WITNESS_FOUND = "witness-found"
EXHAUSTED = "exhausted-no-witness"
TIMEOUT = "timeout"

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


def _first_vertex_representatives(graph: Graph) -> Iterator[int]:
    """Every vertex in increasing order, except each whose open
    neighbourhood N(v) or closed neighbourhood N[v] equals that of a
    vertex yielded before it: v and that vertex are twins, and swapping
    two twins is an automorphism (McKay and Piperno, J. Symbolic Comput.
    60, 2014).  One key per vertex, O(|V| + |E|) in all.

    Skipping such a vertex is always safe for the exact search: its
    lexicographically first optimum starts at the least vertex of an
    orbit, or an automorphism would carry it to a smaller optimum, and
    this filter skips only a vertex with a smaller twin, so never an
    orbit's least vertex."""
    # N(r) and N[r] of each r yielded.  No N(v) equals an N[r]: r in N(v)
    # would put v in N(r), so in N[r] = N(v)
    seen = set()
    for v, nbrs in enumerate(graph.adjacency):
        closed = nbrs | {v}
        if nbrs not in seen and closed not in seen:
            seen.update((nbrs, closed))
            yield v


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
                       time_budget: float = DEFAULT_TIME_BUDGET
                       ) -> SearchResult:
    """Minimum span over every ordering-induced radio labeling.

    Returns EXACT with the lexicographically first optimal ordering, its
    labeling and span, and in orderings_examined the walk's leaves, at
    least 1.  Returns TIMEOUT with the best ordering found so far, whose
    span is an upper bound on the radio number, or with no ordering if
    not even one greedy ordering was completed.  With prune=False every
    ordering is induced in turn, with no bound, greedy ordering or start
    filter: the cross-check oracle.

    The walk cuts a partial ordering once its last label plus a lower
    bound on the r unplaced vertices reaches the best span.  The bound
    is the largest of three:
    - the sum of max(1, diam + 1 - ecc(w)) over the unplaced w (Liu and
      Zhu, "Multilevel distance labelings for paths and cycles", SIAM J.
      Discrete Math. 19, 2005);
    - r(diam + 1) - L(v) - 2 * (sum of L(w) over the unplaced w) + m,
      for L the distance from a centre, v the last placed vertex and m
      the least L(w) (Liu and Zhu for paths; Liu, "Radio number for
      trees", Discrete Math. 308, 2008);
    - (r // 2) * pair + r % 2, for pair = max(2, ceil((3(diam + 1) -
      T) / 2)) and T the largest d(a, b) + d(b, c) + d(a, c) over the
      vertex triples (Liu and Zhu for cycles; Das, Ghosh, Nandi and Sen,
      "A lower bound technique for radio k-coloring", Discrete Math.
      340, 2017).
    It starts from the best greedy ordering and skips each start with a
    smaller twin (see _first_vertex_representatives).  The README
    derives the bounds and describes the walk.

    The time budget starts on entry and is the only bound on running
    time: it bounds the filling of the distance table, the greedy
    orderings, the triple scan and the walk.  Three steps run past it:
    the pruned walk's reported labeling is induced once more, in
    O(|V| diam); the twin filter builds a product's adjacency, in
    O(|V| + |E|), the first time the walk asks for a start; and with
    prune=False each ordering is induced in full between polls, in
    O(|V| diam).  Memory is O(|V|^2) beside the table: the gap vectors
    of the walk's path, one list slot an entry at full depth.
    Raises InvalidParameterError for a budget that is negative, infinite
    or NaN, and TooLargeError above the distance cache limit,
    graphs.DISTANCE_CACHE_LIMIT vertices, before any search.
    """
    deadline = _deadline(time_budget)
    n = graph.vertex_count
    dist = graph.distance_matrix(deadline)
    # the scans below read the whole table before the first poll
    if dist is None or time.monotonic() > deadline:
        return _result(graph, TIMEOUT, None, 0)
    if not prune:
        return _enumerate_all(graph, deadline)

    diam = graph.diameter()
    bound = diam + 1
    cost = [max(1, bound - max(row)) for row in dist]
    level = min(dist, key=sum)  # distances from the first central vertex
    rest = sum(cost)
    reach = (n - 1) * bound - 2 * sum(level)
    floors = [1 + max(rest - c, reach + l) for c, l in zip(cost, level)]
    best = _greedy_incumbent(dist, bound, floors, deadline, range(1))
    # the triple scan runs once a greedy ordering is in hand, so a budget
    # that ends inside it still reports an upper bound; tail[r] bounds the
    # cost of r more steps
    largest = _largest_triple(dist, diam, deadline)
    # None past the deadline: then pair is 2, and the polls after it end
    # the search
    pair = 2 if largest is None else (3 * bound - largest + 1) // 2
    tail = [r // 2 * pair + r % 2 for r in range(n)]
    floors = [max(f, 1 + tail[n - 1]) for f in floors]
    greedy_span, best_order = _greedy_incumbent(
        dist, bound, floors, deadline, range(1, n), best)
    # one above the greedy span, so the walk still reaches the
    # lexicographically first optimum when the greedy ordering is one
    best_span = greedy_span + 1
    examined = 0
    order = [0] * n
    used = [False] * n
    by_level = sorted(range(n), key=level.__getitem__)  # ties by index
    # per depth: the candidates not yet tried there, the sum of cost over
    # the unplaced vertices, the last label placed, gap: the label each
    # vertex takes if placed there less that last label, reach: the level
    # bound on the steps after candidate v is reach + level[v] + m, where
    # m is the least level of the unplaced vertices but v, first: the
    # position in by_level of the first unplaced vertex, low: that
    # vertex, and past_low: the level of the next unplaced one, 0 if none
    nodes = [None] * n
    nodes[0] = (_first_vertex_representatives(graph), rest, 0, [1] * n,
                reach, 0, by_level[0], level[by_level[1]] if n > 1 else 0)
    depth = 0
    timed_out = time.monotonic() > deadline
    while depth >= 0 and not timed_out:
        candidates, rest, last, gap, reach, first, low, past_low = \
            nodes[depth]
        # candidate v takes label last + gap[v]; it is cut once that label
        # plus a bound on the steps after it reaches best_span.  Each room
        # is best_span - last less one bound, so a cut is one comparison
        # on gap[v]: the pair bound tail[r], the eccentricity bound
        # rest - cost[v] and the level bound reach + level[v] + m, m being
        # level[low] unless v is low (at a leaf v is low, and m is 0)
        room = best_span - last
        pair_room = room - tail[n - depth - 1]
        ecc_room = room - rest
        level_room = room - reach - level[low]
        low_room = room - reach - past_low
        for v in candidates:
            if used[v]:
                continue
            step = gap[v]
            if (step >= pair_room or step - cost[v] >= ecc_room
                    or step + level[v] >= (
                        low_room if v == low else level_room)):
                continue
            order[depth] = v
            label = last + step
            if depth + 1 == n:
                # a leaf: its tail and rest are 0, so the cut above let
                # through only a span below the best, and no other
                # candidate is left unplaced at this depth
                examined += 1
                best_span, best_order = label, tuple(order)
                continue
            used[v] = True
            depth += 1
            # max(x, step + bound - d) - step: the gaps past label
            top = step + bound
            # first scans on from the parent's, since v was unplaced;
            # inline, as a call per node cost about 4% on graphs where the
            # end term cuts few nodes
            while used[by_level[first]]:
                first += 1
            after = first + 1
            while after < n and used[by_level[after]]:
                after += 1
            nodes[depth] = (iter(range(n)), rest - cost[v], label,
                            [x - step if x > (y := top - d) else y - step
                             for x, d in zip(gap, dist[v])],
                            reach - bound + 2 * level[v], first,
                            by_level[first],
                            level[by_level[after]] if after < n else 0)
            timed_out = time.monotonic() > deadline
            break
        else:
            depth -= 1
            if depth >= 0:
                used[order[depth]] = False

    return _result(graph, TIMEOUT if timed_out else EXACT, best_order,
                   examined)


def _largest_triple(dist: list, diam: int, deadline: float
                    ) -> Optional[int]:
    """T, the largest d(a, b) + d(b, c) + d(a, c) over the vertex triples,
    or, once a triple reaches 3 diam - 1, that triple's sum: no larger T
    can lift the pair bound above 2.  None once the deadline passes.

    Each pair a < b costs one C-level pass, d(a, b) plus the largest
    d(a, c) + d(b, c), and a triple with a repeated vertex sums to at most
    2 diam, which some triple of three vertices reaches once |V| >= 3.
    The deadline is polled once per row a: O(|V|^2) between polls."""
    n = len(dist)
    enough = 3 * diam - 1
    largest = 0
    for a in range(n - 1):
        if time.monotonic() > deadline:
            return None
        row = dist[a]
        for b in range(a + 1, n):
            t = row[b] + max(map(add, row, dist[b]))
            if t > largest:
                largest = t
                if t >= enough:
                    return t
    return largest


def _greedy_incumbent(dist: list, bound: int, floors: list,
                      deadline: float, starts: Iterable[int],
                      best: tuple = (math.inf, None)) -> tuple:
    """(span, ordering) of the best greedy ordering from the given starts,
    or best if none is better, (inf, None) by default, and best too if none
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
    best_span, best_order = best
    for s in starts:
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
    best, best_order = None, None
    examined = 0
    for order in permutations(range(graph.vertex_count)):
        if time.monotonic() > deadline:
            return _result(graph, TIMEOUT, best_order, examined, best)
        examined += 1
        labeling = induced_labeling(graph, order)
        if best is None or labeling.span < best.span:
            best, best_order = labeling, order
    return _result(graph, EXACT, best_order, examined, best)


def _result(graph: Graph, status: str, order: Optional[tuple],
            examined: int, labeling: Optional[Labeling] = None
            ) -> SearchResult:
    """The one place a SearchResult is built: order is the best or witness
    ordering, or None, and the span and labels are those it induces,
    induced here unless the caller passes that labeling."""
    if labeling is None and order is not None:
        labeling = induced_labeling(graph, order)
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
    iff d(v, w) >= k; it is built on first use from dist[v] (see
    graphs._at_least_mask) and kept for this call only, in a list of n
    slots made for each k the walk reaches, since only the masks the
    walk touches are ever needed (all n * diam of them would take
    n^2 * diam / 8 bytes).
    The candidates at depth d are the unused vertices in far(diam - c + 1,
    x_{d-c}) for every c <= min(diam, d).  A candidate v's onward options
    are far(diam, v) ANDed with the same window one position on, which is
    built once per node, so scoring v costs one AND and one popcount
    instead of a scan of all n vertices.

    Returns witness-found, exhausted-no-witness when the whole tree was
    explored, or timeout once the budget, which starts on entry and also
    bounds the filling of the distance table, flat or product, runs
    out.  Raises TooLargeError above the distance cache limit,
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
    masks = [None] * (diam + 1)  # [k][v] -> far(k, v), a list per k used

    def far(k: int, v: int) -> int:
        # bit w set iff d(v, w) >= k
        at_k = masks[k]
        if at_k is None:
            at_k = masks[k] = [None] * n
        mask = at_k[v]
        if mask is None:
            mask = at_k[v] = _at_least_mask(dist[v], k)
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
