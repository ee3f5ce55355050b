"""Radio-condition checks and labelings induced by vertex orderings.

A k-radio labeling assigns positive integers to vertices so that every
distinct pair u, v satisfies |f(u) - f(v)| >= k + 1 - d(u, v).  With
k = diam(G) this is the radio condition; all labels are then distinct, so
the span is at least the vertex count, and a labeling hitting exactly
1..|V| is called consecutive.
"""

from __future__ import annotations

import itertools
import json
import operator
import os
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from operator import add, sub
from typing import NamedTuple, Optional, Sequence, TextIO, Union

from .errors import (
    IncompleteLabelingError,
    InvalidParameterError,
    KOutOfRangeError,
)
from . import graphs
from .graphs import Graph, _bounded_product, encode_coordinates


@dataclass(frozen=True)
class Labeling:
    """Per-vertex positive labels; span is the largest label used."""

    labels: tuple

    def __post_init__(self):
        # the tuple first: validating an iterator would consume it
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise IncompleteLabelingError("labeling is empty")
        # exact ints only, so bools are turned away; the type test comes
        # first, so min never compares mixed types
        if not {int}.issuperset(map(type, labels)) or min(labels) < 1:
            raise IncompleteLabelingError("labels must be positive integers")

    @classmethod
    def _of_positions(cls, labels: list) -> "Labeling":
        """The Labeling of ``labels``, a non-empty list of exact positive
        ints, built without __post_init__'s checks; it equals and hashes
        as Labeling(labels)."""
        labeling = object.__new__(cls)
        object.__setattr__(labeling, "labels", tuple(labels))
        return labeling

    @property
    def span(self) -> int:
        return max(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


class Violation(NamedTuple):
    """A pair u < v whose label gap falls short of the radio requirement.

    A plain tuple in field order, so violations sort in (u, v) order."""

    u: int
    v: int
    required_gap: int
    actual_gap: int


def validate_ordering(graph: Graph, order: Sequence[int]) -> tuple:
    """Return the ordering as a tuple, insisting it permutes the vertices."""
    order = tuple(order)
    n = graph.vertex_count
    if len(order) != n or set(range(n)).difference(order):
        raise InvalidParameterError(
            "ordering is not a permutation of the vertex set")
    return order


def _labels_of(graph: Graph, labeling: Union[Labeling, Sequence[int]]) -> tuple:
    if not isinstance(labeling, Labeling):
        labeling = Labeling(labeling)
    if len(labeling) != graph.vertex_count:
        raise IncompleteLabelingError(
            f"{len(labeling)} labels for {graph.vertex_count} vertices")
    return labeling.labels


def check_k_radio(graph: Graph, labeling: Union[Labeling, Sequence[int]],
                  k: int, fail_fast: bool = False) -> list:
    """All pairs violating |f(u)-f(v)| >= k + 1 - d(u,v); empty means valid.

    Violations come in (u, v) order with u < v, and with fail_fast only
    the first of them is returned.  k must be an integer (an int
    subclass will do).  Only pairs whose labels differ by less than k
    are tested, along one of three paths (the README's labeling bullet
    says why each is exact):

    - k = 1: the edges whose ends share a label, O(|E|) work;
    - distinct labels, k >= 2: the pairs c places apart in label order,
      c = 1, 2, ..., up to the first offset whose least gap is k or
      more, O(N log N + N k) work for N vertices;
    - repeated labels, 2 <= k < diam: the vertices grouped by label,
      O(N log N + N k m) work for at most m vertices sharing one label.

    At k >= 2 fail_fast takes the grouped loop, which stops at the first
    vertex with a violation; on distinct labels only once an offset has
    shown that there is one.  At k = 1 it stops at the first violating
    edge, but only after the whole neighbour fold is built.  The k = 1
    path computes no diameter and no distance, so it answers past
    DISTANCE_CACHE_LIMIT too, and it builds no product adjacency.  No
    path reads the window kernels (Graph._window_holds), which this
    check audits.
    """
    try:
        k = operator.index(k)
    except TypeError:
        raise InvalidParameterError(
            f"k must be an integer, not {type(k).__name__}") from None
    labels = _labels_of(graph, labeling)
    if k == 1:
        return _edge_violations(graph, labels, fail_fast)
    diam = graph.diameter()
    if not 1 <= k <= max(diam, 1):
        raise KOutOfRangeError(f"k={k} not in [1, {max(diam, 1)}]")
    dist = graph._distance_function()
    if len(set(labels)) == len(labels):
        violations = _offset_violations(labels, k, dist, fail_fast)
        if violations is not None:
            return violations
    return _bucket_violations(labels, k, dist, fail_fast)


def _edge_violations(graph: Graph, labels: tuple, fail_fast: bool) -> list:
    """Violations at k = 1: the edges u < v with f(u) = f(v), in (u, v)
    order, since each vertex's higher neighbours come ascending."""
    found = (Violation(u, v, 1, 0)
             for u, above in enumerate(graphs._forward_lists(graph))
             for v in above if labels[v] == labels[u])
    return list(islice(found, 1)) if fail_fast else list(found)


def _offset_violations(labels: tuple, k: int, dist,
                       fail_fast: bool) -> Optional[list]:
    """Violations among distinct labels, one offset c of the label order
    at a time: order[i] and order[i + c] differ by gap s[i + c] - s[i],
    and violate iff d + gap <= k.  None when fail_fast meets the first
    violating offset."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    s = sorted(labels)
    violations = []
    for c in range(1, min(k, len(s))):
        gaps = list(map(sub, s[c:], s))
        if min(gaps) >= k:
            break
        distances = list(map(dist, order, order[c:]))
        if min(map(add, distances, gaps)) > k:
            continue
        if fail_fast:
            return None
        for u, v, d, gap in zip(order, order[c:], distances, gaps):
            if d + gap <= k:
                u, v = (u, v) if u < v else (v, u)
                violations.append(Violation(u, v, k + 1 - d, gap))
    violations.sort()
    return violations


def _bucket_violations(labels: tuple, k: int, dist, fail_fast: bool) -> list:
    """Violations found vertex by vertex: u probes the labels within k - 1
    of its own and tests the later vertices holding them."""
    buckets = {}  # label -> its vertices, ascending
    for v, label in enumerate(labels):
        buckets.setdefault(label, []).append(v)
    violations = []
    for u, fu in enumerate(labels):
        found = []
        for label in range(fu - k + 1, fu + k):
            bucket = buckets.get(label)
            if bucket is None or bucket[-1] <= u:
                continue
            gap = abs(fu - label)
            reach = k + 1 - gap  # a violation iff d(u, v) < reach
            for v in bucket[bisect_right(bucket, u):]:
                d = dist(u, v)
                if d < reach:
                    found.append(Violation(u, v, k + 1 - d, gap))
        if found:
            found.sort()
            if fail_fast:
                return found[:1]
            violations += found
    return violations


def check_radio(graph: Graph, labeling: Union[Labeling, Sequence[int]],
                fail_fast: bool = False) -> list:
    """check_k_radio at k = diam(G), the radio condition proper."""
    return check_k_radio(graph, labeling, max(graph.diameter(), 1),
                         fail_fast=fail_fast)


def induced_labeling(graph: Graph, order: Sequence[int]) -> Labeling:
    """Smallest strictly increasing radio labeling along an ordering.

    f(x_1) = 1 and each later vertex takes the least label satisfying both
    the previous label plus one and every radio constraint against earlier
    vertices.  Since labels rise by at least one per step, a vertex more
    than diam positions back can never force more than the +1 floor, so
    only a diam-wide window of predecessors needs checking.

    The span is |V| exactly when the window criterion holds (see
    check_consecutive_ordering), and then every label is its vertex's
    position.  So the criterion is tested first, offset by offset, and
    the positions are returned when it holds, without a second check of
    the labels they are; only an ordering that fails it takes the
    per-position loop, one distance query per window pair.
    """
    order = validate_ordering(graph, order)
    labels = [0] * len(order)
    if graph._window_holds(order):
        for i, v in enumerate(order, 1):
            labels[v] = i
        return Labeling._of_positions(labels)
    diam = graph.diameter()
    dist = graph._distance_function()
    bound = diam + 1
    prev = 0
    for i, v in enumerate(order):
        best = prev + 1
        for c in range(1, min(diam, i) + 1):
            u = order[i - c]
            candidate = labels[u] + bound - dist(u, v)
            if candidate > best:
                best = candidate
        labels[v] = best
        prev = best
    return Labeling(labels)


def is_consecutive(graph: Graph,
                   labeling: Union[Labeling, Sequence[int]]) -> bool:
    """True iff the labels are exactly 1..|V| and the radio condition holds."""
    labels = _labels_of(graph, labeling)
    n = graph.vertex_count
    if sorted(labels) != list(range(1, n + 1)):
        return False
    return not check_radio(graph, labels, fail_fast=True)


def check_consecutive_ordering(graph: Graph, order: Sequence[int]) -> bool:
    """True iff d(x_i, x_{i+c}) >= diam - c + 1 for every i and c <= diam.

    Offsets past diam impose nothing.  The scan takes the least distance
    at each offset c <= diam and stops at the first offset that falls
    short.  On a product of complete factors an offset's distances come
    from a few big-int operations over the whole ordering (see
    Graph._window_holds), elsewhere from one query per pair: O(N *
    diam) either way.  Holding is equivalent to the induced labeling
    having span |V|.
    """
    return graph._window_holds(validate_ordering(graph, order))


# ---------------------------------------------------------------------------
# JSON file formats
# ---------------------------------------------------------------------------

def _json_ints(values: list, what: str) -> list:
    """The values, insisting each is a JSON integer: 1.9 and true are not."""
    if not {int}.issuperset(map(type, values)):
        raise InvalidParameterError(f"{what} must be integers")
    return values


def _json_int(value, what: str) -> None:
    """Insist that one value is a JSON integer, as _json_ints does."""
    if type(value) is not int:
        raise InvalidParameterError(f"{what} must be an integer")


def _json_object(text: str, what: str) -> dict:
    """The parsed text, insisting on well-formed JSON with an object at the
    top level."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidParameterError(
            f"{what} JSON is malformed: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidParameterError(
            f"{what} JSON must be an object, not {type(data).__name__}")
    return data


def ordering_to_json(order: Sequence, n: int, t: int) -> str:
    """The text json.dumps({"n": n, "t": t, "order": order}, indent=2)
    writes, plus a newline, written directly, as labeling_to_json is:
    with indent, json.dumps takes its pure-Python encoder.  order is a
    non-empty list of flat indices or of non-empty coordinate tuples of
    one width, all exact ints, so the layout is fixed and one format
    call writes every entry."""
    if isinstance(order[0], int):
        item, values = "%d", order
    else:
        item = ("[\n      " + ",\n      ".join(["%d"] * len(order[0]))
                + "\n    ]")
        values = itertools.chain.from_iterable(order)
    return (f'{{\n  "n": {n},\n  "t": {t},\n  "order": [\n    '
            + ",\n    ".join([item] * len(order)) % tuple(values)
            + "\n  ]\n}\n")


def ordering_from_json(text: str, graph: Optional[Graph] = None) -> tuple:
    """Parse {"order": [...]} holding flat indices or coordinate tuples.

    Coordinate tuples are flattened mixed-radix over a uniform base, which
    is validated against the graph size when a graph is supplied, and
    against RADIOLABEL_SIZE_CAP, like a built power, when none is.
    """
    data = _json_object(text, "ordering")
    raw = data.get("order")
    if not isinstance(raw, list) or not raw:
        raise InvalidParameterError('ordering JSON needs a non-empty "order"')
    if isinstance(raw[0], list):
        width = len(raw[0])
        if not width or any(not isinstance(entry, list)
                            or len(entry) != width for entry in raw):
            raise InvalidParameterError(
                "coordinate tuples are empty or differ in length")
        for entry in raw:
            _json_ints(entry, "coordinates")
        base = data.get("n", max(map(max, raw)) + 1)
        _json_int(base, '"n"')
        sizes = (base,) * width
        power = f"{graphs._cut(base, 'digits')}^{width} coordinates"
        if graph is None:
            graphs._check_size(sizes, power)
        else:
            n = graph.vertex_count
            if _bounded_product(sizes, n) != n:
                raise InvalidParameterError(
                    f"{power} do not index {n} vertices")
        return tuple(encode_coordinates(entry, sizes) for entry in raw)
    return tuple(_json_ints(raw, "flat indices"))


def labeling_to_json(labeling: Labeling, graph_file: str = "-") -> str:
    """The text json.dumps({"graph": ..., "labels": [...], "span": ...},
    indent=2) writes, plus a newline, written directly: with indent,
    json.dumps takes its pure-Python encoder, several times slower.  A
    Labeling holds only a non-empty tuple of exact ints, so the layout is
    fixed, and one format call writes the labels."""
    labels = labeling.labels
    return ('{\n  "graph": ' + json.dumps(graph_file)
            + ',\n  "labels": [\n    '
            + ",\n    ".join(["%d"] * len(labels)) % labels
            + '\n  ],\n  "span": ' + str(labeling.span) + "\n}\n")


def labeling_from_json(text: str) -> Labeling:
    data = _json_object(text, "labeling")
    labels = data.get("labels")
    if not isinstance(labels, list):
        raise InvalidParameterError('labeling JSON needs a "labels" list')
    labeling = Labeling(_json_ints(labels, "labels"))
    declared = data.get("span")
    if declared is not None:
        _json_int(declared, '"span"')
        if declared != labeling.span:
            raise InvalidParameterError(
                f"declared span {graphs._cut(declared, 'digits')} != max "
                f"label {graphs._cut(labeling.span, 'digits')}")
    return labeling


def read_text(source: Union[str, os.PathLike, TextIO]) -> str:
    # a function of its own, not an alias of graphs.read_text, so that
    # wrapping this name (perfbench traces it as JSON input) leaves the
    # edge-list reader alone
    return graphs.read_text(source)
