"""Radio-condition checks and labelings induced by vertex orderings.

A k-radio labeling assigns positive integers to vertices so that every
distinct pair u, v satisfies |f(u) - f(v)| >= k + 1 - d(u, v).  With
k = diam(G) this is the radio condition; all labels are then distinct, so
the span is at least the vertex count, and a labeling hitting exactly
1..|V| is called consecutive.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional, Sequence, TextIO, Union

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
        if not self.labels:
            raise IncompleteLabelingError("labeling is empty")
        # type(x) is int also turns away bools
        if any(type(x) is not int or x < 1 for x in self.labels):
            raise IncompleteLabelingError("labels must be positive integers")
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def span(self) -> int:
        return max(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class Violation:
    """A pair whose label gap falls short of the radio requirement."""

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
        labeling = Labeling(tuple(labeling))
    if len(labeling) != graph.vertex_count:
        raise IncompleteLabelingError(
            f"{len(labeling)} labels for {graph.vertex_count} vertices")
    return labeling.labels


def check_k_radio(graph: Graph, labeling: Union[Labeling, Sequence[int]],
                  k: int, fail_fast: bool = False) -> list:
    """All pairs violating |f(u)-f(v)| >= k + 1 - d(u,v); empty means valid.

    Violations come in (u, v) order with u < v, and with fail_fast only
    the first of them is returned.  Since d(u, v) >= 1, a pair whose
    labels differ by k or more always passes, so the check groups the
    vertices by label and tests only pairs whose labels differ by less
    than k: O(N log N + N k m) work for N vertices and at most m
    vertices sharing one label, not all N^2 / 2 pairs.
    """
    labels = _labels_of(graph, labeling)
    diam = graph.diameter()
    if not 1 <= k <= max(diam, 1):
        raise KOutOfRangeError(f"k={k} not in [1, {max(diam, 1)}]")
    dist = graph._distance_function()
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
            found.sort(key=attrgetter("v"))
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
    the positions are returned when it holds; only an ordering that fails
    it takes the per-position loop, one distance query per window pair.
    """
    order = validate_ordering(graph, order)
    labels = [0] * len(order)
    if _window_holds(graph, order):
        for i, v in enumerate(order, 1):
            labels[v] = i
        return Labeling(tuple(labels))
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
    return Labeling(tuple(labels))


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
    Graph._window_distances), elsewhere from one query per pair: O(N *
    diam) either way.  Holding is equivalent to the induced labeling
    having span |V|.
    """
    return _window_holds(graph, validate_ordering(graph, order))


def _window_holds(graph: Graph, order: tuple) -> bool:
    """The window criterion on a validated ordering."""
    diam = graph.diameter()
    window = graph._window_distances(order)
    return all(min(window(c), default=diam) >= diam - c + 1
               for c in range(1, diam + 1))


# ---------------------------------------------------------------------------
# JSON file formats
# ---------------------------------------------------------------------------

def _json_ints(values: list, what: str) -> list:
    """The values, insisting each is a JSON integer: 1.9 and true are not."""
    if any(type(x) is not int for x in values):
        raise InvalidParameterError(f"{what} must be integers")
    return values


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


def ordering_to_json(order: Sequence[int]) -> str:
    return json.dumps({"order": list(order)}, indent=2) + "\n"


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
        _json_ints([base], '"n"')
        sizes = (base,) * width
        if graph is None:
            graphs._check_size(sizes, f"{base}^{width} coordinates")
        else:
            n = graph.vertex_count
            if _bounded_product(sizes, n) != n:
                raise InvalidParameterError(
                    f"{base}^{width} coordinates do not index {n} vertices")
        return tuple(encode_coordinates(entry, sizes) for entry in raw)
    return tuple(_json_ints(raw, "flat indices"))


def labeling_to_json(labeling: Labeling, graph_file: str = "-") -> str:
    """The text json.dumps({"graph": ..., "labels": [...], "span": ...},
    indent=2) writes, plus a newline, written directly: with indent,
    json.dumps takes its pure-Python encoder, several times slower.  A
    Labeling holds only a non-empty tuple of exact ints, so the layout is
    fixed."""
    return ('{\n  "graph": ' + json.dumps(graph_file)
            + ',\n  "labels": [\n    '
            + ",\n    ".join(map(str, labeling.labels))
            + '\n  ],\n  "span": ' + str(labeling.span) + "\n}\n")


def labeling_from_json(text: str) -> Labeling:
    data = _json_object(text, "labeling")
    labels = data.get("labels")
    if not isinstance(labels, list):
        raise InvalidParameterError('labeling JSON needs a "labels" list')
    labeling = Labeling(tuple(_json_ints(labels, "labels")))
    declared = data.get("span")
    if declared is not None:
        _json_ints([declared], '"span"')
        if declared != labeling.span:
            raise InvalidParameterError(
                f"declared span {declared} != max label {labeling.span}")
    return labeling


def read_text(source: Union[str, os.PathLike, TextIO]) -> str:
    # a function of its own, not an alias of graphs.read_text, so that
    # wrapping this name (perfbench traces it as JSON input) leaves the
    # edge-list reader alone
    return graphs.read_text(source)
