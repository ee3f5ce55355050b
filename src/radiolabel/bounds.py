"""Impossibility threshold for consecutive labelings of Cartesian powers.

For a base graph with n vertices, powers G^t with t >= s cannot have a
consecutive radio labeling, where

    s = 1 + sum_{i=diam}^{n-1} (n - i) * floor(i / diam).

For complete bases (diam = 1) the sum collapses to s = 1 + n(n^2-1)/6.
Everything here is exact integer arithmetic; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InvalidParameterError
from .graphs import Graph

HAS_CONSECUTIVE = "has-consecutive"
NO_CONSECUTIVE = "no-consecutive"
UNKNOWN = "unknown"


def threshold_s(n: int, diam: int) -> int:
    """Smallest proven power beyond which no consecutive labeling exists."""
    if n < 2:
        raise InvalidParameterError("base graph needs at least 2 vertices")
    if not 1 <= diam <= n - 1:
        raise InvalidParameterError(
            f"diameter {diam} not in [1, {n - 1}] for n={n}")
    # Block q of the sum holds the i with i // diam == q; its terms sum to
    # q * sum(n - i).  Blocks 1..m are full (diam terms each); the last,
    # q = m + 1, runs from (m + 1) * diam to n - 1, i.e. n - i = 1..tail.
    m = (n - 1) // diam - 1
    tail = n - (m + 1) * diam
    sum_q = m * (m + 1) // 2
    sum_q2 = sum_q * (2 * m + 1) // 3
    full = (diam * n - diam * (diam - 1) // 2) * sum_q - diam * diam * sum_q2
    return 1 + full + (m + 1) * tail * (tail + 1) // 2


def threshold_s_complete(n: int) -> int:
    """Closed form of threshold_s at diameter 1: 1 + n(n^2 - 1)/6."""
    if n < 2:
        raise InvalidParameterError("complete base needs at least 2 vertices")
    return 1 + n * (n * n - 1) // 6


def agreement_cap(t: int, diam: int, i: int, j: int) -> int:
    """Most coordinates positions i and j of a consecutive ordering of a
    power G^t may agree in: min(t, floor((|i-j| - 1) / diam))."""
    if i == j:
        raise InvalidParameterError("positions must be distinct")
    if t < 1 or diam < 1:
        raise InvalidParameterError("t and diam must be positive")
    return min(t, (abs(i - j) - 1) // diam)


def pairwise_agreement_total(n: int, diam: int) -> int:
    """Total agreement budget of the first n+1 positions of an ordering,
    by direct double summation; telescopes to threshold_s(n, diam) - 1."""
    if n < 2 or diam < 1:
        raise InvalidParameterError("need n >= 2 and diam >= 1")
    return sum((i - j - 1) // diam
               for i in range(2, n + 2) for j in range(1, i))


@dataclass(frozen=True)
class ThresholdReport:
    """Classification of queried powers of one base graph."""

    n: int
    diam: int
    s: int
    closed_form_s: Optional[int]
    verdicts: tuple  # ((t, verdict), ...)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "diam": self.diam,
            "s": self.s,
            "closed_form_s": self.closed_form_s,
            "verdicts": [{"t": t, "verdict": v} for t, v in self.verdicts],
        }


def _classify(n: int, diam: int, s: int, t: int) -> str:
    if t < 1:
        raise InvalidParameterError("power t must be positive")
    if t >= s:
        return NO_CONSECUTIVE
    if diam == 1 and (t == 1 or (n >= 3 and t <= n)):
        # complete base: powers up to n are constructively labeled, and a
        # single factor needs nothing beyond distinct labels
        return HAS_CONSECUTIVE
    return UNKNOWN


def verdict(base: Graph, t: int) -> str:
    """Classify one power of a base graph, computing its diameter locally
    rather than trusting a caller-supplied value."""
    return threshold_report(base, (t,)).verdicts[0][1]


def threshold_report(base: Graph, ts: Sequence[int]) -> ThresholdReport:
    n = base.vertex_count
    diam = base.diameter()
    if n < 2 or diam < 1:
        raise InvalidParameterError("base graph must have at least one edge")
    return threshold_report_params(n, diam, ts)


def threshold_report_params(n: int, diam: int,
                            ts: Sequence[int]) -> ThresholdReport:
    s = threshold_s(n, diam)
    closed = threshold_s_complete(n) if diam == 1 else None
    verdicts = tuple((t, _classify(n, diam, s, t)) for t in ts)
    return ThresholdReport(n=n, diam=diam, s=s, closed_form_s=closed,
                           verdicts=verdicts)
