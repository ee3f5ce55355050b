"""Explicit vertex orderings of K_n^t that induce consecutive radio labelings.

The ordering lists the n^t coordinate tuples in groups of n.  Group k is an
n x t matrix whose rows are the tuples: the first group's rows are the
constant tuples (0,..,0)..(n-1,..,n-1), and each later group equals its
predecessor with a single column advanced by the cyclic shift +1 (mod n).
Which column moves depends on how many times n divides k-1: group k touches
column t - p where p is the largest exponent with n^p | k-1.  Within a
group, each row is the previous row shifted in every column, so one row
determines the whole group.

The same sequence also falls out of a coordinate recursion that appends one
trailing coordinate per level; both constructions are exposed and tested
against each other.  Valid for n >= 3 and 1 <= t <= n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    ArityMismatchError,
    IndexOutOfRangeError,
    ParameterOutOfRangeError,
)
from .graphs import _check_size


def _validate(n: int, t: int) -> None:
    if n < 3:
        raise ParameterOutOfRangeError(f"base size n={n} must be at least 3")
    if not 1 <= t <= n:
        raise ParameterOutOfRangeError(
            f"power t={t} must satisfy 1 <= t <= n={n}")
    _check_size(itertools.repeat(n, t), f"{n}^{t} vertices")


def _shift_column(k: int, n: int, t: int) -> int:
    """0-based column advanced when stepping to group k (k >= 2)."""
    p = 0
    r = k - 1
    while r % n == 0 and p < t - 1:
        r //= n
        p += 1
    return t - p - 1


def knt_ordering_matrix(n: int, t: int) -> list:
    """The ordering via the shift-matrix description: each row of the
    first-row matrix expands to its group of n rows."""
    return [tuple((e + i) % n for e in first)
            for first in first_row_matrix(n, t).rows
            for i in range(n)]


def knt_ordering_recursive(n: int, t: int) -> list:
    """The same ordering via the coordinate recursion.

    Position q at width w reduces to position (m//n)*n + r at width w-1,
    where m, r = divmod(q, n), contributing trailing coordinate
    (r + m - m//n) mod n.  Width 1 lists the base vertices in index order.
    """
    _validate(n, t)
    out = []
    for q in range(n ** t):
        coords = [0] * t
        w, pos = t, q
        while w > 1:
            m, r = divmod(pos, n)
            mm = m // n
            coords[w - 1] = (r + m - mm) % n
            pos = mm * n + r
            w -= 1
        coords[0] = pos
        out.append(tuple(coords))
    return out


def knt_ordering(n: int, t: int) -> list:
    """The consecutive-labeling ordering of K_n^t, as coordinate tuples."""
    return knt_ordering_matrix(n, t)


def flat_indices(order: Sequence[tuple], n: int) -> list:
    """Mixed-radix flat index of each tuple, last coordinate fastest."""
    out = []
    for coords in order:
        index = 0
        for c in coords:
            index = index * n + c
        out.append(index)
    return out


def agreement_count(a: Sequence[int], b: Sequence[int]) -> int:
    """Number of coordinates where two product vertices coincide."""
    if len(a) != len(b):
        raise ArityMismatchError(f"tuple lengths {len(a)} and {len(b)} differ")
    return sum(x == y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# first-row matrix and its column blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FirstRowMatrix:
    """The n^(t-1) x t matrix collecting the first row of every group."""

    n: int
    t: int
    rows: tuple


def first_row_matrix(n: int, t: int) -> FirstRowMatrix:
    _validate(n, t)
    first = [0] * t
    rows = [tuple(first)]
    for k in range(2, n ** (t - 1) + 1):
        col = _shift_column(k, n, t)
        first[col] = (first[col] + 1) % n
        rows.append(tuple(first))
    return FirstRowMatrix(n, t, tuple(rows))


def block_entries(matrix: FirstRowMatrix, j: int, c: int) -> list:
    """Entries of the c-th block of column j (1-based column, 0-based block).

    Column j splits into n^(j-1) blocks of n^(t-j) consecutive entries.
    """
    n, t = matrix.n, matrix.t
    if not 1 <= j <= t:
        raise IndexOutOfRangeError(f"column {j} not in 1..{t}")
    if not 0 <= c < n ** (j - 1):
        raise IndexOutOfRangeError(f"block {c} not in 0..{n ** (j - 1) - 1}")
    size = n ** (t - j)
    return [matrix.rows[i][j - 1] for i in range(c * size, (c + 1) * size)]


@dataclass(frozen=True)
class BlockClaimReport:
    """Outcome of the exhaustive block-structure scan of a first-row matrix.

    ``repetition_matches_rule`` records whether adjacent blocks c, c+1 of a
    column are identical exactly when n divides c+1.  The transposed
    divisibility reading (c+1 divides n) is also evaluated;
    ``transposed_rule_mismatches`` counts the adjacent pairs where that
    reading would predict wrongly.
    """

    n: int
    t: int
    blocks_checked: int
    adjacent_pairs_checked: int
    sibling_groups_checked: int
    within_block_constant: bool
    first_blocks_all_zero: bool
    repetition_matches_rule: bool
    sibling_blocks_distinct: bool
    transposed_rule_mismatches: int
    failures: tuple

    @property
    def all_hold(self) -> bool:
        return (self.within_block_constant
                and self.first_blocks_all_zero
                and self.repetition_matches_rule
                and self.sibling_blocks_distinct)


def verify_block_claims(n: int, t: int) -> BlockClaimReport:
    """Scan every column block of the first-row matrix for its three
    structural properties: blocks are constant, adjacent blocks repeat
    exactly when n divides c+1, and the n sibling blocks sharing one parent
    block's rows are pairwise distinct."""
    matrix = first_row_matrix(n, t)
    failures = []
    blocks = 0
    pairs = 0
    groups = 0
    constant = True
    first_zero = True
    repetition_ok = True
    siblings_ok = True
    transposed_mismatches = 0

    for j in range(1, t + 1):
        block_count = n ** (j - 1)
        reps = []
        for c in range(block_count):
            entries = block_entries(matrix, j, c)
            blocks += 1
            if any(e != entries[0] for e in entries):
                constant = False
                failures.append(f"column {j} block {c} is not constant")
            reps.append(entries[0])
        if reps[0] != 0:
            first_zero = False
            failures.append(f"column {j} first block is {reps[0]}, not 0")
        for c in range(block_count - 1):
            pairs += 1
            identical = reps[c] == reps[c + 1]
            if identical != ((c + 1) % n == 0):
                repetition_ok = False
                failures.append(
                    f"column {j} blocks {c},{c + 1}: identical={identical} "
                    f"but n | c+1 is {(c + 1) % n == 0}")
            if identical != (n % (c + 1) == 0):
                transposed_mismatches += 1
        if j >= 2:
            for b in range(n ** (j - 2)):
                groups += 1
                sibling = reps[b * n:(b + 1) * n]
                if len(set(sibling)) != n:
                    siblings_ok = False
                    failures.append(
                        f"column {j} sibling blocks of parent {b} repeat: "
                        f"{sibling}")

    return BlockClaimReport(
        n=n,
        t=t,
        blocks_checked=blocks,
        adjacent_pairs_checked=pairs,
        sibling_groups_checked=groups,
        within_block_constant=constant,
        first_blocks_all_zero=first_zero,
        repetition_matches_rule=repetition_ok,
        sibling_blocks_distinct=siblings_ok,
        transposed_rule_mismatches=transposed_mismatches,
        failures=tuple(failures),
    )
