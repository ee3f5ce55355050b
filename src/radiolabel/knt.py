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

from array import array
from typing import Sequence

from .errors import ParameterOutOfRangeError
from .graphs import _check_size


def _validate(n: int, t: int) -> None:
    if n < 3:
        raise ParameterOutOfRangeError(f"base size n={n} must be at least 3")
    if not 1 <= t <= n:
        raise ParameterOutOfRangeError(
            f"power t={t} must satisfy 1 <= t <= n={n}")
    # range, not itertools.repeat, counts past sys.maxsize
    _check_size((n for _ in range(t)), f"{n}^{t} vertices")


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
    first-row matrix expands to its group of n rows.  Row i of a group
    shifts every entry e of the first row to (e + i) mod n, the entry
    rot[e][i] of rot[e] = (e, e + 1, ..., e + n - 1) mod n.  So column j
    of the ordering is the rot[e] of column j's first-row entries e, one
    after another, and the ordering is the transpose of its t columns:
    O(n^t t) time and memory.

    Each rot[e] is a view of n typed-array items of the doubled range
    0..n-1, 0..n-1, so a column is one bytes join, read back as an array
    of the least item size that holds n - 1, and the rotations take O(n)
    memory."""
    rows = first_row_matrix(n, t)  # validates n and t first
    code = next(code for code in "BHIQ" if n <= 256 ** array(code).itemsize)
    doubled = memoryview(array(code, [*range(n), *range(n)]))
    rot = [doubled[e:e + n] for e in range(n)]
    return list(zip(*[array(code, b"".join(map(rot.__getitem__, column)))
                      for column in zip(*rows)]))


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


def first_row_matrix(n: int, t: int) -> tuple:
    """The n^(t-1) rows of length t collecting the first row of every
    group, in group order."""
    _validate(n, t)
    first = [0] * t
    rows = [tuple(first)]
    for k in range(2, n ** (t - 1) + 1):
        col = _shift_column(k, n, t)
        first[col] = (first[col] + 1) % n
        rows.append(tuple(first))
    return tuple(rows)
