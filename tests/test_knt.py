import sys
import time
from operator import eq

import pytest

from paper_claims import column_blocks, transposed_mispredictions
from radiolabel import (
    ParameterOutOfRangeError,
    SizeLimitExceededError,
    cartesian_power,
    complete,
    first_row_matrix,
    flat_indices,
    induced_labeling,
    is_consecutive,
    knt_ordering,
    knt_ordering_matrix,
    knt_ordering_recursive,
)

GRID = [(n, t) for n in (3, 4, 5) for t in range(1, n + 1)]


# ---------------------------------------------------------------------------
# the ordering itself
# ---------------------------------------------------------------------------

def test_width_one_lists_base_vertices():
    assert knt_ordering_matrix(3, 1) == [(0,), (1,), (2,)]
    assert knt_ordering_recursive(4, 1) == [(0,), (1,), (2,), (3,)]


def test_three_squared_sequence():
    expected = [(0, 0), (1, 1), (2, 2),
                (0, 1), (1, 2), (2, 0),
                (0, 2), (1, 0), (2, 1)]
    assert knt_ordering_matrix(3, 2) == expected
    assert knt_ordering_recursive(3, 2) == expected


def test_leading_entries_are_constant_tuples():
    for n, t in GRID:
        order = knt_ordering_matrix(n, t)
        for i in range(n):
            assert order[i] == (i,) * t


def test_recursion_spot_values():
    order = knt_ordering_recursive(3, 2)
    # position 3 appends (0 + 1 - 0) mod 3 to the level-1 vertex 0
    assert order[3] == (0, 1)
    # position 8: trailing coordinate (2 + 2 - 0) mod 3 = 1 on vertex 2
    assert order[8] == (2, 1)


def test_methods_agree_on_grid():
    # the grid, every shape the knt-power benchmark times, and both sides
    # of the item sizes the matrix construction stores entries in: one
    # byte through n = 256, two through n = 65536, four past that
    for n, t in GRID + [(6, 4), (7, 4), (5, 5), (8, 4), (6, 5),
                        (255, 2), (256, 2), (257, 2), (65537, 1)]:
        assert knt_ordering_matrix(n, t) == knt_ordering_recursive(n, t), (n, t)


def test_row_shift_structure():
    # within each group of n consecutive tuples, every row is the previous
    # one advanced by the cyclic shift in every coordinate
    for n, t in GRID:
        order = knt_ordering_matrix(n, t)
        for g in range(n ** (t - 1)):
            rows = order[g * n:(g + 1) * n]
            for prev, cur in zip(rows, rows[1:]):
                assert cur == tuple((e + 1) % n for e in prev), (n, t, g)


def test_adjacent_groups_differ_in_one_column():
    for n, t in GRID:
        if t == 1:
            continue
        order = knt_ordering_matrix(n, t)
        for g in range(1, n ** (t - 1)):
            prev = order[(g - 1) * n]
            cur = order[g * n]
            changed = [j for j in range(t) if prev[j] != cur[j]]
            assert len(changed) == 1, (n, t, g)
            j = changed[0]
            assert cur[j] == (prev[j] + 1) % n


def test_neighbors_in_order_share_nothing():
    for n, t in GRID:
        order = knt_ordering_matrix(n, t)
        for a, b in zip(order, order[1:]):
            assert sum(map(eq, a, b)) == 0


def test_induced_labeling_is_consecutive_small():
    for n, t in [(3, 2), (3, 3), (4, 2), (4, 3)]:
        g = cartesian_power(complete(n), t)
        order = flat_indices(knt_ordering(n, t), n)
        lab = induced_labeling(g, order)
        assert lab.span == n ** t
        assert is_consecutive(g, lab)


def test_parameter_validation(monkeypatch):
    with pytest.raises(ParameterOutOfRangeError):
        knt_ordering_matrix(2, 1)
    with pytest.raises(ParameterOutOfRangeError):
        knt_ordering_matrix(3, 4)
    with pytest.raises(ParameterOutOfRangeError):
        knt_ordering_matrix(3, 0)
    # the constructions honour the same environment cap as cartesian_power
    monkeypatch.setenv("RADIOLABEL_SIZE_CAP", "100")
    with pytest.raises(SizeLimitExceededError):
        knt_ordering_matrix(5, 5)
    monkeypatch.setenv("RADIOLABEL_SIZE_CAP", "5")
    for construction in (knt_ordering_matrix, knt_ordering_recursive):
        with pytest.raises(SizeLimitExceededError):
            construction(3, 2)
    with pytest.raises(SizeLimitExceededError):
        first_row_matrix(3, 2)


def test_huge_ordering_is_refused_at_once(monkeypatch):
    monkeypatch.delenv("RADIOLABEL_SIZE_CAP", raising=False)
    start = time.monotonic()
    with pytest.raises(SizeLimitExceededError,
                       match=r"^1000000\^1000000 vertices, above the cap"):
        knt_ordering(10 ** 6, 10 ** 6)
    assert time.monotonic() - start < 1.0


def test_ordering_past_sys_maxsize_is_refused(monkeypatch):
    monkeypatch.delenv("RADIOLABEL_SIZE_CAP", raising=False)
    n = t = 10 ** 20
    assert t > sys.maxsize
    with pytest.raises(SizeLimitExceededError,
                       match=rf"^{n}\^{t} vertices, above the cap"):
        knt_ordering_matrix(n, t)


# ---------------------------------------------------------------------------
# agreement counting
# ---------------------------------------------------------------------------

def test_agreement_count():
    # positions i and i + 3 of the 3^2 ordering, the same row of adjacent
    # groups, agree in the one column that is not advanced
    order = knt_ordering_matrix(3, 2)
    assert [sum(map(eq, a, b)) for a, b in zip(order, order[3:])] == [1] * 6


# ---------------------------------------------------------------------------
# first-row matrix blocks
# ---------------------------------------------------------------------------

def test_first_row_matrix_shape_and_uniqueness():
    for n, t in GRID:
        rows = first_row_matrix(n, t)
        assert len(rows) == n ** (t - 1)
        assert all(len(row) == t for row in rows)
        assert len(set(rows)) == len(rows), (n, t)


def test_block_sizes_and_first_column():
    # column 1 is a single block of every row, all zeros; column j has
    # n^(j-1) blocks
    assert [row[0] for row in first_row_matrix(3, 3)] == [0] * 9
    assert column_blocks(3, 3, 1) == [0]
    assert len(column_blocks(3, 3, 2)) == 3
    assert len(column_blocks(3, 3, 3)) == 9


def test_block_entries_single_entry_case():
    # the last column's blocks hold one entry each
    assert column_blocks(3, 2, 2) == [0, 1, 2]


def test_blocks_are_constant():
    for n, t in GRID:
        for j in range(1, t + 1):
            column_blocks(n, t, j)


def test_transposed_divisibility_reading_differs():
    # the reversed reading of the repetition rule mispredicts somewhere on
    # these multi-column cases
    assert transposed_mispredictions(3, 2) > 0
    assert transposed_mispredictions(4, 3) > 0


def test_block_repetition_examples():
    # in column 3 of the 3^3 case, adjacent blocks repeat exactly at
    # c = 2 and c = 5 (n divides c+1)
    column = column_blocks(3, 3, 3)
    repeats = [c for c in range(8) if column[c] == column[c + 1]]
    assert repeats == [2, 5]
