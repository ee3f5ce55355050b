"""The paper's structural claims about the consecutive ordering of K_n^t
and the threshold s, as assertions the tests run on whole grids.

The first rows of the ordering's groups form the first-row matrix.  Its
column j (1-based) splits into n^(j-1) blocks of n^(t-j) consecutive
entries, and the paper's proof rests on three claims about them: each
block is constant, adjacent blocks c and c + 1 are equal exactly when
n | c + 1, and the n sibling blocks under one block of column j - 1 are
distinct.  The transposed reading, c + 1 | n, is wrong.  The threshold
rests on an agreement budget: positions i and j of a consecutive ordering
of a power G^t agree in at most min(t, (|i - j| - 1) // diam)
coordinates.
"""

from operator import eq

from radiolabel import first_row_matrix


def column_blocks(n: int, t: int, j: int) -> list:
    """The entry of each block of column j, after asserting that every
    block is constant."""
    column = [row[j - 1] for row in first_row_matrix(n, t)]
    size = n ** (t - j)
    blocks = [column[c:c + size] for c in range(0, len(column), size)]
    for c, block in enumerate(blocks):
        assert block == [block[0]] * size, (n, t, j, c)
    return [block[0] for block in blocks]


def assert_block_claims(n: int, t: int) -> None:
    for j in range(1, t + 1):
        blocks = column_blocks(n, t, j)
        assert blocks[0] == 0, (n, t, j)
        repeats = [c for c in range(len(blocks) - 1)
                   if blocks[c] == blocks[c + 1]]
        assert repeats == list(range(n - 1, len(blocks) - 1, n)), (n, t, j)
        if j > 1:
            for b in range(0, len(blocks), n):
                assert len(set(blocks[b:b + n])) == n, (n, t, j, b)


def transposed_mispredictions(n: int, t: int) -> int:
    """Adjacent block pairs on which the reading c + 1 | n is wrong."""
    wrong = 0
    for j in range(1, t + 1):
        blocks = column_blocks(n, t, j)
        wrong += sum((a == b) != (n % c == 0)
                     for c, (a, b) in enumerate(zip(blocks, blocks[1:]), 1))
    return wrong


def assert_agreement_below_offset(order: list, t: int) -> None:
    """Positions i and i + s, for s <= t, agree in at most s - 1
    coordinates: the distance condition of a consecutive labeling of
    K_n^t, whose diameter is t."""
    for s in range(1, t + 1):
        for i, (a, b) in enumerate(zip(order, order[s:])):
            assert sum(map(eq, a, b)) <= s - 1, (len(order), t, i, s)


def agreement_cap(t: int, diam: int, i: int, j: int) -> int:
    return min(t, (abs(i - j) - 1) // diam)


def pairwise_agreement_total(n: int, diam: int) -> int:
    """The uncapped agreement budget of the first n + 1 positions."""
    return sum((i - j - 1) // diam
               for i in range(2, n + 2) for j in range(1, i))
