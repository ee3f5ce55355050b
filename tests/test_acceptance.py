"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Every expected value is exact; the asserted time
budgets are generous ceilings, not measurements of typical speed.
"""

import time

from conftest import small_corpus
from paper_claims import (
    assert_agreement_below_offset,
    assert_block_claims,
    pairwise_agreement_total,
)
from radiolabel import (
    EXHAUSTED,
    NO_CONSECUTIVE,
    WITNESS_FOUND,
    all_pairs_distances,
    cartesian_power,
    cartesian_product,
    check_consecutive_ordering,
    check_radio,
    complete,
    cycle,
    exact_radio_number,
    find_consecutive_ordering,
    flat_indices,
    induced_labeling,
    knt_ordering_matrix,
    knt_ordering_recursive,
    path,
    petersen,
    threshold_s,
    threshold_s_complete,
    verdict,
    verify_witness,
)

FULL_GRID = [(n, t) for n in range(3, 7) for t in range(1, n + 1)]
EQUIV_GRID = [(n, t) for n in range(3, 6) for t in range(1, n + 1)] + \
    [(6, 4), (6, 6)]


def _run(number: int, description: str, budget: float, body) -> None:
    start = time.monotonic()
    try:
        body()
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {number}: PASS - {description} ({elapsed:.1f}s)")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


def test_criterion_1_consecutive_labelings_across_power_grid():
    def body():
        for n, t in FULL_GRID:
            g = cartesian_power(complete(n), t)
            order = flat_indices(knt_ordering_matrix(n, t), n)
            assert check_consecutive_ordering(g, order), (n, t)
            labeling = induced_labeling(g, order)
            assert labeling.span == n ** t, (n, t)
            assert check_radio(g, labeling) == [], (n, t)

    _run(1, "every ordering for 3<=n<=6, t<=n induces a consecutive "
            "labeling of span n^t", 60.0, body)


def test_criterion_2_matrix_and_recursive_orderings_coincide():
    def body():
        for n, t in EQUIV_GRID:
            assert knt_ordering_matrix(n, t) == \
                knt_ordering_recursive(n, t), (n, t)

    _run(2, "matrix and recursive constructions emit identical sequences",
         10.0, body)


def test_criterion_3_permutation_and_agreement_bounds():
    def body():
        for n, t in EQUIV_GRID:
            order = knt_ordering_matrix(n, t)
            assert sorted(flat_indices(order, n)) == \
                list(range(n ** t)), (n, t)
            assert_agreement_below_offset(order, t)

    _run(3, "orderings are bijections and positions i, i+s agree in at "
            "most s-1 coordinates", 30.0, body)


def test_criterion_4_block_structure_holds_exhaustively():
    def body():
        for n in range(3, 6):
            for t in range(1, n + 1):
                assert_block_claims(n, t)

    _run(4, "column blocks are constant, repeat exactly when n divides "
            "c+1, and sibling blocks are distinct", 10.0, body)


def test_criterion_5_threshold_arithmetic():
    def body():
        for n in range(2, 51):
            assert threshold_s(n, 1) == threshold_s_complete(n) == \
                1 + n * (n * n - 1) // 6, n
        assert threshold_s(10, 2) == 71
        for n in range(2, 31):
            for diam in range(1, n):
                assert pairwise_agreement_total(n, diam) == \
                    threshold_s(n, diam) - 1, (n, diam)

    _run(5, "closed form matches the summation and the double-sum "
            "identity telescopes", 5.0, body)


def test_criterion_6_exact_search_oracles():
    def body():
        for n in range(2, 8):
            assert exact_radio_number(complete(n)).span == n, n
        assert exact_radio_number(path(3)).span == 4
        for name, g in small_corpus():
            pruned = exact_radio_number(g)
            unpruned = exact_radio_number(g, prune=False)
            assert pruned.span == unpruned.span, name
            assert pruned.ordering == unpruned.ordering, name

    _run(6, "exact radio numbers of small graphs; pruning never changes "
            "the enumeration result", 300.0, body)


def test_criterion_7_consecutive_witnesses():
    def body():
        pet = find_consecutive_ordering(petersen(), time_budget=10.0)
        assert pet.status == WITNESS_FOUND
        assert pet.span == 10
        assert verify_witness(petersen(), pet.ordering)

        square = cartesian_power(complete(2), 2)
        missing = find_consecutive_ordering(square, time_budget=10.0)
        assert missing.status == EXHAUSTED
        assert threshold_s(2, 1) == 2
        assert verdict(complete(2), 2) == NO_CONSECUTIVE

    _run(7, "Petersen yields a verified span-10 witness; the 4-cycle "
            "exhausts, matching its threshold verdict", 10.0, body)


def test_criterion_8_product_identities_on_random_corpus():
    def body():
        corpus = [g for _, g in small_corpus() if g.vertex_count <= 6]
        pairs = list(zip(corpus[::2], corpus[1::2]))[:6]
        for g, h in pairs:
            prod = cartesian_product(g, h)
            bfs = all_pairs_distances(prod)
            dg = all_pairs_distances(g)
            dh = all_pairs_distances(h)
            nh = h.vertex_count
            for u in range(prod.vertex_count):
                for v in range(prod.vertex_count):
                    assert bfs[u][v] == dg[u // nh][v // nh] + \
                        dh[u % nh][v % nh]
        for g in corpus[:8]:
            n, e, d = g.vertex_count, g.edge_count, g.diameter()
            for t in (2, 3):
                power = cartesian_power(g, t)
                bfs = all_pairs_distances(power)
                edges = sum(len(power.adjacency[v])
                            for v in range(power.vertex_count)) // 2
                assert edges == t * n ** (t - 1) * e, t
                assert max(map(max, bfs)) == t * d == power.diameter(), t

    _run(8, "BFS distances on products add coordinatewise; power edge "
            "counts and diameters match the formulas", 30.0, body)
