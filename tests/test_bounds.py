import time

import pytest

from radiolabel import (
    EXHAUSTED,
    HAS_CONSECUTIVE,
    InvalidParameterError,
    NO_CONSECUTIVE,
    UNKNOWN,
    agreement_cap,
    cartesian_power,
    complete,
    cycle,
    find_consecutive_ordering,
    pairwise_agreement_total,
    path,
    petersen,
    threshold_report,
    threshold_report_params,
    threshold_s,
    threshold_s_complete,
    verdict,
)


def test_threshold_examples():
    assert threshold_s(3, 1) == 5
    assert threshold_s(10, 2) == 71  # sum is 70, plus 1
    assert threshold_s(2, 1) == 2


def test_closed_form_examples():
    assert threshold_s_complete(3) == 5
    assert threshold_s_complete(4) == 11


def test_closed_form_matches_summation():
    for n in range(2, 51):
        assert threshold_s(n, 1) == threshold_s_complete(n)


def test_threshold_matches_the_summation_loop():
    for n in range(2, 61):
        for diam in range(1, n):
            loop = 1 + sum((n - i) * (i // diam) for i in range(diam, n))
            assert threshold_s(n, diam) == loop, (n, diam)


def test_threshold_of_a_large_base_is_immediate():
    start = time.monotonic()
    assert threshold_s(10 ** 7, 1) == threshold_s_complete(10 ** 7)
    assert time.monotonic() - start < 0.1


def test_threshold_validation():
    with pytest.raises(InvalidParameterError):
        threshold_s(1, 1)
    with pytest.raises(InvalidParameterError):
        threshold_s(5, 0)
    with pytest.raises(InvalidParameterError):
        threshold_s(5, 5)
    with pytest.raises(InvalidParameterError):
        threshold_s_complete(1)


def test_agreement_cap_examples():
    assert agreement_cap(5, 1, 1, 2) == 0
    assert agreement_cap(3, 2, 1, 8) == 3
    assert agreement_cap(2, 2, 1, 10) == 2


def test_agreement_cap_validation():
    with pytest.raises(InvalidParameterError):
        agreement_cap(3, 2, 4, 4)
    with pytest.raises(InvalidParameterError):
        agreement_cap(0, 2, 1, 2)


def test_agreement_cap_bounded_and_monotone():
    for t in (1, 2, 5):
        for diam in (1, 2, 3):
            previous = 0
            for gap in range(1, 40):
                cap = agreement_cap(t, diam, 1, 1 + gap)
                assert 0 <= cap <= t
                assert cap >= previous
                previous = cap


def test_double_summation_telescopes():
    for n in range(2, 31):
        for diam in range(1, n):
            assert pairwise_agreement_total(n, diam) == \
                threshold_s(n, diam) - 1


def test_capped_summation_matches_when_t_reaches_s():
    # with t at the threshold the per-pair caps never clip at t, so the
    # capped double sum equals the raw one and stays below t
    for n in range(2, 16):
        for diam in range(1, n):
            s = threshold_s(n, diam)
            total = sum(agreement_cap(s, diam, i, j)
                        for i in range(2, n + 2) for j in range(1, i))
            assert total == s - 1
            assert total < s


def test_verdict_examples():
    assert verdict(complete(4), 3) == HAS_CONSECUTIVE
    assert verdict(complete(3), 5) == NO_CONSECUTIVE
    assert verdict(complete(4), 7) == UNKNOWN


def test_verdict_k2_agrees_with_search():
    assert verdict(complete(2), 2) == NO_CONSECUTIVE
    square = cartesian_power(complete(2), 2)
    assert find_consecutive_ordering(square, time_budget=10).status == \
        EXHAUSTED


def test_verdict_k2_single_factor():
    assert verdict(complete(2), 1) == HAS_CONSECUTIVE


def test_verdict_non_complete_never_constructive():
    # witnesses for non-complete bases are the search module's business
    assert verdict(petersen(), 1) == UNKNOWN
    assert verdict(path(3), 1) == UNKNOWN
    assert verdict(petersen(), 71) == NO_CONSECUTIVE
    assert verdict(cycle(4), threshold_s(4, 2)) == NO_CONSECUTIVE


def test_verdict_boundary_at_n_and_s():
    for n in (3, 4, 5):
        g = complete(n)
        s = threshold_s_complete(n)
        assert verdict(g, n) == HAS_CONSECUTIVE
        assert verdict(g, n + 1) == UNKNOWN
        assert verdict(g, s - 1) == UNKNOWN
        assert verdict(g, s) == NO_CONSECUTIVE


def test_report_shapes():
    report = threshold_report(complete(3), [1, 3, 4, 5, 9])
    assert report.n == 3 and report.diam == 1
    assert report.s == 5 and report.closed_form_s == 5
    assert report.verdicts == ((1, HAS_CONSECUTIVE), (3, HAS_CONSECUTIVE),
                               (4, UNKNOWN), (5, NO_CONSECUTIVE),
                               (9, NO_CONSECUTIVE))
    data = report.to_dict()
    assert data["verdicts"][0] == {"t": 1, "verdict": HAS_CONSECUTIVE}


def test_report_params_non_complete():
    report = threshold_report_params(10, 2, [1, 70, 71])
    assert report.s == 71
    assert report.closed_form_s is None
    assert report.verdicts == ((1, UNKNOWN), (70, UNKNOWN),
                               (71, NO_CONSECUTIVE))


def test_report_computes_diameter_itself():
    # the graph-based entry point must not be foolable about the diameter
    report = threshold_report(cycle(5), [])
    assert report.diam == 2
    assert report.s == threshold_s(5, 2)


def test_verdict_rejects_bad_power():
    with pytest.raises(InvalidParameterError):
        verdict(complete(3), 0)
    with pytest.raises(InvalidParameterError):
        verdict(complete(1), 1)
