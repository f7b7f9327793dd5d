"""Density identities in exact rational arithmetic."""

from fractions import Fraction

import pytest

from powsumdiv.density import (
    cyclotomic_degree,
    delta_naive,
    delta_refined,
    delta_sign_difference,
    delta_table,
)
from powsumdiv.profile import decompose

F = Fraction


def test_cyclotomic_degree():
    assert cyclotomic_degree(False, 5) == 32
    assert cyclotomic_degree(True, 3) == 4
    assert cyclotomic_degree(True, 1) == 2
    assert cyclotomic_degree(True, 2) == 4
    for k in range(1, 12):
        assert cyclotomic_degree(False, k) == 2**k
        assert cyclotomic_degree(True, k) == (2**k if k <= 2 else 2 ** (k - 1))
    with pytest.raises(ValueError):
        cyclotomic_degree(True, 0)


@pytest.mark.parametrize("a,want", [
    (2, F(17, 24)),
    (3, F(2, 3)),
    (4, F(5, 12)),
    (16, F(1, 12)),
    (-4, F(2, 3)),
])
def test_delta_table_examples(a, want):
    assert delta_table(decompose(a, 1)) == want


@pytest.mark.parametrize("a,want", [
    (2, F(2, 3)),
    (-2, F(2, 3)),
    (4, F(1, 3)),
])
def test_delta_naive_examples(a, want):
    assert delta_naive(decompose(a, 1)) == want


def test_delta_refined_hand_computation():
    # non-sqrt2, e = 0, eps = +1: all degrees are 2^k, the gap sum is
    # sum_{k>=1} 2^(-2k-1) = 1/6, and delta2 = 1 - 2*(1/6) = 2/3.
    # geometric-series oracle: partial sum + remainder (1/6)*4^-K = 1/6
    for K in (1, 5, 20):
        partial = sum(F(1, 2 ** (2 * k + 1)) for k in range(1, K + 1))
        assert partial + F(1, 6) / 4**K == F(1, 6)
    assert delta_refined(decompose(3, 1)) == F(2, 3)
    assert delta_refined(decompose(2, 1)) == F(17, 24)
    assert delta_refined(decompose(-4, 1)) == F(2, 3)


def test_refined_equals_table_exhaustively():
    for a in range(-30, 31):
        for b in range(1, 31):
            if a == 0 or abs(a) == b:
                continue
            profile = decompose(a, b)
            assert delta_refined(profile) == delta_table(profile), (a, b)


def test_naive_exact_iff_not_sqrt2():
    for a in range(-30, 31):
        for b in range(1, 31):
            if a == 0 or abs(a) == b:
                continue
            profile = decompose(a, b)
            if not profile.is_sqrt2:
                assert delta_naive(profile) == delta_table(profile), (a, b)
    for a in (2, 4, -4, 16):
        profile = decompose(a, 1)
        assert delta_naive(profile) != delta_table(profile)


def test_sign_difference_examples():
    # e=0 off the anomaly: 1 - 3/2 + 2/2 - 2/4 = 0
    assert delta_sign_difference(decompose(3, 1)) == 0
    assert delta_table(decompose(-3, 1)) == delta_table(decompose(3, 1)) == F(2, 3)
    # e=0 on the anomaly: 1 - 3/2 + 1 - 1/2 = 0
    assert delta_sign_difference(decompose(2, 1)) == 0
    # e=1 on the anomaly: 1 - 3/4 + 2/4 - 2/4 = 1/4 = 2/3 - 5/12
    assert delta_sign_difference(decompose(4, 1)) == F(1, 4)
    assert delta_table(decompose(-4, 1)) - delta_table(decompose(4, 1)) == F(1, 4)


def test_sign_difference_matches_direct_difference():
    for a in range(1, 31):
        for b in range(1, 31):
            if a == b:
                continue
            diff = delta_sign_difference(decompose(a, b))
            direct = delta_refined(decompose(-a, b)) - delta_refined(decompose(a, b))
            assert diff == direct, (a, b)


def test_range_and_negative_ratio_bound():
    for a in range(-30, 31):
        for b in range(1, 31):
            if a == 0 or abs(a) == b:
                continue
            profile = decompose(a, b)
            delta = delta_table(profile)
            for value in (delta, delta_naive(profile), delta_refined(profile)):
                assert 0 <= value <= 1
            assert delta_refined(profile) == delta
            if profile.eps == -1:
                assert delta >= F(1, 2)


def test_anomaly_flag():
    # the naive heuristic has the wrong limit exactly on the anomaly
    assert delta_naive(decompose(2, 1)) != delta_table(decompose(2, 1))
    assert delta_naive(decompose(3, 1)) == delta_table(decompose(3, 1))
