"""Ramanujan sums against the defining exponential sum."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powsumdiv.ramanujan import divisor_indicator, ramanujan_c, ramanujan_c_2pow


def c_direct(n: int, m: int) -> complex:
    """The exponential-sum definition; test oracle only."""
    return sum(
        cmath.exp(2j * math.pi * k * m / n)
        for k in range(1, n + 1)
        if math.gcd(k, n) == 1
    )


def coprime_count(n: int) -> int:
    """phi(n) by counting; test oracle only."""
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_examples():
    for m in (0, 1, 7, 100):
        assert ramanujan_c(1, m) == 1
    assert ramanujan_c(4, 2) == -2
    assert ramanujan_c(6, 1) == 1
    for n in (1, 2, 12, 30):
        assert ramanujan_c(n, 0) == coprime_count(n)


def test_against_direct_sum():
    for n in range(1, 101):
        for m in range(0, 101):
            z = c_direct(n, m)
            c = ramanujan_c(n, m)
            assert abs(z.imag) < 1e-6
            assert abs(z.real - c) < 1e-6
            assert round(z.real) == c


def test_gcd_reduction():
    for n in range(1, 201):
        for m in range(0, 201):
            assert ramanujan_c(n, m) == ramanujan_c(n, math.gcd(n, m))


def test_bound_by_phi():
    for n in range(1, 150):
        phi = coprime_count(n)
        for m in range(0, 150):
            assert abs(ramanujan_c(n, m)) <= phi


def test_weak_two_power_form():
    assert ramanujan_c_2pow(0, 17) == 1
    assert ramanujan_c_2pow(0, 0) == 1
    assert ramanujan_c_2pow(3, 4) == -4   # v2(4) = 2 = v-1, phi(8) = 4
    assert ramanujan_c_2pow(2, 8) == 2    # v2(8) >= 2, phi(4) = 2
    for v in range(0, 11):
        for t in range(0, 4097):
            assert ramanujan_c_2pow(v, t) == ramanujan_c(1 << v, t)


def test_divisor_indicator():
    assert divisor_indicator(6, 12) == 1
    assert divisor_indicator(6, 4) == 0
    assert divisor_indicator(1, 9) == 1
    for n in range(1, 201):
        for m in range(0, 401):
            want = Fraction(1 if m % n == 0 else 0)
            got = divisor_indicator(n, m)
            assert got == want
            assert isinstance(got, Fraction)


def test_array_m_equals_the_scalar_calls():
    # one array call per n, element by element against the int path; the
    # array indicator gives the sums themselves, n times the Fraction
    ms = np.arange(401)
    for n in range(1, 201):
        got = ramanujan_c(n, ms)
        assert got.dtype == np.int64
        assert got.tolist() == [ramanujan_c(n, m) for m in range(401)], n
        assert divisor_indicator(n, ms).tolist() == \
            [n * divisor_indicator(n, m) for m in range(401)], n


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=5000), st.integers(min_value=0, max_value=5000))
def test_integrality_and_reduction_property(n, m):
    c = ramanujan_c(n, m)
    assert isinstance(c, int)
    assert c == ramanujan_c(n, math.gcd(n, m))


def test_validation():
    with pytest.raises(ValueError):
        ramanujan_c(0, 3)
    with pytest.raises(ValueError):
        ramanujan_c_2pow(-1, 3)
    with pytest.raises(ValueError):
        divisor_indicator(0, 3)
    # an array m fits int64, and then n must fit int64 too
    with pytest.raises(ValueError):
        ramanujan_c(2**64, np.arange(3))
    with pytest.raises(ValueError):
        ramanujan_c(6, np.array([1.5]))
    # a float n or m, even an integral one, is not truncated: c_4(2.5) gave
    # 0 and divisor_indicator(4, 2.5) gave 1/4
    for n, m in [(4, 2.5), (4, 2.0), (2.5, 4), (4.0, 4)]:
        with pytest.raises(ValueError):
            ramanujan_c(n, m)
        with pytest.raises(ValueError):
            divisor_indicator(n, m)
    with pytest.raises(ValueError):
        ramanujan_c(6, np.array([2**64]))
    # a float v or t raised TypeError
    for v, t in [(2, 2.5), (2.0, 4)]:
        with pytest.raises(ValueError):
            ramanujan_c_2pow(v, t)
    # a numpy integer m is an integer: with n past int64 it raised OverflowError
    assert ramanujan_c(2**70, np.int64(5)) == ramanujan_c(2**70, 5) == 0
    assert type(ramanujan_c(np.int64(4), np.int64(2))) is int
