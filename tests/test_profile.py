"""Ratio decomposition: examples, reconstruction, maximality, scaling."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powsumdiv.profile import (
    DegenerateRatioError,
    InputRangeError,
    ZeroInputError,
    decompose,
    special_prime_divides,
)

nonzero = st.integers(min_value=-10**4, max_value=10**4).filter(lambda n: n != 0)


def _is_rational_power(num: int, den: int, k: int) -> bool:
    """Oracle: is num/den an exact k-th power of a rational?"""
    if k == 1:
        return True

    def iroot(n: int) -> int | None:
        r = round(n ** (1.0 / k))
        for c in (r - 1, r, r + 1):
            if c >= 1 and c**k == n:
                return c
        return None

    return iroot(num) is not None and iroot(den) is not None


def test_decompose_examples():
    p = decompose(2, 1)
    assert (p.eps, p.num, p.den, p.r0_num, p.r0_den) == (1, 2, 1, 2, 1)
    assert (p.h, p.e) == (1, 0)
    assert p.kernel == 2 and p.discriminant == 8 and p.is_sqrt2

    p = decompose(4, 1)
    assert (p.r0_num, p.h, p.e, p.is_sqrt2) == (2, 2, 1, True)
    assert p.to_json_dict()["lambda"] == 1

    p = decompose(8, 27)
    assert (p.num, p.den) == (8, 27)
    assert (p.r0_num, p.r0_den, p.h, p.e) == (2, 3, 3, 0)
    assert p.kernel == 6 and p.discriminant == 24 and not p.is_sqrt2

    m = decompose(-2, 1)
    assert m.eps == -1
    for name in ("num", "den", "r0_num", "r0_den", "h", "e", "kernel"):
        assert getattr(m, name) == getattr(decompose(2, 1), name)


def test_decompose_errors():
    with pytest.raises(ZeroInputError):
        decompose(2, 0)
    with pytest.raises(ZeroInputError):
        decompose(0, 3)
    with pytest.raises(DegenerateRatioError):
        decompose(5, 5)
    with pytest.raises(DegenerateRatioError):
        decompose(-7, 7)


def test_decompose_rejects_inputs_beyond_63_bits():
    # the first pair used to hang in Brent rho
    for a, b in [((2**127 - 1) * (2**61 - 1), 3), (2**63, 1), (-(2**63), 1), (5, 2**63)]:
        with pytest.raises(InputRangeError):
            decompose(a, b)
    assert decompose(2**63 - 1, -(2**63 - 1) + 2).a == 2**63 - 1


def test_special_prime_examples():
    assert special_prime_divides(2, 1, 2) is False   # 2^k + 1 is odd
    assert special_prime_divides(3, 5, 2) is True    # odd + odd
    assert special_prime_divides(6, 10, 2) is True   # divides both
    assert special_prime_divides(6, 5, 3) is False   # 6^k + 5^k = 5^k mod 3


def test_special_prime_rejects_coprime():
    with pytest.raises(ValueError):
        special_prime_divides(6, 5, 7)


def test_special_primes_listed():
    p = decompose(6, 5)
    assert [q for q, _ in p.special_primes] == [2, 3, 5]
    assert dict(p.special_primes) == {2: False, 3: False, 5: False}
    assert p.omega_ab == 3
    p = decompose(3, 5)
    assert dict(p.special_primes) == {2: True, 3: False, 5: False}
    assert p.omega_ab == 2  # 2 is special but does not divide ab


@settings(max_examples=300, deadline=None)
@given(nonzero, nonzero)
def test_reconstruction_and_maximality(a, b):
    if abs(a) == abs(b):
        return
    p = decompose(a, b)
    # reconstruction: (r0_num/r0_den)^h = num/den exactly
    assert Fraction(p.r0_num, p.r0_den) ** p.h == Fraction(p.num, p.den)
    assert Fraction(p.num, p.den) == Fraction(abs(a), abs(b))
    # maximality: no prime q lets the exponent be raised to q*h
    for q in (2, 3, 5, 7):
        if p.h * q <= 64:
            assert not _is_rational_power(p.num, p.den, q * p.h)
    # lambda-consistency: a 2^e-th power but not a 2^(e+1)-th power
    assert p.to_json_dict()["lambda"] == p.e
    assert _is_rational_power(p.num, p.den, 1 << p.e)
    assert not _is_rational_power(p.num, p.den, 1 << (p.e + 1))
    # kernel determines the quadratic field
    assert p.is_sqrt2 == (p.kernel == 2)
    assert p.discriminant == (p.kernel if p.kernel % 4 == 1 else 4 * p.kernel)
    assert p.discriminant > 0


@settings(max_examples=200, deadline=None)
@given(nonzero, nonzero, st.integers(min_value=1, max_value=50))
def test_common_factor_invariance(a, b, c):
    if abs(a) == abs(b):
        return
    p = decompose(a, b)
    q = decompose(a * c, b * c)
    for name in ("eps", "num", "den", "r0_num", "r0_den", "h", "e",
                 "kernel", "discriminant", "is_sqrt2"):
        assert getattr(p, name) == getattr(q, name), name


def test_json_fields():
    doc = decompose(8, 27).to_json_dict()
    assert doc["lambda"] == 0
    assert doc["special_primes"] == [[2, False], [3, False]]
    assert set(doc) == {
        "a", "b", "eps", "num", "den", "r0_num", "r0_den", "h", "e",
        "lambda", "kernel", "discriminant", "is_sqrt2", "special_primes",
        "omega_ab",
    }


def test_exhaustive_reconstruction_small_grid():
    for a in range(-60, 61):
        for b in range(1, 61):
            if a == 0 or abs(a) == b:
                continue
            p = decompose(a, b)
            assert Fraction(p.r0_num, p.r0_den) ** p.h == Fraction(abs(a), b)
            exps = []
            n = p.r0_num * p.r0_den
            while n > 1:
                for q in range(2, n + 1):
                    if n % q == 0:
                        e = 0
                        while n % q == 0:
                            n //= q
                            e += 1
                        exps.append(e)
                        break
            assert math.gcd(*exps) == 1 if len(exps) > 1 else exps[0] == 1
