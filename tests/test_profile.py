"""Ratio decomposition: examples, reconstruction, maximality, scaling."""

import math
import signal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from powsumdiv.profile import (
    DegenerateRatioError,
    InputRangeError,
    ZeroInputError,
    decompose,
)

nonzero = st.integers(min_value=-10**4, max_value=10**4).filter(lambda n: n != 0)

# primes of 31 to 61 bits, beyond the reach of trial division
LARGE_PRIMES = [2**31 - 1, 2**61 - 1, 1520995978549360837, 22131189333142891]


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
    # a float built a profile of floats: decompose(2.0, 1).kernel was 2.0
    for a, b in [(2.0, 1), (2, 1.5)]:
        with pytest.raises(ValueError):
            decompose(a, b)
    assert decompose(np.int64(-4), np.int64(1)) == decompose(-4, 1)


def test_decompose_rejects_inputs_beyond_63_bits():
    # the first pair used to hang in Brent rho
    for a, b in [((2**127 - 1) * (2**61 - 1), 3), (2**63, 1), (-(2**63), 1), (5, 2**63)]:
        with pytest.raises(InputRangeError):
            decompose(a, b)
    assert decompose(2**63 - 1, -(2**63 - 1) + 2).a == 2**63 - 1


def test_special_prime_examples():
    assert dict(decompose(2, 1).special_primes)[2] is False   # 2^k + 1 is odd
    assert dict(decompose(3, 5).special_primes)[2] is True    # odd + odd
    assert dict(decompose(6, 10).special_primes)[2] is True   # divides both
    assert dict(decompose(6, 5).special_primes)[3] is False   # 6^k + 5^k = 5^k mod 3


def test_special_prime_rejects_coprime():
    # no prime coprime to 2ab is ever listed as special
    for a in range(-30, 31):
        for b in range(1, 31):
            if a and abs(a) != b:
                assert all(2 * a * b % p == 0 for p, _ in decompose(a, b).special_primes)


def _alarm(signum, frame):
    raise TimeoutError("decompose did not return within 10 s")


def test_decompose_two_large_prime_factors():
    # a = 2 * 1520995978549360837 and b = 3 * 5 * 13 * 22131189333142891:
    # the kernel of r0 is a 124-bit product, which must not be factored
    p1, p2 = 1520995978549360837, 22131189333142891
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(10)
    try:
        p = decompose(3041991957098721674, 4315581919962863745)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert p.h == 1
    assert p.kernel == 2 * 3 * 5 * 13 * p1 * p2
    assert p.special_primes == tuple((q, False) for q in (2, 3, 5, 13, p2, p1))


def _small_primes(n: int) -> set[int]:
    return {q for q in range(2, n + 1) if n % q == 0 and all(q % d for d in range(2, q))}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64), st.sampled_from(LARGE_PRIMES), st.integers(0, 2),
       st.integers(1, 64), st.sampled_from(LARGE_PRIMES), st.integers(0, 2),
       st.sampled_from((-1, 1)))
def test_decompose_large_prime_pairs(u, big_p, i, v, big_q, j, sign):
    a, b = sign * u * big_p**i, v * big_q**j
    assume(abs(a) < 2**63 and b < 2**63 and abs(a) != b)
    p = decompose(a, b)
    assert Fraction(p.r0_num, p.r0_den) ** p.h == Fraction(p.num, p.den) == Fraction(abs(a), b)

    known = _small_primes(u) | _small_primes(v) | {q for q, k in ((big_p, i), (big_q, j)) if k}
    rest = p.kernel
    for q in known:
        assert rest % (q * q) != 0
        if rest % q == 0:
            rest //= q
    assert rest == 1  # squarefree, and only known primes divide it
    square, remainder = divmod(p.r0_num * p.r0_den, p.kernel)
    assert remainder == 0 and math.isqrt(square) ** 2 == square

    assert [q for q, _ in p.special_primes] == sorted(known | {2})
    for q, divides in p.special_primes:
        assert divides == ((a % q == 0) == (b % q == 0))
    assert p.omega_ab == len(known)


def test_kernel_square_invariance():
    # a non-square |r| has odd h, so Q(sqrt r0) = Q(sqrt r): the kernel of
    # r0 is that of |r|, which square factors leave unchanged
    for n in range(2, 101):
        if math.isqrt(n) ** 2 == n:
            continue
        for k in range(1, 101):
            assert decompose(n * k * k, 1).kernel == decompose(n, 1).kernel


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
