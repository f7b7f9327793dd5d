"""Exact integer primitives: valuations, primality, factorization,
multiplicative functions, and the logarithmic integral.

Everything here is a pure function; results for the multiplicative
functions are derived from the complete factorization, never from
floating point.
"""

import functools
import math

# A factorization is a list of (prime, exponent) pairs, primes strictly
# increasing, exponents >= 1.
Factorization = list[tuple[int, int]]

# Witness set making Miller-Rabin deterministic for all n < 3.18e23,
# in particular for the full 64-bit range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# _MR_PSI[k-1] is the least odd composite that passes the first k bases
# (OEIS A014233), so below it those k bases already decide primality.
_MR_PSI = (2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
           3_474_749_660_383, 341_550_071_728_321, 341_550_071_728_321,
           3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
           3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461)

# Trial division stops here; Brent's rho splits what is left.
_TRIAL_LIMIT = 1 << 10


def v2(n: int) -> int:
    """2-adic valuation of n != 0, via the low set bit."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    return (n & -n).bit_length() - 1


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2**64 (no randomness)."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = v2(d)
    d >>= s
    for a, psi in zip(_MR_BASES, _MR_PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    return True


def _brent_rho(n: int) -> int:
    """Nontrivial factor of composite odd n (Brent's cycle variant).

    Deterministic: the polynomial offset c is bumped on failure instead of
    being drawn at random, so factorizations are reproducible.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, r, q = 2, 1, 1
        g, x, ys = 1, 0, 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # unreachable in 64-bit range


def _factor_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _brent_rho(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


def factorize(n: int) -> Factorization:
    """Complete prime factorization of n >= 2.

    Trial division up to min(sqrt(n), 2**10); any remaining cofactor is
    certified prime by Miller-Rabin or split with Brent's rho.
    """
    if n < 2:
        raise ValueError("factorize requires n >= 2")
    return list(_factorize_cached(n))


@functools.lru_cache(maxsize=1 << 16)
def _factorize_cached(n: int) -> tuple[tuple[int, int], ...]:
    fac: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n and d <= _TRIAL_LIMIT:
        for q in (d, d + 2):  # 6k+5, 6k+7
            while n % q == 0:
                fac[q] = fac.get(q, 0) + 1
                n //= q
        d += 6
    if n > 1:
        if d * d > n:
            # trial division reached sqrt(n), so the cofactor is prime
            fac[n] = fac.get(n, 0) + 1
        else:
            _factor_into(n, fac)
    return tuple(sorted(fac.items()))


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("phi requires n >= 1")
    if n == 1:
        return 1
    out = 1
    for p, ex in _factorize_cached(n):
        out *= (p - 1) * p ** (ex - 1)
    return out


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("mu requires n >= 1")
    if n == 1:
        return 1
    fac = _factorize_cached(n)
    if any(ex > 1 for _, ex in fac):
        return 0
    return -1 if len(fac) & 1 else 1


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError("divisors requires n >= 1")
    out = [1]
    if n > 1:
        for p, ex in _factorize_cached(n):
            out = [d * p**k for d in out for k in range(ex + 1)]
    out.sort()
    return out


def _adaptive_simpson(a: float, fa: float, b: float, fb: float,
                      whole: float, fm: float, tol: float, depth: int) -> float:
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = 1.0 / math.log(lm), 1.0 / math.log(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return (_adaptive_simpson(a, fa, m, fm, left, flm, 0.5 * tol, depth - 1)
            + _adaptive_simpson(m, fm, b, fb, right, frm, 0.5 * tol, depth - 1))


def _li_once(x: float, tol: float) -> float:
    a, b = 2.0, float(x)
    fa, fb = 1.0 / math.log(a), 1.0 / math.log(b)
    m = 0.5 * (a + b)
    fm = 1.0 / math.log(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(a, fa, b, fb, whole, fm, tol, 60)


def log_integral(x: float) -> float:
    """Li(x) = integral of dt/log t from 2 to x, by adaptive Simpson.

    The tolerance is tightened until two successive estimates agree to
    1e-9 relative.
    """
    if x < 2:
        raise ValueError("log_integral requires x >= 2")
    if x == 2:
        return 0.0
    tol = 1e-6
    prev = _li_once(x, tol)
    for _ in range(6):
        tol *= 0.1
        cur = _li_once(x, tol)
        if abs(cur - prev) <= 1e-9 * abs(cur):
            return cur
        prev = cur
    return prev
