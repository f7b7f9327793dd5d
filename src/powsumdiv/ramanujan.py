"""Ramanujan sums c_n(m) in exact integer arithmetic.

c_n(m) = sum of e^(2*pi*i*k*m/n) over 1 <= k <= n with gcd(k, n) = 1.
All values here come from Holder's identity in multiplicative form,
    c_n(m) = prod over p^e || n of c_{p^e}(m),
where c_{p^e}(m) is phi(p^e) if p^e | m, -p^(e-1) if p^(e-1) || m and 0
otherwise, so one factorisation of n gives the value; the complex
definition never enters the computation and exists only as a test oracle.
"""

from fractions import Fraction

import numpy as np

from .arith import _factorize_cached, divisors, v2


def ramanujan_c(n: int, m):
    """c_n(m) for n >= 1, m >= 0, via Holder's identity (m = 0 gives phi(n)).

    m is a Python int, which gives a Python int, or an int64 array, which
    gives an int64 array lane by lane: each prime power p^e || n multiplies
    in its factor through the masks p^e | m and p^(e-1) | m, which the same
    expressions compute for either type.  An array m of another dtype, or
    with n >= 2^63, raises ValueError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    array = isinstance(m, np.ndarray)
    if array and (m.dtype != np.int64 or n >= 1 << 63):
        raise ValueError("an array m must be int64, with n that fits int64")
    if (m < 0).any() if array else m < 0:
        raise ValueError("m must be >= 0")
    out = np.ones_like(m) if array else 1
    for p, e in _factorize_cached(n):
        low = p ** (e - 1)
        full, part = m % (low * p) == 0, m % low == 0
        out *= full * (low * (p - 1)) - (part ^ full) * low
    return out


def ramanujan_c_2pow(v: int, t: int) -> int:
    """c_{2^v}(t) from the 2-adic valuation of t alone.

    Piecewise: 0 if v2(t) < v-1, -phi(2^v) if v2(t) = v-1, +phi(2^v) if
    v2(t) >= v.  t = 0 is treated as v2(t) = infinity.
    """
    if v < 0:
        raise ValueError("v must be >= 0")
    if t < 0:
        raise ValueError("t must be >= 0")
    if v == 0:
        return 1
    phi = 1 << (v - 1)
    if t == 0:
        return phi
    nu = v2(t)
    if nu >= v:
        return phi
    if nu == v - 1:
        return -phi
    return 0


def divisor_indicator(n: int, m):
    """(1/n) * sum of c_d(m) over d | n: exactly 1 if n | m, else 0.

    For an int64 array m it returns the sums themselves, n times the
    indicator, as an int64 array, so that they stay exact integers.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = sum(ramanujan_c(d, m) for d in divisors(n))
    return total if isinstance(m, np.ndarray) else Fraction(total, n)
