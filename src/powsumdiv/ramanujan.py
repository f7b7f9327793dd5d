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

from .arith import _factorize_cached, _int64_lanes, _int_arg, divisors, v2


def ramanujan_c(n: int, m):
    """c_n(m) for n >= 1, m >= 0, via Holder's identity (m = 0 gives phi(n)).

    m is an integer, which gives a Python int, or an array of integers,
    which gives an int64 array lane by lane: each prime power p^e || n
    multiplies in its factor through the masks p^e | m and p^(e-1) | m,
    which the same expressions compute for either type.  A numpy integer
    n or m is taken as a Python int.  A float n or m, or an array m with m
    or n past int64, raises ValueError.
    """
    n = _int_arg("n", n)
    if n < 1:
        raise ValueError("n must be an integer >= 1")
    array = isinstance(m, np.ndarray)
    if array:
        m, _ = _int64_lanes("an array m and n", m, n)
    else:
        m = _int_arg("m", m)
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
    v, t = _int_arg("v", v), _int_arg("t", t)
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

    For an array m it returns the sums themselves, n times the
    indicator, as an int64 array, so that they stay exact integers.
    """
    n = _int_arg("n", n)
    if n < 1:
        raise ValueError("n must be an integer >= 1")
    total = sum(ramanujan_c(d, m) for d in divisors(n))
    return total if isinstance(m, np.ndarray) else Fraction(total, n)
