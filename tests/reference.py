"""Scalar Python-int and Python-float references for the two computations
behind every sweep: the (s, t, Legendre) class of one prime and Li(x).

The package computes both in one batched numpy path each (the segment
kernel census._classify and arith.log_integrals).  The tests hold those
paths equal to the derivations here, which share no code with them:

* classify_prime takes t from r = a/b itself, by squaring r raised to the
  odd part of p - 1 until it is 1, and the Legendre symbol of r0 from
  Euler's criterion.  It takes p as a prime, as the sieve gives it: it
  makes no primality test.
* log_integral is the adaptive Simpson recursion, one node at a time, with
  every log from ``math.log``.  The batched walk must give its bits.
"""

import itertools
import math

from powsumdiv.arith import v2
from powsumdiv.census import InternalInconsistencyError
from powsumdiv.cyclic import rational_mod
from powsumdiv.profile import BaseProfile


def classify_prime(profile: BaseProfile, p: int) -> tuple[int, int | None, int | None, bool]:
    """Order-parity data (s, t, leg, divides) of one prime p <= 2^40
    against a profile: s = v2(p-1), t = v2 of the order of r = a/b mod p,
    leg the Legendre symbol (+-1) of r0 at p, and whether p divides some
    a^k + b^k.  For p | 2ab, t and leg are None.  p is taken to be prime.
    """
    a, b, s = profile.a, profile.b, v2(p - 1)
    if p == 2 or a % p == 0 or b % p == 0:
        # p | 2ab, so decompose() has already decided it
        return s, None, None, dict(profile.special_primes)[p]
    y = pow(rational_mod(a, b, p), (p - 1) >> s, p)
    # r^(p-1) = 1, so y reaches 1 within s squarings
    for t in range(s + 1):
        if y == 1:
            break
        y = y * y % p
    else:
        raise InternalInconsistencyError(f"r^(p-1) != 1 mod {p}")
    leg = 1 if pow(profile.r0_num * profile.r0_den % p, (p - 1) >> 1, p) == 1 else -1
    return s, t, leg, t >= 1


# Li(x) is adaptive Simpson from 2 with an absolute tolerance: trees of
# depth at most _LI_DEPTH, the tolerance cut tenfold (by the same float
# multiplication each time) up to six times until two estimates agree.
_LI_DEPTH = 60
_LI_TOLS = tuple(itertools.accumulate(range(6), lambda tol, _: tol * 0.1, initial=1e-6))


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
    return _adaptive_simpson(a, fa, b, fb, whole, fm, tol, _LI_DEPTH)


def _li_converged(prev: float, cur: float) -> bool:
    return abs(cur - prev) <= 1e-9 * abs(cur)


def log_integral(x: float) -> float:
    """Li(x) = integral of dt/log t from 2 to x, by adaptive Simpson, for a
    finite x >= 2.

    The absolute tolerance starts at 1e-6 and is cut tenfold, at most six
    times, until two successive estimates agree to 1e-9 relative.  Because
    the tolerance is absolute, the cost grows with x, though not
    monotonically: on a 2-core VM one call took 0.30 s at 5e10, 30 s at
    3e11 and 1.3 s at 2^40 - 1.
    """
    x = float(x)
    if x == 2:
        return 0.0
    prev = _li_once(x, _LI_TOLS[0])
    for tol in _LI_TOLS[1:]:
        cur = _li_once(x, tol)
        if _li_converged(prev, cur):
            return cur
        prev = cur
    return prev
