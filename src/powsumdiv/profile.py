"""Decomposition of an integer pair (a, b) into the invariants of the
ratio r = a/b that drive every counting function in the package.

For r != +-1 written in lowest terms as eps * num/den, the profile holds
the maximal-root decomposition |r| = r0**h (h as large as possible), its
2-part e = v2(h), the squarefree kernel of r0 (which determines the real
quadratic field Q(sqrt r0) and its discriminant), and the finite list of
"special" primes p | 2ab that the generic order-parity criterion does not
cover.

All of these are read off the prime exponents of a and b: decompose
factors |a| and |b| and nothing else, so every pair below 2^63 decomposes
in the time of two 63-bit factorisations.
"""

import math
from dataclasses import dataclass

from .arith import _factorize_cached, _int_arg, v2


class ZeroInputError(ValueError):
    """a or b is zero."""


class DegenerateRatioError(ValueError):
    """|a| = |b|, i.e. r = +-1; the sequence a^k + b^k degenerates."""


class InputRangeError(ValueError):
    """|a| or |b| is 2^63 or more, outside the supported range."""


# The supported input range: |a|, |b| < 2^63, so both fit a signed 64-bit
# integer and every factorisation stays in the deterministic range.
MAX_INPUT = 1 << 63


@dataclass(frozen=True)
class BaseProfile:
    a: int
    b: int
    eps: int                 # sign of a/b
    num: int                 # |a/b| = num/den in lowest terms
    den: int
    r0_num: int              # |a/b| = (r0_num/r0_den)**h with h maximal
    r0_den: int
    h: int
    e: int                   # v2(h)
    kernel: int              # squarefree kernel of r0_num*r0_den
    discriminant: int        # of Q(sqrt kernel)
    is_sqrt2: bool           # kernel == 2
    special_primes: tuple[tuple[int, bool], ...]  # (p, p divides the sequence)
    omega_ab: int            # number of distinct primes dividing ab

    def to_json_dict(self) -> dict:
        d = {
            "a": self.a, "b": self.b, "eps": self.eps,
            "num": self.num, "den": self.den,
            "r0_num": self.r0_num, "r0_den": self.r0_den,
            "h": self.h, "e": self.e,
            # the largest j with |r| a 2**j-th rational power, which is e
            "lambda": self.e,
            "kernel": self.kernel, "discriminant": self.discriminant,
            "is_sqrt2": self.is_sqrt2,
            "special_primes": [[p, div] for p, div in self.special_primes],
            "omega_ab": self.omega_ab,
        }
        return d


def decompose(a: int, b: int) -> BaseProfile:
    """Build the BaseProfile of r = a/b.

    Raises ZeroInputError if a*b = 0, InputRangeError if |a| or |b| is
    2^63 or more, and DegenerateRatioError if |a| = |b|.  A float a or b
    raises ValueError.
    """
    a, b = _int_arg("a", a), _int_arg("b", b)
    if a == 0 or b == 0:
        raise ZeroInputError("a and b must be nonzero")
    if abs(a) >= MAX_INPUT or abs(b) >= MAX_INPUT:
        raise InputRangeError("|a| and |b| must be < 2^63")
    if abs(a) == abs(b):
        raise DegenerateRatioError("ratio is +-1")
    eps = 1 if (a > 0) == (b > 0) else -1
    fac_a, fac_b = dict(_factorize_cached(abs(a))), dict(_factorize_cached(abs(b)))
    primes = sorted(fac_a.keys() | fac_b.keys())

    # |r| = prod p^v(p) with v(p) = v_p(a) - v_p(b), not all 0 as |a| != |b|
    v = {p: fac_a.get(p, 0) - fac_b.get(p, 0) for p in primes}
    h = math.gcd(*v.values())
    num = math.prod(p**ex for p, ex in v.items() if ex > 0)
    den = math.prod(p**-ex for p, ex in v.items() if ex < 0)
    r0_num = math.prod(p ** (ex // h) for p, ex in v.items() if ex > 0)
    r0_den = math.prod(p ** (-ex // h) for p, ex in v.items() if ex < 0)
    # r0_num * r0_den = prod p^|v(p)/h|: its kernel needs no factorisation
    kernel = math.prod(p for p, ex in v.items() if ex // h % 2)
    disc = kernel if kernel % 4 == 1 else 4 * kernel

    # A special prime p | 2ab divides every a^k + b^k if it divides both a
    # and b, and none if it divides exactly one; p = 2 dividing neither
    # divides every term, a sum of two odd numbers.
    special_primes = tuple((p, (p in fac_a) == (p in fac_b)) for p in sorted({2, *primes}))

    return BaseProfile(
        a=a, b=b, eps=eps, num=num, den=den,
        r0_num=r0_num, r0_den=r0_den, h=h, e=v2(h),
        kernel=kernel, discriminant=disc, is_sqrt2=(kernel == 2),
        special_primes=special_primes, omega_ab=len(primes),
    )
