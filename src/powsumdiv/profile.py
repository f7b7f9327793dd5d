"""Decomposition of an integer pair (a, b) into the invariants of the
ratio r = a/b that drive every counting function in the package.

For r != +-1 written in lowest terms as eps * num/den, the profile holds
the maximal-root decomposition |r| = r0**h (h as large as possible), its
2-part e = v2(h), the squarefree kernel of r0 (which determines the real
quadratic field Q(sqrt r0) and its discriminant), and the finite list of
"special" primes p | 2ab that the generic order-parity criterion does not
cover.
"""

import math
from dataclasses import dataclass

from .arith import _factorize_cached, squarefree_kernel, v2


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


def special_prime_divides(a: int, b: int, p: int) -> bool:
    """Does p | 2ab divide a^k + b^k for some k >= 1?

    Decidable without search: if p divides both a and b it divides every
    term; if it divides exactly one of them, every term is a nonzero
    residue; p = 2 divides iff a and b are both odd (then every term is
    even) or both even.
    """
    if a == 0 or b == 0:
        raise ZeroInputError("a and b must be nonzero")
    da, db = a % p == 0, b % p == 0
    if not (da or db or p == 2):
        raise ValueError(f"{p} does not divide 2ab")
    if da and db:
        return True
    if da or db:
        return False
    # here p = 2 with a, b both odd
    return True


def decompose(a: int, b: int) -> BaseProfile:
    """Build the BaseProfile of r = a/b.

    Raises ZeroInputError if a*b = 0, InputRangeError if |a| or |b| is
    2^63 or more, and DegenerateRatioError if |a| = |b|.
    """
    if a == 0 or b == 0:
        raise ZeroInputError("a and b must be nonzero")
    if abs(a) >= MAX_INPUT or abs(b) >= MAX_INPUT:
        raise InputRangeError("|a| and |b| must be < 2^63")
    if abs(a) == abs(b):
        raise DegenerateRatioError("ratio is +-1")
    eps = 1 if (a > 0) == (b > 0) else -1
    g = math.gcd(abs(a), abs(b))
    num, den = abs(a) // g, abs(b) // g

    fac_num = _factorize_cached(num) if num > 1 else ()
    fac_den = _factorize_cached(den) if den > 1 else ()
    h = 0
    for _, ex in fac_num + fac_den:
        h = math.gcd(h, ex)
    r0_num = math.prod(p ** (ex // h) for p, ex in fac_num)
    r0_den = math.prod(p ** (ex // h) for p, ex in fac_den)
    e = v2(h)

    kernel = squarefree_kernel(r0_num * r0_den)
    disc = kernel if kernel % 4 == 1 else 4 * kernel

    specials = {2}
    if abs(a) > 1:
        specials.update(p for p, _ in _factorize_cached(abs(a)))
    if abs(b) > 1:
        specials.update(p for p, _ in _factorize_cached(abs(b)))
    special_primes = tuple(
        (p, special_prime_divides(a, b, p)) for p in sorted(specials)
    )
    # 2 is always special (it divides 2ab) but only counts toward omega(ab)
    # when ab is even
    omega_ab = len(specials) - (0 if a % 2 == 0 or b % 2 == 0 else 1)

    return BaseProfile(
        a=a, b=b, eps=eps, num=num, den=den,
        r0_num=r0_num, r0_den=r0_den, h=h, e=e,
        kernel=kernel, discriminant=disc, is_sqrt2=(kernel == 2),
        special_primes=special_primes, omega_ab=omega_ab,
    )
