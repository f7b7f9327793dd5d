"""Mathematics for checking powsumdiv, computed from sympy and mpmath alone.

Nothing here imports powsumdiv.  The invariants of a pair come from a sympy
factorisation, the order of r = a/b mod p from sympy's ``n_order``, the
Legendre symbol from sympy, and the heuristic counts from the paper's local
weights summed here.  The benchmark compares the program's outputs with
these values; it never compares the program with itself.
"""

import math
from fractions import Fraction

from sympy import factorint
from sympy.functions.combinatorial.numbers import legendre_symbol, primepi
from sympy.ntheory import n_order


def v2(n: int) -> int:
    return (n & -n).bit_length() - 1


def special_divides(a: int, b: int, p: int) -> bool:
    """Does p | 2ab divide some a^k + b^k?  If p divides both a and b it
    divides every term; if it divides exactly one, no term; p = 2 dividing
    neither means a and b are odd, so every term is even."""
    da, db = a % p == 0, b % p == 0
    return da == db


def invariants(a: int, b: int) -> dict:
    """The fields of ``powsumdiv profile a b``, from sympy factorisations."""
    eps = 1 if (a > 0) == (b > 0) else -1
    g = math.gcd(a, b)
    num, den = abs(a) // g, abs(b) // g
    fac_num, fac_den = factorint(num), factorint(den)
    h = 0
    for ex in (*fac_num.values(), *fac_den.values()):
        h = math.gcd(h, ex)
    r0_num = math.prod(p ** (ex // h) for p, ex in fac_num.items())
    r0_den = math.prod(p ** (ex // h) for p, ex in fac_den.items())
    # num and den are coprime, so the kernel of r0_num * r0_den is the
    # product of the primes with an odd exponent in either
    kernel = math.prod(p for p, ex in (*fac_num.items(), *fac_den.items())
                       if (ex // h) % 2)
    specials = sorted(factorint(abs(2 * a * b)))
    return {
        "a": a, "b": b, "eps": eps, "num": num, "den": den,
        "r0_num": r0_num, "r0_den": r0_den, "h": h, "e": v2(h), "lambda": v2(h),
        "kernel": kernel,
        "discriminant": kernel if kernel % 4 == 1 else 4 * kernel,
        "is_sqrt2": kernel == 2,
        "special_primes": [[p, special_divides(a, b, p)] for p in specials],
        "omega_ab": len(factorint(abs(a * b))),
    }


def dividing_specials_upto(inv: dict, x: int) -> int:
    """Special primes p <= x that divide the sequence."""
    return sum(1 for p, div in inv["special_primes"] if div and p <= x)


def specials_upto(inv: dict, x: int) -> int:
    return sum(1 for p, _ in inv["special_primes"] if p <= x)


def local_weights(e: int, eps: int, s: int, leg: int) -> tuple[Fraction, Fraction]:
    """The paper's naive and refined local weights of a generic prime with
    v2(p-1) = s and Legendre symbol leg of the maximal root r0."""
    if s <= e:
        w = Fraction(1 + eps, 2)
        return w, w
    k1 = Fraction(1, 1 << (s - e))
    if s == e + 1:
        return k1, Fraction(1 + eps * leg, 2)
    return k1, Fraction(1 + leg, 1 << (s - e))


def counts(a: int, b: int, checkpoints: list[int], primes) -> list[dict]:
    """pi, n_exact, h1 and h2 at each checkpoint (ascending), from the
    ascending prime iterable ``primes`` covering at least the last one."""
    inv = invariants(a, b)
    e, eps = inv["e"], inv["eps"]
    r0 = inv["r0_num"] * inv["r0_den"]
    special = dict(inv["special_primes"])
    out = []
    pi = pi_generic = n_exact = 0
    k1 = k2 = Fraction(0)
    pending = iter(checkpoints)
    x = next(pending)

    def snapshot(x):
        if primepi(x) != pi:
            raise RuntimeError(f"sympy primepi({x}) != {pi} primes counted")
        out.append({"x": x, "pi": pi, "n_exact": n_exact,
                    "h1": pi_generic - k1, "h2": pi_generic - k2})

    for p in primes:
        while x is not None and p > x:
            snapshot(x)
            x = next(pending, None)
        if x is None:
            break
        pi += 1
        if p in special:
            n_exact += special[p]
            continue
        pi_generic += 1
        r = a * pow(b, -1, p) % p
        if n_order(r, p) % 2 == 0:
            n_exact += 1
        s = v2(p - 1)
        leg = int(legendre_symbol(r0 % p, p))
        w1, w2 = local_weights(e, eps, s, leg)
        k1 += w1
        k2 += w2
    while x is not None:
        snapshot(x)
        x = next(pending, None)
    return out
