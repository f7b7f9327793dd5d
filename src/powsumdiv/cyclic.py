"""Cyclic-group counting formulas, their brute-force counterparts, and
explicit character tables over small prime fields.

This module is the trusted oracle layer: the formulas are cheap closed
forms, the enumerations spell out the group element by element, and the
property suites require them to agree exactly.  Group elements are
represented by exponents relative to a fixed generator, so every
computation below is integer arithmetic until a character value is
finally evaluated as a complex number.
"""

import cmath
import functools
import math

from .arith import _factorize_cached, is_prime, v2

_TWO_PI = 2.0 * math.pi


def power_subgroup_size(n: int, h: int) -> int:
    """#{g^h : g in G} = n/(n,h) for G cyclic of order n."""
    if n < 1 or h < 1:
        raise ValueError("n and h must be >= 1")
    return n // math.gcd(n, h)


def order_valuation_count(n: int, h: int, w: int) -> int:
    """Number of h-th powers in a cyclic group of order n whose order has
    2-adic valuation exactly w.

    With q = n/(n,h) and nu = v2(q): q/2^nu for w = 0, q*2^(w-1-nu) for
    1 <= w <= nu, and 0 for w > nu.
    """
    if n < 1 or h < 1:
        raise ValueError("n and h must be >= 1")
    if w < 0:
        raise ValueError("w must be >= 0")
    q = n // math.gcd(n, h)
    nu = v2(q)
    odd = q >> nu
    if w == 0:
        return odd
    if w > nu:
        return 0
    return odd << (w - 1)


def power_exponent_set(n: int, h: int) -> set[int]:
    """Exponents (mod n) of the h-th powers, {h*k mod n : 0 <= k < n}, by
    enumeration."""
    if n < 1 or h < 1:
        raise ValueError("n and h must be >= 1")
    return {hk % n for hk in range(0, h * n, h)}


def multiplicative_order(g: int, p: int) -> int:
    """Least k >= 1 with g^k == 1 mod p, for p prime and p not dividing g.

    Raises ValueError unless g^(p-1) == 1 mod p, which every unit mod a
    prime satisfies.  Given that, the order divides p-1 and the loop strips
    from p-1 every prime factor that the order lacks, so the result is
    exact for any p >= 2; a composite p passes only if it is a Fermat
    pseudoprime to base g.  Each strip proves g^order == 1, so the check
    costs a power only when nothing was stripped.
    """
    g %= p
    if g == 0:
        raise ValueError("g must be a unit mod p")
    order = p - 1
    for q, _ in _factorize_cached(p - 1):
        while order % q == 0 and pow(g, order // q, p) == 1:
            order //= q
    if order == p - 1 and pow(g, order, p) != 1:
        raise ValueError(f"{g}^{p - 1} != 1 mod {p}: the modulus is not prime")
    return order


def find_primitive_root(p: int) -> int:
    """Smallest primitive root mod an odd prime p."""
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    factors = [q for q, _ in _factorize_cached(p - 1)]
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise ArithmeticError(f"no primitive root found mod {p}")  # unreachable


class CharacterTable:
    """The full character group of (Z/pZ)* for a small odd prime p.

    Characters are indexed by j in [0, p-1): chi_j(g0^k) = e^(2*pi*i*j*k/(p-1))
    for the fixed primitive root g0.  Exponent arithmetic stays exact;
    complex values appear only when a character is finally evaluated.
    """

    def __init__(self, p: int):
        self.p = p
        self.g0 = find_primitive_root(p)
        n = self.n = p - 1
        dlog = [0] * p
        acc = 1
        for k in range(n):
            dlog[acc] = k
            acc = acc * self.g0 % p
        self._dlog = dlog

    @functools.cached_property
    def _roots(self) -> list[complex]:
        """e^(2*pi*i*k/(p-1)) for k in [0, p-1)."""
        n = self.n
        return [cmath.exp(1j * _TWO_PI * k / n) for k in range(n)]

    @functools.cached_property
    def _by_order(self) -> dict[int, list[int]]:
        """The indices j of the characters of each order d = n/gcd(j, n), ascending."""
        n = self.n
        groups: dict[int, list[int]] = {}
        for j in range(n):
            groups.setdefault(n // math.gcd(j, n), []).append(j)
        return groups

    def dlog(self, g: int) -> int:
        """Discrete logarithm of g to base g0."""
        g %= self.p
        if g == 0:
            raise ValueError("g must be a unit mod p")
        return self._dlog[g]

    def chi(self, j: int, g: int) -> complex:
        """chi_j(g) as a unit complex number: the one-character reference that
        tests hold verify._row_sums and the character laws to."""
        k = self.dlog(g)
        return self._roots[j * k % self.n]

    def group_index(self, g: int) -> int:
        """[(Z/pZ)* : <g>] = gcd(dlog(g), p-1)."""
        return math.gcd(self.dlog(g), self.n)

    def order_sum(self, d: int, g: int) -> complex:
        """Sum of chi(g) over the phi(d) characters of exact order d | p-1."""
        if self.n % d != 0:
            raise ValueError(f"{d} does not divide p-1 = {self.n}")
        k = self.dlog(g)
        n, roots = self.n, self._roots
        total = 0j
        for j in self._by_order[d]:
            total += roots[j * k % n]
        return total


@functools.lru_cache(maxsize=512)
def character_table(p: int) -> CharacterTable:
    return CharacterTable(p)


def rational_mod(num: int, den: int, p: int) -> int:
    """num/den as an element of (Z/pZ)*; requires p coprime to den."""
    return num % p * pow(den % p, -1, p) % p
