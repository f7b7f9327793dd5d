"""Cyclic-group counting formulas, their brute-force counterparts, and
explicit character tables over small prime fields.

This module is the trusted oracle layer: the formulas are cheap closed
forms, the enumerations spell out the group element by element, and the
property suites require them to agree exactly.  Group elements are
represented by exponents relative to a fixed generator, so every
computation below is integer arithmetic until a character value is
finally evaluated as a complex number.  The integer primitives come from
arith, which owns them: the trial primes and the trial bound that
_prime_factor_table divides by, the array valuation _v2, the lane-wise
modular power _pow_mod that multiplicative_order strips with and its
bound MAX_X = 2^40, and the input checks _int_arg and _int64_lanes.
"""

import cmath
import functools
import math

import numpy as np

from .arith import (
    MAX_X,
    _TRIAL_BOUND,
    _TRIAL_PRIMES,
    _factorize_cached,
    _int64_lanes,
    _int_arg,
    _pow_mod,
    _v2,
    is_prime,
)

_TWO_PI = 2.0 * math.pi


def power_subgroup_size(n: int, h: int) -> int:
    """#{g^h : g in G} = n/(n,h) for G cyclic of order n."""
    n, h = _int_arg("n", n), _int_arg("h", h)
    if n < 1 or h < 1:
        raise ValueError("n and h must be >= 1")
    return n // math.gcd(n, h)


def order_valuation_count(n, h, w):
    """Number of h-th powers in a cyclic group of order n whose order has
    2-adic valuation exactly w, lane by lane over integer arrays n, h and w
    (scalars broadcast) in int64.  Python ints give a Python int.

    With q = n/(n,h) and nu = v2(q): q/2^nu for w = 0, q*2^(w-1-nu) for
    1 <= w <= nu, and 0 for w > nu.
    """
    n, h, w = _int64_lanes("n, h and w", n, h, w)
    if (n < 1).any() or (h < 1).any():
        raise ValueError("n and h must be >= 1")
    if (w < 0).any():
        raise ValueError("w must be >= 0")
    q = n // np.gcd(n, h)
    nu = _v2(q)
    odd = q >> nu
    # w - 1 clipped into [0, nu]: odd for w = 0, and no shift past nu
    count = np.where(w > nu, 0, odd << np.minimum(np.maximum(w - 1, 0), nu))
    return int(count) if not count.shape else count


def power_exponent_set(n: int, h):
    """Exponents (mod n) of the h-th powers, {h*k mod n : 0 <= k < n}, by
    enumeration: a set for an int h.  For an integer array of h, a boolean
    matrix with one row per h, whose column j says whether j is in the set.
    The products h*k mod n are scattered into the rows; no gcd is taken."""
    if n < 1 or np.any(np.asarray(h) < 1):
        raise ValueError("n and h must be >= 1")
    hs = np.atleast_1d(_int64_lanes("n and h", n, h % n)[1])
    cells = hs[:, None] * np.arange(n) % n
    cells += np.arange(0, hs.size * n, n)[:, None]  # row i starts at cell i*n
    rows = np.zeros((hs.size, n), dtype=bool)
    rows.ravel()[cells.ravel()] = True
    return rows if np.ndim(h) else set(np.flatnonzero(rows[0]).tolist())


def _prime_factor_table(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct prime factors of each n >= 1 of an int64 array, one row
    per lane, ascending and padded with 1, and how many there are per lane.

    Trial division by arith's trial primes d, each on the lanes whose
    cofactor is still >= d^2: a cofactor below d^2 has no prime factor
    below d, so it is 1 or prime.  So is any cofactor left below
    arith._TRIAL_BOUND; one at or above it is factored by
    arith._factorize_cached, lane by lane, the same decision as there."""
    rem = n.copy()
    table = np.ones((n.size, 15), dtype=np.int64)  # 47# < 2^63 < 53#: an int64 has <= 15 primes
    counts = np.zeros(n.size, dtype=np.int64)

    def add(lanes, q):
        table[lanes, counts[lanes]] = q
        counts[lanes] += 1

    live = np.arange(n.size)
    for d in _TRIAL_PRIMES:
        live = live[rem[live] >= d * d]
        if not live.size:
            break
        lanes = live[rem[live] % d == 0]
        if lanes.size:
            add(lanes, d)
        while lanes.size:
            rem[lanes] //= d
            lanes = lanes[rem[lanes] % d == 0]
    prime = (rem > 1) & (rem < _TRIAL_BOUND)
    add(np.flatnonzero(prime), rem[prime])
    for i in np.flatnonzero(rem >= _TRIAL_BOUND).tolist():
        for q, _ in _factorize_cached(int(rem[i])):
            add(i, q)
    return table[:, :counts.max(initial=0)], counts


def multiplicative_order(g, p):
    """Least k >= 1 with g^k == 1 mod p, lane by lane over integer arrays g
    and p (scalars broadcast) in int64, for p prime and p not dividing g.
    A Python int pair gives a Python int.

    Raises ValueError unless 2 <= p < 2^40 (arith.MAX_X), g is a unit and
    g^(p-1) == 1 mod p, which every unit mod a prime satisfies; the message
    names the first offending lane.  Given that, the order divides p-1:
    from order = p-1, each prime q of the full factorisation of p-1 is
    stripped while g^(order/q) == 1, so the result is exact for any p >= 2,
    and a composite p passes only if it is a Fermat pseudoprime to base g.
    Each round takes one power (arith._pow_mod) on every lane still
    stripping, with exponents that differ lane by lane.  Each strip proves
    g^order == 1, so the check costs a power only on the lanes where
    nothing was stripped.
    """
    g, p = np.broadcast_arrays(*_int64_lanes("g and p", g, p))
    shape, g, p = g.shape, g.ravel(), p.ravel()
    bad = np.flatnonzero((p < 2) | (p >= MAX_X))
    if bad.size:
        i = bad[0]
        raise ValueError(f"p must lie in [2, 2^40): p = {p[i]} at lane {i}")
    g = g % p
    bad = np.flatnonzero(g == 0)
    if bad.size:
        i = bad[0]
        raise ValueError(f"g must be a unit mod p: g = {g[i]}, p = {p[i]} at lane {i}")
    order = p - 1
    factors, counts = _prime_factor_table(order)
    slot = np.zeros_like(counts)   # the index of the prime each lane strips
    live = np.flatnonzero(counts)
    while live.size:
        q = factors[live, slot[live]]
        hit = _pow_mod(g[live], order[live] // q, p[live]) == 1
        order[live[hit]] //= q[hit]
        # a lane moves on to its next prime once q no longer divides its order,
        # so each round divides its order by q >= 2 or moves it on: at most
        # log2(p) + 15 rounds per lane
        slot[live[~hit | (order[live] % q != 0)]] += 1
        live = live[slot[live] < counts[live]]
    whole = np.flatnonzero(order == p - 1)
    bad = whole[_pow_mod(g[whole], order[whole], p[whole]) != 1]
    if bad.size:
        i = bad[0]
        raise ValueError(f"{g[i]}^{p[i] - 1} != 1 mod {p[i]}: the modulus is not prime "
                         f"(lane {i})")
    return int(order[0]) if not shape else order.reshape(shape)


def find_primitive_root(p: int) -> int:
    """Smallest primitive root mod an odd prime p."""
    p = _int_arg("p", p)
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
    num, den, p = _int_arg("num", num), _int_arg("den", den), _int_arg("p", p)
    return num % p * pow(den % p, -1, p) % p
