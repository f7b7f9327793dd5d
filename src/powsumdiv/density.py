"""Limiting densities of the primes dividing a^k + b^k, in exact rational
arithmetic.

Three routes to the same number:

* ``delta_table``      -- the closed-form density, a four-branch table in
                          (is_sqrt2, e, eps);
* ``delta_naive``      -- the limit of the order-parity heuristic that
                          ignores quadratic residues (exact only when the
                          quadratic field is not Q(sqrt 2));
* ``delta_refined``    -- the limit of the Legendre-symbol-aware heuristic,
                          an infinite sum over cyclotomic degrees evaluated
                          here with a closed-form geometric tail.

``delta_refined`` must equal ``delta_table`` for every profile; the naive
value differs exactly on the Q(sqrt 2) anomaly.
"""

from fractions import Fraction

from .profile import BaseProfile


def cyclotomic_degree(is_sqrt2: bool, k: int) -> int:
    """[L(zeta_{2^k}) : Q] for a real quadratic field L.

    2^k in general; halves to 2^(k-1) for k >= 3 when L = Q(sqrt 2),
    because sqrt 2 = zeta_8 + zeta_8^{-1} already lies in Q(zeta_8).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= 3 and is_sqrt2:
        return 1 << (k - 1)
    return 1 << k


def _degree_gap_sum(is_sqrt2: bool, start: int) -> Fraction:
    """Sum over k >= start of 2^-k * (1/d_k - 1/d_{k+1}) with
    d_k = cyclotomic_degree(is_sqrt2, k), evaluated exactly.

    For k >= 3 the degrees double each step (d_k = m * 2^k with m = 1/2 in
    the sqrt-2 case, m = 1 otherwise), so the terms form a geometric
    series with ratio 1/4; the k < 3 head is summed explicitly.
    """
    if start < 1:
        raise ValueError("start must be >= 1")
    total = Fraction(0)
    knee = max(start, 3)
    for k in range(start, knee):
        d_k = cyclotomic_degree(is_sqrt2, k)
        d_k1 = cyclotomic_degree(is_sqrt2, k + 1)
        total += Fraction(1, 1 << k) * (Fraction(1, d_k) - Fraction(1, d_k1))
    # tail: term(k) = 2^-k * 1/(2 * m * 2^k) = (1/(2m)) * 4^-k, summed from knee
    m = Fraction(1, 2) if is_sqrt2 else Fraction(1)
    total += Fraction(1, 2 * m) * Fraction(4, 3) * Fraction(1, 4**knee)
    return total


def delta_table(profile: BaseProfile) -> Fraction:
    """The closed-form density of primes dividing the sequence."""
    e, eps = profile.e, profile.eps
    if not profile.is_sqrt2:
        if eps == 1:
            return Fraction(2, 3 * (1 << e))
        return 1 - Fraction(1, 3 * (1 << e))
    if e == 0:
        return Fraction(17, 24)
    if e == 1:
        return Fraction(5, 12) if eps == 1 else Fraction(2, 3)
    if eps == 1:
        return Fraction(1, 3 * (1 << e))
    return 1 - Fraction(1, 3 * (1 << (e + 1)))


def delta_naive(profile: BaseProfile) -> Fraction:
    """Limit of the naive heuristic: 2^(1-e)/3 for positive ratios,
    1 - 2^-e/3 for negative ones."""
    e = profile.e
    if profile.eps == 1:
        return Fraction(2, 3 * (1 << e))
    return 1 - Fraction(1, 3 * (1 << e))


def delta_refined(profile: BaseProfile) -> Fraction:
    """Limit of the refined (Legendre-symbol) heuristic via cyclotomic
    degrees, with the infinite sum closed exactly."""
    e, s2 = profile.e, profile.is_sqrt2
    if profile.eps == 1:
        return Fraction(1, 1 << e) - (1 << (e + 1)) * _degree_gap_sum(s2, e + 1)
    d1 = cyclotomic_degree(s2, e + 1)
    d2 = cyclotomic_degree(s2, e + 2)
    return (1 - Fraction(1, 1 << (e + 1)) + Fraction(1, d1) - Fraction(1, d2)
            - (1 << (e + 1)) * _degree_gap_sum(s2, e + 2))


def delta_sign_difference(profile: BaseProfile) -> Fraction:
    """delta(-|r|) - delta(|r|) in closed form:
    1 - 3/2^(e+1) + 2/d_{e+1} - 2/d_{e+2}."""
    e, s2 = profile.e, profile.is_sqrt2
    d1 = cyclotomic_degree(s2, e + 1)
    d2 = cyclotomic_degree(s2, e + 2)
    return 1 - Fraction(3, 1 << (e + 1)) + Fraction(2, d1) - Fraction(2, d2)
