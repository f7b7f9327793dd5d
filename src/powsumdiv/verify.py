"""Property suites: every closed-form identity in the package checked
against an independent brute-force route, with counterexamples reported.

Each checker returns (cases_checked, failures); an empty failure list
means the suite passed.  These back both the ``verify`` CLI subcommand
and the acceptance tests.
"""

import math
from fractions import Fraction
from typing import Callable

import numpy as np

from .arith import MAX_X, _mulmod_regime, _pow_mod, _v2, divisors, v2
from .census import (
    heuristic_counts,
    ramanujan_count,
    character_count,
    _decode,
    _fold_segment,
    _primes_in_range,
    _weights,
)
from .cyclic import (
    CharacterTable,
    character_table,
    multiplicative_order,
    order_valuation_count,
    power_exponent_set,
    power_subgroup_size,
)
from .density import (
    delta_naive,
    delta_refined,
    delta_sign_difference,
    delta_table,
)
from .profile import decompose
from .ramanujan import divisor_indicator, ramanujan_c, ramanujan_c_2pow

# profile grid used by the per-prime identity and character suites
PROFILE_GRID = [
    (2, 1), (-2, 1), (4, 1), (-4, 1), (8, 27),
    (3, 1), (-3, 1), (16, 1), (5, 2), (-5, 2),
]

CheckResult = tuple[int, list[str]]


def check_group(n_max: int = 300, h_max: int = 50, w_max: int = 6) -> CheckResult:
    """Cyclic-group counting formulas vs exhaustive enumeration, plus the
    odd-order / doubled-exponent set inclusions.  For each n one
    power_exponent_set call enumerates G^h for every h <= 2*h_max as the
    rows of a boolean matrix.  The exponents j are classed once by the
    2-adic valuation w of the order n/(n, j): the counts by w are the
    product of the rows with the one-hot of w, and the classes of each
    power set are its row masked by a column of that one-hot."""
    checked = 0
    failures: list[str] = []
    hs = np.arange(1, h_max + 1)
    ws = np.arange(w_max + 1)
    v2h = _v2(hs)
    for n in range(1, n_max + 1):
        v2n = v2(n)
        rows = power_exponent_set(n, np.arange(1, 2 * h_max + 1))
        exps, exps_2h = rows[:h_max], rows[2 * hs - 1]
        by_w = _v2(n // np.gcd(n, np.arange(n)))[:, None] == np.arange(max(w_max, 1) + 1)
        odd_order, w1 = exps & by_w[:, 0], exps & by_w[:, 1]
        checked += h_max
        size_bad = exps.sum(axis=1) != [power_subgroup_size(n, h) for h in range(1, h_max + 1)]
        count_bad = exps.astype(np.int64) @ by_w[:, :w_max + 1] \
            != order_valuation_count(n, hs[:, None], ws)
        low = v2h >= v2n
        split = v2h + 1 == v2n
        # the inclusions as row-wise tests, each read only where it applies
        inclusions = [
            (low & (odd_order != exps).any(axis=1), "odd-order violation"),
            (~low & (odd_order & ~exps_2h).any(axis=1), "G_0 not in G^2h"),
            (~low & split & (w1 & ~(exps & ~exps_2h)).any(axis=1), "G_1 not in G^h-G^2h"),
            (~low & ~split & (w1 & ~exps_2h).any(axis=1), "G_1 not in G^2h"),
            (low & w1.any(axis=1), "G_1 nonempty"),
        ]
        bad = size_bad | count_bad.any(axis=1)
        for mask, _ in inclusions:
            bad |= mask
        for i in np.flatnonzero(bad).tolist():
            h = i + 1
            if size_bad[i]:
                failures.append(f"#G^h mismatch at n={n}, h={h}")
                continue
            for w in np.flatnonzero(count_bad[i]).tolist():
                failures.append(f"count mismatch at n={n}, h={h}, w={w}")
            failures += [f"{text} at n={n}, h={h}" for mask, text in inclusions if mask[i]]
    return checked, failures


def _ramanujan_direct(n: int, m_max: int) -> list[complex]:
    """The exponential sums of e^(2*pi*i*k*m/n) over 1 <= k <= n coprime to
    n, for m = 0..m_max: the angles and their cosines and sines as numpy
    arrays, added term by term in ascending k, the operations and order of
    the scalar sum of cmath.exp terms."""
    ks = np.array([k for k in range(1, n + 1) if math.gcd(k, n) == 1])
    theta = 2.0 * math.pi * ks[:, None] * np.arange(m_max + 1) / n
    cos, sin = np.cos(theta), np.sin(theta)
    re, im = np.zeros(m_max + 1), np.zeros(m_max + 1)
    for i in range(len(ks)):
        re += cos[i]
        im += sin[i]
    return [complex(x, y) for x, y in zip(re.tolist(), im.tolist())]


def check_ramanujan() -> CheckResult:
    """Holder's identity vs the exponential sum, its weak 2-power form,
    the gcd reduction, and the divisor indicator.  Each block takes
    Holder's identity for one n (and the weak form for one v) over the
    whole range of m in one call."""
    checked = 0
    failures: list[str] = []
    for n in range(1, 101):
        c = ramanujan_c(n, np.arange(101)).tolist()
        for m, z in enumerate(_ramanujan_direct(n, 100)):
            checked += 1
            if abs(z.imag) > 1e-6 or abs(z.real - c[m]) > 1e-6:
                failures.append(f"direct sum mismatch at n={n}, m={m}: {z} vs {c[m]}")
    ms = np.arange(201)
    for n in range(1, 201):
        checked += len(ms)
        for m in np.flatnonzero(ramanujan_c(n, ms) != ramanujan_c(n, np.gcd(n, ms))).tolist():
            failures.append(f"gcd reduction fails at n={n}, m={m}")
    ts = np.arange(4097)
    for v in range(0, 11):
        checked += len(ts)
        for t in np.flatnonzero(ramanujan_c_2pow(v, ts) != ramanujan_c(1 << v, ts)).tolist():
            failures.append(f"weak form mismatch at v={v}, t={t}")
    ms = np.arange(401)
    for n in range(1, 201):
        checked += len(ms)
        # the sums of c_d(m) over d | n, against n if n | m and 0 otherwise
        for m in np.flatnonzero(divisor_indicator(n, ms) != n * (ms % n == 0)).tolist():
            failures.append(f"indicator mismatch at n={n}, m={m}")
    return checked, failures


def _row_sums(table: CharacterTable) -> list[complex]:
    """The sum of chi_j(g) over g = 1..p-1 for each character j: the table's
    values roots[j * dlog(g) % (p-1)] added in ascending g, the terms and
    order of sum(table.chi(j, g) for g in range(1, p)), with each dlog
    looked up once per element instead of once per (character, element)."""
    n, roots = table.n, table._roots
    logs = [table.dlog(g) for g in range(1, table.p)]
    return [sum([roots[j * k % n] for k in logs]) for j in range(n)]


def check_characters(p_max: int = 200, x_char: int = 500) -> CheckResult:
    """Orthogonality, the order-d character sums against c_d(index), and
    the character-sum count against the Ramanujan-sum count."""
    checked = 0
    failures: list[str] = []
    for p in _primes_in_range(3, p_max + 1).tolist():
        table = character_table(p)
        n = p - 1
        for j, total in enumerate(_row_sums(table)):
            want = n if j == 0 else 0
            checked += 1
            if abs(total - want) > 1e-8:
                failures.append(f"orthogonality fails at p={p}, j={j}")
        index = np.array([table.group_index(g) for g in range(1, p)])
        for d in divisors(n):
            for g, c in enumerate(ramanujan_c(d, index).tolist(), 1):
                z = table.order_sum(d, g)
                checked += 1
                if abs(z.imag) > 1e-8 or abs(z.real - c) > 1e-8:
                    failures.append(
                        f"order sum mismatch at p={p}, d={d}, g={g}: {z} vs {c}")
    for a, b in PROFILE_GRID:
        profile = decompose(a, b)
        checked += 1
        if character_count(profile, x_char) != ramanujan_count(profile, x_char, "full"):
            failures.append(f"character count mismatch for (a,b)=({a},{b})")
    return checked, failures


def _local_index(profile, lo: int, hi: int, primes: np.ndarray) -> tuple[np.ndarray, ...]:
    """Of the primes in [lo, hi), hi <= 2^40 + 1, the generic p with the s and
    cell that one _fold_segment call gives each, the index (p-1)/ord(r) (full
    order, factored p-1) of r = a * b^(p-2) mod p formed in arith's mulmod
    regime, and the lanes where v2(p-1) != s or v2(index) != s - t."""
    cells = _fold_segment(profile, lo, hi)[0]
    s, t, _, generic, _ = _decode(cells)
    generic, s, t, cells = primes[generic], s[generic], t[generic], cells[generic]
    mulmod, p = _mulmod_regime(generic)
    r = (profile.a % generic).astype(p.dtype)
    if profile.b != 1:
        r = mulmod(r, _pow_mod(profile.b % generic, generic - 2, generic).astype(p.dtype), p)
    index = (generic - 1) // multiplicative_order(r.astype(np.int64), generic)
    return generic, s, cells, index, np.flatnonzero((_v2(generic - 1) != s) | (_v2(index) != s - t))


def check_local_factors(p_limit: int = 10**5,
                        checkpoints: tuple[int, ...] = (10**3, 10**4, 10**5)) -> CheckResult:
    """Per-prime truncated Ramanujan sums against the naive and refined
    local weights, the k1 and k2 rows of census._weights, at the cells that
    one _fold_segment call gives the generic primes <= p_limit.  The sums
    use the exact group index of r = a/b mod p (_local_index), whose 2-adic
    valuation must be s - t.  Then the summed weights at several
    checkpoints in [2, p_limit] against the tallied counts.  The counts at
    ascending checkpoints resume one another (census._accumulate), so this
    also checks each resumed fold against the one _fold_segment call.
    p_limit must lie in [2, 2^40] (arith.MAX_X, the regimes' bound)."""
    if not 2 <= p_limit <= MAX_X:
        raise ValueError(f"p_limit must lie in [2, 2^40 = {MAX_X}]")
    if not all(2 <= x <= p_limit for x in checkpoints):
        raise ValueError(f"checkpoints must lie in [2, p_limit = {p_limit}]")
    checked = 0
    failures: list[str] = []
    primes = _primes_in_range(2, p_limit + 1)
    for a, b in PROFILE_GRID:
        profile = decompose(a, b)
        generic, s, cells, index, bad = _local_index(profile, 2, p_limit + 1, primes)
        failures += [f"index valuation mismatch at ({a},{b}), p={generic[i]}" for i in bad.tolist()]
        # 2^s times the local factors: c_{2^v}(index) summed to v <= min(s, e) and
        # v <= min(s, e+1), gathered from the prefix sums of one table of c_{2^v}
        # over the distinct indices
        values, lane = np.unique(index, return_inverse=True)
        top = min(int(s.max(initial=0)), profile.e + 1)
        prefix = np.cumsum([ramanujan_c(1 << v, values) for v in range(top + 1)], axis=0)
        sums = [prefix[np.minimum(s, e), lane] for e in (profile.e, profile.e + 1)]
        weights = _weights(profile.e, profile.eps)[4:6, cells]
        checked += 2 * len(generic)
        for name, want, got in zip(("naive", "refined"), sums, weights):
            for i in np.flatnonzero(want << (40 - s) != got).tolist():
                failures.append(f"{name} weight mismatch at ({a},{b}), p={generic[i]}: "
                                f"{want[i]}/2^{s[i]} vs {got[i]}/2^40")
        for x in sorted(checkpoints):
            end = np.searchsorted(generic, x, side="right")
            k1, k2 = (Fraction(sum(row[:end].tolist()), 1 << 40) for row in weights)
            hc = heuristic_counts(profile, x)
            checked += 2
            if k1 != hc.k1 or k2 != hc.k2:
                failures.append(f"summed weights mismatch at ({a},{b}), x={x}")
            if ramanujan_count(profile, x, "e") != hc.h1 \
                    or ramanujan_count(profile, x, "e+1") != hc.h2:
                failures.append(f"truncated count mismatch at ({a},{b}), x={x}")
    return checked, failures


def check_densities(bound: int = 30) -> CheckResult:
    """Refined density equals the closed-form table on the whole grid;
    sign-difference formula; naive density exact iff the field is not
    Q(sqrt 2).  Each pair of the grid is decomposed once, and its refined
    density computed once for both checks that read it."""
    checked = 0
    failures: list[str] = []
    profiles = {(a, b): decompose(a, b)
                for a in range(-bound, bound + 1) for b in range(1, bound + 1)
                if a != 0 and abs(a) != b}
    refined = {pair: delta_refined(profile) for pair, profile in profiles.items()}
    for (a, b), profile in profiles.items():
        d_table = delta_table(profile)
        d_ref = refined[a, b]
        checked += 1
        if d_ref != d_table:
            failures.append(f"refined != table at ({a},{b}): {d_ref} vs {d_table}")
        if not 0 <= d_table <= 1:
            failures.append(f"density out of range at ({a},{b})")
        if profile.eps == -1 and d_table < Fraction(1, 2):
            failures.append(f"negative-ratio density below 1/2 at ({a},{b})")
        if not profile.is_sqrt2 and delta_naive(profile) != d_table:
            failures.append(f"naive density wrong off the anomaly at ({a},{b})")
        # (-|a|, b) and (|a|, b) are both on the grid
        if delta_sign_difference(profile) != refined[-abs(a), b] - refined[abs(a), b]:
            failures.append(f"sign difference mismatch at ({a},{b})")
    for a in (2, 4, -4, 16):
        profile = decompose(a, 1)
        checked += 1
        if delta_naive(profile) == delta_table(profile):
            failures.append(f"anomaly missing at r={a}")
    return checked, failures


def _first_k(pairs: list[tuple[int, int]], primes: np.ndarray, bounds: list[int]) -> np.ndarray:
    """The least k <= bounds[i] with primes[i] | a^k + b^k, or 0 if there is
    none, for each pair (a, b) (rows) and each prime (columns), by direct
    search: v^k mod p by repeated multiplication for each value v among
    the pairs, and a hit where a^k == -b^k mod p.  primes ascend below
    46341, so residue products fit int32, and bounds must not decrease.
    The arrays are laid out (primes x values) and (primes x pairs), so the
    primes still searched at step k, those with k <= bound, are one
    contiguous block of rows that every step updates in place."""
    values = sorted({v for pair in pairs for v in pair})
    column = {v: i for i, v in enumerate(values)}
    col_a = np.array([column[a] for a, _ in pairs])
    col_b = np.array([column[b] for _, b in pairs])
    P = primes.astype(np.int32)[:, None]
    base = np.array(values, dtype=np.int32) % P
    power = base.copy()  # v^k mod p
    first_k = np.zeros((len(primes), len(pairs)), dtype=np.int32)
    row = 0
    for k in range(1, bounds[-1] + 1):
        while bounds[row] < k:
            row += 1
        p, pw, fk = P[row:], power[row:], first_k[row:]
        if k > 1:
            pw[:] = pw * base[row:] % p
        hit = (pw[:, col_a] == ((p - pw) % p)[:, col_b]) & (fk == 0)
        fk[hit] = k
    return first_k.T


def _first_k_by_class(pairs: list[tuple[int, int]], primes: np.ndarray,
                      bounds: list[int]) -> np.ndarray:
    """_first_k of every pair, searched once for the least pair of each
    class {(a, b), (b, a), (-a, -b), (-b, -a)}, whose first k all agree."""
    least = [min((a, b), (b, a), (-a, -b), (-b, -a)) for a, b in pairs]
    reps = sorted(set(least))
    row = {rep: i for i, rep in enumerate(reps)}
    return _first_k(reps, primes, bounds)[[row[rep] for rep in least]]


def check_oracle(p_limit: int = 2000, coeff_bound: int = 12) -> CheckResult:
    """The segment kernel (_fold_segment) vs direct search for a k with
    p | a^k + b^k, over every admissible pair |a|, |b| <= coeff_bound.

    Searching k <= max(1, (p-1)/2) decides every case.  If p divides
    exactly one of a and b, p never divides a^k + b^k.  If p divides both,
    or p = 2 (a + b is even when both are odd, and a^k + b^k is odd when
    one is), k = 1 decides.  Otherwise p | a^k + b^k iff r^k = -1 for
    r = a/b mod p; then r^2k = 1 and r^k != 1, so ord r = d is even, and
    as -1 is the only element of order 2 in the cyclic group (Z/pZ)*,
    r^k = -1 iff k = d/2 mod d.  The first such k is d/2 <= (p-1)/2.

    The search runs once per symmetry class {(a, b), (b, a), (-a, -b),
    (-b, -a)}: a^k + b^k is symmetric in a and b, and (-a)^k + (-b)^k =
    (-1)^k (a^k + b^k), so for every k and p the four pairs agree on
    whether p | a^k + b^k.  The classes have four pairs each, as a != b,
    a != 0 and a != -b; the kernel still classifies every pair.
    """
    if p_limit > 46340:
        raise ValueError("p_limit must be <= 46340, so residue products fit int32")
    if p_limit < 2:
        raise ValueError("p_limit must be >= 2, so there is a prime to check")
    if coeff_bound < 2:
        raise ValueError("coeff_bound must be >= 2, so there is a pair with |a| != |b|")
    primes = _primes_in_range(2, p_limit + 1)
    pairs = [
        (a, b)
        for a in range(-coeff_bound, coeff_bound + 1)
        for b in range(-coeff_bound, coeff_bound + 1)
        if a != 0 and b != 0 and abs(a) != abs(b)
    ]
    expected = _first_k_by_class(pairs, primes,
                                 [max(1, (p - 1) // 2) for p in primes.tolist()]) > 0

    checked = 0
    failures: list[str] = []
    for (a, b), want in zip(pairs, expected):
        got = _decode(_fold_segment(decompose(a, b), 2, p_limit + 1)[0])[4]
        checked += len(primes)
        for j in np.flatnonzero(got != want).tolist():
            failures.append(
                f"parity criterion vs search at (a,b)=({a},{b}), p={primes[j]}: "
                f"classified {got[j]}, search {want[j]}")
    return checked, failures


SUITES: dict[str, Callable[[], CheckResult]] = {
    "group": check_group,
    "ramanujan": check_ramanujan,
    "characters": check_characters,
    "local-factors": check_local_factors,
    "densities": check_densities,
    "oracle": check_oracle,
}
