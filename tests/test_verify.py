"""Reduced-bound runs of each checker and the faults they catch."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from powsumdiv import ramanujan, verify
from powsumdiv.census import _decode
from powsumdiv.arith import MAX_X
from powsumdiv.cyclic import CharacterTable
from powsumdiv.profile import decompose


def test_reduced_bounds_all_pass():
    checked, failures = verify.check_group(n_max=60, h_max=10, w_max=4)
    assert checked == 600 and failures == []
    checked, failures = verify.check_densities(bound=8)
    assert failures == []
    checked, failures = verify.check_oracle(p_limit=100, coeff_bound=4)
    assert failures == []
    checked, failures = verify.check_characters(p_max=30, x_char=100)
    assert failures == []
    checked, failures = verify.check_local_factors(
        p_limit=500, checkpoints=(100, 500))
    assert failures == []


def test_oracle_search_bound_finds_every_first_k():
    # check_oracle searches k <= max(1, (p-1)/2); the first hit it finds
    # is the one a search to k <= 2p finds, for every pair and prime
    primes = verify._primes_in_range(2, 300)
    pairs = [(a, b) for a in range(-12, 13) for b in range(-12, 13)
             if a and b and abs(a) != abs(b)]
    wide = verify._first_k(pairs, primes, [2 * p for p in primes.tolist()])
    short = verify._first_k(pairs, primes, [max(1, (p - 1) // 2) for p in primes.tolist()])
    assert (wide > 0).any() and (wide == 0).any()
    assert short.tolist() == wide.tolist()


def test_first_k_against_a_scalar_search():
    # the least k with p | a^k + b^k from Python integers, including the
    # primes that divide a or b and bounds that stop short of the hit
    primes = verify._primes_in_range(2, 200)
    pairs = [(a, b) for a in range(-6, 7) for b in range(-6, 7)
             if a and b and abs(a) != abs(b)]
    bounds = [max(1, (p - 1) // 3) for p in primes.tolist()]
    got = verify._first_k(pairs, primes, bounds)
    for i, (a, b) in enumerate(pairs):
        for j, (p, bound) in enumerate(zip(primes.tolist(), bounds)):
            want = next((k for k in range(1, bound + 1) if (a**k + b**k) % p == 0), 0)
            assert got[i, j] == want, (a, b, p)


def test_local_factors_rejects_checkpoints_outside_the_primes():
    # a checkpoint above p_limit would be compared with sums over the
    # primes <= p_limit only
    for checkpoints in ((100, 1000), (1, 100), (0,)):
        with pytest.raises(ValueError):
            verify.check_local_factors(p_limit=500, checkpoints=checkpoints)
    # p_limit < 2 leaves no prime, and above 2^40 the mulmod regimes are not
    # exact; the message names the bound
    for p_limit in (1, 0, -5, MAX_X + 1):
        with pytest.raises(ValueError, match=rf"2\^40 = {MAX_X}"):
            verify.check_local_factors(p_limit=p_limit, checkpoints=(2,))


@pytest.mark.parametrize("lo", [1 << 26, 1 << 32, MAX_X - (1 << 16)],
                         ids=["2^26", "2^32", "2^40-2^16"])
def test_local_index_at_the_regime_edges(lo):
    # the suite's own residue-and-index code on every generic prime of a
    # 2^16-wide window just past the f53 and u64 regimes' edges and just
    # below 2^40, for the profile grid and a pair with a large kernel: the
    # kernel's s and t against the index (p-1)/ord(r) of r formed in the
    # window's regime.  A t planted on one lane near 2^40, or r formed by a
    # raw int64 product, fails here
    hi = lo + (1 << 16)
    primes = verify._primes_in_range(lo, hi)
    for a, b in [*verify.PROFILE_GRID, (1000003 * 1000033, 1)]:
        generic, s, _, index, bad = verify._local_index(decompose(a, b), lo, hi, primes)
        assert len(generic) > 2000 and bad.tolist() == [], (a, b, generic[bad[:5]])
        assert s.max() >= 10 and (index > 1).any(), (a, b)


def test_local_factors_catch_an_order_planted_at_one_prime(monkeypatch):
    # the index comes from the order of r = 2 alone: twice its order at p = 7
    # for (2,1), the first profile, gives 6 for 3 and halves the index from 2
    # to 1, which is caught by the index valuation there and nowhere else
    order = verify.multiplicative_order
    calls = []

    def planted(g, p):
        calls.append(len(p))
        orders = order(g, p)
        return orders * np.where(p == 7, 2, 1) if len(calls) == 1 else orders

    monkeypatch.setattr(verify, "multiplicative_order", planted)
    _, failures = verify.check_local_factors(500, (100, 500))
    assert len(calls) == len(verify.PROFILE_GRID)
    assert failures[0] == "index valuation mismatch at (2,1), p=7"
    assert all(" at (2,1), p=7" in f for f in failures), failures


def test_local_factors_catch_a_planted_weight_fault(monkeypatch):
    # the per-prime Ramanujan sums do not go through _weights: a k2 row of
    # the table one too large times 2^s (2^(40-s) at its scale 2^40) at
    # s = e+1 is caught prime by prime
    weights = verify._weights

    def planted(e, eps):
        table = weights(e, eps).copy()
        s = _decode(np.arange(table.shape[1]))[0]
        table[5, s == e + 1] += 1 << (40 - (e + 1))
        return table

    monkeypatch.setattr(verify, "_weights", planted)
    checked, failures = verify.check_local_factors(2000, (100, 2000))
    refined = [f for f in failures if f.startswith("refined weight mismatch")]
    assert refined and refined[0].startswith("refined weight mismatch at (2,1), p=3:")
    assert not any(f.startswith("naive weight mismatch") for f in failures)


def test_suites_catch_a_planted_kernel_fault(monkeypatch):
    # both suites classify through the segment kernel: a t one too small
    # at p = 7 is caught by the oracle (for the pairs where 7 | a^k + b^k
    # with t = 1) and by the index valuation of local-factors
    decode = verify._decode

    def planted(cells):
        s, t, bit, generic, divides = decode(cells)
        if generic[3] and t[3] > 0:  # primes 2, 3, 5, 7: index 3 is p = 7
            t[3] -= 1
            divides[3] = t[3] > 0
        return s, t, bit, generic, divides

    monkeypatch.setattr(verify, "_decode", planted)
    _, failures = verify.check_oracle(p_limit=50, coeff_bound=3)
    assert failures and all(", p=7: classified False, search True" in f for f in failures)
    assert failures[0].startswith("parity criterion vs search at (a,b)=(")
    _, failures = verify.check_local_factors(100, (100,))
    assert "index valuation mismatch at (-2,1), p=7" in failures


def test_group_catches_a_planted_valuation_count_fault(monkeypatch):
    # the counts by w are products of the power-set rows with the one-hot of
    # the valuation of each exponent's order; a formula one too large at the
    # one lane (n, h, w) = (24, 3, 2) of its array call for n = 24 is caught
    # there and nowhere else
    formula = verify.order_valuation_count
    calls = []

    def planted(n, h, w):
        calls.append(n)
        return formula(n, h, w) + (n == 24) * (h == 3) * (w == 2)

    monkeypatch.setattr(verify, "order_valuation_count", planted)
    checked, failures = verify.check_group(n_max=60, h_max=10, w_max=4)
    assert checked == 600 and calls == list(range(1, 61))
    assert failures == ["count mismatch at n=24, h=3, w=2"]


def test_group_catches_a_planted_enumeration_fault(monkeypatch):
    # an enumerator that drops one exponent of G^h at (n, h) = (24, 2): the
    # row of h = 2 in the matrix enumerated for n = 24.  The size mismatch is
    # the one failure there: the counts and inclusions of that h are skipped
    enumerate_ = verify.power_exponent_set

    def planted(n, h):
        rows = enumerate_(n, h)
        if n == 24:
            row = rows[np.flatnonzero(h == 2)[0]]
            row[np.flatnonzero(row).max()] = False
        return rows

    monkeypatch.setattr(verify, "power_exponent_set", planted)
    _, failures = verify.check_group(n_max=60, h_max=10, w_max=4)
    assert failures == ["#G^h mismatch at n=24, h=2"]


def test_characters_catch_an_order_sum_that_skips_a_character(monkeypatch):
    # an order sum that leaves out the last character of order 6 mod 7
    order_sum = CharacterTable.order_sum

    def planted(table, d, g):
        if (table.p, d) == (7, 6):  # the characters of order 6 are j = 1, 5
            return table.chi(1, g)
        return order_sum(table, d, g)

    monkeypatch.setattr(CharacterTable, "order_sum", planted)
    _, failures = verify.check_characters(p_max=30, x_char=100)
    assert [f.split(":")[0] for f in failures] == \
        [f"order sum mismatch at p=7, d=6, g={g}" for g in range(1, 7)]


def _row(n, exps):
    """The membership row over the exponents 0..n-1 of the set exps."""
    row = np.zeros(n, dtype=bool)
    row[list(exps)] = True
    return row


def _swap_at(point, exps):
    """A power_exponent_set whose row for (n, h) = point holds exps, of the
    same size as the set it replaces."""
    def swap(f):
        def planted(n, h):
            rows = f(n, h)
            if n == point[0]:
                rows[np.flatnonzero(h == point[1])] = _row(n, exps)
            return rows
        return planted
    return swap


def _off_at(point, delta, key=lambda profile, *rest: (profile.a, profile.b, *rest)):
    """A closed form whose value is delta too large where key(*args) == point."""
    return lambda f: lambda *args: f(*args) + (delta if key(*args) == point else 0)


_SMALL_SUITES = {
    "group": lambda: verify.check_group(n_max=60, h_max=10, w_max=4),
    "ramanujan": verify.check_ramanujan,
    "characters": lambda: verify.check_characters(p_max=30, x_char=100),
    "local-factors": lambda: verify.check_local_factors(500, (100, 500)),
    "densities": lambda: verify.check_densities(bound=8),
}


_PLANTED = [
    # the group inclusions read no closed form, only the enumerated power
    # sets: one row of them has an exponent swapped for another, at the same
    # size
    ("group", "power_exponent_set", _swap_at((4, 4), {1}),
     "odd-order violation at n=4, h=4"),
    ("group", "power_exponent_set", _swap_at((4, 2), {1, 2}), "G_0 not in G^2h at n=4, h=1"),
    ("group", "power_exponent_set", _swap_at((2, 2), {1}), "G_1 not in G^h-G^2h at n=2, h=1"),
    ("group", "power_exponent_set", _swap_at((4, 2), {0, 1}), "G_1 not in G^2h at n=4, h=1"),
    ("group", "power_exponent_set", _swap_at((6, 2), {2, 3, 4}), "G_1 nonempty at n=6, h=2"),
    # a mask, so that it holds for an array t as for an int
    ("ramanujan", "ramanujan_c_2pow", lambda f: lambda v, t: f(v, t) + (v == 3) * (t == 5),
     "weak form mismatch at v=3, t=5"),
    ("characters", "character_count", _off_at((3, 1, 100), 1),
     "character count mismatch for (a,b)=(3,1)"),
    ("local-factors", "ramanujan_count", _off_at((2, 1, 100, "e"), 1),
     "truncated count mismatch at (2,1), x=100"),
    ("densities", "delta_table", _off_at((3, 2), 1), "density out of range at (3,2)"),
    ("densities", "delta_table", _off_at((-3, 2), Fraction(-1, 2)),
     "negative-ratio density below 1/2 at (-3,2)"),
    ("densities", "delta_naive", _off_at((3, 2), Fraction(1, 7)),
     "naive density wrong off the anomaly at (3,2)"),
    ("densities", "delta_naive", _off_at((2, 1), Fraction(1, 24)),  # 2/3 -> 17/24
     "anomaly missing at r=2"),
]


@pytest.mark.parametrize("suite, name, plant, text", _PLANTED,
                         ids=[text.split(" at ")[0].split(" for ")[0] for *_, text in _PLANTED])
def test_suites_report_each_planted_fault(monkeypatch, suite, name, plant, text):
    monkeypatch.setattr(verify, name, plant(getattr(verify, name)))
    _, failures = _SMALL_SUITES[suite]()
    assert text in failures


def scalar_direct_sum(n: int, m: int) -> complex:
    """c_n(m) by the exponential-sum definition, one term at a time."""
    return sum(cmath.exp(2j * math.pi * k * m / n)
               for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_direct_sums_equal_the_scalar_definition_bit_for_bit():
    # the numpy sums add the same terms in the same order as the scalar
    # definition, so check_ramanujan's failure texts print the same values
    for n in range(1, 101):
        direct = verify._ramanujan_direct(n, 100)
        assert [repr(z) for z in direct] == [repr(scalar_direct_sum(n, m)) for m in range(101)], n


def test_ramanujan_catches_a_planted_holder_fault(monkeypatch):
    # c_6(4) one too large is caught against the exponential sum (with the
    # sum's value in the text) and by the gcd reduction; the plant is a mask,
    # so it holds for an array m as for an int
    holder = verify.ramanujan_c

    def planted(n, m):
        return holder(n, m) + (n == 6) * (m == 4)

    monkeypatch.setattr(verify, "ramanujan_c", planted)
    _, failures = verify.check_ramanujan()
    assert failures == [f"direct sum mismatch at n=6, m=4: {scalar_direct_sum(6, 4)} vs 0",
                        "gcd reduction fails at n=6, m=4"]


@pytest.mark.parametrize("kwargs", [{"p_limit": 1}, {"p_limit": 0},
                                    {"p_limit": 2000, "coeff_bound": 0},
                                    {"p_limit": 2000, "coeff_bound": 1},
                                    {"p_limit": 46341}])
def test_oracle_rejects_ranges_with_no_prime_or_no_pair(kwargs):
    # p_limit < 2 leaves no prime, coeff_bound < 2 no pair with |a| != |b|,
    # and p_limit > 46340 lets residue products overflow int32
    with pytest.raises(ValueError):
        verify.check_oracle(**kwargs)


def test_oracle_class_reduction_matches_the_search_on_every_pair(monkeypatch):
    # the search runs once per class {(a,b), (b,a), (-a,-b), (-b,-a)}; mapped
    # back it gives every pair's first k, on primes that divide a or b too
    primes = verify._primes_in_range(2, 300)
    pairs = [(a, b) for a in range(-12, 13) for b in range(-12, 13)
             if a and b and abs(a) != abs(b)]
    bounds = [max(1, (p - 1) // 2) for p in primes.tolist()]
    searched = []
    first_k = verify._first_k

    def spy(reps, primes, bounds):
        searched.append(reps)
        return first_k(reps, primes, bounds)

    monkeypatch.setattr(verify, "_first_k", spy)
    reduced = verify._first_k_by_class(pairs, primes, bounds)
    assert len(pairs) == 528 and [len(reps) for reps in searched] == [132]
    direct = first_k(pairs, primes, bounds)
    assert (direct > 0).any() and (direct == 0).any()
    assert reduced.tolist() == direct.tolist()


@pytest.mark.parametrize("fault, js", [("root", [1, 5]), ("dlog", [1, 2, 3, 4, 5])])
def test_characters_catch_a_planted_table_fault(monkeypatch, fault, js):
    # orthogonality reads the table's roots and discrete logs directly: one
    # root off by 1e-4, or two elements given the same discrete log, at
    # p = 7 (g0 = 3), breaks the row sums of the characters that see it.
    # (Swapping two discrete logs would permute the terms of every row
    # sum, which orthogonality cannot see.)
    def planted(p):
        table = CharacterTable(p)
        if p == 7 and fault == "root":
            table._roots = [z * 1.0001 if k == 1 else z for k, z in enumerate(table._roots)]
        elif p == 7:
            table._dlog[3] = table._dlog[2]
        return table

    monkeypatch.setattr(verify, "character_table", planted)
    _, failures = verify.check_characters(p_max=30, x_char=100)
    assert [f for f in failures if f.startswith("orthogonality")] == \
        [f"orthogonality fails at p=7, j={j}" for j in js]


def test_row_sums_equal_the_chi_sums_bit_for_bit():
    for p in verify._primes_in_range(3, 201).tolist():
        table = CharacterTable(p)
        want = [sum(table.chi(j, g) for g in range(1, p)) for j in range(p - 1)]
        assert [repr(z) for z in verify._row_sums(table)] == [repr(z) for z in want], p


def test_densities_catch_a_refined_density_planted_at_one_profile(monkeypatch):
    # each pair's refined density is computed once and read by both checks:
    # off at (3,2), it is caught against the table at (3,2) and in the sign
    # difference of (-3,2) and (3,2)
    refined = verify.delta_refined

    def planted(profile):
        return refined(profile) + ((profile.a, profile.b) == (3, 2)) * Fraction(1, 7)

    monkeypatch.setattr(verify, "delta_refined", planted)
    _, failures = verify.check_densities(bound=8)
    table = verify.delta_table(verify.decompose(3, 2))
    assert failures == ["sign difference mismatch at (-3,2)",
                        f"refined != table at (3,2): {table + Fraction(1, 7)} vs {table}",
                        "sign difference mismatch at (3,2)"]


def test_ramanujan_catches_a_divisor_list_missing_a_divisor(monkeypatch):
    # divisors(12) without 4 leaves c_4(m) out of the indicator's sum, which
    # is nonzero for every even m
    divisors = ramanujan.divisors
    monkeypatch.setattr(ramanujan, "divisors",
                        lambda n: [d for d in divisors(n) if (n, d) != (12, 4)])
    _, failures = verify.check_ramanujan()
    assert failures == [f"indicator mismatch at n=12, m={m}" for m in range(0, 401, 2)]
