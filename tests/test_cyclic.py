"""Cyclic-group formulas vs enumeration; character table identities."""

import math
import random

import numpy as np
import pytest

from powsumdiv import cyclic
from powsumdiv.arith import _TRIAL_LIMIT, _factorize_cached, _v2, divisors, is_prime, v2
from powsumdiv.census import _primes_in_range, character_count
from powsumdiv.cyclic import (
    P_MAX,
    CharacterTable,
    _pow_mod,
    _prime_factor_table,
    character_table,
    find_primitive_root,
    multiplicative_order,
    order_valuation_count,
    power_exponent_set,
    power_subgroup_size,
)
from powsumdiv.density import _degree_gap_sum
from powsumdiv.profile import decompose
from powsumdiv.ramanujan import ramanujan_c, ramanujan_c_2pow


def enumerated_valuation_count(n, h, w):
    """order_valuation_count by enumeration: the element g0^j has order
    n/gcd(n, j)."""
    return sum(1 for j in power_exponent_set(n, h) if v2(n // math.gcd(n, j)) == w)


def test_power_subgroup_size_examples():
    assert power_subgroup_size(12, 8) == 3
    assert power_subgroup_size(7, 1) == 7
    # enumeration oracle for (100, 10)
    assert len({pow(k, 10, 101) for k in range(1, 101)}) == 10  # Z/100 as F_101^*
    assert len(power_exponent_set(100, 10)) == 10
    assert power_subgroup_size(100, 10) == 10


@pytest.mark.parametrize("n,h", [(0, 3), (5, 0), (5, -1), (-4, 2)])
def test_power_exponent_set_rejects_nonpositive_arguments(n, h):
    with pytest.raises(ValueError):
        power_subgroup_size(n, h)
    with pytest.raises(ValueError):
        power_exponent_set(n, h)


def test_order_valuation_examples():
    # elements of Z/12 whose order has v2 = 2: order 4 or 12
    brute = sum(1 for j in range(12) if v2(12 // math.gcd(12, j)) == 2)
    assert brute == 6
    assert order_valuation_count(12, 1, 2) == 6
    assert enumerated_valuation_count(12, 1, 2) == 6
    # v2(12/gcd(12,4)) = v2(3) = 0, so no elements at w >= 1
    assert order_valuation_count(12, 4, 2) == 0
    assert enumerated_valuation_count(1, 1, 0) == 1
    assert enumerated_valuation_count(2, 2, 0) == 1


def test_valuation_counts_partition_the_subgroup():
    for n in range(1, 80):
        for h in range(1, 20):
            total = sum(order_valuation_count(n, h, w) for w in range(0, n.bit_length() + 1))
            assert total == power_subgroup_size(n, h)


def test_formula_matches_enumeration_small():
    for n in range(1, 120):
        for h in range(1, 25):
            for w in range(0, 6):
                assert order_valuation_count(n, h, w) == \
                    enumerated_valuation_count(n, h, w), (n, h, w)


def scalar_valuation_count(n: int, h: int, w: int) -> int:
    """The closed form of order_valuation_count in Python integers."""
    q = n // math.gcd(n, h)
    nu = v2(q)
    return q >> nu if w == 0 else 0 if w > nu else (q >> nu) << (w - 1)


def test_array_valuation_count_equals_the_scalar_form():
    # one broadcast call over every (n <= 300, h <= 100, w <= 8) lane, against
    # the closed form in Python integers; int arguments give a Python int
    n, h, w = np.arange(1, 301)[:, None, None], np.arange(1, 101)[:, None], np.arange(9)
    got = order_valuation_count(n, h, w)
    assert got.shape == (300, 100, 9)
    assert got.tolist() == [[[scalar_valuation_count(a, b, c) for c in range(9)]
                             for b in range(1, 101)] for a in range(1, 301)]
    for a, b, c in [(12, 1, 2), (12, 4, 2), (1, 1, 0), (96, 6, 5), (2**62, 3, 62)]:
        value = order_valuation_count(a, b, c)
        assert type(value) is int and value == scalar_valuation_count(a, b, c)
    # arith._v2, from which order_valuation_count and check_group take their
    # valuations, against the scalar v2 on int64 and uint64 lanes: 1, odd
    # values, 2^k and p - 1 for the primes of the last 2^16 below 2^40
    lanes = [1, 3, 5, 99, 2**40 - 87, 2**63 - 1, *(1 << k for k in range(63)),
             *(_primes_in_range(2**40 - 2**16, 2**40) - 1).tolist()]
    want = [v2(x) for x in lanes]
    for dtype in (np.int64, np.uint64):
        got = _v2(np.array(lanes, dtype=dtype))
        assert got.dtype == np.uint8 and got.tolist() == want, dtype
    # its uint8 result mixes exactly with the int64 operands it meets: the
    # shift and comparisons of order_valuation_count, and check_group's
    # tests against v2(n) + 1 and the columns w of an int64 arange
    n = np.array(lanes, dtype=np.int64)
    nu = _v2(n)
    assert (n >> nu).dtype == np.int64 and (n >> nu).tolist() == [x >> v2(x) for x in lanes]
    assert (nu + 1).tolist() == [w + 1 for w in want]
    assert (nu[:, None] == np.arange(64)).argmax(axis=1).tolist() == want
    assert order_valuation_count(n[:, None], 1, np.arange(64)).tolist() == \
        [[scalar_valuation_count(x, 1, w) for w in range(64)] for x in lanes]


@pytest.mark.parametrize("n, h, w", [
    (np.array([3, 0, 5]), 1, 0),                # one lane with n < 1
    (6, np.array([[1], [-2]]), np.arange(3)),   # one lane with h < 1
    (6, 2, np.array([0, 1, -1])),               # one lane with w < 0
    (1 << 63, 1, 0),                            # n beyond int64
])
def test_array_valuation_count_rejects_any_bad_lane(n, h, w):
    with pytest.raises(ValueError):
        order_valuation_count(n, h, w)


def test_exponent_rows_equal_the_enumerated_sets():
    # one row per h, for h up to 2n, against {h*k mod n} in Python integers
    for n in range(1, 61):
        hs = np.arange(1, 2 * n + 1)
        rows = power_exponent_set(n, hs)
        assert rows.shape == (2 * n, n) and rows.dtype == bool
        for h, row in zip(hs.tolist(), rows):
            want = {h * k % n for k in range(n)}
            assert set(np.flatnonzero(row).tolist()) == want == power_exponent_set(n, h), (n, h)
    assert power_exponent_set(7, 10**30) == {10**30 * k % 7 for k in range(7)}


def test_factor_table_equals_factorize_cached_lane_by_lane(monkeypatch):
    # p - 1 for every prime p <= 10^5, n = 1, and lanes whose cofactor after
    # trial division is above (limit+1)^2: composite (1031 * 1033, 2^5 times
    # two primes above 2^20), prime (2^61 - 1 beside 2) or a prime power
    # (1031^2); those lanes, and only they, go to _factorize_cached, and
    # not the prime 1048583 between limit^2 and (limit+1)^2
    limit = _TRIAL_LIMIT
    large = [1031 * 1033, 32 * 1048573 * 1048583, 2 * (2**61 - 1), 3 * 1031**2, 2**62, 1023**2,
             2 * 1048583]
    n = np.array([1, *(_primes_in_range(2, 10**5 + 1) - 1).tolist(), *large], dtype=np.int64)
    seen = []
    factorize = cyclic._factorize_cached
    monkeypatch.setattr(cyclic, "_factorize_cached", lambda m: seen.append(m) or factorize(m))
    table, counts = _prime_factor_table(n)
    assert sorted(seen) == sorted([1031 * 1033, 1048573 * 1048583, 2**61 - 1, 1031**2])
    assert all(m >= (limit + 1) ** 2 for m in seen)
    for lane, m in enumerate(n.tolist()):
        want = [q for q, _ in _factorize_cached(m)]
        assert counts[lane] == len(want), m
        assert table[lane].tolist() == want + [1] * (table.shape[1] - len(want)), m


def test_pow_mod_against_python_pow():
    # lanes with exponent 0 and 1, a base above its modulus and moduli up
    # to P_MAX, where the products come closest to 2^63
    rng = random.Random(26)
    mods = [2, 3, 7, P_MAX, P_MAX - 2] + [rng.randrange(2, P_MAX + 1) for _ in range(500)]
    bases = [rng.randrange(0, 1 << 62) for _ in mods]
    exps = [0, 1, 2, P_MAX - 1, 5] + [rng.randrange(0, 1 << 40) for _ in mods[5:]]
    got = _pow_mod(np.array(bases), np.array(exps), np.array(mods))
    assert got.tolist() == [pow(b, e, m) for b, e, m in zip(bases, exps, mods)]


def test_primitive_root_examples():
    # orders mod 7: 2 has order 3, 3 has order 6
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 7) == 6
    assert find_primitive_root(7) == 3
    assert find_primitive_root(5) == 2
    assert find_primitive_root(3) == 2


def test_primitive_root_is_smallest_generator():
    for p in range(3, 500):
        if not is_prime(p):
            continue
        g = find_primitive_root(p)
        assert multiplicative_order(g, p) == p - 1
        assert all(multiplicative_order(c, p) < p - 1 for c in range(2, g))


def test_multiplicative_order_against_brute_force():
    for p in (3, 5, 7, 11, 13, 97, 101):
        for g in range(1, p):
            k, acc = 1, g % p
            while acc != 1:
                acc = acc * g % p
                k += 1
            assert multiplicative_order(g, p) == k


@pytest.mark.parametrize("g,p", [(2, 15), (4, 9), (3, 9), (5, 6)])
def test_multiplicative_order_rejects_a_composite_modulus(g, p):
    # without the check the loop stripped nothing and returned p - 1:
    # (2, 15) gave 14 (the order is 4) and (4, 9) gave 8 (the order is 3)
    with pytest.raises(ValueError):
        multiplicative_order(g, p)


def test_multiplicative_order_is_exact_for_a_fermat_pseudoprime():
    # 341 = 11 * 31 passes 2^340 == 1 mod 341, so the order is exact there
    assert pow(2, 340, 341) == 1
    assert multiplicative_order(2, 341) == 10
    assert multiplicative_order(2, 341) == next(k for k in range(1, 341) if pow(2, k, 341) == 1)


def test_batched_order_against_a_power_walk_for_every_unit_below_500():
    # one call over every unit g of every prime p < 500, against the least k
    # with g^k == 1 found by multiplying by g until the power reaches 1
    primes = _primes_in_range(2, 500)
    p = np.repeat(primes, primes - 1)
    g = np.concatenate([np.arange(1, q) for q in primes.tolist()])
    walk = np.zeros_like(p)
    power = g.copy()
    for k in range(1, int(primes.max())):
        walk[(power == 1) & (walk == 0)] = k
        power = power * g % p
    assert (walk > 0).all()
    assert multiplicative_order(g, p).tolist() == walk.tolist()


def scalar_strip(g: int, p: int) -> int:
    """The order strip for one unit mod a prime in Python integers: from
    p-1, divide out each prime q of p-1 while g^(order/q) == 1."""
    order = p - 1
    for q, _ in _factorize_cached(p - 1):
        while order % q == 0 and pow(g, order // q, p) == 1:
            order //= q
    return order


def test_batched_order_against_the_scalar_strip():
    # seeded random units at every prime up to 10^5, then at primes up to
    # P_MAX, where trial division leaves a cofactor of p - 1: prime below
    # 1025^2, or factored by _factorize_cached.  Beside each random unit x
    # stands x^q, q the largest prime of p - 1, whose order lacks q, so that
    # the strip must find q to be exact
    rng = random.Random(25)
    large = [2**31 - 1, 3037000429, 3037000453, 3037000493]
    while len(large) < 204:
        q = rng.randrange(1 << 21, P_MAX + 1)
        if is_prime(q):
            large.append(q)
    for primes in (_primes_in_range(3, 10**5 + 1).tolist(), large):
        units = [rng.randrange(1, p) for p in primes]
        units += [pow(x, _factorize_cached(p - 1)[-1][0], p) for x, p in zip(units, primes)]
        primes = primes * 2
        got = multiplicative_order(np.array(units), np.array(primes))
        assert got.tolist() == [scalar_strip(g, p) for g, p in zip(units, primes)]
    rests = [math.prod(q**e for q, e in _factorize_cached(p - 1) if q > 1024) for p in large]
    assert any(1 < r < 1025**2 for r in rests) and any(r >= 1025**2 for r in rests)


def test_batched_order_names_the_first_composite_lane():
    # a composite lane raises, whichever the lane; 341 = 11 * 31 is a Fermat
    # pseudoprime to base 2, so its lane stays exact beside the primes
    with pytest.raises(ValueError, match="lane 2"):
        multiplicative_order(np.array([3, 2, 2, 4]), np.array([7, 11, 15, 9]))
    with pytest.raises(ValueError, match="lane 1"):
        multiplicative_order(np.array([3, 4, 2]), np.array([7, 9, 15]))
    with pytest.raises(ValueError, match="lane 1"):
        multiplicative_order(np.array([3, 14]), 7)
    assert multiplicative_order(2, np.array([7, 341, 11])).tolist() == [3, 10, 10]


def order_sum_over_all_characters(table, d, g):
    """order_sum by a walk over all p-1 characters in ascending j, keeping
    those of order d; test oracle only."""
    n = table.n
    total = 0j
    for j in range(n):
        if n // math.gcd(j, n) == d:
            total += table.chi(j, g)
    return total


def test_order_sum_equals_the_walk_over_all_characters():
    # the same characters added in the same order: equal bit for bit
    for p in _primes_in_range(3, 201).tolist():
        table = CharacterTable(p)
        for d in divisors(p - 1):
            for g in range(1, p):
                assert table.order_sum(d, g) == order_sum_over_all_characters(table, d, g), \
                    (p, d, g)


def test_character_count_builds_only_the_discrete_logs():
    # count --method character reads dlog alone; the roots of unity and the
    # characters by order are built on first use
    character_table.cache_clear()
    character_count(decompose(2, 1), 100)
    table = character_table(97)
    assert "_roots" not in vars(table) and "_by_order" not in vars(table)
    table.order_sum(4, 3)
    assert "_roots" in vars(table) and "_by_order" in vars(table)


def test_character_order_sum_examples():
    z = character_table(13).order_sum(1, 6)
    assert abs(z - 1) < 1e-8  # only the trivial character has order 1
    z = character_table(7).order_sum(2, 3)
    assert abs(z.imag) < 1e-8 and abs(z.real - (-1)) < 1e-8
    assert ramanujan_c(2, character_table(7).group_index(3)) == -1
    # direct summation oracle at (7, 3, 2): index of <2> in F_7^* is 2
    assert multiplicative_order(2, 7) == 3
    assert character_table(7).group_index(2) == 2
    assert ramanujan_c(3, 2) == -1
    z = character_table(7).order_sum(3, 2)
    assert abs(z.imag) < 1e-8 and abs(z.real - (-1)) < 1e-8


def test_character_order_sum_rejects_bad_order():
    with pytest.raises(ValueError):
        character_table(7).order_sum(4, 3)


@pytest.mark.parametrize("call", [
    lambda: order_valuation_count(0, 1, 0),      # n < 1
    lambda: order_valuation_count(4, 1, -1),     # w < 0
    lambda: multiplicative_order(7, 7),          # not a unit
    lambda: multiplicative_order(2, P_MAX + 1),  # residue products overflow int64
    lambda: character_table(7).dlog(0),
    lambda: ramanujan_c(3, -1),
    lambda: ramanujan_c_2pow(2, -1),
    lambda: _degree_gap_sum(False, 0),
    lambda: CharacterTable(2),                   # not an odd prime
    lambda: CharacterTable(9),
], ids=["valuation-n", "valuation-w", "order", "order-bound", "dlog", "c", "c-2pow", "gap-sum",
        "table-2", "table-9"])
def test_out_of_range_arguments_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_character_table_small_primes():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        table = CharacterTable(p)
        n = p - 1
        # multiplicativity on a sample of pairs
        for g1 in range(1, p):
            for g2 in range(1, p):
                for j in (0, 1, n // 2):
                    lhs = table.chi(j, g1 * g2)
                    rhs = table.chi(j, g1) * table.chi(j, g2)
                    assert abs(lhs - rhs) < 1e-8
        # orthogonality
        for j in range(n):
            total = sum(table.chi(j, g) for g in range(1, p))
            assert abs(total - (n if j == 0 else 0)) < 1e-8
        # order-d sums against c_d of the group index
        for d in divisors(n):
            for g in range(1, p):
                z = table.order_sum(d, g)
                c = ramanujan_c(d, table.group_index(g))
                assert abs(z.imag) < 1e-8
                assert abs(z.real - c) < 1e-8
                assert round(z.real) == c
