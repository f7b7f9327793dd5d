"""The vector classifier and the segment fold against the scalar Python-int
reference classify_prime, over the whole supported range up to 2^40."""

import functools
import math
import random
import signal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from powsumdiv import census, cli
from powsumdiv.arith import (
    _mulmod_f53,
    _mulmod_f64,
    _mulmod_regime,
    _mulmod_u64,
    _pow_mod,
    _v2,
    is_prime,
    v2,
)
from powsumdiv.census import (
    _LEGENDRE_KERNEL_LIMIT,
    _S_CELLS,
    _SPECIAL_T,
    MAX_X,
    Counts,
    InternalInconsistencyError,
    _classify,
    _decode,
    _evaluate,
    _fold_segment,
    _inverse,
    _legendre_table,
    _primes_in_range,
    _r0_valuation,
    _tally,
    _weights,
    _worker_count,
    classify_prime,
    sweep,
)
from powsumdiv.profile import decompose
from powsumdiv.ramanujan import ramanujan_c_2pow
from powsumdiv.verify import PROFILE_GRID

GOLDEN = Path(__file__).parent / "golden"

# b = 1 and b != 1, eps = +-1, e = 0, 1, 2, 4, Q(sqrt 2), a large |D|, a
# near-63-bit a, eps = -1 with e >= 2 or with r0_den != 1 (where t is not
# v2 of the order of r0^h), r0_num = 1, the smaller term of r0 at
# 2^16 - 1 (the largest inverse table) and 2^16 (the Fermat inverse), and the
# kernel at 2^16 - 1 (the largest Legendre table) and 2^16 + 1 (none)
WIDE_PAIRS = [(2, 1), (-4, 1), (8, 27), (7, 3), (16, 1),
              (-1000003, 999331), (2**62 + 135, 3), (-(2**63 - 1), 2**63 - 25),
              (-16, 1), (-81, 16), (-9, 4), (-(2**48), 1), (-1, 9),
              (65537, 65535), (65537, 65536), (65535, 1), (65537, 1)]


def without_special(profile, primes):
    special = [p for p, _ in profile.special_primes]
    return primes[~np.isin(primes, special)]


def generic_primes(profile, lo, hi):
    return without_special(profile, _primes_in_range(lo, hi))


def assert_kernel_matches_oracle(profile, primes):
    s, t, leg = _classify(profile, primes)
    got = list(zip(s.tolist(), t.tolist(), leg.tolist()))
    want = [classify_prime(profile, p)[:3] for p in primes.tolist()]
    assert got == want, (profile.a, profile.b)


# ---------------------------------------------------------------------------
# per-prime (s, t, leg)


@pytest.mark.parametrize("a,b", PROFILE_GRID)
def test_kernel_all_primes_below_1e5(a, b):
    profile = decompose(a, b)
    assert_kernel_matches_oracle(profile, generic_primes(profile, 2, 10**5))


@pytest.mark.parametrize("lo,hi", [
    (2**26 - 2**16, 2**26),             # float64 mulmod at its tightest margin
    (2**26 - 2**15, 2**26 + 2**15),     # straddles 2^26: uint64 mulmod
    (2**32 - 2**16, 2**32),             # uint64 mulmod, just below 2^32
    (2**32 - 2**15, 2**32 + 2**15),     # straddles 2^32: float-quotient mulmod
    (2**40 - 2**16, 2**40),             # just below 2^40
])
def test_kernel_wide_segments(lo, hi):
    window = _primes_in_range(lo, hi)
    for a, b in WIDE_PAIRS:
        profile = decompose(a, b)
        assert_kernel_matches_oracle(profile, without_special(profile, window))


def test_kernel_large_s():
    # p = 43 * 2^32 + 1 has s = 32: t and the Legendre symbol take the
    # longest squaring chains
    p = 43 * 2**32 + 1
    window = _primes_in_range(p - 2**12, p + 2**12)
    for a, b in WIDE_PAIRS:
        profile = decompose(a, b)
        primes = without_special(profile, window)
        assert p in primes.tolist()
        assert_kernel_matches_oracle(profile, primes)


def test_legendre_table_switch():
    assert decompose(65535, 1).kernel == _LEGENDRE_KERNEL_LIMIT - 1
    assert decompose(65537, 1).kernel == _LEGENDRE_KERNEL_LIMIT + 1


@pytest.mark.parametrize("a,b", [(2, 1), (-16, 1), (49, 9), (65535, 1), (65537, 1)])
def test_kernel_legendre_routes(a, b):
    # Q(sqrt 2), eps = -1 with e = 2, e = 1 with kernel 21, and both sides
    # of the table switch.  Each takes every route of _classify: leg = -1
    # (t0 = s), leg = +1 with s <= e+1 (no power) and with s >= e+2
    profile = decompose(a, b)
    primes = generic_primes(profile, 5 * 10**6, 5 * 10**6 + 2**15)
    assert_kernel_matches_oracle(profile, primes)
    s, _, leg = _classify(profile, primes)
    routes = np.where(leg < 0, 0, np.where(s >= profile.e + 2, 2, 1))
    assert set(routes.tolist()) == {0, 1, 2}
    if profile.is_sqrt2:
        # (2/p) = -1 for p = 5 mod 8 (s = 2), +1 for p = 1 mod 8 (s >= 3)
        assert (leg[s == 2] == -1).all() and (leg[s >= 3] == 1).all()


@pytest.mark.parametrize("a,b", [(2, 1), (8, 27), (-16, 1), (65537, 1)])
def test_kernel_chunk_boundaries(monkeypatch, a, b):
    # with 2^6-prime chunks the primes that take the power, gathered from
    # the whole array (all of them for the kernel 65537), span many chunks
    # and end in a partial one
    monkeypatch.setattr(census, "_CHUNK", 1 << 6)
    profile = decompose(a, b)
    primes = generic_primes(profile, 6 * 10**6, 6 * 10**6 + 2**15)
    assert_kernel_matches_oracle(profile, primes)
    s, _, leg = _classify(profile, primes)
    power = len(primes) if profile.kernel >= _LEGENDRE_KERNEL_LIMIT else \
        int(((leg > 0) & (s >= profile.e + 2)).sum())
    assert power > 3 * 64 and power % 64 and len(primes) % 64


@pytest.mark.parametrize("kernel", [2, 5, 7, 30, 105, 231, 3599])
def test_legendre_table_against_euler(kernel):
    # kernels = 2, 1, 3, 2, 1, 3, 3 mod 4: the entry of every odd class
    # prime to the kernel against Euler's criterion at a prime of that
    # class, and 0 at every other entry
    period = 4 * kernel
    table = _legendre_table(kernel)
    assert table.dtype == np.int8 and len(table) == period
    for n, leg in enumerate(table.tolist()):
        if n % 2 == 0 or math.gcd(n, kernel) > 1:
            assert leg == 0, (kernel, n)
            continue
        p = next(q for q in range(n, n + 1000 * period, period) if q > 2 and is_prime(q))
        assert leg == (1 if pow(kernel, (p - 1) // 2, p) == 1 else -1), (kernel, n)


# the largest primes below 2^26, 2^32 and 2^40
TOP_PRIMES = [2**26 - 5, 2**32 - 5, 2**40 - 87]


@pytest.mark.parametrize("k", [1, 2, 3, 60, 65535, 2**16, 2**16 + 1, 2**63 - 25])
def test_inverse_is_exact(k):
    # the closed form below 2^16 and Fermat's k^(p-2) from 2^16 on, in each
    # mulmod regime of _r0_valuation: float64 residues below 2^26, uint64
    # below 2^32, uint64 with a float quotient up to 2^40
    for top, dtype, mulmod in zip(TOP_PRIMES, (np.float64, np.uint64, np.uint64),
                                  (_mulmod_f53, _mulmod_u64, _mulmod_f64)):
        primes = np.array([q for q in range(top - 2000, top + 1) if is_prime(q)], dtype=np.int64)
        if mulmod is not _mulmod_u64:
            mulmod = functools.partial(mulmod, p_inv=1 / primes)
        p = primes.astype(dtype)
        inv = _inverse(k, primes, mulmod, p)
        assert inv.dtype == dtype
        for q, i in zip(primes.tolist(), inv.astype(np.int64).tolist()):
            assert 0 < i < q and k * i % q == 1, (k, q)


def test_mulmod_f53_is_exact():
    p = TOP_PRIMES[0]
    assert is_prime(p)
    top = np.float64(p - 1)
    assert _mulmod_f53(top, top, np.float64(p), 1 / np.float64(p)) == (p - 1) ** 2 % p
    rng = np.random.default_rng(0)
    x, y = rng.integers(0, p, size=(2, 10**5))
    got = _mulmod_f53(x.astype(np.float64), y.astype(np.float64), np.float64(p), 1 / np.float64(p))
    assert got.astype(np.int64).tolist() == [a * b % p for a, b in zip(x.tolist(), y.tolist())]


def test_mulmod_f64_is_exact():
    p = TOP_PRIMES[2]
    assert is_prime(p)
    rng = np.random.default_rng(0)
    x, y = rng.integers(0, p, size=(2, 10**5))
    # the extremes: quotients near 0 and near p, and products next to a multiple of p
    edge = [0, 1, 2, p - 2, p - 1, (p + 1) // 2]
    x = np.concatenate([x, np.repeat(edge, len(edge))]).astype(np.uint64)
    y = np.concatenate([y, np.tile(edge, len(edge))]).astype(np.uint64)
    pp = np.full(len(x), p, dtype=np.uint64)
    got = _mulmod_f64(x, y, pp, 1 / pp.astype(np.float64))
    assert got.tolist() == [a * b % p for a, b in zip(x.tolist(), y.tolist())]


@pytest.mark.parametrize("top, dtype, mulmod", [
    (TOP_PRIMES[0], np.float64, _mulmod_f53),
    (TOP_PRIMES[1], np.uint64, _mulmod_u64),
    (TOP_PRIMES[2], np.uint64, _mulmod_f64),
], ids=["f53", "u64", "f64"])
def test_pow_mod_against_python_pow_in_each_regime(top, dtype, mulmod):
    # the regime is that of the largest modulus, so small primes beside the top
    # one take it too; every exponent length from 1 to 41 bits, so that the top
    # window is full and partial, exponent 0, and bases of p or more
    rng = random.Random(top)
    primes = [3, 5, 7, 11, 13, 1031, 65537] + [q for q in range(top - 400, top + 1) if is_prime(q)]
    assert all(q < 2**26 for q in primes[:7]) and is_prime(top)
    chosen, p = _mulmod_regime(np.array(primes))
    assert getattr(chosen, "func", chosen) is mulmod and p.dtype == dtype
    mods, exps = [], []
    for bits in range(0, 42):
        for q in primes:
            mods.append(q)
            exps.append(rng.randrange(1 << bits >> 1, 1 << bits) if bits else 0)
        mods.append(top)
        exps.append((1 << bits) - 1)  # every window full of ones
    bases = [rng.randrange(0, 1 << 62) for _ in mods]
    bases[-3:] = [0, 1, top]  # 0 and 1, and a base equal to its modulus
    mods[-3:] = [top] * 3
    got = _pow_mod(np.array(bases), np.array(exps), np.array(mods))
    assert got.dtype == np.int64
    assert got.tolist() == [pow(b, e, m) for b, e, m in zip(bases, exps, mods)]
    # exponent 0 on every lane has no bit, so no window is read: ones
    zero = np.zeros(len(mods), dtype=np.int64)
    assert _pow_mod(np.array(bases), zero, np.array(mods)).tolist() == [1] * len(mods)
    assert _pow_mod(*(np.empty(0, dtype=np.int64),) * 3).tolist() == []


def test_pow_mod_maps_the_f53_remainder_p_to_0():
    # 7 * 7 = 49: the quotient is exactly 1, and fl(49 * fl(1/49)) falls just
    # below it, so the f53 mulmod leaves 49 where 0 belongs.  A prime modulus
    # or unit residues never meet this (_mulmod_f53's docstring).
    assert _mulmod_f53(np.float64(7), np.float64(7), np.float64(49), 1 / np.float64(49)) == 49
    mods = np.array([49, 49, 9, 2**20])
    bases = np.array([7, 14, 3, 2**10])
    exps = np.array([2, 5, 3, 2])
    assert _pow_mod(bases, exps, mods).tolist() == [pow(int(b), int(e), int(m)) for b, e, m
                                                     in zip(bases, exps, mods)] == [0, 0, 0, 0]


nonzero_63 = st.integers(-(2**63) + 1, 2**63 - 1).filter(lambda n: n != 0)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a=nonzero_63, b=nonzero_63, lo=st.integers(3, MAX_X - 2**12))
def test_kernel_random_pairs(a, b, lo):
    if abs(a) == abs(b):
        return
    profile = decompose(a, b)
    primes = generic_primes(profile, lo, lo + 2**12)
    if len(primes):
        assert_kernel_matches_oracle(profile, primes)


@st.composite
def power_pairs(draw):
    """(+-c u^h, c v^h) below 2^63 with u != v: a/b = +-(u/v)^h, so r0 is
    u/v or a root of it and e >= v2(h); u or v may be 1."""
    h = draw(st.sampled_from((2, 3, 4, 6, 8, 12, 16)))
    top = round(2 ** (62 / h))
    while top**h >= 2**62:
        top -= 1
    u, v = draw(st.lists(st.integers(1, top), min_size=2, max_size=2, unique=True))
    c = draw(st.integers(1, 2**62 // max(u, v) ** h))
    return draw(st.sampled_from((-1, 1))) * c * u**h, c * v**h


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pair=power_pairs(), lo=st.integers(3, MAX_X - 2**12))
def test_kernel_power_pairs(pair, lo):
    profile = decompose(*pair)
    primes = generic_primes(profile, lo, lo + 2**12)
    if len(primes):
        assert_kernel_matches_oracle(profile, primes)


def _alarm(signum, frame):
    raise TimeoutError("_classify did not return within 10 s")


def test_kernel_squaring_loop_is_bounded():
    # were 9 passed as a prime, 2^(odd part of 8) = 2 would never square to
    # 1 mod 9; the loop stops after s + 1 = 4 rounds instead of running
    # forever.  For (65537, 65536), k = 2^16 takes the Fermat inverse
    # 7^7 = 7 mod 9, so r0 = 8 * 7 = 2 mod 9 as well.
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(10)
    try:
        for a, b in [(2, 1), (65537, 65536)]:
            with pytest.raises(InternalInconsistencyError):
                _classify(decompose(a, b), np.array([9], dtype=np.int64))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("edge", [2**26, 2**32])
def test_r0_valuation_drops_lanes_across_a_regime_edge(edge):
    # r0 = 2: the 1100 primes above the edge have odd order (t0 = 0) and are
    # at 1 at once, the 20 below take two squarings or more.  Dropping the
    # lanes at 1 leaves only primes below the edge, which are then squared in
    # the mulmod regime below it.
    def t0(p):
        x, s = pow(2, (p - 1) >> v2(p - 1), p), 0
        while x != 1:
            x, s = x * x % p, s + 1
        return s

    below = [p for p in _primes_in_range(edge - 2**12, edge).tolist() if t0(p) >= 2][:20]
    above = [p for p in _primes_in_range(edge, edge + 2**17).tolist() if t0(p) == 0][:1100]
    assert len(below) == 20 and len(above) == 1100
    primes = np.array(below + above)
    kinds = [getattr(m, "func", m) for m, _ in map(_mulmod_regime, (np.array(below), primes))]
    assert kinds[0] is not kinds[1]
    got = _r0_valuation(decompose(2, 1), primes, _v2(primes - 1).astype(np.int8))
    assert got.tolist() == [t0(p) for p in below + above]


# ---------------------------------------------------------------------------
# the fold and the views: cell counts to every counting function


def prime_views(profile, s, t, leg) -> list[Fraction]:
    """k1, k2, the three truncated Ramanujan-sum counts and the explicit
    formula for one generic prime with cell (s, t, leg), from c_{2^v} at
    the group index, whose 2-adic valuation is s - t: the local factors
    k1 and k2 are 1 - ram_e and 1 - ram_e1, the identity of the paper that
    verify.check_local_factors checks prime by prime."""
    e, eps = profile.e, profile.eps
    rams = []
    for top in (min(e, s), min(e + 1, s), s):
        total = sum(ramanujan_c_2pow(v, 1 << (s - t)) for v in range(top + 1))
        rams.append(1 - Fraction(total, 1 << s))
    views = [1 - rams[0], 1 - rams[1], *rams]
    # pi(x; 2^(e+1), 1) minus 2^(e+1-s) where (r0/p) = 1 for eps = 1; for
    # eps = -1 every prime, minus those with s = e+1 and (r0/p) = -1, minus
    # 2^(e+1-s) where (r0/p) = 1 and s > e+1
    legendre_sum = Fraction(2 << e, 1 << s) if leg == 1 else 0
    if eps == 1:
        views.append(int(s > e) - (legendre_sum if s > e else 0))
    else:
        views.append(1 - int(s == e + 1 and leg == -1) - (legendre_sum if s > e + 1 else 0))
    return views


def scalar_fold(profile, primes) -> Counts:
    """Reference for _tally: every view summed one prime at a time in
    Fractions from classify_prime and prime_views."""
    ints = [0, 0, 0, 0]  # pi, n_exact, n_generic, pi_generic
    sums = [Fraction(0)] * 6
    for p in primes:
        s, t, leg, divides = classify_prime(profile, p)
        ints[0] += 1
        ints[1] += divides
        if t is None:
            continue
        ints[2] += divides
        ints[3] += 1
        sums = [a + b for a, b in zip(sums, prime_views(profile, s, t, leg))]
    return Counts(*ints, *sums)


def fold_views(profile, lo, hi, cuts=()) -> list[Counts]:
    return [_evaluate(_tally(profile, cells)) for cells in _fold_segment(profile, lo, hi, cuts)]


@pytest.mark.parametrize("a,b", PROFILE_GRID + [(7, 3), (-1000003, 999331)])
def test_fold_segment_matches_scalar_fold(a, b):
    profile = decompose(a, b)
    cuts = (3, 8, 100, 1001, 2000)
    pieces = fold_views(profile, 2, 3001, cuts)
    edges = [2, *cuts, 3001]
    for lo, hi, piece in zip(edges, edges[1:], pieces):
        assert piece == scalar_fold(profile, _primes_in_range(lo, hi).tolist()), (lo, hi)


def test_fold_segment_near_2_40():
    for a, b in [(2, 1), (7, 3), (-(2**63 - 1), 2**63 - 25)]:
        profile = decompose(a, b)
        lo, hi = 43 * 2**32 + 1 - 2**11, 43 * 2**32 + 1 + 2**11
        mid = 43 * 2**32 + 2
        pieces = fold_views(profile, lo, hi, (mid,))
        assert pieces == [scalar_fold(profile, _primes_in_range(lo, mid).tolist()),
                          scalar_fold(profile, _primes_in_range(mid, hi).tolist())]


def test_fold_segment_matches_classify_prime_on_oracle_grid():
    # verify's oracle suite checks the kernel's cells against direct search
    # on this grid (|a|, |b| <= 12, p <= 2000, special primes included);
    # kernel = reference here, so that suite still certifies classify_prime
    primes = _primes_in_range(2, 2001)
    for a in range(-12, 13):
        for b in range(-12, 13):
            if a == 0 or b == 0 or abs(a) == abs(b):
                continue
            profile = decompose(a, b)
            (cells,) = _fold_segment(profile, 2, 2001)
            s, t, bit, generic, divides = (v.tolist() for v in _decode(cells))
            got = [(s_p, t_p, 2 * bit_p - 1, div) if gen else (s_p, None, None, div)
                   for s_p, t_p, bit_p, gen, div in zip(s, t, bit, generic, divides)]
            assert got == [classify_prime(profile, p) for p in primes.tolist()], (a, b)


def test_fold_segment_every_s():
    # the least prime k 2^s + 1 (k odd) for each s that has one below 2^40
    # (all but s = 34, 35, 37, 38, 39), so every s row of the cells is
    # decoded
    windows = []
    for s in range(1, 40):
        p = next((k * 2**s + 1 for k in range(1, 2**(40 - s), 2)
                  if k * 2**s + 1 <= MAX_X and is_prime(k * 2**s + 1)), None)
        if p is not None:
            windows.append(p)
    assert len(windows) == 34
    for a, b in [(2, 1), (7, 3), (-(2**63 - 1), 2**63 - 25)]:
        profile = decompose(a, b)
        for p in windows:
            if any(p == q for q, _ in profile.special_primes):
                continue
            assert fold_views(profile, p, p + 1) == [scalar_fold(profile, [p])], p


def reachable_cells(profile, s) -> set[tuple[int, int]]:
    """The (t, leg) a generic prime with v2(p-1) = s >= 1 can take, one for
    each t0 = v2(ord r0) in [0, s]: leg = +1 iff t0 < s, and t comes from
    u = max(t0 - e, 0) as in _classify."""
    cells = set()
    for t0 in range(s + 1):
        u = max(t0 - profile.e, 0)
        cells.add((u if profile.eps == 1 else u ^ (u < 2), 1 if t0 < s else -1))
    return cells


# every (e, eps) key of _weights: e = v2(h) in [0, 5], eps = +-1
@pytest.mark.parametrize("a,b", [(2, 1), (-2, 1), (4, 1), (-4, 1), (16, 1), (-16, 1), (256, 1),
                                 (-256, 1), (2**16, 1), (8, 27), (2**32, 1), (-(2**32), 1),
                                 (-(2**48), 1)])
def test_evaluate_worst_case_histogram(a, b):
    # the worst-case cell histogram of one piece, which holds fewer than
    # 2^19 primes (a segment of 2^20 numbers): 2^19 - 1 cells spread evenly
    # over every reachable cell of every row s < 40, so the Ramanujan
    # views' int64 sums in _tally come near 2^59 and stay exact
    profile = decompose(a, b)
    reachable = []  # (code, special divides or None, s, t, leg)
    for s in range(40):
        for divides in (False, True):  # a special prime's cell
            reachable.append(((s * _S_CELLS + _SPECIAL_T) * 2 + divides, divides, s, None, None))
        for t, leg in sorted(reachable_cells(profile, s)) if s else ():
            reachable.append(((s * _S_CELLS + t) * 2 + (leg > 0), None, s, t, leg))
    share, extra = divmod(2**19 - 1, len(reachable))
    counts = [share + (i < extra) for i in range(len(reachable))]
    cells = np.repeat([code for code, *_ in reachable], counts).astype(np.int16)
    np.random.default_rng(0).shuffle(cells)
    assert len(cells) == 2**19 - 1
    ints = [0, 0, 0, 0]  # pi, n_exact, n_generic, pi_generic
    sums = [Fraction(0)] * 6
    for (_, divides, s, t, leg), n in zip(reachable, counts):
        ints[0] += n
        if t is None:
            ints[1] += n * divides
            continue
        ints[1] += n * (t > 0)
        ints[2] += n * (t > 0)
        ints[3] += n
        sums = [a + n * w for a, w in zip(sums, prime_views(profile, s, t, leg))]
    tally = _tally(profile, cells)
    assert _evaluate(tally) == Counts(*ints, *sums)
    # the merged Python-int totals stay exact past 2^63
    acc, k = tally.copy(), 1
    while max(acc.totals) < 2**63:
        acc.merge(acc.copy())
        k *= 2
    assert acc.totals == tuple(k * v for v in tally.totals)
    assert _evaluate(acc) == Counts(*(k * v for v in ints), *(k * v for v in sums))


def test_weights_are_read_only_and_at_most_2_40():
    # _tally's int64 bound (fewer than 2^19 primes a piece, each entry at
    # most 2^40: every sum below 2^59) needs every cell in range, the
    # unreachable ones (t > s, s = 40) included
    for e in range(6):
        for eps in (1, -1):
            table = _weights(e, eps)
            assert table.shape == (len(Counts._fields), 2 * _S_CELLS**2)
            assert not table.flags.writeable, (e, eps)
            assert table.min() >= 0 and table.max() <= 2**40, (e, eps)


# ---------------------------------------------------------------------------
# output frozen at the per-prime implementation


CHECKPOINTS_7_3 = [2, 3, 5, 7, 10, 97, 1000, 65535, 65536, 65537, 100000, 131072, 299999, 300000]


@pytest.mark.parametrize("argv,golden", [
    (["sweep", "8", "27", "100000", "--format", "json"], "sweep_8_27_100000.json"),
    (["sweep", "7", "3", "300000", "--checkpoint-list", ",".join(map(str, CHECKPOINTS_7_3))],
     "sweep_7_3_checkpoint_list.csv"),
])
def test_sweep_matches_golden_output(capsys, argv, golden):
    assert cli.main(argv + ["--threads", "1"]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_sweep_golden_across_segment_boundaries(monkeypatch):
    # 65535, 65536, 65537 and 131072 sit at the edges of 2^16-wide segments
    monkeypatch.setattr(census, "SEGMENT_SIZE", 1 << 16)
    series = sweep(decompose(7, 3), CHECKPOINTS_7_3)
    assert cli.render_sweep(series, "csv") == (GOLDEN / "sweep_7_3_checkpoint_list.csv").read_text()


# ---------------------------------------------------------------------------
# worker cap


def test_worker_count_cap(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert _worker_count(1, 100) == 1
    assert _worker_count(3, 100) == 3
    assert _worker_count(10**6, 100) == 4      # capped by the CPUs
    assert _worker_count(8, 2) == 2            # capped by the tasks
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert _worker_count(8, 100) == 1
