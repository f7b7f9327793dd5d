"""Census: prime streaming, classification, and the exact identities
between every counting route."""

import concurrent.futures
import itertools
import math
import random
import signal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference
from powsumdiv.census import (
    CountAccumulator,
    InternalInconsistencyError,
    _S_CELLS,
    _accumulate,
    _census,
    _check_bounds,
    _evaluate,
    _fold_segment,
    _primes_in_range,
    _segments,
    _simple_sieve,
    _tally,
    _weights,
    character_count,
    classify_prime,
    count_exact,
    formula_count,
    heuristic_counts,
    ramanujan_count,
    sweep,
    tail_sum,
)
from powsumdiv import census
from powsumdiv.profile import decompose
from powsumdiv.verify import PROFILE_GRID


# ---------------------------------------------------------------------------
# oracles

def sieve_oracle(limit: int) -> list[int]:
    """Independent odd-only sieve (no numpy, no shared code)."""
    if limit < 2:
        return []
    size = (limit - 1) // 2  # odd numbers 3, 5, ..., indexed (n-3)/2
    flags = bytearray([1]) * size
    i = 0
    while True:
        n = 2 * i + 3
        if n * n > limit:
            break
        if flags[i]:
            for j in range((n * n - 3) // 2, size, n):
                flags[j] = 0
        i += 1
    return [2] + [2 * i + 3 for i in range(size) if flags[i]]


def divides_sequence_direct(a: int, b: int, p: int) -> bool:
    """Search a^k + b^k for divisibility by p, k up to 2p."""
    am, bm = a % p, b % p
    x, y = 1, 1
    for _ in range(2 * p):
        x = x * am % p
        y = y * bm % p
        if (x + y) % p == 0:
            return True
    return False


def count_direct(a: int, b: int, x: int) -> int:
    return sum(1 for p in sieve_oracle(x) if divides_sequence_direct(a, b, p))


# ---------------------------------------------------------------------------
# prime stream: the sieve segments that sweeps and counts walk


def prime_stream(x_max: int) -> list[int]:
    """Every prime <= x_max from the segmented sieve, as sweep visits them."""
    _check_bounds(x_max)
    return [p for lo, hi in _segments(x_max) for p in _primes_in_range(lo, hi).tolist()]


def test_prime_stream_small():
    assert list(prime_stream(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert list(prime_stream(2)) == [2]


def test_prime_stream_counts():
    assert sum(1 for _ in prime_stream(10**6)) == 78498
    assert len(sieve_oracle(10**6)) == 78498
    assert sum(1 for _ in prime_stream(10**7)) == 664579


def test_prime_stream_segment_independence(monkeypatch):
    want = list(prime_stream(10**5))
    assert want == sieve_oracle(10**5)
    for seg in (1 << 10, 1 << 14, 1 << 22):
        monkeypatch.setattr(census, "SEGMENT_SIZE", seg)
        assert list(prime_stream(10**5)) == want


def test_prime_stream_validation():
    with pytest.raises(ValueError):
        list(prime_stream(1))
    with pytest.raises(ValueError):
        list(prime_stream(2**40 + 1))
    # a float x raised TypeError from the sieve; one equal to an x already
    # counted must not be served from the cache either
    assert count_exact(decompose(2, 1), 1000) == count_exact(decompose(2, 1), np.int64(1000))
    for x in (1000.0, 2.5):
        with pytest.raises(ValueError):
            list(prime_stream(x))
        with pytest.raises(ValueError):
            count_exact(decompose(2, 1), x)


def window_sieve(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi) by striking every multiple, evens included, of
    the primes up to isqrt(hi - 1) from _simple_sieve."""
    lo = max(lo, 2)
    flags = bytearray([1]) * max(hi - lo, 0)
    for q in _simple_sieve(math.isqrt(hi - 1)).tolist():
        for n in range(max(q * q, (lo + q - 1) // q * q), hi, q):
            flags[n - lo] = 0
    return [lo + i for i, flag in enumerate(flags) if flag]


# the squares of the base primes 3, 5, 7, 31 and 1009, and of 65521, the
# largest prime below 2^16
SQUARES = [q * q for q in (3, 5, 7, 31, 1009, 65521)]
# windows whose isqrt(hi - 1) is 2^k - 1, 2^k and 2^k + 1: the first takes
# its base primes from the cached sieve to 2^k, the others from the one to
# 2^(k+1)
ROOT_EDGES = [(r * r - 40, r * r + 1) for k in (10, 16, 20) for r in (2**k - 1, 2**k, 2**k + 1)]


@pytest.mark.parametrize("lo,hi", [
    *[(lo, lo + 1) for lo in (2, 3, 4, 5, 9, 13, 14)],
    (2, 3), (2, 4), (3, 3), (4, 4), (1, 50), (0, 2), (10, 11), (11, 100), (12, 101), (13, 99),
    *[(sq - d, sq + 1 + d) for sq in SQUARES for d in (0, 1, 6)],
    *[(sq + 1, sq + 40) for sq in SQUARES], *[(sq - 40, sq) for sq in SQUARES],
    (2**32 - 2**12, 2**32 + 2**12 + 1), (2**40 - 2**12 - 1, 2**40), *ROOT_EDGES,
])
def test_odd_only_sieve_against_scalar_sieve(lo, hi):
    want = window_sieve(lo, hi)
    assert _primes_in_range(lo, hi).tolist() == want
    if hi <= 10**6:
        primes = _simple_sieve(hi - 1)
        assert want == primes[primes >= lo].tolist()


def test_sieve_windows_agree_across_base_cache_evictions():
    # the windows need base sieves to 2^5 and to 2^20, so each call evicts
    # the one-entry cache the other filled
    windows = [(100, 1000), (2**40 - 2**12 - 1, 2**40)]
    want = [window_sieve(lo, hi) for lo, hi in windows]
    census._base_primes.cache_clear()
    for _ in range(3):
        for (lo, hi), primes in zip(windows, want):
            assert _primes_in_range(lo, hi).tolist() == primes
    assert census._base_primes.cache_info().misses == 6


# ---------------------------------------------------------------------------
# classification

def test_classify_examples():
    p21 = decompose(2, 1)
    assert classify_prime(p21, 3)[3]               # 3 | 2^1 + 1
    assert not classify_prime(p21, 7)[3]           # 2^k + 1 mod 7 cycles {3, 5, 2}
    assert [pow(2, k, 7) + 1 for k in (1, 2, 3)] == [3, 5, 2]
    assert classify_prime(p21, 5) == (2, 2, -1, True)
    # 4 = 2^2 has e = 1; s = v2(10) = 1 <= e forces odd order: ord_4(11) = 5
    assert not classify_prime(decompose(4, 1), 11)[3]
    assert classify_prime(p21, 2) == (0, None, None, False)    # p | 2ab
    # the one-lane route through the kernel against the scalar reference:
    # primes on both sides of the mulmod regime edges 2^26 and 2^32, the
    # largest prime <= 2^40, 43 * 2^32 + 1 (s = 32), special primes, and
    # the kernel 2^16 + 1, which has no Legendre table
    edges = [2**26 - 5, 2**26 + 15, 2**32 - 5, 2**32 + 15, 2**40 - 87, 43 * 2**32 + 1]
    for a, b in [(2, 1), (-16, 1), (8, 27), (7, 3), (65537, 1), (-(2**63 - 1), 2**63 - 25)]:
        profile = decompose(a, b)
        for p in [2, 3, 5, 7, 11, 13, 65537, *edges]:
            assert classify_prime(profile, p) == reference.classify_prime(profile, p), (a, b, p)


def test_classify_rejects_non_primes_and_out_of_range():
    p21 = decompose(2, 1)
    for p in (-7, 0, 1, 9, 91, 2047, 2**40 + 15):
        with pytest.raises(ValueError):
            classify_prime(p21, p)
    assert classify_prime(p21, 2**40 - 87)[0] == 3     # the largest prime <= 2^40


def test_classify_order_loop_is_bounded(monkeypatch):
    # were 9 accepted, 2^(odd part of 8) = 2 would never square to 1 mod 9;
    # the kernel's squaring loop stops after s + 1 = 4 rounds instead of
    # running forever
    monkeypatch.setattr(census, "is_prime", lambda n: True)
    with pytest.raises(InternalInconsistencyError):
        classify_prime(decompose(2, 1), 9)


def test_classify_invariants_small_grid():
    for a in range(-6, 7):
        for b in range(1, 7):
            if a == 0 or abs(a) == b:
                continue
            profile = decompose(a, b)
            for p in sieve_oracle(300):
                s, t, leg, divides = classify_prime(profile, p)
                assert divides == divides_sequence_direct(a, b, p), (a, b, p)
                if t is not None:
                    assert 0 <= t <= s
                    assert divides == (t >= 1)
                    assert leg in (-1, 1)


def test_legendre_against_square_enumeration():
    # the classifier's Legendre symbol against the squares mod p
    profiles = [decompose(a, b) for a, b in [(2, 1), (-3, 1), (4, 1), (5, 2), (8, 27), (-12, 7)]]
    for p in sieve_oracle(200)[1:]:
        squares = {x * x % p for x in range(1, p)}
        for profile in profiles:
            _, t, leg, _ = classify_prime(profile, p)
            if t is not None:
                r0 = profile.r0_num * profile.r0_den % p
                assert leg == (1 if r0 in squares else -1), (profile.a, profile.b, p)


def test_odd_order_forced_when_s_below_e():
    # eps = +1 and s <= e make every h-th power odd-order: no p = 3 mod 4
    # divides any 4^k + 1
    profile = decompose(4, 1)
    for p in sieve_oracle(2000):
        if p % 4 == 3:
            assert not classify_prime(profile, p)[3], p


# ---------------------------------------------------------------------------
# local factors

def local_weights(profile, s: int, leg: int) -> tuple[int, int]:
    """k1 and k2 times 2^s for one generic prime, from the k1 and k2 rows of
    _weights (scale 2^40) at its cell; they do not depend on t, here 0."""
    k1, k2 = _weights(profile.e, profile.eps)[4:6, s * _S_CELLS * 2 + (leg > 0)].tolist()
    assert k1 % (1 << (40 - s)) == k2 % (1 << (40 - s)) == 0
    return k1 >> (40 - s), k2 >> (40 - s)


def test_weights_k1_examples():
    assert local_weights(decompose(2, 1), 2, 1)[0] == 1     # 1/4
    assert local_weights(decompose(-4, 1), 1, 1)[0] == 0    # (1 + eps)/2 branch
    assert local_weights(decompose(4, 1), 1, 1)[0] == 2     # 1


def test_weights_k2_examples():
    p21 = decompose(2, 1)
    assert local_weights(p21, 1, +1)[1] == 2                # p = 7: s = e+1, 1
    assert local_weights(p21, 2, -1)[1] == 0                # p = 5
    assert local_weights(p21, 4, +1)[1] == 2                # p = 17: 1/8
    assert local_weights(decompose(-4, 1), 1, -1)[1] == 0   # s <= e


# ---------------------------------------------------------------------------
# counting functions

def test_count_exact_examples():
    p21 = decompose(2, 1)
    assert count_direct(2, 1, 10) == 2
    assert count_exact(p21, 10) == 2                        # {3, 5}
    assert count_direct(2, 1, 30) == 7
    assert count_exact(p21, 30) == 7                        # {3,5,11,13,17,19,29}
    assert count_direct(3, 1, 10) == 3                      # {2, 5, 7}
    assert count_exact(decompose(3, 1), 10) == 3


def test_count_exact_against_direct_search():
    for a, b in [(2, 1), (-2, 1), (3, 2), (8, 27), (-5, 2)]:
        assert count_exact(decompose(a, b), 500) == count_direct(a, b, 500), (a, b)


def test_heuristics_hand_example():
    p21 = decompose(2, 1)
    hc = heuristic_counts(p21, 7)
    # generic primes {3, 5, 7}: k2 = 0 + 0 + 1, k1 = 1/2 + 1/4 + 1/2
    assert hc.k2 == 1 and hc.h2 == 2
    assert hc.k1 == Fraction(5, 4) and hc.h1 == Fraction(7, 4)
    # below the least generic prime everything is zero
    hc2 = heuristic_counts(p21, 2)
    assert (hc2.k1, hc2.k2, hc2.h1, hc2.h2) == (0, 0, 0, 0)


def test_heuristics_nonnegative():
    for a, b in PROFILE_GRID:
        hc = heuristic_counts(decompose(a, b), 3000)
        assert hc.h1 >= 0 and hc.h2 >= 0
        assert hc.k1 >= 0 and hc.k2 >= 0


@pytest.mark.parametrize("a,b", PROFILE_GRID)
def test_exact_identities_per_profile(a, b):
    profile = decompose(a, b)
    for x in (2, 7, 100, 3001, 10**4):
        hc = heuristic_counts(profile, x)
        assert formula_count(profile, x) == hc.h2
        assert ramanujan_count(profile, x, "e") == hc.h1
        assert ramanujan_count(profile, x, "e+1") == hc.h2
        full = ramanujan_count(profile, x, "full")
        n_generic = count_exact(profile, x) - sum(
            1 for p, div in profile.special_primes if div and p <= x)
        assert full == n_generic
        assert tail_sum(profile, x) == full - hc.h2


def test_ramanujan_count_validation():
    with pytest.raises(ValueError):
        ramanujan_count(decompose(2, 1), 100, "bogus")


def test_character_count_matches_ramanujan_full():
    for a, b in [(2, 1), (-8, 27)]:
        profile = decompose(a, b)
        assert character_count(profile, 500) == ramanujan_count(profile, 500, "full")


def test_character_count_rejects_large_x():
    for x in (2001, 1, -5, 500.0):
        with pytest.raises(ValueError):
            character_count(decompose(2, 1), x)


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_examples():
    p21 = decompose(2, 1)
    series = sweep(p21, [10, 30])
    assert [pt.counts.n_exact for pt in series.points] == [2, 7]
    assert [pt.x for pt in series.points] == [10, 30]
    for pt in series.points:
        assert pt.li == reference.log_integral(pt.x)


def test_sweep_li_column_matches_golden_bits():
    # the dense grid of the benchmark, through the batched pass
    grid = list(range(1000, 2 * 10**6 + 1, 1000))
    series = sweep(decompose(2, 1), grid)
    golden = (Path(__file__).parent / "golden" / "li_sweep_dense.txt").read_text().split()
    assert [repr(pt.li) for pt in series.points] == golden


def test_sweep_closed_interval_checkpoints():
    # a checkpoint that is itself a dividing prime must include it
    series = sweep(decompose(2, 1), [4, 5])
    assert [pt.counts.n_exact for pt in series.points] == [1, 2]


def test_sweep_monotone_and_consistent():
    profile = decompose(8, 27)
    series = sweep(profile, [10, 100, 1000, 10**4])
    rows = series.rows()
    for key in ("pi", "n_exact", "n_generic", "h1", "h2", "k1", "k2"):
        values = [row[key] for row in rows]
        assert values == sorted(values), key
    last = rows[-1]
    assert last["n_exact"] == count_exact(profile, 10**4)
    hc = heuristic_counts(profile, 10**4)
    assert (last["h1"], last["h2"], last["k1"], last["k2"]) == (hc.h1, hc.h2, hc.k1, hc.k2)


def test_sweep_thread_determinism(monkeypatch):
    profile = decompose(2, 1)
    cps = [10, 97, 1000, 10**5]
    base = sweep(profile, cps, threads=1)
    for threads in (2, 3):
        assert sweep(profile, cps, threads=threads) == base
    # small segments give the pool several tasks, cut at checkpoints
    monkeypatch.setattr(census, "SEGMENT_SIZE", 1 << 12)
    for threads in (2, 3):
        assert sweep(profile, cps, threads=threads) == base


def test_sweep_tasks_carry_no_array(monkeypatch):
    # a task is pickled for a worker: it holds the profile, the segment
    # and its cuts, and the worker sieves its own base primes; tasks are
    # submitted only as results are taken, a bounded window ahead, each with
    # SIGTERM blocked, and the pool's initializer unblocks it in each worker
    tasks = []
    in_flight = [0, 0]  # submitted and not yet taken: now, most
    blocked = []  # whether SIGTERM was blocked at each submit
    starts = []

    class Future:
        def __init__(self, fn, args):
            self.fn, self.args = fn, args

        def result(self):
            in_flight[0] -= 1
            return self.fn(*self.args)

    class RecordingPool:
        """An in-process stand-in for ProcessPoolExecutor that records the
        arguments of every task it is given and how many are in flight."""

        def __init__(self, max_workers, initializer, initargs):
            starts.append((initializer, initargs))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            blocked.append(signal.SIGTERM in signal.pthread_sigmask(signal.SIG_BLOCK, ()))
            tasks.append(args)
            in_flight[0] += 1
            in_flight[1] = max(in_flight[1], in_flight[0])
            return Future(fn, args)

    profile = decompose(8, 27)
    cps = [10, 97, 1000, 10**5]
    monkeypatch.setattr(census, "SEGMENT_SIZE", 1 << 12)
    want = sweep(profile, cps, threads=1)
    # census imports the pool from concurrent.futures when a sweep starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
    assert sweep(profile, cps, threads=2) == want
    assert len(tasks) == len(list(census._segments(10**5)))
    assert not any(isinstance(arg, np.ndarray) for task in tasks for arg in task)
    # threads=2 on two CPUs gives two workers
    assert in_flight == [0, 2 * census._TASKS_PER_WORKER] and len(tasks) > in_flight[1]
    assert all(blocked) and len(blocked) == len(tasks)
    assert signal.SIGTERM not in signal.pthread_sigmask(signal.SIG_BLOCK, ())
    (initializer, initargs), = starts
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        initializer(*initargs)
        assert signal.SIGTERM not in signal.pthread_sigmask(signal.SIG_BLOCK, ())
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def test_sweep_validation():
    profile = decompose(2, 1)
    with pytest.raises(ValueError):
        sweep(profile, [])
    with pytest.raises(ValueError):
        sweep(profile, [50, 20])
    with pytest.raises(ValueError):
        sweep(profile, [10, 2**40 + 1])
    with pytest.raises(ValueError):
        sweep(profile, [10], threads=0)
    # floats raised TypeError from the sieve or the pool
    with pytest.raises(ValueError):
        sweep(profile, [10.0, 100.0])
    with pytest.raises(ValueError):
        sweep(profile, [10], threads=2.0)


def test_accumulator_merge_matches_single_pass(monkeypatch):
    profile = decompose(5, 2)
    single_pass = _accumulate(profile, 4000)
    monkeypatch.setattr(census, "SEGMENT_SIZE", 1 << 10)
    series = sweep(profile, [1000, 4000])
    counts = series.points[-1].counts
    assert counts == single_pass
    assert counts.h1 == counts.pi_generic - counts.k1
    assert counts.h2 == counts.pi_generic - counts.k2
    assert counts.tail == counts.ram_full - counts.ram_e1
    single = _tally(profile, _fold_segment(profile, 2, 4001)[0])
    pieces = [_tally(profile, piece) for piece in _fold_segment(profile, 2, 4001, (5, 1001, 2048))]
    for order in itertools.permutations(pieces):
        merged = CountAccumulator()
        for tally in order:
            merged.merge(tally)
        merged.merge(CountAccumulator())
        assert merged.totals == single.totals
    copy = merged.copy()
    merged.merge(single)
    assert copy.totals == single.totals
    assert merged.totals == tuple(2 * v for v in single.totals)
    assert _evaluate(copy) == counts


# ---------------------------------------------------------------------------
# resumed counts: _accumulate folds on from the nearest point in _folds

RESUME_PAIRS = [(2, 1), (-16, 1), (7, 3), (8, 27), (65537, 1)]
# on and beside the segment edges 2^20 and 2^21
EDGE_XS = [edge + d for edge in (1 << 20, 1 << 21) for d in (-1, 0, 1)]


@pytest.fixture
def cold_counts():
    """Empty count caches and store, for tests that read _folds."""
    _accumulate.cache_clear()
    census._folds.cache_clear()
    yield
    _accumulate.cache_clear()
    census._folds.cache_clear()


def fold_from_2(profile, x):
    return _census(profile, [x])[0]


def spy_starts(monkeypatch) -> list:
    """The x' of each start that _accumulate passes to _census from now on."""
    starts = []
    def spy(profile, checkpoints, threads=1, start=None):
        starts.append(start[0])
        return _census(profile, checkpoints, threads, start)

    monkeypatch.setattr(census, "_census", spy)
    return starts


def folded_xs(profile) -> list[int]:
    return [x for x, _ in census._folds(profile)]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pair=st.sampled_from(RESUME_PAIRS),
       xs=st.lists(st.one_of(st.integers(2, 3 << 20), st.sampled_from(EDGE_XS)),
                   min_size=1, max_size=6))
def test_resumed_counts_match_the_fold_from_2(pair, xs):
    # _folds keeps the points of earlier examples, so a count may resume from
    # any of them; the repeat after clearing _accumulate resumes from its own
    profile = decompose(*pair)
    for x in [*xs, xs[0]]:
        assert _accumulate(profile, x) == fold_from_2(profile, x), (pair, x)
    _accumulate.cache_clear()
    assert _accumulate(profile, xs[-1]) == fold_from_2(profile, xs[-1])


def test_count_resumes_from_a_special_prime(cold_counts, monkeypatch):
    profile = decompose(7, 3)  # special primes 2, 3 and 7
    starts = spy_starts(monkeypatch)
    for x in (2, 3, 4, 7, 8):
        assert _accumulate(profile, x) == fold_from_2(profile, x), x
    assert starts == [1, 2, 3, 4, 7] and folded_xs(profile) == [2, 3, 4, 7, 8]


def test_folded_x_is_served_from_the_store(cold_counts, monkeypatch):
    profile = decompose(-16, 1)
    want = _accumulate(profile, 5000)
    _accumulate.cache_clear()
    starts = spy_starts(monkeypatch)
    assert _accumulate(profile, 5000) == want and starts == []
    assert _accumulate(profile, 5001) == fold_from_2(profile, 5001) and starts == [5000]
    assert folded_xs(profile) == [5000, 5001]


def test_store_keeps_the_highest_points(cold_counts):
    profile = decompose(8, 27)
    xs = list(range(100, 6600, 100))
    random.Random(65).shuffle(xs)
    assert len(xs) == census._FOLD_POINTS + 1
    for x in xs:
        assert _accumulate(profile, x) == fold_from_2(profile, x), x
    # the 65th point dropped the lowest of all
    assert folded_xs(profile) == sorted(xs)[1:]


def test_float_x_raises_before_the_store_is_read(cold_counts):
    profile = decompose(2, 1)
    _accumulate(profile, 1000)
    info = census._folds.cache_info()
    for x in (1000.0, 1500.0):
        with pytest.raises(ValueError):
            _accumulate(profile, x)
    assert census._folds.cache_info() == info and folded_xs(profile) == [1000]


def test_sweep_leaves_the_store_alone(cold_counts):
    profile = decompose(2, 1)
    _accumulate(profile, 1000)
    points = [(x, acc.totals) for x, acc in census._folds(profile)]
    info = census._folds.cache_info()
    series = sweep(profile, [10, 1000, 3000])
    sweep(decompose(7, 3), [500])
    assert census._folds.cache_info() == info
    assert [(x, acc.totals) for x, acc in census._folds(profile)] == points
    assert series.points[1].counts == _accumulate(profile, 1000)
