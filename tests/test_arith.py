"""Arithmetic kernel: spec examples plus sieve/enumeration cross-checks."""

import math
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from powsumdiv import arith
from powsumdiv.arith import (
    _MR_PSI,
    _TRIAL_BOUND,
    _TRIAL_LIMIT,
    _factorize_cached,
    divisors,
    is_prime,
    log_integral,
    log_integrals,
    v2,
)
from powsumdiv.cyclic import P_MAX, rational_mod
from powsumdiv.ramanujan import ramanujan_c


# ---------------------------------------------------------------------------
# 2-adic valuation

def test_valuation_rejects_zero():
    with pytest.raises(ValueError):
        v2(0)
    # a float, even an integral one, raised TypeError
    with pytest.raises(ValueError):
        v2(2.0)
    assert v2(np.int64(12)) == 2


# ---------------------------------------------------------------------------
# modular arithmetic

def test_is_prime_against_sieve_and_at_the_witness_bounds():
    limit = 2 * 10**5
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for n in range(2, math.isqrt(limit) + 1):
        if flags[n]:
            flags[n * n :: n] = bytearray(len(range(n * n, limit, n)))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if flags[n]]
    # each bound passes every base before the one that rejects it
    for psi in _MR_PSI[:11]:
        assert not is_prime(psi)
    # a float was tested as the integer it equals: is_prime(7.0) gave True
    with pytest.raises(ValueError):
        is_prime(7.0)
    assert is_prime(np.int64(7))


def test_mod_inverse_examples():
    # rational_mod(1, d, p) is the inverse of d mod p
    assert rational_mod(1, 3, 7) == 5
    assert rational_mod(1, 1, 11) == 1
    # exhaustive-search oracle
    want = next(x for x in range(1, 17) if 10 * x % 17 == 1)
    assert want == 12
    assert rational_mod(1, 10, 17) == want
    assert rational_mod(-3, 10, 17) == -3 * want % 17


def test_mod_inverse_not_invertible():
    with pytest.raises(ValueError):
        rational_mod(1, 6, 3)


# ---------------------------------------------------------------------------
# factorization and multiplicative functions

def test_factorize_examples():
    assert list(_factorize_cached(360)) == [(2, 3), (3, 2), (5, 1)]
    assert list(_factorize_cached(97)) == [(97, 1)]
    fac = list(_factorize_cached(60466176))  # 2^10 * 3^10
    assert math.prod(p**e for p, e in fac) == 60466176
    assert fac == [(2, 10), (3, 10)]


def test_factorize_rho_path():
    n = (2**31 - 1) * (2**61 - 1)  # two Mersenne primes, beyond trial range
    assert list(_factorize_cached(n)) == [(2**31 - 1, 1), (2**61 - 1, 1)]


@pytest.mark.parametrize("p,q", [
    (1031, 1031), (1031, 1033),                 # just above the trial bound 2^10
    (1031, 8946044652623423),                   # and a 53-bit cofactor: 63 bits
    (1048573, 1048583),                         # around 2^20
    (2147483647, 2147483659),                   # around 2^31
    (3037000453, 3037000493), (3037000493, 3037000493),  # below 2^63
])
def test_factorize_semiprimes_beyond_trial_division(p, q):
    assert _TRIAL_LIMIT < p <= q and is_prime(p) and is_prime(q)
    assert list(_factorize_cached(p * q)) == ([(p, 2)] if p == q else [(p, 1), (q, 1)])


@pytest.mark.parametrize("n", [
    1048583, 2 * 1048583,                       # a prime between 1024^2 and 1025^2
    1031 * 1033, 1031**2, 1021**2 * 1031,       # factors just above, or at, the trial limit
    2**61 - 1,                                  # a prime beyond trial division
    1073741827 * 2147483659,                    # a 62-bit semiprime
])
def test_factorize_hands_over_a_cofactor_exactly_at_the_trial_bound(n, monkeypatch):
    # the scalar decision of cyclic._prime_factor_table: a cofactor left by
    # trial division goes to _factor_into (Miller-Rabin, then rho) iff it is
    # >= _TRIAL_BOUND, so 1048583 is taken as prime without a test
    assert _TRIAL_BOUND == (_TRIAL_LIMIT + 1) ** 2 > 1048583 > _TRIAL_LIMIT**2
    seen = []
    factor_into = arith._factor_into
    monkeypatch.setattr(arith, "_factor_into", lambda m, out: seen.append(m) or factor_into(m, out))
    cofactor = n
    for d in range(2, _TRIAL_LIMIT + 1):
        while cofactor % d == 0:
            cofactor //= d
    fac = _factorize_cached.__wrapped__(n)
    assert seen[:1] == ([cofactor] if cofactor >= _TRIAL_BOUND else []), n
    assert math.prod(p**e for p, e in fac) == n and all(is_prime(p) for p, _ in fac), n


def _rho_timeout(signum, frame):
    raise TimeoutError("_factorize_cached did not split the semiprime in time")


def test_rho_splits_semiprimes_near_2_63_within_a_time_bound():
    # _brent_rho's loops end within 8 * q0 steps for q0 the least
    # prime factor; for two primes near 2^31.5 rho is expected to need about
    # sqrt(q0) ~ 2^16 of them, well inside the alarm
    rng = random.Random(26)
    primes = []
    while len(primes) < 8:
        q = rng.randrange(P_MAX - (1 << 27), P_MAX + 1)
        if is_prime(q):
            primes.append(q)
    old = signal.signal(signal.SIGALRM, _rho_timeout)
    signal.alarm(20)
    try:
        for p, q in zip(primes[::2], primes[1::2]):
            assert (p * q).bit_length() == 63
            assert _factorize_cached.__wrapped__(p * q) == tuple(sorted([(p, 1), (q, 1)]))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def sieve_tables(limit: int) -> tuple[list[int], list[int], list[int]]:
    """The least prime factor, phi and mu of every n <= limit, sieved."""
    least = [0] * (limit + 1)
    phi = list(range(limit + 1))
    mu = [1] * (limit + 1)
    for p in range(2, limit + 1):
        if least[p]:
            continue
        for m in range(p, limit + 1, p):
            least[m] = least[m] or p
            phi[m] -= phi[m] // p
            mu[m] = 0 if m % (p * p) == 0 else -mu[m]
    return least, phi, mu


def test_factorize_reconstruction_and_tables_to_1e5():
    limit = 10**5
    least, phi, mu = sieve_tables(limit)
    for n in range(2, limit + 1):
        # trial division by the least prime factor
        want: dict[int, int] = {}
        m = n
        while m > 1:
            want[least[m]] = want.get(least[m], 0) + 1
            m //= least[m]
        assert list(_factorize_cached(n)) == sorted(want.items()), n
    for n in range(1, limit + 1):
        # c_n(0) = phi(n) and c_n(1) = mu(n)
        assert ramanujan_c(n, 0) == phi[n]
        assert ramanujan_c(n, 1) == mu[n]


def test_divisors_against_enumeration():
    # each call returns a fresh list, so a caller that changes its list
    # leaves the next call's intact
    for n in range(1, 2001):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n
    divisors(12).append(5)
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    with pytest.raises(ValueError):
        divisors(0)
    # floats gave [1.0, 2.5] and [1, 2, 4]
    for n in (2.5, 4.0):
        with pytest.raises(ValueError):
            divisors(n)
    assert divisors(np.int64(12)) == [1, 2, 3, 4, 6, 12]


def test_phi_mu_examples():
    # phi and mu as the Ramanujan sums c_n(0) and c_n(1)
    assert ramanujan_c(8, 0) == 4 and ramanujan_c(8, 1) == 0
    assert ramanujan_c(1, 0) == 1 and ramanujan_c(1, 1) == 1
    assert ramanujan_c(30, 0) == 8 and ramanujan_c(30, 1) == -1


def test_ramanujan_c_against_sieved_mu_and_phi():
    # Holder's identity in its original form: c_n(m) = mu(n/g) phi(n)/phi(n/g)
    # with g = gcd(n, m), from the sieved tables
    limit = 400
    _, phi, mu = sieve_tables(limit)
    for n in range(1, limit + 1):
        for m in range(0, limit + 1):
            k = n // math.gcd(n, m)
            assert ramanujan_c(n, m) == mu[k] * phi[n] // phi[k], (n, m)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=10**12))
def test_factorize_reconstruction_property(n):
    fac = _factorize_cached(n)
    assert math.prod(p**e for p, e in fac) == n
    assert all(is_prime(p) for p, _ in fac)


# ---------------------------------------------------------------------------
# logarithmic integral

def test_log_integral_examples():
    assert log_integral(2) == 0.0
    # independent high-order quadrature oracle
    oracle = float(mpmath.li(10**6, offset=True))
    value = log_integral(10**6)
    assert abs(value - oracle) < 1e-3
    assert abs(value - 78626.5) < 0.5
    # sanity against pi(10^6)
    assert abs(value - 78498) < 200
    assert log_integral(10**4) < log_integral(10**5)


def test_log_integral_against_oracle_at_many_points():
    for x in (2.5, 3, 10, 100, 12345.6, 10**5, 10**7):
        oracle = float(mpmath.li(x, offset=True))
        assert abs(log_integral(x) - oracle) <= max(1e-9 * abs(oracle), 1e-7)


def test_log_integral_rejects_below_two():
    with pytest.raises(ValueError):
        log_integral(1.5)
    with pytest.raises(ValueError):
        log_integrals([10, 1.5])


def _alarm(signum, frame):
    raise TimeoutError("log_integral did not return")


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf,
                               pytest.param(10**400, id="10**400")])
def test_log_integral_rejects_non_finite(x):
    # NaN fails every comparison, so without the check the Simpson
    # recursion never stops; an int past the float range has no float
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError):
            log_integral(x)
        with pytest.raises(ValueError):
            log_integrals([100, x])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


LI_GOLDEN = Path(__file__).parent / "golden" / "li_sweep_dense.txt"
# the checkpoints of the benchmark's dense sweep; the golden file holds
# repr(log_integral(x)) for each, as the scalar recursion computed it before
# log_integrals existed
DENSE_GRID = list(range(1000, 2 * 10**6 + 1, 1000))


def test_log_integrals_match_golden_bits():
    assert [repr(v) for v in log_integrals(DENSE_GRID)] == LI_GOLDEN.read_text().split()


def test_log_integrals_take_every_log_from_math_log():
    # np.log differs from libm's log in the last bit on about 1e-4 of these
    v = np.random.default_rng(4096).uniform(2.0, 4096.0, 200_000)
    assert arith._logs(v).tolist() == [math.log(x) for x in v.tolist()]


# one lane, every short length, and lengths around the node budget and
# numpy's 8192-element buffer
LAYOUT_LENGTHS = [*range(1, 41), 2**13 - 1, 2**13 + 1, 2**14 - 1, 2**14 + 1, 2**15 + 5]


def test_logs_match_math_log_at_every_layout():
    # a single lane does not overlap its output, and numpy's SIMD log would
    # take it: the route adds a spare lane to every call.  Checked on the
    # route itself too, so that dropping the spare fails here and not only
    # in the canary.
    canary = np.array([float.fromhex(h) for h in arith._LOG_CANARY])
    want = np.array([math.log(x) for x in canary.tolist()])
    for n in LAYOUT_LENGTHS:
        for shift in range(len(canary)):
            v = np.resize(np.roll(canary, shift), n)
            bits = np.resize(np.roll(want, shift), n).view(np.int64)
            for logs in (arith._logs, arith._libm_logs):
                assert np.array_equal(logs(v).view(np.int64), bits), (logs.__name__, n, shift)


def _differential_points():
    rng = random.Random(20031)
    # np.log differs from libm's log in the last bit most often below 4096,
    # and every Simpson tree has nodes there
    low = [rng.uniform(2.0, 4096.0) for _ in range(500)] + list(range(2, 40))
    geometric = [10 ** (k / 8) for k in range(3, 81)] + [2**33 + 1, 3 * 10**9]
    points = low + geometric + [2, 2.0, 777, 777, 1e6, 1e6, 2.5]
    rng.shuffle(points)
    return points


@pytest.fixture(scope="session")
def differential_reference():
    """_differential_points() and the hex of the scalar reference's Li at
    each: the reference is slow, so it is walked once per session."""
    points = _differential_points()
    return points, [reference.log_integral(x).hex() for x in points]


def assert_matches_reference(differential_reference):
    points, want = differential_reference
    got = log_integrals(points)
    assert len(got) == len(points)
    for x, value, hex_value in zip(points, got, want):
        assert value.hex() == hex_value, x


@pytest.mark.parametrize("budget", [None, 64])
def test_log_integrals_bit_identical_to_scalar(monkeypatch, budget, differential_reference):
    if budget is not None:
        # levels wider than the budget are walked half by half
        monkeypatch.setattr(arith, "_LI_NODE_BUDGET", budget)
    assert_matches_reference(differential_reference)
    assert log_integrals([]) == []
    assert log_integrals([2]) == [0.0]


@pytest.fixture
def fresh_log_route():
    # the route is decided once per process: decide it again in the test,
    # and again after it
    arith._log_route.cache_clear()
    yield
    arith._log_route.cache_clear()


def test_logs_fall_back_to_math_log_on_a_canary_mismatch(monkeypatch, fresh_log_route,
                                                         differential_reference):
    flipped = float.fromhex(arith._LOG_CANARY[0])
    libm_logs = arith._libm_logs

    def planted(v):
        out = libm_logs(v).copy()
        out.view(np.int64)[v == flipped] ^= 1
        return out

    monkeypatch.setattr(arith, "_libm_logs", planted)
    v = np.array([flipped, 2.0, 777.0, 3053.28, 2.0**40 - 1])
    expected = [math.log(x) for x in v.tolist()]
    assert planted(v).tolist() != expected
    assert arith._logs(v).tolist() == expected
    assert arith._log_route() is arith._math_logs
    assert_matches_reference(differential_reference)


def test_logs_fall_back_to_math_log_on_a_one_lane_mismatch(monkeypatch, fresh_log_route):
    # a route that is right at every length but 1, as numpy's float log is
    # without the spare lane
    libm_logs = arith._libm_logs

    def planted(v):
        out = libm_logs(v).copy()
        if len(v) == 1:
            out.view(np.int64)[:] ^= 1
        return out

    monkeypatch.setattr(arith, "_libm_logs", planted)
    v = np.array([float.fromhex(arith._LOG_CANARY[0])])
    assert planted(v).tolist() != [math.log(v[0])]
    assert planted(np.resize(v, 2)).tolist() == [math.log(v[0])] * 2
    assert arith._log_route() is arith._math_logs
    assert arith._logs(v).tolist() == [math.log(v[0])]


def test_importing_the_cli_leaves_the_log_canary_unread():
    # the canary is read at the first Li, so that commands without Li and
    # the set-up of every command do not pay for it
    src = Path(arith.__file__).resolve().parents[1]
    code = ("import powsumdiv.cli, powsumdiv.arith as a; "
            "print(a._log_route.cache_info().misses)")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0"]
