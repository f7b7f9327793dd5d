"""Exact integer primitives: valuations, primality, factorization,
divisors, and the logarithmic integral.

This module is the one owner of the integer primitives the other modules
share: the small-prime sieve, the trial primes up to _TRIAL_LIMIT, the
trial bound _TRIAL_BOUND past which a cofactor is handed to Miller-Rabin
and Brent's rho, and the 2-adic valuation of an array (_v2) beside the
scalar v2.  Everything here is a pure function; divisors are derived from
the complete factorization, never from floating point.  The logarithmic
integral is the one floating-point result: adaptive Simpson from 2 with an
absolute tolerance, whose bits are frozen in the sweep output.
log_integral is the scalar reference and log_integrals the batched numpy
walk that sweeps use, equal to it bit for bit.  Every log in either is
libm's ``log``: ``math.log`` in the scalar recursion and, in the batch, the
real part of numpy's complex log, which calls the C library's ``clog``.
That route is checked against ``math.log`` on a canary once per process
and replaced by a ``math.log`` map if any bit differs.  Plain ``np.log``
is never used: it can differ from libm in the last bit.
"""

import functools
import itertools
import math

import numpy as np

# Witness set making Miller-Rabin deterministic for all n < 3.18e23,
# in particular for the full 64-bit range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# _MR_PSI[k-1] is the least odd composite that passes the first k bases
# (OEIS A014233), so below it those k bases already decide primality.
_MR_PSI = (2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
           3_474_749_660_383, 341_550_071_728_321, 341_550_071_728_321,
           3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
           3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461)


def _simple_sieve(limit: int) -> np.ndarray:
    """All primes <= limit (plain sieve: trial primes, base primes, tests)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


# Trial division is by the primes up to _TRIAL_LIMIT.  A cofactor left
# below _TRIAL_BOUND has no prime factor up to _TRIAL_LIMIT, so it is 1 or
# prime; one at or above it goes to Miller-Rabin and Brent's rho.
_TRIAL_LIMIT = 1 << 10
_TRIAL_PRIMES = tuple(_simple_sieve(_TRIAL_LIMIT).tolist())
_TRIAL_BOUND = (_TRIAL_LIMIT + 1) ** 2


def v2(n: int) -> int:
    """2-adic valuation of n != 0, via the low set bit."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    return (n & -n).bit_length() - 1


def _v2(n: np.ndarray) -> np.ndarray:
    """v2 of each n >= 1 of an int64 or uint64 array, as uint8."""
    return np.bitwise_count((n & -n) - 1)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2**64 (no randomness)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = v2(d)
    d >>= s
    for a, psi in zip(_MR_BASES, _MR_PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    return True


def _brent_rho(n: int) -> int:
    """Nontrivial factor of composite odd n (Brent's cycle variant).

    Deterministic: the polynomial offset c is bumped on failure instead of
    being drawn at random, so factorizations are reproducible.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, r, q = 2, 1, 1
        g, x, ys = 1, 0, 0
        # Bound: for q0 the least prime factor of n (q0 <= isqrt(n)), y mod q0
        # takes at most q0 values, so its tail and its cycle together are at
        # most q0 steps long.  A round sets x = y_(2r-2) and compares it with
        # the y at the r distances r+1..2r.  r doubles each round, and once
        # r >= q0, x is on the cycle and one distance is a multiple of the
        # cycle's length: q0 divides the product, so g > 1.  This loop thus
        # ends within bit_length(q0) + 1 rounds, under 8 * q0 steps of y in
        # all.  The loop below replays at most the last batch of 128 steps,
        # whose terms hold every factor of g.
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # unreachable in 64-bit range


def _factor_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _brent_rho(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


@functools.lru_cache(maxsize=1 << 16)
def _factorize_cached(n: int) -> tuple[tuple[int, int], ...]:
    """Complete prime factorization of n >= 1 as (prime, exponent) pairs,
    primes strictly increasing, exponents >= 1 (empty for n = 1).

    Trial division by _TRIAL_PRIMES, each while the cofactor is still at
    least its square; a cofactor of _TRIAL_BOUND or more is certified
    prime by Miller-Rabin or split with Brent's rho, a smaller one is 1 or
    prime.
    """
    fac: dict[int, int] = {}
    for d in _TRIAL_PRIMES:
        if n < d * d:
            break
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
    if n >= _TRIAL_BOUND:
        _factor_into(n, fac)
    elif n > 1:
        fac[n] = 1
    return tuple(sorted(fac.items()))


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError("divisors requires n >= 1")
    out = [1]
    for p, ex in _factorize_cached(n):
        out = [d * p**k for d in out for k in range(ex + 1)]
    out.sort()
    return out


# Li(x) is adaptive Simpson from 2 with an absolute tolerance: trees of
# depth at most _LI_DEPTH, the tolerance cut tenfold (by the same float
# multiplication each time) up to six times until two estimates agree.
_LI_DEPTH = 60
_LI_TOLS = tuple(itertools.accumulate(range(6), lambda tol, _: tol * 0.1, initial=1e-6))
# log_integrals evaluates the trees of this many roots breadth first, and
# finishes a level wider than the node budget half by half, so that its live
# memory is bounded by these constants and does not grow with x.
_LI_GROUP = 16
_LI_NODE_BUDGET = 1 << 14


def _adaptive_simpson(a: float, fa: float, b: float, fb: float,
                      whole: float, fm: float, tol: float, depth: int) -> float:
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = 1.0 / math.log(lm), 1.0 / math.log(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return (_adaptive_simpson(a, fa, m, fm, left, flm, 0.5 * tol, depth - 1)
            + _adaptive_simpson(m, fm, b, fb, right, frm, 0.5 * tol, depth - 1))


def _li_once(x: float, tol: float) -> float:
    a, b = 2.0, float(x)
    fa, fb = 1.0 / math.log(a), 1.0 / math.log(b)
    m = 0.5 * (a + b)
    fm = 1.0 / math.log(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(a, fa, b, fb, whole, fm, tol, _LI_DEPTH)


def _li_arg(x) -> float:
    # NaN fails every comparison, so the Simpson recursion would never stop;
    # an int past the float range passes the comparison but has no float
    try:
        if 2 <= x < math.inf:
            return float(x)
    except OverflowError:
        pass
    raise ValueError(f"log_integral requires finite x >= 2, got {x!r}")


def _li_converged(prev: float, cur: float) -> bool:
    return abs(cur - prev) <= 1e-9 * abs(cur)


def log_integral(x: float) -> float:
    """Li(x) = integral of dt/log t from 2 to x, by adaptive Simpson.

    The absolute tolerance starts at 1e-6 and is cut tenfold, at most six
    times, until two successive estimates agree to 1e-9 relative.  The
    result's bits are part of the frozen sweep output: they depend on the
    platform's libm ``log``, which ``math.log`` calls.  This scalar
    recursion is the reference that ``log_integrals`` reproduces.  Because
    the tolerance is absolute, the cost grows with x, though not
    monotonically: from about 5e10 the trees reach the depth limit.  On a
    2-core VM one call took 0.30 s at 5e10, 30 s at 3e11 and 1.3 s at
    2^40 - 1, and ``log_integrals([x])`` 0.06, 4.7 and 0.14 s.  That is a
    known limit; bounding it would change the bits.  Raises ValueError for
    a non-finite x or x < 2.
    """
    x = _li_arg(x)
    if x == 2:
        return 0.0
    prev = _li_once(x, _LI_TOLS[0])
    for tol in _LI_TOLS[1:]:
        cur = _li_once(x, tol)
        if _li_converged(prev, cur):
            return cur
        prev = cur
    return prev


def log_integrals(xs) -> list[float]:
    """[log_integral(x) for x in xs], bit for bit, in one batched pass.

    A sweep calls this once for all of its checkpoints.  The Simpson trees
    of up to _LI_GROUP points are walked level by level in numpy, and each
    node's value is added bottom-up in the same pairs as the recursion.
    Every log is libm's ``log``, as in log_integral: the real part of
    numpy's complex log, whose glibc ``clog`` returns ``log(x)`` for real
    x >= 2.  That route is checked once per process against ``math.log``
    on a canary of doubles (_LOG_CANARY), with a ``math.log`` map as the
    fallback on any mismatch.  Plain ``np.log`` is never used: it can
    differ from libm in the last bit (it does on about 1e-4 of the doubles
    below 4096, where every tree has nodes, and more rarely above).  One
    walk at the finer tolerance of a step serves both estimates: a node's
    inputs do not depend on the tolerance and the split test is monotone in
    it, so the coarser tree is a subtree of the finer one.  Memory is
    bounded by _LI_GROUP and _LI_NODE_BUDGET; time grows with x as for
    log_integral.  Raises ValueError for a non-finite x or x < 2.
    """
    xs = [_li_arg(x) for x in xs]
    out = [0.0] * len(xs)
    todo = [i for i, x in enumerate(xs) if x != 2]
    for start in range(0, len(todo), _LI_GROUP):
        group = todo[start:start + _LI_GROUP]
        for coarse, fine in zip(_LI_TOLS, _LI_TOLS[1:]):
            prevs, curs = _simpson_forest(np.array([xs[i] for i in group]), coarse, fine)
            pending = []
            for i, prev, cur in zip(group, prevs.tolist(), curs.tolist()):
                out[i] = cur
                if not _li_converged(prev, cur):
                    pending.append(i)
            if not pending:
                break
            group = pending
    return out


# Doubles on which numpy's own float log differs from libm's log in the last
# bit (found in uniform samples over [2, 4096), [4096, 2^26) and
# [2^26, 2^40)), then 2, 3, 1e6 and 2^40 - 1.  _log_route reads libm's log
# through clog only if clog gives math.log's bits on every one of them.
_LOG_CANARY = (
    "0x1.7da90ae05c828p+11", "0x1.7d22f5601e01cp+9", "0x1.4499f04e2894cp+11",
    "0x1.57c01a4da247cp+9", "0x1.897a63eb90b29p+8", "0x1.4cb785da8afe3p+9",
    "0x1.37ce28c2d6153p+9", "0x1.3bb1d614fb7f5p+11", "0x1.8f917715b9869p+11",
    "0x1.9240e932a53d4p+11", "0x1.d1751bffdccf2p+10", "0x1.21a8a53b7d530p+10",
    "0x1.f138d2c8957a7p+20", "0x1.c612c60505da1p+23",
    "0x1.ef8d0f7d7b04cp+36", "0x1.a5ba596db3122p+39",
    "0x1.0000000000000p+1", "0x1.8000000000000p+1",
    "0x1.e848000000000p+19", "0x1.fffffffffe000p+39",
)


def _clog_logs(v: np.ndarray) -> np.ndarray:
    # numpy's complex log calls the C library's clog, whose real part glibc
    # computes as log(hypot(x, 0)) = log(x) for real x >= 2
    return np.log(v.astype(np.complex128)).real


def _math_logs(v: np.ndarray) -> np.ndarray:
    # a memoryview yields one float at a time: no list of temporaries
    return np.fromiter(map(math.log, memoryview(v)), dtype=np.float64, count=len(v))


@functools.cache
def _log_route():
    """_clog_logs if it gives math.log's bits on every canary double, else
    _math_logs.  Decided on the first call, once per process."""
    canary = [float.fromhex(h) for h in _LOG_CANARY]
    if _clog_logs(np.array(canary)).tolist() == [math.log(x) for x in canary]:
        return _clog_logs
    return _math_logs


def _logs(v: np.ndarray) -> np.ndarray:
    """math.log of each element of v, bit for bit."""
    return _log_route()(v)


def _pairs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.empty(2 * len(x), dtype=x.dtype)
    out[0::2], out[1::2] = x, y
    return out


def _simpson_forest(b: np.ndarray, coarse: float, fine: float) -> tuple[np.ndarray, np.ndarray]:
    """(_li_once(x, coarse), _li_once(x, fine)) for each x in b, coarse > fine."""
    a = np.full_like(b, 2.0)
    fa, fb = 1.0 / _logs(a), 1.0 / _logs(b)
    m = 0.5 * (a + b)
    fm = 1.0 / _logs(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    in_coarse = np.ones(len(b), dtype=bool)
    return _simpson_level([a, fa, b, fb, whole, fm, in_coarse], coarse, fine, _LI_DEPTH)


def _simpson_level(nodes: list, coarse: float, fine: float,
                   depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The coarse and the fine value of each node of one tree level.

    ``nodes`` holds the arguments of _adaptive_simpson, one array each, and
    a flag for the nodes of the coarse tree; a node off it gets its leaf
    value as its (unused) coarse value.  The list is emptied as soon as its
    arrays are used, so that the levels above the one being walked keep
    only their leaf values and split masks (and a half still to walk).
    """
    width = len(nodes[0])
    if width > _LI_NODE_BUDGET:
        half = width // 2
        upper = [v[half:].copy() for v in nodes]
        nodes[:] = [v[:half] for v in nodes]
        lo = _simpson_level(nodes, coarse, fine, depth)
        hi = _simpson_level(upper, coarse, fine, depth)
        return np.concatenate((lo[0], hi[0])), np.concatenate((lo[1], hi[1]))
    leaf, split, split_coarse, children = _simpson_nodes(nodes, coarse, fine, depth)
    if children is None:
        return leaf, leaf
    below_coarse, below_fine = _simpson_level(children, 0.5 * coarse, 0.5 * fine, depth - 1)
    coarse_value, fine_value = leaf.copy(), leaf
    fine_value[split] = below_fine[0::2] + below_fine[1::2]
    pair_coarse = below_coarse[0::2] + below_coarse[1::2]
    coarse_value[split_coarse] = pair_coarse[split_coarse[split]]
    return coarse_value, fine_value


def _simpson_nodes(nodes: list, coarse: float, fine: float, depth: int):
    """One step of _adaptive_simpson on every node of a level, emptying
    ``nodes``: the leaf values, the nodes that split under each tolerance
    and their children (None if none splits).  Kept apart from
    _simpson_level so that its temporaries are freed before the level below
    is walked."""
    a, fa, b, fb, whole, fm, in_coarse = nodes
    nodes.clear()
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = 1.0 / _logs(lm), 1.0 / _logs(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    leaf = left + right + delta / 15.0
    if depth <= 0:
        return leaf, None, None, None
    size = np.abs(delta)
    split = ~(size <= 15.0 * fine)
    if not split.any():
        return leaf, None, None, None
    split_coarse = in_coarse & ~(size <= 15.0 * coarse)
    children = [_pairs(a[split], m[split]), _pairs(fa[split], fm[split]),
                _pairs(m[split], b[split]), _pairs(fm[split], fb[split]),
                _pairs(left[split], right[split]), _pairs(flm[split], frm[split]),
                np.repeat(split_coarse[split], 2)]
    return leaf, split, split_coarse, children
