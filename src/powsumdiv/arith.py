"""Exact integer primitives: valuations, primality, factorization,
divisors, and the logarithmic integral.

This module is the one owner of the integer primitives the other modules
share: the small-prime sieve, the trial primes up to _TRIAL_LIMIT, the
trial bound _TRIAL_BOUND past which a cofactor is handed to Miller-Rabin
and Brent's rho, and the 2-adic valuation of an array (_v2) beside the
scalar v2.  Everything here is a pure function; divisors are derived from
the complete factorization, never from floating point.  The logarithmic
integral is the one floating-point result: adaptive Simpson from 2 with an
absolute tolerance, whose bits are frozen in the sweep output.  It has one
implementation, the batched numpy walk log_integrals that sweeps use;
log_integral is its checked one-point entry.  The tests hold the walk to a
scalar recursion kept beside them, bit for bit.  Every log is libm's
``log``, read through numpy's element-by-element float64 log loop: input
and output share one buffer, in alternate slots, and numpy takes that loop
rather than its SIMD log kernel when they overlap.  Every call adds one
spare value, so that a single value still overlaps.  The SIMD kernel,
which can differ from libm in the last bit, is never used.  The route is
checked against ``math.log`` on a canary once per process and replaced by
a ``math.log`` map if any bit differs.

It also owns the modular power over numpy lanes that the segment kernel
and the order oracle share: three exact mulmod regimes, one chosen for a
batch by its largest modulus (_mulmod_regime), and one left-to-right
3-bit window (_pow_residues; _pow_mod for int64 lanes).  Scalar entry
points take an int or a numpy integer (_int_arg) and array ones int64
lanes (_int64_lanes): anything else raises ValueError.
"""

import functools
import itertools
import math
from typing import Callable

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
# The one bound, on x and every modulus: the mulmod regimes are exact below it.
MAX_X = 1 << 40


def _int_arg(name: str, n) -> int:
    """n as a Python int, for a scalar entry point: an int or a numpy
    integer.  A float, even an integral one, or any other type raises
    ValueError, the error of every other precondition, instead of being
    used as it is or raising TypeError."""
    if isinstance(n, int):
        return n
    if isinstance(n, np.integer):
        return int(n)
    raise ValueError(f"{name} must be an integer, got {n!r}")


def v2(n: int) -> int:
    """2-adic valuation of n != 0, via the low set bit."""
    n = _int_arg("n", n)
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    return (n & -n).bit_length() - 1


def _v2(n: np.ndarray) -> np.ndarray:
    """v2 of each n >= 1 of an int64 or uint64 array, as uint8."""
    return np.bitwise_count((n & -n) - 1)


def _int64_lanes(names: str, *xs) -> list[np.ndarray]:
    """xs as int64 arrays: a float (even an integral one) or a value past
    int64 raises ValueError instead of being truncated or wrapped."""
    lanes = [np.asarray(x) for x in xs]
    if any(v.dtype.kind not in "biu" or v.dtype == np.uint64 and (v >> 63).any() for v in lanes):
        raise ValueError(f"{names} must be integers that fit int64")
    return [v.astype(np.int64, copy=False) for v in lanes]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2**64 (no randomness)."""
    n = _int_arg("n", n)
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
    n = _int_arg("n", n)
    if n < 1:
        raise ValueError("divisors requires n >= 1")
    out = [1]
    for p, ex in _factorize_cached(n):
        out = [d * p**k for d in out for k in range(ex + 1)]
    out.sort()
    return out


# ---------------------------------------------------------------------------
# modular powers over numpy lanes


def _mulmod_f53(x: np.ndarray, y: np.ndarray, p: np.ndarray, p_inv: np.ndarray) -> np.ndarray:
    """x * y mod p for float64 residues of a modulus p < 2^26, given
    p_inv = 1/p in float64.

    z = x * y < 2^52 is exact.  fl(z p_inv) carries two roundings of
    relative error 2^-53 and lies within Q 2^-52 < 2^-26 of Q = z/p < p.
    A Q that is not an integer has its fractional part in [1/p, 1 - 1/p],
    so the floor is exact.  An integer Q is 0 when p is prime, or when x
    and y are units; otherwise (a composite p and a non-unit residue) the
    floor can fall one short and leave p where 0 belongs.  Such a result is
    still congruent and at most p, so products with it stay below 2^52:
    _pow_mod, the entry that takes composite moduli, maps p to 0 once, at
    the end.  The product of the floor with p and the difference are exact
    too.
    """
    z = x * y
    q = np.floor(z * p_inv)
    q *= p
    z -= q
    return z


def _mulmod_u64(x: np.ndarray, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x * y mod p for residues of p < 2^32, where x * y fits uint64."""
    return x * y % p


def _mulmod_f64(x: np.ndarray, y: np.ndarray, p: np.ndarray, p_inv: np.ndarray) -> np.ndarray:
    """x * y mod p for uint64 residues of p < 2^40, given p_inv = 1/p in
    float64.

    The exact quotient Q = x*y/p is below p < 2^40.  x and y convert
    exactly, so c = fl(fl(x y) p_inv) carries three roundings of relative
    error at most 2^-53 each and lies within 2^-11 of Q.  Subtracting 1/2
    rounds by at most half an ulp below 2^40, 2^-14, so d = fl(c - 1/2)
    lies in (Q - 1, Q).  Truncated toward zero it gives q = floor(Q) - 1
    or floor(Q): for d >= 0 that is floor(d), and for d in (-1, 0) it is
    0 while Q < 1 + d < 1.  So x*y - q*p, taken in wrapping uint64, is the
    true difference, in [0, 2p), and min(r, r - p), where r - p wraps to
    above 2^63 when r < p, brings it into [0, p).  None of this needs p
    prime.
    """
    q = (x.astype(np.float64) * y.astype(np.float64) * p_inv - 0.5).astype(np.int64)
    r = x * y - q.view(np.uint64) * p
    return np.minimum(r, r - p)


def _mulmod_regime(mod: np.ndarray) -> tuple[Callable, np.ndarray]:
    """The mulmod for residues of the int64 moduli mod, 2 <= mod < 2^40,
    chosen by the largest of them, and mod in its residue dtype: float64
    below 2^26 (_mulmod_f53), uint64 below 2^32 (_mulmod_u64, a plain %)
    and uint64 with a float quotient above (_mulmod_f64).  The mulmod
    takes (x, y, p) for residues x and y and p in that dtype."""
    top = int(mod.max(initial=0))
    if top < 1 << 26:
        return functools.partial(_mulmod_f53, p_inv=1 / mod), mod.astype(np.float64)
    if top < 1 << 32:
        return _mulmod_u64, mod.astype(np.uint64)
    return functools.partial(_mulmod_f64, p_inv=1 / mod), mod.astype(np.uint64)


def _pow_residues(x: np.ndarray, exp: np.ndarray, p: np.ndarray, mulmod: Callable) -> np.ndarray:
    """x^exp mod p lane by lane, for residues x and moduli p in the dtype
    of a mulmod regime (_mulmod_regime) and int64 exponents exp >= 0, by a
    left-to-right 3-bit fixed window.

    A table holds x^0 ... x^7 for each lane: eight residues per lane, its
    only memory beyond a few lane-sized temporaries.  The exponents are
    read in windows of three bits from the top of the largest: the top
    window picks the start from the table, and each later one squares
    three times and multiplies by the lane's entry, gathered with one take.
    So an exponent of b bits costs 6 + 4 (ceil(b/3) - 1) mulmods, about
    1.33 per bit; a lane whose exponent is shorter reads 0 digits, and
    x^0 = 1, first.  Exponent 0 on every lane gives no window, and ones.
    """
    n = len(p)
    windows = -(-int(exp.max(initial=0)).bit_length() // 3)
    if not windows:
        return np.ones_like(p)
    table = np.empty((8, n), dtype=p.dtype)  # row d holds x^d, lane by lane
    table[0] = 1
    table[1] = x
    for d in range(2, 8):
        table[d] = mulmod(table[d - 1], x, p)
    lanes = np.arange(n)
    shift = 3 * (windows - 1)
    out = table.take((exp >> shift) * n + lanes)  # the top window, below 8
    for shift in range(shift - 3, -1, -3):
        for _ in range(3):
            out = mulmod(out, out, p)
        out = mulmod(out, table.take((exp >> shift & 7) * n + lanes), p)
    return out


def _pow_mod(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """base^exp mod mod lane by lane, as int64, for int64 arrays with
    base >= 0, exp >= 0 and 2 <= mod < 2^40, prime or not: _pow_residues
    in the regime of the largest modulus.  A base of mod or more is reduced
    first.  The f53 regime can leave mod where 0 belongs, for a composite
    modulus and a non-unit base (_mulmod_f53); it is mapped to 0 here."""
    mulmod, p = _mulmod_regime(mod)
    out = _pow_residues((base % mod).astype(p.dtype), exp, p, mulmod)
    out[out == p] = 0
    return out.astype(np.int64)


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


def _li_arg(x) -> float:
    # NaN fails every comparison, so the Simpson walk would never stop; an
    # int past the float range passes the comparison but has no float
    try:
        if 2 <= x < math.inf:
            return float(x)
    except OverflowError:
        pass
    raise ValueError(f"log_integral requires finite x >= 2, got {x!r}")


def _li_converged(prev: float, cur: float) -> bool:
    return abs(cur - prev) <= 1e-9 * abs(cur)


def log_integral(x: float) -> float:
    """Li(x) = integral of dt/log t from 2 to x, by adaptive Simpson: the
    value log_integrals([x]) gives x, bit for bit.

    The absolute tolerance starts at 1e-6 and is cut tenfold, at most six
    times, until two successive estimates agree to 1e-9 relative.  The
    result's bits are part of the frozen sweep output: they depend on the
    platform's libm ``log``.  Because the tolerance is absolute, the cost
    grows with x, though not monotonically: from about 5e10 the trees reach
    the depth limit.  On a 2-core VM one call took 1.2 ms at 1e6, 2.7 ms
    at 1e9, 0.036 s at 5e10, 3.6 s at 3e11 and 0.10 s at 2^40 - 1.  That
    is a known limit; bounding it would change the bits.  Raises ValueError for
    a non-finite x or x < 2.
    """
    return log_integrals([x])[0]


def log_integrals(xs) -> list[float]:
    """Li(x) (log_integral) of each x in xs, in one batched pass.

    A sweep calls this once for all of its checkpoints.  The Simpson trees
    of up to _LI_GROUP points are walked level by level in numpy, and each
    node's value is added bottom-up in the same pairs as the one-node-at-a-
    time recursion would add them, so a point's bits do not depend on the
    other points of its call.  Every log is libm's ``log``, through
    numpy's element-by-element float64 log loop (_libm_logs): the inputs
    and the logs share one buffer, in alternate slots, and numpy runs that
    loop, which calls libm's ``log``, instead of its SIMD kernel when input
    and output overlap.  One lane alone would not overlap, so every call
    adds a spare lane.  The SIMD kernel is never used: it can differ from
    libm in the last bit (it does on about 1e-4 of the doubles below 4096,
    where every tree has nodes, and more rarely above).  The route is
    checked once per process against ``math.log`` on a canary of doubles
    (_LOG_CANARY) at several lengths, with a ``math.log`` map as the
    fallback on any mismatch.  One walk at the finer tolerance of a step
    serves both estimates: a node's inputs do not depend on the tolerance
    and the split test is monotone in it, so the coarser tree is a subtree
    of the finer one.  Memory is bounded by _LI_GROUP and _LI_NODE_BUDGET;
    time grows with x (log_integral).  Raises ValueError for a non-finite
    x or x < 2.
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


# Doubles on which numpy's SIMD float64 log differs from libm's log in the
# last bit (found in uniform samples over [2, 4096), [4096, 2^26) and
# [2^26, 2^40)), then 2, 3, 1e6 and 2^40 - 1.  _log_route reads libm's log
# through numpy's element-by-element loop (_libm_logs) only if it gives
# math.log's bits on every one of them, alone, in short runs and tiled past
# _LI_NODE_BUDGET: a route that fell back to the SIMD kernel at some length
# would show there.
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


def _libm_logs(v: np.ndarray) -> np.ndarray:
    # the inputs go in column 1 of a float64 buffer of two columns and the
    # logs in column 0.  Input and output then overlap in memory, so numpy's
    # float64 log skips its SIMD kernel and runs its element-by-element
    # loop, which calls libm's log.  One row alone would not overlap, so a
    # spare row pads every call.
    n = len(v)
    buf = np.empty((n + 1, 2))
    buf[:n, 1] = v
    buf[n, 1] = 2.0
    np.log(buf[:, 1], out=buf[:, 0])
    return buf[:n, 0]


def _math_logs(v: np.ndarray) -> np.ndarray:
    # a memoryview yields one float at a time: no list of temporaries
    return np.fromiter(map(math.log, memoryview(v)), dtype=np.float64, count=len(v))


@functools.cache
def _log_route():
    """_libm_logs if it gives math.log's bits on the canary doubles, one at
    a time, as each longer prefix of the canary and tiled past
    _LI_NODE_BUDGET, else _math_logs.  Decided on the first call, once per
    process."""
    canary = np.array([float.fromhex(h) for h in _LOG_CANARY])
    want = np.array([math.log(x) for x in canary.tolist()])
    size = _LI_NODE_BUDGET + len(canary) + 1
    layouts = ([(canary[i:i + 1], want[i:i + 1]) for i in range(len(canary))]
               + [(canary[:n], want[:n]) for n in range(2, len(canary) + 1)]
               + [(np.resize(canary, size), np.resize(want, size))])
    if all(np.array_equal(_libm_logs(v), w) for v, w in layouts):
        return _libm_logs
    return _math_logs


def _logs(v: np.ndarray) -> np.ndarray:
    """math.log of each element of v, bit for bit."""
    return _log_route()(v)


def _pairs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.empty(2 * len(x), dtype=x.dtype)
    out[0::2], out[1::2] = x, y
    return out


def _simpson_forest(b: np.ndarray, coarse: float, fine: float) -> tuple[np.ndarray, np.ndarray]:
    """The Simpson estimates of Li(x) at the tolerances coarse > fine, for
    each x in b: the recursion from the root [2, x], with the depth limit
    _LI_DEPTH."""
    a = np.full_like(b, 2.0)
    fa, fb = 1.0 / _logs(a), 1.0 / _logs(b)
    m = 0.5 * (a + b)
    fm = 1.0 / _logs(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_level([a, fa, b, fb, whole, fm], coarse, fine, _LI_DEPTH)


def _simpson_level(nodes: list, coarse: float, fine: float,
                   depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The coarse and the fine value of each node of one tree level.

    ``nodes`` holds six arrays, one lane per node: a, 1/log a, b, 1/log b,
    the node's Simpson estimate on [a, b] and 1/log of its midpoint.  A
    coarse value off the coarse tree is never read: its parent did not
    split under the coarse tolerance.  The list is emptied as soon as its
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
    """One step of adaptive Simpson on every node of a level, emptying
    ``nodes``: each node's two halves are estimated, and the node splits
    where their sum differs from its own estimate by more than 15 times the
    tolerance, unless it is at depth 0.  Returned: the leaf values (the
    extrapolated sums), the nodes that split under each tolerance and their
    children (None if none splits).  Kept apart from
    _simpson_level so that its temporaries are freed before the level below
    is walked."""
    a, fa, b, fb, whole, fm = nodes
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
    # coarse > fine, so split_coarse is a subset of split (NaN splits under both)
    split_coarse = ~(size <= 15.0 * coarse)
    children = [_pairs(a[split], m[split]), _pairs(fa[split], fm[split]),
                _pairs(m[split], b[split]), _pairs(fm[split], fb[split]),
                _pairs(left[split], right[split]), _pairs(flm[split], frm[split])]
    return leaf, split, split_coarse, children
