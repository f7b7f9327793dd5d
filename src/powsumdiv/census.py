"""The counting core: stream primes with a segmented sieve, classify each
one against a BaseProfile, and derive every counting function exactly from
the count of primes in each (s, t, Legendre) cell.

Per generic prime p (p not dividing 2ab) the classification computes

* s = v2(p-1),
* t = v2 of the multiplicative order of r = a/b mod p,
* the Legendre symbol of the maximal root r0 at p,

where a/b = eps r0^h as the profile decomposes it.  The Legendre symbol
comes first: it equals (kernel/p), and for a kernel below 2^16 it is read
from a table of period 4 * kernel (quadratic reciprocity).  t follows
from e = v2(h), eps and t0 = v2 of the order of r0.  (r0/p) = -1 means
t0 = s, and (r0/p) = +1 with s <= e+1 means t0 <= e, where t is the same
for every t0.  Only the rest, (r0/p) = +1 with s >= e+2, about one prime
in four, raise r0 mod p to the odd part of p-1 and square each prime at
most s times, until it is 1 (the full order is never computed and p-1 is
never factored).  For a larger kernel every prime does, and (r0/p) = +1
iff t0 < s.  r0 mod p is g k^-1 for the terms k < g of r0, with the
closed-form inverse (1 + j p) / k, j = -p^-1 mod k read from a table,
when k < 2^16, and with k^-1 = k^(p-2) (Fermat) otherwise.  The powers
are arith's windowed power, in the mulmod regime of the chunk's largest
prime (arith._mulmod_regime).

p divides some a^k + b^k iff t >= 1.  The sieve marks odd numbers only,
and one numpy call (_classify) per segment gives each prime its cell
(_fold_segment), which _decode reads back for _weights and for the
oracle and local-factors suites of verify.  classify_prime is the checked
one-prime entry to the same kernel; the tests hold the kernel to a scalar
Python-int reference kept beside them, which takes t from r itself and the
Legendre symbol from Euler's criterion.  Special primes p | 2ab have a
column of their own (t = 40, bit = "p divides the sequence"), so they
enter pi and the exact count but no heuristic sum.

Every counting function is a linear functional of the cell counts: each
view weighs a generic prime's cell by a dyadic rational with denominator
2^s (the local factors, the truncated 2-power Ramanujan sums, the explicit
formula), so every identity in the test suite is an exact equality.  The
ten counts of one prime in every cell are stated once, in the table
_weights(e, eps), the views at scale 2^40; the local-factors suite of
verify checks its k1 and k2 rows prime by prime against the Ramanujan
sums.  _tally multiplies its columns with the cell counts of a piece; the
only accumulated state is a CountAccumulator of those ten totals.  Counts
and sweeps share one checkpointed fold (_census): it works one sieve
segment at a time up to the last checkpoint and cuts the segment's cells
at the checkpoints inside it; tallies add as integers, so any merge
schedule (1 worker or many) produces bit-identical results.
"""

import bisect
import cmath
import collections
import functools
import math
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .arith import (
    _factorize_cached,
    _int_arg,
    _mulmod_regime,
    _pow_residues,
    _simple_sieve,
    _v2,
    is_prime,
    log_integrals,
    v2,
)
from .cyclic import character_table, rational_mod
from .density import delta_naive, delta_table
from .profile import BaseProfile

SEGMENT_SIZE = 1 << 20
# Segment tasks in flight per worker: enough to keep it busy while the parent
# merges, and a sweep to 2^40 (2^20 tasks) holds only a handful of futures.
_TASKS_PER_WORKER = 4
MAX_X = 1 << 40
# The most checkpoints a sweep takes (cli.default_checkpoints builds 10^5
# in about 0.08 s).
MAX_CHECKPOINTS = 10**5

CHARACTER_X_LIMIT = 2000

# A prime's cell is (s * _S_CELLS + t) * 2 + bit.  For a
# generic prime t <= s = v2(p-1) < 40 (p <= 2^40) and bit is (r0/p) == 1;
# a special prime takes the otherwise unused t = _SPECIAL_T, with bit
# "p divides the sequence" (s = 0 for p = 2).
_S_CELLS = 41
_SPECIAL_T = _S_CELLS - 1


class InternalInconsistencyError(ArithmeticError):
    """A proven bound failed: a character sum that does not round to an
    integer, or an order valuation that exceeds s = v2(p-1)."""


class Counts(NamedTuple):
    """Every counting function at one x, evaluated exactly from the tallies.

    pi and n_exact count every prime, the other views the generic ones
    only.  ram_e, ram_e1 and ram_full are ramanujan_count at truncation
    "e", "e+1" and "full"; formula is formula_count.
    """

    pi: int
    n_exact: int
    n_generic: int
    pi_generic: int
    k1: Fraction
    k2: Fraction
    ram_e: Fraction
    ram_e1: Fraction
    ram_full: Fraction
    formula: Fraction

    @property
    def h1(self) -> Fraction:
        return self.pi_generic - self.k1

    @property
    def h2(self) -> Fraction:
        return self.pi_generic - self.k2

    @property
    def tail(self) -> Fraction:
        """n_generic - h2, i.e. the weight the refined truncation discards.

        Sign convention: this equals ramanujan_count(full) minus
        ramanujan_count("e+1"); the raw inner sum over v >= e+2 is its
        negative.
        """
        return self.ram_full - self.ram_e1


@dataclass(slots=True, eq=False)
class CountAccumulator:
    """The ten Counts fields of the primes tallied so far (_tally), as
    Python ints, the views at scale 2^40; merge order never matters."""

    totals: tuple[int, ...] = (0,) * len(Counts._fields)

    def merge(self, other: "CountAccumulator") -> None:
        self.totals = tuple(a + b for a, b in zip(self.totals, other.totals, strict=True))

    def copy(self) -> "CountAccumulator":
        return CountAccumulator(self.totals)


# ---------------------------------------------------------------------------
# prime generation


_base_primes = functools.lru_cache(maxsize=1)(_simple_sieve)


def _primes_in_range(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi) via a sieve segment, as an int64 array.

    The base primes come from _base_primes at the power of two above
    isqrt(hi - 1): consecutive segments share that cached array, which
    is only read.  Only odd numbers are sieved: index i stands for
    lo0 + 2i, lo0 the least odd number >= lo, but for lo = 2, lo0 = 1 and
    index 0, never struck, stands for 2.  The odd multiples of an odd
    prime q >= 3 from q^2 on are q indices apart.
    """
    lo = max(lo, 2)
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    root = math.isqrt(hi - 1)
    base = _base_primes(1 << root.bit_length())
    lo0 = 1 if lo == 2 else lo | 1
    mask = np.ones((hi - lo0 + 1) // 2, dtype=bool)
    q = base[1 : np.searchsorted(base, root, side="right")]
    starts = np.maximum(q * q, ((lo0 + q - 1) // q | 1) * q)
    for step, i in zip(q.tolist(), ((starts - lo0) >> 1).tolist()):
        mask[i::step] = False
    primes = np.flatnonzero(mask)  # scaled in place: no second array of the segment
    primes *= 2
    primes += lo0
    if lo == 2:
        primes[0] = 2
    return primes


def _segments(x_max: int) -> Iterator[tuple[int, int]]:
    """The sieve segments [lo, hi) that cover 2..x_max, aligned to SEGMENT_SIZE."""
    lo = 2
    while lo <= x_max:
        hi = min((lo // SEGMENT_SIZE + 1) * SEGMENT_SIZE, x_max + 1)
        yield lo, hi
        lo = hi


def _check_bounds(x_max: int) -> None:
    if _int_arg("x", x_max) < 2:
        raise ValueError("x must be >= 2")
    if x_max > MAX_X:
        raise ValueError(f"x must be <= 2^40 = {MAX_X}")


# ---------------------------------------------------------------------------
# per-prime classification


def classify_prime(profile: BaseProfile, p: int) -> tuple[int, int | None, int | None, bool]:
    """Order-parity data (s, t, leg, divides) of one prime p <= 2^40
    against a profile: s = v2(p-1), t = v2 of the order of r = a/b mod p,
    leg the Legendre symbol (+-1) of r0 at p, and whether p divides some
    a^k + b^k.  For p | 2ab, t and leg are None.

    A generic p is classified by the segment kernel _classify, as one
    lane.  Raises ValueError if p is not a prime in [2, 2^40].
    """
    if not (2 <= p <= MAX_X and is_prime(p)):
        raise ValueError(f"p must be a prime <= 2^40, got {p}")
    s = v2(p - 1)
    if p == 2 or profile.a % p == 0 or profile.b % p == 0:
        # p | 2ab, so decompose() has already decided it
        return s, None, None, dict(profile.special_primes)[p]
    _, t, leg = (int(v[0]) for v in _classify(profile, np.array([p], dtype=np.int64)))
    return s, t, leg, t >= 1


# A smaller term k of r0 below this limit is inverted mod p from a table.
_INVERSE_K_LIMIT = 1 << 16


@functools.lru_cache(maxsize=16)
def _negated_inverses(k: int) -> np.ndarray:
    """-c^-1 mod k at index c, for c in [0, k) prime to k (0 elsewhere)."""
    return np.array([-pow(c, -1, k) % k if math.gcd(c, k) == 1 else 0 for c in range(k)],
                    dtype=np.int64)


def _inverse(k: int, primes: np.ndarray, mulmod: Callable, p: np.ndarray) -> np.ndarray:
    """k^-1 mod p in [1, p), in the dtype of p, for an int64 array of odd
    primes not dividing k < 2^63, given their mulmod regime
    (arith._mulmod_regime): p is primes in its dtype.  Below
    _INVERSE_K_LIMIT it is (1 + j p) / k with j = -p^-1 mod k: 1 + j p is
    divisible by k, below 2^56 for p <= 2^40, and k (1 + j p) / k = 1
    mod p.  Otherwise it is k^(p-2) (Fermat)."""
    if k < _INVERSE_K_LIMIT:
        return ((1 + _negated_inverses(k)[primes % k] * primes) // k).astype(p.dtype)
    return _pow_residues((np.int64(k) % primes).astype(p.dtype), primes - 2, p, mulmod)


# A kernel below this limit reads the Legendre symbol of r0 from a table of
# 4 * kernel int8 entries, at most 256 KiB.  Measured on a 2-core VM,
# building one took 0.04 ms at kernel 3599, 0.8 ms at 65521 and 5-6 ms at
# 255255, while the table saves about 2 ms on each chunk of 2^13 primes
# near 5e6: below 2^16 one full chunk repays the table.
_LEGENDRE_KERNEL_LIMIT = 1 << 16


@functools.lru_cache(maxsize=16)
def _legendre_table(kernel: int) -> np.ndarray:
    """The Jacobi symbol (kernel/n) at index n in [0, 4 kernel) for odd n
    (0 for even n), as int8, for a squarefree kernel >= 2.

    For an odd prime p not dividing the kernel, (kernel/p) is the entry at
    p mod 4 kernel.  The symbol is multiplicative over the prime factors q
    of the kernel.  For odd q, reciprocity gives (q/n) = (n mod q / q)
    times -1 when q = n = 3 mod 4: the first factor repeats with period q
    and is read off the squares mod q.  (2/n) is -1 iff n = 3 or 5 mod 8.
    So the table is a product of periodic patterns, each tiled to the full
    period: one per odd q, and one of period 8 for the signs.
    """
    period = 4 * kernel
    signs = np.array([0, 1] * 4, dtype=np.int8)  # at n mod 8
    table = np.ones(period, dtype=np.int8)
    for q, _ in _factorize_cached(kernel):
        if q == 2:
            signs[[3, 5]] *= -1
            continue
        if q & 3 == 3:
            signs[[3, 7]] *= -1
        squares = np.full(q, -1, dtype=np.int8)
        squares[0] = 0
        squares[np.arange(1, q // 2 + 1) ** 2 % q] = 1
        table *= np.tile(squares, period // q)
    if kernel & 1:  # the period is 4 mod 8, and the signs repeat with period 4
        signs = signs[:4]
    return table * np.tile(signs, period // len(signs))


def _r0_valuation(profile: BaseProfile, primes: np.ndarray, s: np.ndarray) -> np.ndarray:
    """t0 = v2(ord r0) for an ascending int64 array of generic primes with
    s = v2(p-1).

    Let m be the odd part of p-1 and k < g the numerator and denominator of
    r0 in either order (ord r0 = ord 1/r0).  X = (g k^-1)^m (_inverse and
    arith._pow_residues, in the mulmod regime of the largest prime), and
    t0 is the number of squarings of X until it is 1.  The lanes at 1 are
    dropped whenever they are half of those left and 2^10 or more, and the
    rest are squared on in the regime of the largest of their primes.
    t0 <= s, so a lane still not 1 after max(s) squarings raises
    InternalInconsistencyError: its p was not prime.  Needs r0_num,
    r0_den < 2^63.
    """
    mulmod, p = _mulmod_regime(primes)
    k, g = sorted((profile.r0_num, profile.r0_den))
    r0 = mulmod((np.int64(g) % primes).astype(p.dtype), _inverse(k, primes, mulmod, p), p)
    x = _pow_residues(r0, (primes - 1) >> s, p, mulmod)
    t0 = np.empty(len(primes), dtype=np.int8)
    live, count = np.arange(len(primes)), np.zeros(len(primes), dtype=np.int8)
    for _ in range(int(s.max()) + 1):
        differ = x != 1
        left = np.count_nonzero(differ)
        count += differ
        if not left or len(x) - left >= max(left, 1 << 10):
            # drop the lanes at 1 once they are half of those squared and 2^10
            # or more: the copy then costs less than the squarings it saves
            # (below a few thousand lanes a numpy call costs about the same
            # whatever its length)
            t0[live] = count
            if not left:
                return t0
            keep = np.flatnonzero(differ)
            live, count = live[keep], count[keep]
            mulmod, p = _mulmod_regime(primes[live])
            x = x[keep].astype(p.dtype, copy=False)
        x = mulmod(x, x, p)
    raise InternalInconsistencyError("r0^(p-1) != 1 mod some p in the segment")


def _classify(profile: BaseProfile, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, t, leg) as classify_prime states them, for an ascending int64
    array of generic primes (p odd, p <= 2^40, p not dividing ab): int8
    arrays s, t and leg (+-1).

    t follows from t0 = v2(ord r0), where a/b = eps r0^h.  The order of
    r0^h has 2-part exponent u = max(t0 - e, 0), which is t for eps = 1;
    for eps = -1, as -1 is the only element of order 2 in the cyclic
    2-Sylow subgroup, t = u for u >= 2, t = 0 for u = 1 and t = 1 for
    u = 0, i.e. t = u xor (u < 2).  r0 is a square iff its order divides
    (p-1)/2, i.e. iff t0 < s.

    r0_num r0_den is the kernel times a square prime to p, so
    leg = (kernel/p).  Below _LEGENDRE_KERNEL_LIMIT it is read from
    _legendre_table.  Then leg = -1 gives t0 = s, and leg = +1 with
    s <= e+1 gives t0 < s <= e+1, so u = 0 whatever t0 is.  Only the
    primes with leg = +1 and s >= e+2, about one in four, raise r0 to a
    power (_r0_valuation).  For a larger kernel every prime does, and
    leg = +1 iff t0 < s.  s and leg are computed in _CHUNK slices; the
    primes that take the power are then gathered from the whole array and
    raised in full _CHUNK slices.
    """
    kernel = profile.kernel
    table = _legendre_table(kernel) if kernel < _LEGENDRE_KERNEL_LIMIT else None
    s = np.empty(len(primes), dtype=np.int8)
    leg = np.empty(len(primes), dtype=np.int8)
    for i in range(0, len(primes), _CHUNK):
        chunk = primes[i : i + _CHUNK]
        s[i : i + _CHUNK] = _v2(chunk - 1)
        if table is not None:
            leg[i : i + _CHUNK] = table[chunk % (4 * kernel)]
    if table is None:
        todo, s_todo = primes, s
    else:
        power = np.flatnonzero((leg > 0) & (s >= profile.e + 2))
        todo, s_todo = primes.take(power), s.take(power)
    t0 = np.empty(len(todo), dtype=np.int8)
    for i in range(0, len(todo), _CHUNK):
        t0[i : i + _CHUNK] = _r0_valuation(profile, todo[i : i + _CHUNK], s_todo[i : i + _CHUNK])
    if table is None:
        leg = 1 - 2 * (t0 >= s).view(np.int8)
    else:
        t0_power, t0 = t0, s * (leg < 0)  # 0 stands for any t0 <= e
        t0[power] = t0_power
    u = np.maximum(t0 - profile.e, 0)
    t = u if profile.eps == 1 else u ^ (u < 2)
    return s, t, leg


# ---------------------------------------------------------------------------
# accumulation

# Primes per numpy pass of _classify: bounds its int64 temporaries, while
# the per-prime state of a whole segment is kept in int8.
_CHUNK = 1 << 13


def _fold_segment(profile: BaseProfile, lo: int, hi: int,
                  cuts: tuple[int, ...] = ()) -> list[np.ndarray]:
    """Classify every prime of the sieve segment [lo, hi) once: the int16
    (s, t, bit) cell of each prime, split into the pieces [lo, cuts[0]),
    [cuts[0], cuts[1]), ..., [cuts[-1], hi), which _tally weighs."""
    primes = _primes_in_range(lo, hi)
    ends = np.searchsorted(primes, [*cuts, hi]).tolist()
    cells = np.empty(len(primes), dtype=np.int16)
    generic = np.ones(len(primes), dtype=bool)
    specials = [(p, div) for p, div in profile.special_primes if lo <= p < hi]
    if specials:
        at = np.searchsorted(primes, [p for p, _ in specials])
        generic[at] = False
        cells[at] = [(v2(p - 1) * _S_CELLS + _SPECIAL_T) * 2 + div for p, div in specials]
    primes = primes[generic]  # one int64 array of the segment, not two, lives on
    s, t, leg = _classify(profile, primes)
    cells[generic] = (s.astype(np.int16) * _S_CELLS + t) * 2 + (leg > 0)
    return [cells[start:end] for start, end in zip([0, *ends], ends)]


def _decode(cells: np.ndarray) -> tuple[np.ndarray, ...]:
    """s, t and bit of cells, in the dtype of cells, and the masks generic
    and divides (p | some a^k + b^k: t >= 1 if generic, else bit)."""
    s, t = np.divmod(cells >> 1, _S_CELLS)
    bit = cells & 1
    generic = t != _SPECIAL_T
    return s, t, bit, generic, np.where(generic, t > 0, bit == 1)


# e = v2(h) <= 5 (h <= 62 for |a|, |b| < 2^63) and eps = +-1: at most 12 keys
@functools.lru_cache(maxsize=12)
def _weights(e: int, eps: int) -> np.ndarray:
    """The ten Counts fields of one prime in each cell code c (column c),
    for a profile with e = v2(h) and sign eps, as a read-only int64 array.

    The rows are 0/1 for pi, n_exact, n_generic and pi_generic, then the
    six views at scale 2^40, 0 on special cells: k1 and k2, the naive and
    refined local factors; ram_e, ram_e1 and ram_full, 1 - 2^-s
    sum_{v <= top} c_{2^v}(m) at the group index m of r, v2(m) = s - t,
    for top = min(s, e), min(s, e+1) and s; and formula, the explicit
    formula.  A view times 2^s lies in [0, 2^s] on every cell, reachable
    or not, so every entry lies in [0, 2^40].  The local factors equal
    1 - ram_e and 1 - ram_e1 (verify.check_local_factors).
    """
    s, t, bit, generic, divides = _decode(np.arange(2 * _S_CELLS**2))
    table = np.empty((len(Counts._fields), len(s)), dtype=np.int64)
    table[:4] = np.ones_like(s), divides, generic & divides, generic
    one = 1 << s
    leg = 2 * bit - 1
    odd = one * (1 + eps) // 2  # (1 + eps)/2, both local factors when s <= e
    table[4] = np.where(s <= e, odd, 1 << e)
    table[5] = np.where(s <= e, odd, np.where(s == e + 1, one * (1 + eps * leg) // 2,
                                              (1 + leg) << e))
    for row, top in zip((6, 7, 8), (np.minimum(s, e), np.minimum(s, e + 1), s)):
        # the c_{2^v}(m) are 1, then 2^(v-1) up to v = v2(m) = s - t, then
        # -2^v2(m), then 0: the prefix sum is 2^top if top <= v2(m), else 0
        table[row] = one - np.where(top <= s - t, 1 << top, 0)
    if eps == 1:
        # pi(x; 2^(e+1), 1) minus the sum of 2^(e+1-s) over (r0/p) = 1
        table[9] = (s > e) * (one - bit * (2 << e))
    else:
        # pi minus #{s = e+1, (r0/p) = -1} minus the sum of 2^(e+1-s) over
        # (r0/p) = 1, s > e+1
        table[9] = one - (s == e + 1) * (1 - bit) * one - (s > e + 1) * bit * (2 << e)
    table[4:] = np.where(generic, table[4:] << (40 - s), 0)
    table.flags.writeable = False
    return table


def _tally(profile: BaseProfile, cells: np.ndarray) -> CountAccumulator:
    """The ten Counts fields of one piece's int16 cells: the _weights
    columns of its nonzero cells times their counts.  An entry is at most
    2^40 and a piece holds fewer than 2^19 primes, so every int64 sum stays
    below 2^59."""
    n = np.bincount(cells)
    nonzero = np.flatnonzero(n)
    table = _weights(profile.e, profile.eps)
    return CountAccumulator(tuple((table[:, nonzero] @ n[nonzero]).tolist()))


def _evaluate(acc: CountAccumulator) -> Counts:
    """Every counting function of the primes tallied in acc, exactly."""
    ints, views = acc.totals[:4], acc.totals[4:]
    return Counts(*ints, *(Fraction(v, 1 << 40) for v in views))


def _tally_segment(profile: BaseProfile, lo: int, hi: int, cuts: tuple[int, ...]) -> list:
    """The tally of each piece of the sieve segment [lo, hi) cut at cuts."""
    return [_tally(profile, cells) for cells in _fold_segment(profile, lo, hi, cuts)]


def _worker_count(threads: int, tasks: int) -> int:
    """Worker processes for a fold: never more than its segment tasks or
    the machine's CPUs."""
    return min(threads, tasks, os.cpu_count() or 1)


def _submit(pool: ProcessPoolExecutor, task: tuple):
    """pool.submit(_tally_segment, *task) with SIGTERM blocked.

    The first submit forks the workers and only then starts the pool's
    manager thread.  A SIGTERM handler that raised in between (the CLI's
    _Terminated) would leave the pool's shutdown joining a thread that was
    never started, and the sweep would exit 1 with a traceback.  Blocked,
    the signal waits until the submit has returned.  The workers inherit
    the mask of the fork, and the pool's initializer unblocks SIGTERM in
    each of them."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        return pool.submit(_tally_segment, *task)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _in_order(pool: ProcessPoolExecutor, tasks: Iterator[tuple], window: int) -> Iterator:
    """(task, _tally_segment(*task)) for each task, in order, with at most
    window tasks submitted to the pool (_submit) and not yet yielded."""
    pending = collections.deque()
    for task in tasks:
        if len(pending) == window:
            done, future = pending.popleft()
            yield done, future.result()
        pending.append((task, _submit(pool, task)))
    for task, future in pending:
        yield task, future.result()


def _census(profile: BaseProfile, checkpoints: list[int], threads: int = 1) -> list[Counts]:
    """Every count at each of the strictly ascending checkpoints in
    [2, 2^40], from one fold of the sieve segments up to the last one.

    A task is one segment, cut at the checkpoints inside it, and the
    tallies of its pieces are merged in segment order, so the tasks and
    their merge order depend only on the checkpoints and the result is
    identical for any worker count: merging is integer addition.  Tasks
    are made as they are submitted, at most _TASKS_PER_WORKER per worker
    ahead of the merge.
    """
    # a checkpoint c closes the piece that ends before c + 1
    ends = [c + 1 for c in checkpoints]
    closes = set(ends)
    tasks = ((profile, lo, hi, tuple(ends[bisect.bisect_right(ends, lo) :
                                          bisect.bisect_left(ends, hi)]))
             for lo, hi in _segments(checkpoints[-1]))

    def collect(results) -> list[Counts]:
        acc = CountAccumulator()
        counts: list[Counts] = []
        for (_, _, hi, cuts), tallies in results:
            for end, tally in zip((*cuts, hi), tallies):
                acc.merge(tally)
                if end in closes:
                    counts.append(_evaluate(acc))
        return counts

    # the number of segments _segments yields
    workers = _worker_count(threads, checkpoints[-1] // SEGMENT_SIZE + 1)
    if workers == 1:
        return collect((task, _tally_segment(*task)) for task in tasks)
    with ProcessPoolExecutor(max_workers=workers, initializer=signal.pthread_sigmask,
                             initargs=(signal.SIG_UNBLOCK, {signal.SIGTERM})) as pool:
        return collect(_in_order(pool, tasks, _TASKS_PER_WORKER * workers))


# typed: a float x equal to a cached int must not hit the cache, which would
# skip the check that rejects it
@functools.lru_cache(maxsize=64, typed=True)
def _accumulate(profile: BaseProfile, x: int) -> Counts:
    _check_bounds(x)
    return _census(profile, [x])[0]


# ---------------------------------------------------------------------------
# counting functions


def count_exact(profile: BaseProfile, x: int) -> int:
    """#{p <= x : p divides some a^k + b^k}, special primes included."""
    return _accumulate(profile, x).n_exact


def heuristic_counts(profile: BaseProfile, x: int) -> Counts:
    """Every count at x; its k1/k2 are the summed local weights over the
    generic primes <= x, and h1/h2 the generic prime count minus them."""
    return _accumulate(profile, x)


def formula_count(profile: BaseProfile, x: int) -> Fraction:
    """The explicit form of the refined heuristic: for positive ratios
    pi(x; 2^(e+1), 1) minus a Legendre-weighted 2-power sum, for negative
    ones the variant with the s = e+1 correction term.  All prime sums are
    restricted to generic primes; equals h2 exactly."""
    return _accumulate(profile, x).formula


_TRUNCATIONS = {"full": "ram_full", "e": "ram_e", "e+1": "ram_e1"}


def ramanujan_count(profile: BaseProfile, x: int, truncation: str = "full") -> Fraction:
    """pi_generic(x) minus the truncated double sum of 2-power Ramanujan
    sums of the group index of r.

    truncation "full" (v <= s) reproduces the exact generic count;
    "e" and "e+1" reproduce H1 and H2.
    """
    if truncation not in _TRUNCATIONS:
        raise ValueError(f"truncation must be one of {tuple(_TRUNCATIONS)}")
    return getattr(_accumulate(profile, x), _TRUNCATIONS[truncation])


def tail_sum(profile: BaseProfile, x: int) -> Fraction:
    """The exact amount by which the refined truncation misses:
    tail = n_generic - h2 = ramanujan_count(full) - ramanujan_count("e+1").

    The inner sum over v in [e+2, s] carries the opposite sign.
    """
    return _accumulate(profile, x).tail


def character_count(profile: BaseProfile, x: int) -> Fraction:
    """The exact generic count recomputed through explicit character sums.

    For each generic p <= x sums chi(eps) * chi(r0)^h over the characters
    of (Z/pZ)* of order dividing 2^s, by complex evaluation from a
    character table; each inner sum must round to an integer (tolerance
    1e-8).  Oracle-scale only: 2 <= x <= 2000.
    """
    if not 2 <= _int_arg("x", x) <= CHARACTER_X_LIMIT:
        raise ValueError(f"character_count requires 2 <= x <= {CHARACTER_X_LIMIT}")
    h = profile.h
    pi_g = 0
    total = Fraction(0)
    special = dict(profile.special_primes)
    for p in _primes_in_range(2, x + 1).tolist():
        if p in special:
            continue
        pi_g += 1
        table = character_table(p)
        pm1, s = p - 1, v2(p - 1)
        k_eps = 0 if profile.eps == 1 else pm1 >> 1
        k0 = table.dlog(rational_mod(profile.r0_num, profile.r0_den, p))
        base = (k_eps + h * k0) % pm1
        step = pm1 >> s
        inner = 0j
        for q in range(1 << s):
            inner += cmath.exp(2j * math.pi * (q * step * base % pm1) / pm1)
        if abs(inner.imag) > 1e-8 or abs(inner.real - round(inner.real)) > 1e-8:
            raise InternalInconsistencyError(
                f"character sum at p={p} is not integral: {inner!r}")
        total += Fraction(round(inner.real), 1 << s)
    return pi_g - total


# ---------------------------------------------------------------------------
# checkpointed sweeps

# The frozen column order of a sweep row, in CSV and JSON alike.
COLUMNS = ("x", "pi", "li", "n_exact", "n_generic", "h1", "h2", "k1", "k2", "tail",
           "delta", "delta1")


@dataclass(frozen=True)
class SweepPoint:
    x: int
    counts: Counts
    li: float


@dataclass(frozen=True)
class SweepSeries:
    profile: BaseProfile
    points: tuple[SweepPoint, ...]

    def rows(self) -> list[dict]:
        """One dict per checkpoint, keyed by COLUMNS in order."""
        delta = delta_table(self.profile)
        delta1 = delta_naive(self.profile)
        return [dict(zip(COLUMNS, (pt.x, c.pi, pt.li, c.n_exact, c.n_generic, c.h1, c.h2, c.k1,
                                   c.k2, c.tail, delta, delta1), strict=True))
                for pt in self.points for c in [pt.counts]]


def sweep(profile: BaseProfile, checkpoints: list[int], threads: int = 1) -> SweepSeries:
    """Every count at each checkpoint, from a single pass over the primes
    up to the last one (_census): output is identical for any worker
    count.  The checkpoints are strictly ascending, at most
    MAX_CHECKPOINTS of them, in [2, 2^40].  Li of every checkpoint comes
    from one batched log_integrals call.
    """
    if _int_arg("threads", threads) < 1:
        raise ValueError("threads must be >= 1")
    checkpoints = [_int_arg("a checkpoint", x) for x in checkpoints]
    if not 1 <= len(checkpoints) <= MAX_CHECKPOINTS:
        raise ValueError(f"checkpoint count must lie in [1, {MAX_CHECKPOINTS}]")
    if sorted(checkpoints) != checkpoints or len(set(checkpoints)) != len(checkpoints):
        raise ValueError("checkpoints must be strictly ascending")
    if checkpoints[0] < 2 or checkpoints[-1] > MAX_X:
        raise ValueError(f"checkpoints must lie in [2, 2^40 = {MAX_X}]")
    # Li first: its temporaries are freed before the fold's are made
    lis = log_integrals(checkpoints)
    points = zip(checkpoints, _census(profile, checkpoints, threads), lis, strict=True)
    return SweepSeries(profile=profile, points=tuple(SweepPoint(x, c, li) for x, c, li in points))
