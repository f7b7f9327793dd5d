"""The counting core: stream primes with a segmented sieve, classify each
one against a BaseProfile, and accumulate every counting function exactly.

Per generic prime p (p not dividing 2ab) the classification computes

* s = v2(p-1),
* t = v2 of the multiplicative order of r = a/b mod p, found by raising
  a and b to the odd part of p-1 and squaring both at most s times until
  they agree (the full order is never computed and p-1 is never factored),
* the Legendre symbol of the maximal root r0 at p.

p divides some a^k + b^k iff t >= 1.  A sieve segment is classified at
once in numpy (_classify) and its primes are counted in a (s, t, leg)
histogram; classify_prime is the scalar Python-int reference.  All
heuristic weights attached to a prime are dyadic rationals with
denominator 2^s, so the accumulators hold plain integers scaled by
2**SHIFT and every identity in the test suite can be checked as exact
equality.  Special primes p | 2ab are kept out of every heuristic sum and
enter only the exact count (and pi).

Checkpointed sweeps work one sieve segment at a time and cut its tallies
at the checkpoints inside it; partial accumulators are integers under
addition, so any merge schedule (1 worker or many) produces bit-identical
results.
"""

import bisect
import cmath
import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Callable, Iterator, Literal, NamedTuple

import numpy as np

from .arith import is_prime, log_integral, v2
from .cyclic import character_table, rational_mod
from .density import delta_naive, delta_table
from .profile import BaseProfile

# Fixed binary scale for the dyadic accumulators.  Every per-prime weight
# has denominator 2^s with s = v2(p-1) < 64 for any x below 2^40, so the
# scaled contributions are exact integers.
SHIFT = 64
_ONE = 1 << SHIFT

DEFAULT_SEGMENT_SIZE = 1 << 20
MAX_X = 1 << 40

CHARACTER_X_LIMIT = 2000

Truncation = Literal["full", "e", "e+1"]


class InternalInconsistencyError(ArithmeticError):
    """A proven bound failed: a character sum that does not round to an
    integer, or an order valuation that exceeds s = v2(p-1)."""


@dataclass(frozen=True)
class PrimeClassification:
    p: int
    s: int                  # v2(p-1)
    t: int | None           # v2(ord_r(p)); None on the special path
    leg_r0: int | None      # Legendre symbol of r0 at p; None on the special path
    divides: bool           # p divides some a^k + b^k
    special: bool           # p | 2ab


@dataclass(slots=True)
class CountAccumulator:
    """Additive per-prime tallies; merge order never matters.

    Integer fields suffixed _num are numerators at scale 2**SHIFT.
    """

    pi: int = 0                    # all primes counted
    pi_generic: int = 0            # primes not dividing 2ab
    pi_progression: int = 0        # p = 1 mod 2^(e+1), all primes
    pi_progression_generic: int = 0
    n_exact: int = 0               # primes dividing the sequence
    n_generic: int = 0             # same, special primes excluded
    k1_num: int = 0
    k2_num: int = 0
    ram1_num: int = 0              # truncation v <= min(s, e)
    ram2_num: int = 0              # truncation v <= min(s, e+1)
    ram_full_num: int = 0          # truncation v <= s
    cnt_legm1_s_e1: int = 0        # generic p with (r0/p) = -1, s = e+1
    sum_leg1_sgt_e_num: int = 0    # sum of 2^-s over generic p, (r0/p)=1, s > e
    sum_leg1_sgt_e1_num: int = 0   # same with s > e+1

    def merge(self, other: "CountAccumulator") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def copy(self) -> "CountAccumulator":
        return replace(self)

    # -- exact rational views -------------------------------------------

    @property
    def k1(self) -> Fraction:
        return Fraction(self.k1_num, _ONE)

    @property
    def k2(self) -> Fraction:
        return Fraction(self.k2_num, _ONE)

    @property
    def h1(self) -> Fraction:
        return self.pi_generic - self.k1

    @property
    def h2(self) -> Fraction:
        return self.pi_generic - self.k2

    @property
    def ram_trunc_j1(self) -> Fraction:
        return Fraction(self.ram1_num, _ONE)

    @property
    def ram_trunc_j2(self) -> Fraction:
        return Fraction(self.ram2_num, _ONE)

    @property
    def tail(self) -> Fraction:
        """n_generic - h2, i.e. the weight the refined truncation discards.

        Sign convention: this equals ramanujan_count(full) minus
        ramanujan_count("e+1"); the raw inner sum over v >= e+2 is its
        negative.
        """
        return Fraction(self.ram2_num - self.ram_full_num, _ONE)


# ---------------------------------------------------------------------------
# prime generation


def _simple_sieve(limit: int) -> np.ndarray:
    """All primes <= limit (plain sieve, used for base primes and tests)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def _primes_in_range(lo: int, hi: int, base: np.ndarray | None = None) -> np.ndarray:
    """Primes in [lo, hi) via a sieve segment, as an int64 array.

    base holds the primes up to at least isqrt(hi - 1); callers that sieve
    many segments pass it so that it is sieved once.
    """
    lo = max(lo, 2)
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    root = math.isqrt(hi - 1)
    if base is None:
        base = _simple_sieve(root)
    mask = np.ones(hi - lo, dtype=bool)
    for p in base[: np.searchsorted(base, root, side="right")].tolist():
        start = max(p * p, (lo + p - 1) // p * p)
        if start < hi:
            mask[start - lo :: p] = False
    return np.flatnonzero(mask) + lo


def _segments(x_max: int, segment_size: int) -> Iterator[tuple[int, int]]:
    """The sieve segments [lo, hi) that cover 2..x_max, aligned to segment_size."""
    lo = 2
    while lo <= x_max:
        hi = min((lo // segment_size + 1) * segment_size, x_max + 1)
        yield lo, hi
        lo = hi


def prime_stream(x_max: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> Iterator[int]:
    """Every prime <= x_max exactly once, ascending, in independent segments."""
    _check_bounds(x_max, segment_size)
    base = _simple_sieve(math.isqrt(x_max))
    for lo, hi in _segments(x_max, segment_size):
        yield from _primes_in_range(lo, hi, base).tolist()


def _check_bounds(x_max: int, segment_size: int) -> None:
    if x_max < 2:
        raise ValueError("x_max must be >= 2")
    if x_max > MAX_X:
        raise ValueError(f"x_max must be <= 2^40 = {MAX_X}")
    if segment_size < 2 or segment_size & (segment_size - 1):
        raise ValueError("segment_size must be a power of two")


# ---------------------------------------------------------------------------
# per-prime classification


def classify_prime(profile: BaseProfile, p: int) -> PrimeClassification:
    """Order-parity data of one prime p <= 2^40 against a profile.

    This is the scalar Python-int reference for the vector classifier
    _classify.  Raises ValueError if p is not a prime in [2, 2^40].
    """
    if not (2 <= p <= MAX_X and is_prime(p)):
        raise ValueError(f"p must be a prime <= 2^40, got {p}")
    a, b = profile.a, profile.b
    if p == 2 or a % p == 0 or b % p == 0:
        # p | 2ab, so decompose() has already decided it
        return PrimeClassification(
            p=p, s=v2(p - 1) if p > 2 else 0, t=None, leg_r0=None,
            divides=dict(profile.special_primes)[p], special=True,
        )
    pm1 = p - 1
    s = (pm1 & -pm1).bit_length() - 1
    r = a % p * pow(b % p, -1, p) % p
    y = pow(r, pm1 >> s, p)
    # r^(p-1) = 1, so y reaches 1 within s squarings
    for t in range(s + 1):
        if y == 1:
            break
        y = y * y % p
    else:
        raise InternalInconsistencyError(f"r^(p-1) != 1 mod {p}")
    leg = 1 if pow(profile.r0_num * profile.r0_den % p, pm1 >> 1, p) == 1 else -1
    return PrimeClassification(p=p, s=s, t=t, leg_r0=leg, divides=t >= 1, special=False)


def _mulmod_u64(x: np.ndarray, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x * y mod p for residues of p < 2^32, where x * y fits uint64."""
    return x * y % p


def _mulmod_f64(x: np.ndarray, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x * y mod p for residues of p < 2^40.

    The float64 quotient of x * y < 2^80 by p is within 2^-12 of the true
    one, so its floor q is off by at most 1 and x*y - q*p, taken in
    wrapping uint64 and read as int64, lies in [-p, 2p): one correction
    brings it into [0, p).
    """
    q = (x.astype(np.float64) * y.astype(np.float64) / p.astype(np.float64)).astype(np.uint64)
    r = (x * y - q * p).view(np.int64)
    pi = p.view(np.int64)
    return np.where(r < 0, r + pi, np.where(r >= pi, r - pi, r)).view(np.uint64)


def _pow_many(bases: list[np.ndarray], exps: list[np.ndarray], p: np.ndarray,
              mulmod: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
              ) -> list[np.ndarray]:
    """bases[j] ** exps[j] mod p, elementwise, by right-to-left
    square-and-multiply with one loop over the bits of the largest exponent."""
    out = [np.ones_like(p) for _ in bases]
    nbits = max(int(e.max()) for e in exps).bit_length()
    for i in range(nbits):
        shift = np.uint64(i)
        for j, (b, e) in enumerate(zip(bases, exps)):
            out[j] = np.where((e >> shift) & np.uint64(1), mulmod(out[j], b, p), out[j])
        if i + 1 < nbits:
            bases = [mulmod(b, b, p) for b in bases]
    return out


def _classify(profile: BaseProfile, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """classify_prime for an ascending int64 array of generic primes
    (p odd, p <= 2^40, p not dividing ab): the arrays s, t and leg (+-1).

    With m the odd part of p-1, X = a^m and Y = b^m, so (a/b)^(m 2^k) = 1
    iff X^(2^k) = Y^(2^k): t is the number of squarings of X and Y until
    they agree, found without a modular inverse and at most max(s) steps.
    The Legendre symbol of r0 is Euler's criterion.  Needs |a|, |b| < 2^63.
    """
    p = primes.view(np.uint64)
    pm1 = p - np.uint64(1)
    s = np.bitwise_count(pm1 ^ (pm1 - np.uint64(1))).astype(np.int64) - 1
    m = pm1 >> s.astype(np.uint64)
    mulmod = _mulmod_u64 if int(primes[-1]) < 1 << 32 else _mulmod_f64

    def residue(n: int) -> np.ndarray:
        return (np.int64(n) % primes).view(np.uint64)

    r0 = mulmod(residue(profile.r0_num), residue(profile.r0_den), p)
    if profile.b == 1:  # Y = 1: skip its powers
        x, euler = _pow_many([residue(profile.a), r0], [m, pm1 >> np.uint64(1)], p, mulmod)
        y = np.ones_like(p)
    else:
        x, y, euler = _pow_many([residue(profile.a), residue(profile.b), r0],
                                [m, m, pm1 >> np.uint64(1)], p, mulmod)
    t = np.zeros(len(p), dtype=np.int64)
    differ = x != y
    for _ in range(int(s.max()) + 1):
        if not differ.any():
            break
        t += differ
        x, y = mulmod(x, x, p), mulmod(y, y, p)
        differ = x != y
    else:
        raise InternalInconsistencyError("(a/b)^(p-1) != 1 mod some p in the segment")
    return s, t, np.where(euler == 1, 1, -1)


def local_factor_k1(profile: BaseProfile, s: int) -> Fraction:
    """Naive per-prime weight: probability that r has odd order among the
    h-th powers, as a function of s = v2(p-1) only."""
    if s < 0:
        raise ValueError("s must be >= 0")
    if s <= profile.e:
        return Fraction(1 + profile.eps, 2)
    return Fraction(1, 1 << (s - profile.e))


def local_factor_k2(profile: BaseProfile, s: int, leg_r0: int) -> Fraction:
    """Refined per-prime weight, using the Legendre symbol of r0 at p."""
    if s < 0:
        raise ValueError("s must be >= 0")
    if leg_r0 not in (-1, 1):
        raise ValueError("leg_r0 must be +-1")
    e = profile.e
    if s <= e:
        return Fraction(1 + profile.eps, 2)
    if s == e + 1:
        return Fraction(1 + profile.eps * leg_r0, 2)
    return Fraction(1 + leg_r0, 1 << (s - e))


# ---------------------------------------------------------------------------
# accumulation

# A generic prime's cell in the (s, t, leg) histogram is (s * _S_CELLS + t)
# * 2 + (leg == 1); s = v2(p-1) < 40 for p <= 2^40 and t <= s.
_S_CELLS = 41
_N_CELLS = 2 * _S_CELLS * _S_CELLS

# Primes classified at once: bounds the kernel's temporary arrays.
_CHUNK = 1 << 13


def _scaled(weight: Fraction) -> int:
    """A dyadic weight as an integer at scale 2**SHIFT."""
    return (weight.numerator << SHIFT) // weight.denominator


def _ramanujan_prefix(v: int, w: int) -> int:
    """sum_{j<=v} c_{2^j}(m) for m with v2(m) = w: 2^v if v <= w, else 0
    (c_{2^j}(m) is 2^(j-1) for 1 <= j <= w, -2^w for j = w+1, then 0)."""
    return 1 << v if v <= w else 0


def _tally(profile: BaseProfile, counts: np.ndarray) -> CountAccumulator:
    """The accumulator of the generic primes counted by a (s, t, leg) cell
    histogram: the one place the local weights are summed."""
    acc = CountAccumulator()
    e = profile.e
    for cell in np.flatnonzero(counts).tolist():
        n = int(counts[cell])
        s, t = divmod(cell >> 1, _S_CELLS)
        leg = 1 if cell & 1 else -1
        sh = SHIFT - s
        acc.pi += n
        acc.pi_generic += n
        if t:
            acc.n_exact += n
            acc.n_generic += n
        acc.k1_num += n * _scaled(local_factor_k1(profile, s))
        acc.k2_num += n * _scaled(local_factor_k2(profile, s, leg))

        # truncated 2-power Ramanujan sums at the group index of r, whose
        # 2-adic valuation is w
        w = s - t
        acc.ram1_num += n * _ramanujan_prefix(min(e, s), w) << sh
        acc.ram2_num += n * _ramanujan_prefix(min(e + 1, s), w) << sh
        acc.ram_full_num += n * _ramanujan_prefix(s, w) << sh

        # components of the explicit progression-minus-sum formulas
        if s > e:
            acc.pi_progression += n
            acc.pi_progression_generic += n
            if leg == 1:
                acc.sum_leg1_sgt_e_num += n << sh
                if s > e + 1:
                    acc.sum_leg1_sgt_e1_num += n << sh
            elif s == e + 1:
                acc.cnt_legm1_s_e1 += n
    return acc


def _fold_segment(profile: BaseProfile, base: np.ndarray, lo: int, hi: int,
                  cuts: tuple[int, ...] = ()) -> list[CountAccumulator]:
    """Classify every prime of the sieve segment [lo, hi) once and tally it
    into one accumulator per piece [lo, cuts[0]), [cuts[0], cuts[1]), ...,
    [cuts[-1], hi).  Special primes take a short exact side path."""
    primes = _primes_in_range(lo, hi, base)
    specials = [(p, div) for p, div in profile.special_primes if lo <= p < hi]
    if specials:
        primes = np.delete(primes, np.searchsorted(primes, [p for p, _ in specials]))
    cells = np.empty(len(primes), dtype=np.int16)
    for i in range(0, len(primes), _CHUNK):
        s, t, leg = _classify(profile, primes[i : i + _CHUNK])
        cells[i : i + _CHUNK] = (s * _S_CELLS + t) * 2 + (leg > 0)

    edges = [lo, *cuts, hi]
    ends = np.searchsorted(primes, edges[1:]).tolist()
    pieces = []
    start = 0
    for piece_lo, piece_hi, end in zip(edges, edges[1:], ends):
        acc = _tally(profile, np.bincount(cells[start:end], minlength=_N_CELLS))
        for p, div in specials:
            if piece_lo <= p < piece_hi:
                acc.pi += 1
                acc.pi_progression += p % (2 << profile.e) == 1
                acc.n_exact += div
        pieces.append(acc)
        start = end
    return pieces


@functools.lru_cache(maxsize=64)
def _accumulate(profile: BaseProfile, x: int) -> CountAccumulator:
    _check_bounds(x, DEFAULT_SEGMENT_SIZE)
    base = _simple_sieve(math.isqrt(x))
    acc = CountAccumulator()
    for lo, hi in _segments(x, DEFAULT_SEGMENT_SIZE):
        acc.merge(_fold_segment(profile, base, lo, hi)[0])
    return acc


# ---------------------------------------------------------------------------
# counting functions


def count_exact(profile: BaseProfile, x: int) -> int:
    """#{p <= x : p divides some a^k + b^k}, special primes included."""
    return _accumulate(profile, x).n_exact


class HeuristicCounts(NamedTuple):
    k1: Fraction
    k2: Fraction
    h1: Fraction
    h2: Fraction


def heuristic_counts(profile: BaseProfile, x: int) -> HeuristicCounts:
    """K1/K2 = summed local weights over generic primes <= x; H_j = the
    generic prime count minus K_j."""
    acc = _accumulate(profile, x)
    return HeuristicCounts(k1=acc.k1, k2=acc.k2, h1=acc.h1, h2=acc.h2)


def _formula_from(acc: CountAccumulator, profile: BaseProfile) -> Fraction:
    e = profile.e
    if profile.eps == 1:
        return acc.pi_progression_generic - Fraction(
            acc.sum_leg1_sgt_e_num << (e + 1), _ONE
        )
    return (acc.pi_generic - acc.cnt_legm1_s_e1
            - Fraction(acc.sum_leg1_sgt_e1_num << (e + 1), _ONE))


def formula_count(profile: BaseProfile, x: int) -> Fraction:
    """The explicit form of the refined heuristic: for positive ratios
    pi(x; 2^(e+1), 1) minus a Legendre-weighted 2-power sum, for negative
    ones the variant with the s = e+1 correction term.  All prime sums are
    restricted to generic primes; equals h2 exactly."""
    return _formula_from(_accumulate(profile, x), profile)


_TRUNCATIONS = ("full", "e", "e+1")


def ramanujan_count(profile: BaseProfile, x: int, truncation: Truncation = "full") -> Fraction:
    """pi_generic(x) minus the truncated double sum of 2-power Ramanujan
    sums of the group index of r.

    truncation "full" (v <= s) reproduces the exact generic count;
    "e" and "e+1" reproduce H1 and H2.
    """
    if truncation not in _TRUNCATIONS:
        raise ValueError(f"truncation must be one of {_TRUNCATIONS}")
    acc = _accumulate(profile, x)
    num = {"full": acc.ram_full_num, "e": acc.ram1_num, "e+1": acc.ram2_num}[truncation]
    return acc.pi_generic - Fraction(num, _ONE)


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
    1e-8).  Oracle-scale only: x <= 2000.
    """
    if x > CHARACTER_X_LIMIT:
        raise ValueError(f"character_count requires x <= {CHARACTER_X_LIMIT}")
    h = profile.h
    pi_g = 0
    total_num = 0  # scaled by 2**SHIFT
    special = dict(profile.special_primes)
    for p in _primes_in_range(2, x + 1).tolist():
        if p in special:
            continue
        pi_g += 1
        table = character_table(p)
        pm1 = p - 1
        s = (pm1 & -pm1).bit_length() - 1
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
        total_num += round(inner.real) << (SHIFT - s)
    return pi_g - Fraction(total_num, _ONE)


# ---------------------------------------------------------------------------
# checkpointed sweeps


@dataclass(frozen=True)
class SweepPoint:
    x: int
    acc: CountAccumulator
    li: float


@dataclass(frozen=True)
class SweepSeries:
    profile: BaseProfile
    points: tuple[SweepPoint, ...]

    def rows(self) -> list[dict]:
        """One dict per checkpoint with the frozen column set."""
        delta = delta_table(self.profile)
        delta1 = delta_naive(self.profile)
        out = []
        for pt in self.points:
            acc = pt.acc
            out.append({
                "x": pt.x,
                "pi": acc.pi,
                "li": pt.li,
                "n_exact": acc.n_exact,
                "n_generic": acc.n_generic,
                "h1": acc.h1,
                "h2": acc.h2,
                "k1": acc.k1,
                "k2": acc.k2,
                "tail": acc.tail,
                "delta": delta,
                "delta1": delta1,
            })
        return out


def _sweep_task(args) -> list[CountAccumulator]:
    return _fold_segment(*args)


def _worker_count(threads: int, tasks: int) -> int:
    """Worker processes for a sweep: never more than its segment tasks or
    the machine's CPUs."""
    return min(threads, tasks, os.cpu_count() or 1)


def sweep(
    profile: BaseProfile,
    x_max: int,
    checkpoints: list[int],
    threads: int = 1,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
) -> SweepSeries:
    """Single pass over the primes <= x_max with snapshots at each
    checkpoint.  Output is identical for any worker count: the work units
    (one per sieve segment, cut at the checkpoints inside it) and their
    merge order depend only on (x_max, checkpoints, segment_size), and
    merging is integer addition.
    """
    _check_bounds(x_max, segment_size)
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if not checkpoints:
        raise ValueError("at least one checkpoint required")
    if sorted(checkpoints) != list(checkpoints) or len(set(checkpoints)) != len(checkpoints):
        raise ValueError("checkpoints must be strictly ascending")
    if checkpoints[0] < 2 or checkpoints[-1] > x_max:
        raise ValueError("checkpoints must lie in [2, x_max]")

    # a checkpoint c closes the piece that ends before c + 1
    ends = [c + 1 for c in checkpoints]
    base = _simple_sieve(math.isqrt(x_max))
    tasks = []
    for lo, hi in _segments(x_max, segment_size):
        cuts = tuple(ends[bisect.bisect_right(ends, lo) : bisect.bisect_left(ends, hi)])
        tasks.append((profile, base, lo, hi, cuts))

    def collect(results) -> tuple[SweepPoint, ...]:
        acc = CountAccumulator()
        points: list[SweepPoint] = []
        closes = set(ends)
        for (_, _, _, hi, cuts), pieces in zip(tasks, results):
            for end, piece in zip((*cuts, hi), pieces):
                acc.merge(piece)
                if end in closes:
                    points.append(SweepPoint(x=end - 1, acc=acc.copy(), li=log_integral(end - 1)))
        return tuple(points)

    workers = _worker_count(threads, len(tasks))
    if workers == 1:
        points = collect(_sweep_task(task) for task in tasks)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = collect(pool.map(_sweep_task, tasks))
    return SweepSeries(profile=profile, points=points)
