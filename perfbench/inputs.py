"""The operations of each workload, as argv lists for ``powsumdiv.cli.main``.

A round is the list of operations a run repeats until its time is up.  It
depends only on the workload and the seed, and every seed gives a round of
the same length with the same number of requests that are expected to fail.
"""

import math
import random
from dataclasses import dataclass

WORKLOADS = ("sweep-deep", "sweep-dense", "verify-all", "query-mix")

# the exit status and a one-line message on stderr are the right answer
OUT_OF_RANGE_X = (1 << 40) + 1


@dataclass(frozen=True)
class SweepSpec:
    pairs: tuple[tuple[int, int], ...]
    x_max: int
    checkpoints: tuple[int, ...]


def geometric_checkpoints(count: int, x_max: int) -> tuple[int, ...]:
    """The checkpoints ``sweep`` documents for --checkpoints count: geometric
    from 10 to x_max, rounded and deduplicated."""
    lo = min(10, x_max)
    pts = {round(lo * (x_max / lo) ** (i / (count - 1))) for i in range(count)}
    pts.add(x_max)
    return tuple(sorted(p for p in pts if p >= 2))


# b = 1 and b != 1, eps = +-1, e = 0 and e = 1, Q(sqrt 2) twice, and (7,3)
# with three special primes
DEEP = SweepSpec(pairs=((2, 1), (-4, 1), (8, 27), (7, 3)), x_max=10**7,
                 checkpoints=geometric_checkpoints(20, 10**7))
# both pairs have b = 1, so the seed's choice barely moves the cost
DENSE = SweepSpec(pairs=((2, 1), (-4, 1)), x_max=2 * 10**6,
                  checkpoints=tuple(range(1000, 2 * 10**6 + 1, 1000)))


def sweep_argv(a: int, b: int, spec: SweepSpec) -> list[str]:
    argv = ["sweep", str(a), str(b), str(spec.x_max), "--format", "json", "--threads", "1"]
    if spec is DENSE:
        argv += ["--checkpoint-list", ",".join(map(str, spec.checkpoints))]
    return argv


def round_ops(workload: str, seed: int) -> list[list[str]]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep-deep":
        pairs = list(DEEP.pairs)
        rng.shuffle(pairs)
        return [sweep_argv(a, b, DEEP) for a, b in pairs]
    if workload == "sweep-dense":
        a, b = rng.choice(DENSE.pairs)
        return [sweep_argv(a, b, DENSE)]
    if workload == "verify-all":
        return [["verify", "all"]]
    if workload == "query-mix":
        # two streams, so that a run spans more of the machine's speed swings
        return query_mix(rng) + query_mix(rng)
    raise ValueError(f"unknown workload {workload!r}")


# -- query-mix ---------------------------------------------------------------

CHARACTER_X_LIMIT = 2000
# Misses below MID_X cost up to ~60 ms.  The narrow TOP_X band is a plateau
# of ~120 ms misses, more than a tenth of the requests, so the 90th
# percentile lands on a flat part of the latency distribution.
MID_X = 100_000
TOP_X = (220_000, 240_000)

# Each key (a, b, x) gets one burst of count requests whose values the
# checker can compare: exact - full = the dividing special primes, character
# = full, h1 = ramanujan e, h2 = formula = ramanujan e+1.
BURSTS = (
    (("exact",), ("ramanujan", "full")),
    (("h1",), ("ramanujan", "e")),
    (("h2",), ("formula",), ("ramanujan", "e+1")),
)

# requests whose x is above the documented 2^40 bound, the same in every round
OUT_OF_RANGE = (("2", "1"), ("-4", "1"), ("8", "27"))


def _small_pair(rng: random.Random) -> tuple[int, int]:
    while True:
        a, b = rng.randint(-60, 60), rng.randint(1, 60)
        if a and abs(a) != b:
            return a, b


def _power_pair(rng: random.Random) -> tuple[int, int]:
    """(+-c u^h, c v^h) with e = v2(h) >= 1 and a common factor c."""
    h = rng.choice((2, 4, 6, 8, 12))
    while True:
        u, v = rng.randint(1, 9), rng.randint(1, 9)
        if u != v and math.gcd(u, v) == 1 and max(u, v) ** h < 1 << 50:
            break
    c = rng.choice((1, 1, 2, 3, 5, 6))
    return rng.choice((1, -1)) * c * u**h, c * v**h


def _big_pair(rng: random.Random, index: int) -> tuple[int, int]:
    """A 40-62-bit a beyond the trial-division limit: a prime, or a product
    of two primes of equal size above 2^20, so decompose runs trial division
    to 10^6 and then Miller-Rabin or Brent rho."""
    from sympy import nextprime

    def prime(bits):
        return nextprime(rng.getrandbits(bits) | 1 << (bits - 1))

    if index % 2 == 0:
        a = prime(rng.randint(40, 62))
    else:
        half = rng.randint(21, 31)
        a = prime(half) * prime(half)
    return rng.choice((1, -1)) * a, rng.choice((1, 2, 3, 5))


def _stratified_x(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n values log-uniform in [lo, hi], one in each of n equal strata, so
    every seed spreads the fold sizes the same way."""
    ratio = hi / lo
    return [round(lo * ratio ** ((i + rng.random()) / n)) for i in range(n)]


def query_mix(rng: random.Random) -> list[list[str]]:
    pairs = ([_small_pair(rng) for _ in range(10)]
             + [_power_pair(rng) for _ in range(6)]
             + [_big_pair(rng, i) for i in range(5)])
    # 95 distinct keys, more than the 64 entries of the accumulator cache:
    # 20 small x where the character method is allowed, the largest exactly
    # at the limit so that every seed builds the same character tables
    small = _stratified_x(rng, 20, 100, CHARACTER_X_LIMIT)[::-1]
    small[0] = CHARACTER_X_LIMIT
    xs = small + _stratified_x(rng, 39, 5000, MID_X) + _stratified_x(rng, 36, *TOP_X)
    owners = [i % len(pairs) for i in range(len(xs))]
    rng.shuffle(owners)

    bursts = []
    for k, (x, owner) in enumerate(zip(xs, owners)):
        a, b = pairs[owner]
        methods = list(BURSTS[k % len(BURSTS)])
        if k % len(BURSTS) == 0 and x <= CHARACTER_X_LIMIT:
            methods.append(("character",))
        rng.shuffle(methods)
        burst = []
        for m in methods:
            argv = ["count", str(a), str(b), str(x), "--method", m[0], "--format", "json"]
            if len(m) > 1:
                argv += ["--truncation", m[1]]
            burst.append(argv)
        bursts.append(burst)
    for a, b in pairs:
        bursts.append([["profile", str(a), str(b)]])
        bursts.append([["density", str(a), str(b), "--format", "json"]])
    for a, b in OUT_OF_RANGE:
        bursts.append([["count", a, b, str(OUT_OF_RANGE_X)]])
    rng.shuffle(bursts)
    return [argv for burst in bursts for argv in burst]
