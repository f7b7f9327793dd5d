"""Acceptance criteria, one test per criterion, each printing a
PASS/FAIL line (run with -s to see them live).

Tolerances are pinned here and nowhere else.  The convergence checks in
criterion 8 are trend checks at desk scale: the asymptotic error term has
an unknown constant, so their tolerances are the agreed 0.02 bounds, not
derived ones.
"""

import time
from fractions import Fraction

import pytest

from powsumdiv.census import ramanujan_count, sweep, tail_sum
from powsumdiv.cli import default_checkpoints, render_sweep
from powsumdiv.density import delta_table
from powsumdiv.profile import decompose
from powsumdiv.verify import (
    check_characters,
    check_densities,
    check_group,
    check_local_factors,
    check_oracle,
    check_ramanujan,
)

F = Fraction


def report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _suite(num: int, name: str, fn, limit: float, checks: int) -> None:
    """Run a suite: no failures, within limit seconds, and exactly the
    pinned number of checks, so that no change to a suite loses coverage
    silently."""
    start = time.monotonic()
    checked, failures = fn()
    elapsed = time.monotonic() - start
    ok = not failures and checked == checks and elapsed < limit
    detail = (f"{name}, {checked} checks (want {checks}), {len(failures)} failures, "
              f"{elapsed:.1f}s (< {limit:.0f}s)")
    if failures:
        detail += f"; first: {failures[0]}"
    report(num, ok, detail)


# ---------------------------------------------------------------------------

TABLE_GRID = {
    2: F(17, 24), -2: F(17, 24),
    3: F(2, 3), -3: F(2, 3),
    4: F(5, 12), -4: F(2, 3),
    8: F(17, 24), -8: F(17, 24),
    16: F(1, 12), -16: F(23, 24),
    5: F(2, 3), -5: F(2, 3),
}


def test_criterion_1_table_reproduction():
    start = time.monotonic()
    bad = [a for a, want in TABLE_GRID.items()
           if delta_table(decompose(a, 1)) != want]
    elapsed = time.monotonic() - start
    report(1, not bad and elapsed < 1.0,
           f"closed-form density on 12-case grid, exact; {elapsed:.2f}s (< 1s)"
           + (f"; wrong at r={bad}" if bad else ""))


def test_criterion_2_refined_equals_table():
    _suite(2, "refined density = closed form, all |a|,|b| <= 30",
           lambda: check_densities(bound=30), 5.0, 1744)


def test_criterion_3_cyclic_group_oracle():
    _suite(3, "cyclic-group formulas vs enumeration, n<=300 h<=50 w<=6",
           lambda: check_group(300, 50, 6), 30.0, 15000)


def test_criterion_4_ramanujan_identities():
    _suite(4, "Holder/weak-form/indicator identities",
           check_ramanujan, 10.0, 175567)


def test_criterion_5_per_prime_weights():
    _suite(5, "truncated Ramanujan sums = local weights to 1e5, 10 profiles",
           lambda: check_local_factors(10**5), 60.0, 191870)


def test_criterion_6_character_sums():
    _suite(6, "character order-sums and character counts",
           lambda: check_characters(200, 500), 60.0, 41690)


def test_criterion_7_parity_oracle():
    _suite(7, "order-parity criterion vs direct search, p<=2000, |a|,|b|<=12",
           lambda: check_oracle(2000, 12), 60.0, 159984)


# ---------------------------------------------------------------------------
# criteria 8 and 9: desk-scale convergence and determinism at x = 1e7

X_BIG = 10**7
CHECKPOINTS = [10**5, 10**6, X_BIG]


@pytest.fixture(scope="module")
def big_sweeps():
    start = time.monotonic()
    s21 = sweep(decompose(2, 1), CHECKPOINTS, threads=1)
    s31 = sweep(decompose(3, 1), CHECKPOINTS, threads=1)
    single_time = time.monotonic() - start
    return {"s21": s21, "s31": s31, "single_time": single_time}


def test_criterion_8_convergence(big_sweeps):
    row21 = big_sweeps["s21"].rows()[-1]
    row31 = big_sweeps["s31"].rows()[-1]
    li = row21["li"]
    delta_2 = float(F(17, 24))
    delta_3 = float(F(2, 3))

    checks = {
        "N/Li(2,1)": abs(row21["n_exact"] / li - delta_2),
        "H2/Li(2,1)": abs(float(row21["h2"]) / li - delta_2),
        "H1/Li(2,1)": abs(float(row21["h1"]) / li - float(F(2, 3))),
        "N/Li(3,1)": abs(row31["n_exact"] / row31["li"] - delta_3),
        "tail/pi(2,1)": abs(float(row21["tail"])) / row21["pi"],
        "tail/pi(3,1)": abs(float(row31["tail"])) / row31["pi"],
    }
    gaps_ok = all(v < 0.02 for v in checks.values())
    closer = abs(row21["n_exact"] - float(row21["h2"])) \
        < abs(row21["n_exact"] - float(row21["h1"]))
    runtime_ok = big_sweeps["single_time"] < 120.0
    detail = (
        "x=1e7: "
        + ", ".join(f"{k}={v:.2e}" for k, v in checks.items())
        + f", refined closer: {closer}"
        + f", {big_sweeps['single_time']:.1f}s single-threaded (< 120s)"
    )
    report(8, gaps_ok and closer and runtime_ok, detail)


def test_criterion_9_thread_determinism():
    profile = decompose(2, 1)
    cps = default_checkpoints(20, X_BIG)
    outputs = {}
    start = time.monotonic()
    for threads in (1, 2, 8):
        series = sweep(profile, cps, threads=threads)
        outputs[threads] = render_sweep(series, "csv").encode()
    elapsed = time.monotonic() - start
    identical = outputs[1] == outputs[2] == outputs[8]
    report(9, identical,
           f"sweep CSV bit-identical for threads 1/2/8 at x=1e7; {elapsed:.1f}s")


def test_tail_telescoping_convention():
    # documents the sign convention asserted throughout: tail = N_generic - H2
    profile = decompose(2, 1)
    t = tail_sum(profile, 10**4)
    assert t == ramanujan_count(profile, 10**4, "full") \
        - ramanujan_count(profile, 10**4, "e+1")
