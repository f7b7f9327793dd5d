"""Suite dispatch and reduced-bound runs of each checker."""

import pytest

from powsumdiv import verify


def test_run_suite_dispatch(monkeypatch):
    fakes = {"group": lambda: (1, []), "densities": lambda: (2, ["bad"])}
    monkeypatch.setattr(verify, "SUITES", fakes)
    out = verify.run_suite("all")
    assert out == {"group": (1, []), "densities": (2, ["bad"])}
    assert verify.run_suite("group") == {"group": (1, [])}
    with pytest.raises(KeyError):
        verify.run_suite("nosuch")


def test_reduced_bounds_all_pass():
    checked, failures = verify.check_group(n_max=60, h_max=10, w_max=4)
    assert checked == 600 and failures == []
    checked, failures = verify.check_densities(bound=8)
    assert failures == []
    checked, failures = verify.check_oracle(p_limit=100, coeff_bound=4)
    assert failures == []
    checked, failures = verify.check_characters(p_max=30, x_char=100)
    assert failures == []
    checked, failures = verify.check_local_factors(
        p_limit=500, checkpoints=(100, 500))
    assert failures == []


def test_oracle_search_bound_finds_every_first_k():
    # check_oracle searches k <= max(1, (p-1)/2); the first hit it finds
    # is the one a search to k <= 2p finds, for every pair and prime
    primes = verify._primes_in_range(2, 300)
    pairs = [(a, b) for a in range(-12, 13) for b in range(-12, 13)
             if a and b and abs(a) != abs(b)]
    wide = verify._first_k(pairs, primes, [2 * p for p in primes.tolist()])
    short = verify._first_k(pairs, primes, [max(1, (p - 1) // 2) for p in primes.tolist()])
    assert (wide > 0).any() and (wide == 0).any()
    assert short.tolist() == wide.tolist()


def test_local_factors_rejects_checkpoints_outside_the_primes():
    # a checkpoint above p_limit would be compared with sums over the
    # primes <= p_limit only
    for checkpoints in ((100, 1000), (1, 100), (0,)):
        with pytest.raises(ValueError):
            verify.check_local_factors(p_limit=500, checkpoints=checkpoints)


def test_local_factors_catch_a_planted_weight_fault(monkeypatch):
    # the per-prime Ramanujan sums do not go through _weights: a k2 row one
    # too large at s = e+1 is caught prime by prime
    weights = verify._weights

    def planted(profile, s, t, bit):
        rows = weights(profile, s, t, bit)
        rows[1] += s == profile.e + 1
        return rows

    monkeypatch.setattr(verify, "_weights", planted)
    checked, failures = verify.check_local_factors(2000, (100, 2000))
    refined = [f for f in failures if f.startswith("refined weight mismatch")]
    assert refined and refined[0].startswith("refined weight mismatch at (2,1), p=3:")
    assert not any(f.startswith("naive weight mismatch") for f in failures)


def test_suites_catch_a_planted_kernel_fault(monkeypatch):
    # both suites classify through the segment kernel: a t one too small
    # at p = 7 is caught by the oracle (for the pairs where 7 | a^k + b^k
    # with t = 1) and by the index valuation of local-factors
    decode = verify._decode

    def planted(cells):
        s, t, bit, generic, divides = decode(cells)
        if generic[3] and t[3] > 0:  # primes 2, 3, 5, 7: index 3 is p = 7
            t[3] -= 1
            divides[3] = t[3] > 0
        return s, t, bit, generic, divides

    monkeypatch.setattr(verify, "_decode", planted)
    _, failures = verify.check_oracle(p_limit=50, coeff_bound=3)
    assert failures and all(", p=7: classified False, search True" in f for f in failures)
    assert failures[0].startswith("parity criterion vs search at (a,b)=(")
    _, failures = verify.check_local_factors(100, (100,))
    assert "index valuation mismatch at (-2,1), p=7" in failures
