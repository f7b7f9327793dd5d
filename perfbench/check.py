"""Checks of the program's outputs, made after the timed part of a run.

Sweeps are compared with perfbench/reference.json and mpmath's li, plus the
identities between their columns.  query-mix requests are compared with one
another (every counting route of one (a, b, x) must agree), with sympy
factorisations, and below SMALL_X with a recount in ``oracle``.
"""

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import mpmath
from sympy import primerange
from sympy.functions.combinatorial.numbers import primepi

import oracle
from inputs import CHARACTER_X_LIMIT, OUT_OF_RANGE_X
from layers import SUITES

REFERENCE = Path(__file__).resolve().parent / "reference.json"
SMALL_X = CHARACTER_X_LIMIT   # counts at x <= SMALL_X are recounted with sympy
LI_RTOL = 1e-9

mpmath.mp.dps = 30


@dataclass
class Verdict:
    """What the checks found in one round of outputs."""
    checks: int = 0
    problems: list[str] = field(default_factory=list)
    failed: list[int] = field(default_factory=list)   # indices of failed operations
    primes: int = 0        # primes <= x behind the returned counts
    checkpoints: int = 0   # result rows
    suite_checks: dict = field(default_factory=dict)

    def expect(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.problems.append(message)


def li_minus_li2(x: int) -> float:
    return float(mpmath.li(x) - mpmath.li(2))


def out_of_range(argv: list[str]) -> bool:
    """Is this a request whose correct outcome is exit 2, for x above 2^40?"""
    return argv[0] == "count" and int(argv[3]) == OUT_OF_RANGE_X


def rejected_cleanly(result) -> bool:
    """Did a precondition error exit 2 with one line on stderr and nothing on
    stdout, as a correct program's does?"""
    rc, exc, out, err = result
    return exc is None and rc == 2 and out == "" and len(err.strip().splitlines()) == 1


# -- sweeps -------------------------------------------------------------------


def load_reference(name: str, a: int, b: int) -> list[dict]:
    doc = json.loads(REFERENCE.read_text())[name]
    pair = doc["pairs"][f"{a} {b}"]
    return [{"x": x, "pi": pi, "n_exact": n, "h1": Fraction(h1), "h2": Fraction(h2)}
            for x, pi, n, h1, h2 in zip(doc["checkpoints"], doc["pi"], pair["n_exact"],
                                        pair["h1"], pair["h2"])]


def check_sweep(v: Verdict, a: int, b: int, rows: list[dict], ref: list[dict]) -> None:
    tag = f"sweep {a} {b}"
    v.expect([r["x"] for r in rows] == [r["x"] for r in ref], f"{tag}: checkpoints differ")
    inv = oracle.invariants(a, b)
    prev = None
    for row, want in zip(rows, ref):
        x = row["x"]
        at = f"{tag} x={x}"
        h1, h2 = Fraction(row["h1"]), Fraction(row["h2"])
        k1, k2, tail = Fraction(row["k1"]), Fraction(row["k2"]), Fraction(row["tail"])
        for key in ("pi", "n_exact"):
            v.expect(row[key] == want[key], f"{at}: {key} {row[key]} != reference {want[key]}")
        v.expect(h1 == want["h1"], f"{at}: h1 {h1} != reference {want['h1']}")
        v.expect(h2 == want["h2"], f"{at}: h2 {h2} != reference {want['h2']}")
        li = li_minus_li2(x)
        v.expect(abs(row["li"] - li) <= LI_RTOL * abs(li) if x > 2 else row["li"] == 0,
                 f"{at}: li {row['li']} != mpmath {li}")
        pi_generic = row["pi"] - oracle.specials_upto(inv, x)
        v.expect(k1 + h1 == pi_generic, f"{at}: k1 + h1 != pi_generic {pi_generic}")
        v.expect(k2 + h2 == pi_generic, f"{at}: k2 + h2 != pi_generic {pi_generic}")
        v.expect(tail == row["n_generic"] - h2, f"{at}: tail != n_generic - h2")
        v.expect(row["n_exact"] - row["n_generic"] == oracle.dividing_specials_upto(inv, x),
                 f"{at}: n_exact - n_generic != dividing special primes")
        if prev is not None:
            v.expect(row["pi"] >= prev["pi"] and row["n_exact"] >= prev["n_exact"],
                     f"{at}: pi or n_exact decreased")
        prev = row
    v.primes += rows[-1]["pi"] if rows else 0
    v.checkpoints += len(rows)


# -- verify all ---------------------------------------------------------------

_SUITE_LINE = re.compile(r"ok (\S+): (\d+) checks")


def check_verify(v: Verdict, out: str) -> None:
    lines = out.splitlines()
    v.expect(len(lines) == len(SUITES), f"verify: {len(lines)} lines, want {len(SUITES)}")
    for line, suite in zip(lines, SUITES):
        m = _SUITE_LINE.fullmatch(line)
        v.expect(m is not None and m[1] == suite and int(m[2]) > 0,
                 f"verify: {line!r} is not a passing {suite} line")
        if m is not None:
            v.suite_checks[m[1]] = int(m[2])
    # each oracle check classifies one prime against one pair
    v.primes += v.suite_checks.get("oracle", 0)
    v.checkpoints += len(lines)


# -- query-mix ----------------------------------------------------------------

_ROUTES = {  # which oracle value each counting route must equal
    ("exact", None): "n_exact", ("h1", None): "h1", ("ramanujan", "e"): "h1",
    ("h2", None): "h2", ("formula", None): "h2", ("ramanujan", "e+1"): "h2",
    ("ramanujan", "full"): "n_generic", ("character", None): "n_generic",
}


def _route(argv: list[str]) -> tuple[str, str | None]:
    method = argv[argv.index("--method") + 1]
    trunc = argv[argv.index("--truncation") + 1] if "--truncation" in argv else None
    return method, trunc


def check_queries(v: Verdict, ops: list[list[str]], results: list) -> None:
    invariants = {}
    keys: dict[tuple[int, int, int], dict] = {}
    for argv, (rc, exc, out, err) in zip(ops, results):
        a, b = int(argv[1]), int(argv[2])
        if (a, b) not in invariants:
            invariants[(a, b)] = oracle.invariants(a, b)
        inv = invariants[(a, b)]
        doc = json.loads(out)
        if argv[0] == "profile":
            bad = sorted(k for k in set(doc) | set(inv) if doc.get(k) != inv.get(k))
            v.expect(not bad, f"profile {a} {b}: fields {bad} differ from sympy")
        elif argv[0] == "density":
            delta, delta1, delta2 = (Fraction(doc[k]) for k in ("delta", "delta1", "delta2"))
            v.expect(delta2 == delta, f"density {a} {b}: delta2 != delta")
            v.expect((delta1 == delta) == (inv["kernel"] != 2),
                     f"density {a} {b}: delta1 == delta is not kernel != 2")
            v.expect(doc["anomaly"] == (delta1 != delta), f"density {a} {b}: anomaly flag")
        else:
            x = int(argv[3])
            v.expect((doc["a"], doc["b"], doc["x"]) == (a, b, x), f"{argv}: echoed a, b, x")
            keys.setdefault((a, b, x), {})[_route(argv)] = Fraction(doc["value"])
            v.primes += int(primepi(x))
        v.checkpoints += 1
    for (a, b, x), got in keys.items():
        tag = f"count {a} {b} {x}"
        inv = invariants[(a, b)]

        def agree(r1, r2):
            if r1 in got and r2 in got:
                v.expect(got[r1] == got[r2], f"{tag}: {r1} {got[r1]} != {r2} {got[r2]}")

        agree(("h1", None), ("ramanujan", "e"))
        agree(("h2", None), ("formula", None))
        agree(("formula", None), ("ramanujan", "e+1"))
        agree(("character", None), ("ramanujan", "full"))
        if ("exact", None) in got and ("ramanujan", "full") in got:
            v.expect(got[("exact", None)] - got[("ramanujan", "full")]
                     == oracle.dividing_specials_upto(inv, x),
                     f"{tag}: exact - full != dividing special primes")
        if x <= SMALL_X:
            want = oracle.counts(a, b, [x], primerange(2, x + 1))[0]
            want["n_generic"] = want["n_exact"] - oracle.dividing_specials_upto(inv, x)
            for route, value in got.items():
                v.expect(value == want[_ROUTES[route]],
                         f"{tag}: {route} {value} != sympy recount {want[_ROUTES[route]]}")


# -- one round ------------------------------------------------------------------


def check_round(workload: str, ops: list[list[str]], results: list) -> Verdict:
    """Check one round.  A request for x above 2^40 that does not end as
    ``rejected_cleanly`` is a failed operation; any other operation must exit 0,
    and one that does not is a check failure, so the run is not correct."""
    v = Verdict()
    done = []
    for i, (argv, res) in enumerate(zip(ops, results)):
        if out_of_range(argv):
            if not rejected_cleanly(res):
                v.failed.append(i)
            continue
        rc, exc, out, err = res
        ok = rc == 0 and exc is None
        detail = exc or " | ".join((err.strip() or out.strip()).splitlines())
        v.expect(ok, f"{' '.join(argv)[:80]}: exit status {rc}, {detail[:200]}")
        if ok:
            done.append((argv, res))
    try:
        if workload in ("sweep-deep", "sweep-dense"):
            for argv, (_, _, out, _) in done:
                a, b = int(argv[1]), int(argv[2])
                check_sweep(v, a, b, json.loads(out), load_reference(workload, a, b))
        elif workload == "verify-all":
            for _, (_, _, out, _) in done:
                check_verify(v, out)
        else:
            check_queries(v, [argv for argv, _ in done], [res for _, res in done])
    except (ValueError, KeyError, TypeError) as error:   # output not in the documented form
        v.expect(False, f"unreadable output: {type(error).__name__}: {error}")
    return v
