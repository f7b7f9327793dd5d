"""Self-test of the output checkers in check.py: each must accept a correct
output of the program and report a failure when one value in it changes.

    python3 perfbench/selftest.py

Takes a few seconds.  The sweep and query outputs come from the program
itself at small x; the reference values for them are recounted with sympy.
`verify all` runs the program's own command with its suites replaced by
stubs that report fixed counts, since the real suites take a minute.  Every
case whose fault shows in the exit status goes through ``check_round``, the
path a run takes.
"""

import contextlib
import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from sympy import primerange  # noqa: E402

import check  # noqa: E402
import oracle  # noqa: E402
from powsumdiv import verify  # noqa: E402
from powsumdiv.cli import main as cli_main  # noqa: E402
from workload import call  # noqa: E402


def problems(fn, *args) -> list[str]:
    verdict = check.Verdict()
    fn(verdict, *args)
    return verdict.problems


def sweep_cases():
    cps = [10, 100, 1000, 3000]
    rc, exc, out, _ = call(cli_main, ["sweep", "7", "3", "3000", "--checkpoint-list",
                                      ",".join(map(str, cps)), "--format", "json",
                                      "--threads", "1"])
    assert rc == 0 and exc is None, (rc, exc)
    rows = json.loads(out)
    ref = oracle.counts(7, 3, cps, primerange(2, cps[-1] + 1))
    yield "sweep as the program wrote it", problems(check.check_sweep, 7, 3, rows, ref), False
    bad = copy.deepcopy(rows)
    bad[2]["n_exact"] += 1
    yield "sweep with n_exact off by one", problems(check.check_sweep, 7, 3, bad, ref), True
    bad = copy.deepcopy(rows)
    bad[3]["li"] *= 1 + 1e-6
    yield "sweep with li off by 1e-6 relative", problems(check.check_sweep, 7, 3, bad, ref), True
    argv = ["sweep", "7", "3", "1", "--format", "json", "--threads", "1"]   # exits 2
    yield ("sweep that exits 2",
           check.check_round("sweep-deep", [argv], [call(cli_main, argv)]).problems, True)


@contextlib.contextmanager
def stub_suites(failing: str | None):
    """Replace the verify suites with stubs; the one named failing reports a
    violation, so `verify all` prints a FAIL line and exits 1."""
    saved = dict(verify.SUITES)
    for i, suite in enumerate(check.SUITES):
        counterexamples = ["planted"] if suite == failing else []
        verify.SUITES[suite] = lambda n=100 + i, c=counterexamples: (n, c)
    try:
        yield
    finally:
        verify.SUITES.clear()
        verify.SUITES.update(saved)


def verify_cases():
    argv = ["verify", "all"]
    for failing in (None, check.SUITES[2]):
        with stub_suites(failing):
            result = call(cli_main, argv)
        name = f"verify all with {failing} failing" if failing else "verify all, every suite ok"
        yield name, check.check_round("verify-all", [argv], [result]).problems, bool(failing)


def query_cases():
    ops = []
    for x in (1500, 50000):   # below SMALL_X: recounted; above: identities only
        for method in (["h2"], ["formula"], ["ramanujan", "--truncation", "e+1"],
                       ["exact"], ["ramanujan", "--truncation", "full"]):
            ops.append(["count", "-4", "1", str(x), "--method", *method, "--format", "json"])
    results = [call(cli_main, argv) for argv in ops]
    assert all(r[0] == 0 for r in results), results
    yield "query-mix as the program wrote it", problems(check.check_queries, ops, results), False
    for i in (0, 5):   # the h2 request at each x
        bad = copy.deepcopy(results)
        doc = json.loads(bad[i][2])
        doc["value"] = str(Fraction(doc["value"]) + Fraction(1, 64))
        bad[i][2] = json.dumps(doc)
        yield (f"query-mix with h2 wrong at x={ops[i][3]}",
               problems(check.check_queries, ops, bad), True)


    # x above 2^40 must exit 2; until it does the request is a failed
    # operation, and the round stays correct
    argv = ["count", "2", "1", str(check.OUT_OF_RANGE_X)]
    verdict = check.check_round("query-mix", ops + [argv], results + [call(cli_main, argv)])
    found = list(verdict.problems)
    if verdict.failed not in ([], [len(ops)]):
        found.append(f"failed operations {verdict.failed}, want [] or [{len(ops)}]")
    yield "query-mix with a request for x above 2^40", found, False


def main() -> int:
    wrong = 0
    for name, found, should_fail in (*sweep_cases(), *verify_cases(), *query_cases()):
        if bool(found) == should_fail:
            print(f"ok   {name}: " + (f"caught ({found[0]})" if found else "accepted"))
        else:
            wrong += 1
            print(f"FAIL {name}: " + (f"rejected: {found[:3]}" if found else "not caught"))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
