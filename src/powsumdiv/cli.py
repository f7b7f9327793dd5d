"""Command-line surface: profiles, densities, counts, sweeps and the
verification suites.  Exit codes: 0 success, 1 verification failure,
2 usage or precondition error.

Output is deterministic for a given command line: no timestamps, no
machine-dependent values.  Exact rationals are rendered as p/q in JSON
and as decimals (10 significant digits) in CSV.
"""

import argparse
import functools
import json
import signal
import sys
from fractions import Fraction

from .census import (
    COLUMNS,
    MAX_CHECKPOINTS,
    _TRUNCATIONS,
    _check_bounds,
    character_count,
    count_exact,
    formula_count,
    heuristic_counts,
    ramanujan_count,
    sweep,
)
from .density import delta_naive, delta_refined, delta_table
from .profile import decompose
from .verify import SUITES

CSV_HEADER = ",".join(COLUMNS)


def _dec(value) -> str:
    """Decimal rendering with 10 significant digits."""
    return f"{float(value):.10g}"


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def cmd_profile(args) -> int:
    profile = decompose(args.a, args.b)
    print(json.dumps(profile.to_json_dict(), indent=2))
    return 0


def cmd_density(args) -> int:
    profile = decompose(args.a, args.b)
    delta, delta1 = delta_table(profile), delta_naive(profile)
    values = (("delta", delta), ("delta1", delta1), ("delta2", delta_refined(profile)))
    anomaly = delta1 != delta  # the naive heuristic has the wrong limit
    if args.format == "json":
        doc = {}
        for name, value in values:
            doc[name], doc[name + "_decimal"] = _frac(value), float(value)
        doc["anomaly"] = anomaly
        print(json.dumps(doc, indent=2))
    else:
        for name, value in values:
            print(f"{name:<6} = {value} ({_dec(value)})")
        if anomaly:
            print("sqrt2 anomaly: naive heuristic is not asymptotically exact"
                  f" (delta1 != delta)")
    return 0


# Each count --method, as a call of the counting function it prints.
METHODS = {
    "exact": lambda profile, args: count_exact(profile, args.x),
    "h1": lambda profile, args: heuristic_counts(profile, args.x).h1,
    "h2": lambda profile, args: heuristic_counts(profile, args.x).h2,
    "formula": lambda profile, args: formula_count(profile, args.x),
    "ramanujan": lambda profile, args: ramanujan_count(profile, args.x, args.truncation),
    "character": lambda profile, args: character_count(profile, args.x),
}


def cmd_count(args) -> int:
    profile = decompose(args.a, args.b)
    value = METHODS[args.method](profile, args)
    if args.format == "json":
        doc = {"method": args.method, "a": args.a, "b": args.b, "x": args.x}
        if isinstance(value, int):
            doc["value"] = value
        else:
            doc["value"] = _frac(value)
            doc["decimal"] = float(value)
        print(json.dumps(doc))
    elif isinstance(value, int):
        print(value)
    else:
        print(f"{value} ({_dec(value)})")
    return 0


def default_checkpoints(count: int, x_max: int) -> list[int]:
    """count geometrically spaced checkpoints ending at x_max.

    Spacing runs from 10 (or x_max if smaller) to x_max; rounded values
    are deduplicated, so fewer than count points may come back.  count
    must lie in [1, MAX_CHECKPOINTS] and x_max in [2, 2^40].
    """
    if not 1 <= count <= MAX_CHECKPOINTS:
        raise ValueError(f"checkpoint count must lie in [1, {MAX_CHECKPOINTS}]")
    _check_bounds(x_max)
    lo = min(10, x_max)
    pts = set()
    for i in range(count):
        t = i / (count - 1) if count > 1 else 1.0
        pts.add(round(lo * (x_max / lo) ** t))
    pts.add(x_max)
    return sorted(pts)


def cmd_sweep(args) -> int:
    profile = decompose(args.a, args.b)
    _check_bounds(args.x_max)
    if args.checkpoint_list is not None:
        try:
            checkpoints = [int(tok) for tok in args.checkpoint_list.split(",")]
        except ValueError:
            raise ValueError("--checkpoint-list must be comma-separated integers") from None
        if checkpoints[-1] > args.x_max:
            raise ValueError("checkpoints must lie in [2, x_max]")
    else:
        checkpoints = default_checkpoints(args.checkpoints, args.x_max)
    # _Terminated unwinds the pool's `with` (SIGTERM's default would orphan the
    # workers), then SIGTERM is resent.  Set only here: setting one costs microseconds.
    previous = signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        try:
            series = sweep(profile, checkpoints, threads=args.threads)
        finally:
            signal.signal(signal.SIGTERM, previous)
    except _Terminated:
        signal.raise_signal(signal.SIGTERM)
        raise
    sys.stdout.write(render_sweep(series, args.format))
    return 0


class _Terminated(KeyboardInterrupt):
    """SIGTERM arrived during a sweep."""


def _raise_terminated(signum, frame):
    raise _Terminated


def render_sweep(series, fmt: str) -> str:
    """The rows in CSV_HEADER order: in JSON a Fraction as p/q and any
    other value as it is, in CSV an int as it is and any other value as a
    decimal."""
    rows = series.rows()
    if fmt == "json":
        docs = [{key: _frac(value) if isinstance(value, Fraction) else value
                 for key, value in row.items()} for row in rows]
        return json.dumps(docs, indent=2) + "\n"
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(str(value) if isinstance(value, int) else _dec(value)
                              for value in row.values()))
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    failed = False
    for name in SUITES if args.suite == "all" else (args.suite,):
        checked, failures = SUITES[name]()
        if failures:
            failed = True
            print(f"FAIL {name}: {len(failures)} violation(s) in {checked} checks")
            for line in failures[:10]:
                print(f"  counterexample: {line}")
        else:
            print(f"ok {name}: {checked} checks")
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once and shared by every call of main."""
    parser = argparse.ArgumentParser(
        prog="powsumdiv",
        description="Primes dividing a^k + b^k: exact counts, heuristics, densities.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    pair = argparse.ArgumentParser(add_help=False)  # the a b that four subcommands start with
    pair.add_argument("a", type=int)
    pair.add_argument("b", type=int)

    p = sub.add_parser("profile", parents=[pair],
                       help="decompose (a, b) and print the profile as JSON")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("density", parents=[pair], help="exact limiting densities of (a, b)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("count", parents=[pair], help="count primes <= x by the chosen method")
    p.add_argument("x", type=int)
    p.add_argument("--method", default="exact", choices=tuple(METHODS))
    p.add_argument("--truncation", default="full", choices=tuple(_TRUNCATIONS),
                   help="inner-sum cutoff for --method ramanujan")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("sweep", parents=[pair], help="checkpointed sweep, CSV or JSON")
    p.add_argument("x_max", type=int)
    p.add_argument("--checkpoints", type=int, default=20,
                   help=f"number of geometrically spaced checkpoints (at most {MAX_CHECKPOINTS})")
    p.add_argument("--checkpoint-list",
                   help="explicit comma-separated checkpoints (overrides --checkpoints)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--threads", type=int, default=1, help="worker processes (default: 1)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("suite", choices=tuple(SUITES) + ("all",))
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # every documented precondition (zero or degenerate input, input
        # range, x bounds, checkpoints, worker count) raises ValueError: a
        # usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
