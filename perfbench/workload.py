"""Run one workload's operations through ``powsumdiv.cli.main``, one after
another in this process (a closed loop with one caller), and print timings
and the first round's outputs as one JSON object on stdout.

run.py starts this script in a fresh interpreter and writes the request to
its stdin as JSON: {"ops": [argv, ...], "seconds": s, "trace": bool}, with
the program's source directory on PYTHONPATH.
It repeats whole rounds of ``ops`` until ``seconds`` have passed.  Before
each round it clears every functools cache of the package, so each round
starts from the same state as the first; later rounds must reproduce the
first round's outputs exactly.
"""

import contextlib
import importlib
import io
import json
import pkgutil
import resource
import sys
from time import perf_counter


def call(main, argv):
    """(exit status, escaped exception, stdout, stderr) of one command."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as stop:
            rc = stop.code if isinstance(stop.code, int) else (0 if stop.code is None else 1)
        except Exception as error:  # a command line would exit 1 with a traceback
            rc, exc = None, f"{type(error).__name__}: {error}"
    return [rc, exc, out.getvalue(), err.getvalue()]


def package_caches(package) -> dict:
    """Every functools cache defined in the package, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
        mod = importlib.import_module(info.name)
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == mod.__name__:
                found[f"{mod.__name__.split('.', 1)[1]}.{attr}"] = obj
    return found


def drain(caches: dict, totals: dict) -> None:
    """Add each cache's hits and misses to totals, then empty it."""
    for name, cache in caches.items():
        info = cache.cache_info()
        totals[name][0] += info.hits
        totals[name][1] += info.misses
        cache.cache_clear()


def main() -> int:
    request = json.load(sys.stdin)
    import powsumdiv
    import powsumdiv.cli

    caches = package_caches(powsumdiv)
    tracer = None
    if request["trace"]:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    ops, seconds = request["ops"], request["seconds"]
    cache_totals = {name: [0, 0] for name in caches}
    rounds, latencies, first, mismatches = [], [], None, 0
    start = perf_counter()
    while True:
        drain(caches, cache_totals)
        results = []
        t_round = perf_counter()
        for i, argv in enumerate(ops):
            t0 = perf_counter()
            result = call(powsumdiv.cli.main, argv)
            latencies.append(perf_counter() - t0)
            if first is None:
                results.append(result)
            elif result != first[i]:
                mismatches += 1
        rounds.append(perf_counter() - t_round)
        if first is None:
            first = results
        if perf_counter() - start >= seconds:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    drain(caches, cache_totals)
    json.dump({
        "rounds": rounds, "latencies": latencies, "results": first,
        "mismatches": mismatches, "peak_rss_kb": peak_rss_kb, "caches": cache_totals,
        "trace": tracer.report() if tracer else None,
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
