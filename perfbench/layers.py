"""Per-layer timing from outside the program.

The layers are the package's modules.  ``Tracer.install`` wraps every public
function of each layer, plus the few methods in METHODS, and puts the
wrapper in place of the original in every module namespace of the package
and in every module-level dict that holds it (such as verify.SUITES).  Each
wrapper counts calls and adds up inclusive and self time, where self time
excludes the wrapped calls made inside it, and records how much of each
span's time went to each wrapped callee.  Spans stay in memory; the run
writes the aggregates out when it ends.

``layer_metrics`` turns those aggregates into the benchmark's per-layer
metrics.  A metric whose function the program no longer has is left out and
named in the returned ``missing`` list, never reported as zero.
"""

import functools
import inspect
import sys
from time import perf_counter

PACKAGE = "powsumdiv"
LAYERS = ("cli", "census", "arith", "profile", "density", "cyclic", "ramanujan", "verify")
SWEEP, LI = "census.sweep", "arith.log_integral"
MERGE, COPY = "census.CountAccumulator.merge", "census.CountAccumulator.copy"
METHODS = (MERGE, COPY, "census.SweepSeries.rows")
SUITES = ("group", "ramanujan", "characters", "local-factors", "densities", "oracle")
COUNTING = tuple(f"census.{f}" for f in ("count_exact", "heuristic_counts", "formula_count",
                                         "ramanujan_count", "tail_sum", "character_count"))
CACHES = {"arith._factorize_cached": "arith.factorize",
          "census._accumulate": "census.accumulate"}

# metric -> (unit, the traced names whose calls ("count") or inclusive
# seconds ("s") it sums)
SUMS = {
    "census.merge_calls": ("count", (MERGE, COPY)),
    "census.merge_s": ("s", (MERGE, COPY)),
    "census.rows_s": ("s", ("census.SweepSeries.rows",)),
    "cli.render_s": ("s", ("cli.render_sweep",)),
    "arith.li_calls": ("count", (LI,)),
    "arith.li_s": ("s", (LI,)),
    "profile.decompose_calls": ("count", ("profile.decompose",)),
    "profile.decompose_s": ("s", ("profile.decompose",)),
    "census.count_calls": ("count", COUNTING),
    "census.count_s": ("s", COUNTING),
    "census.classify_calls": ("count", ("census.classify_prime",)),
    "census.classify_s": ("s", ("census.classify_prime",)),
    "cyclic.character_table_s": ("s", ("cyclic.character_table",)),
    "cyclic.order_s": ("s", ("cyclic.multiplicative_order",)),
    "ramanujan.c_calls": ("count", ("ramanujan.ramanujan_c",)),
    "ramanujan.c_s": ("s", ("ramanujan.ramanujan_c",)),
    **{f"verify.{suite}_s": ("s", ("verify.check_" + suite.replace("-", "_"),))
       for suite in SUITES},
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}             # name -> [calls, inclusive s, self s]
        self.within: dict[tuple[str, str], float] = {}  # (caller, callee) -> callee s
        self._stack: list[list] = []

    def wrap(self, fn, name: str):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, within = self._stack, self.within

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if stack:
                    caller = stack[-1]
                    caller[1] += dt
                    key = (caller[0], name)
                    within[key] = within.get(key, 0.0) + dt

        return traced

    def install(self) -> None:
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") and getattr(obj, "__module__", None) == mod.__name__
                if public and (inspect.isfunction(obj) or hasattr(obj, "cache_info")) \
                        and not inspect.isgeneratorfunction(obj):
                    wrappers[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))

        def swap(mapping):
            for key, obj in list(mapping.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    mapping[key] = hit[1]

        for name, mod in list(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                swap(vars(mod))
                for attr, obj in vars(mod).items():
                    if isinstance(obj, dict) and not attr.startswith("__"):
                        swap(obj)
        for qual in METHODS:
            layer, cls_name, meth = qual.split(".")
            cls = getattr(sys.modules.get(f"{PACKAGE}.{layer}"), cls_name, None)
            if cls is not None and meth in vars(cls):
                setattr(cls, meth, self.wrap(vars(cls)[meth], qual))

    def report(self) -> dict:
        return {"stats": self.stats,
                "within": [[c, d, s] for (c, d), s in self.within.items()]}


def layer_metrics(report: dict, caches: dict, sweep_primes: int, suite_checks: dict,
                  overhead_s: float) -> tuple[dict, list[str]]:
    """The per-layer metrics, as {name: (value, unit)}, and the names that
    could not be measured because a traced function is gone."""
    stats = report["stats"]
    within = {(caller, callee): s for caller, callee, s in report["within"]}
    metrics, missing = {}, []
    for metric, (unit, names) in SUMS.items():
        if all(n in stats for n in names):
            column = 0 if unit == "count" else 1
            metrics[metric] = (sum(stats[n][column] for n in names), unit)
        else:
            missing.append(metric)
    if all(n in stats for n in (SWEEP, LI, MERGE, COPY)):
        fold = stats[SWEEP][1] - sum(within.get((SWEEP, n), 0.0) for n in (LI, MERGE, COPY))
        metrics["census.fold_s"] = (fold, "s")
        metrics["census.ns_per_prime"] = (fold / sweep_primes * 1e9 if sweep_primes else 0.0, "ns")
    else:
        missing += ["census.fold_s", "census.ns_per_prime"]
    metrics["census.primes"] = (sweep_primes, "count")
    for suite in SUITES:
        metrics[f"verify.{suite}_checks"] = (suite_checks.get(suite, 0), "count")
    for cache, metric in CACHES.items():
        if cache in caches:
            metrics[metric + "_hits"] = (caches[cache][0], "count")
            metrics[metric + "_misses"] = (caches[cache][1], "count")
        else:
            missing += [metric + "_hits", metric + "_misses"]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            sum(s[2] for n, s in stats.items() if n.split(".")[0] == layer), "s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics, missing
