"""The powsumdiv benchmark: one run of one workload.

    python3 perfbench/run.py --workload sweep-deep --seed 1 --seconds 10 --trace 0

Run from anywhere; the program is imported from ../src relative to this
file, so nothing needs installing.  With --trace 0 the run times fresh
interpreters importing powsumdiv.cli (setup_s), then runs the workload in a
fresh process and reports the end-to-end metrics.  With --trace 1 it runs
the workload twice, untraced and then with every public function of the
package's modules wrapped, and reports the per-layer metrics.  Either way
the outputs are checked after the timed part, and the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
run's timings and trace aggregates are also written to perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_STARTS = 10       # timed fresh starts per run, after one untimed start
CHILD_TIMEOUT_S = 80     # two of these, plus checks, stay under three minutes

sys.path.insert(0, str(HERE))
from inputs import WORKLOADS, round_ops  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def fresh_starts(count: int) -> list[float]:
    """Seconds from starting an interpreter until powsumdiv.cli is imported,
    for each of count fresh interpreters.

    The interpreters run pinned to one CPU of this process's set.  Unpinned,
    a start that the scheduler moves to the idle CPU of a 2-core VM took
    0.26-0.30 s where a pinned one took 0.19-0.24 s, and which one happens
    changed from minute to minute."""
    cmd = [sys.executable, "-c", "import time, powsumdiv.cli; print(time.monotonic())"]
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})   # children inherit it
    try:
        samples = []
        for _ in range(count):
            t0 = time.monotonic()
            done = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                                  timeout=60, check=True)
            samples.append(float(done.stdout) - t0)
    finally:
        os.sched_setaffinity(0, cpus)
    return samples


def run_workload(ops: list, seconds: float, trace: bool) -> dict:
    request = json.dumps({"ops": ops, "seconds": seconds, "trace": trace})
    done = subprocess.run([sys.executable, str(HERE / "workload.py")], input=request,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"workload process exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout)


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, child: dict, verdict, setup_s: float) -> dict:
    total, n = sum(child["rounds"]), len(child["rounds"])
    lat_ms = [t * 1e3 for t in child["latencies"]]
    checks = sum(verdict.suite_checks.values()) if workload == "verify-all" else verdict.checks
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (total / n, "s"),
        "peak_rss_mb": (child["peak_rss_kb"] / 1024, "MB"),
        "primes_per_s": (verdict.primes * n / total, "1/s"),
        "checkpoints_per_s": (verdict.checkpoints * n / total, "1/s"),
        "checks_per_s": (checks * n / total, "1/s"),
        "requests_per_s": (len(lat_ms) / total, "1/s"),
        "request_p50_ms": (percentile(lat_ms, 50), "ms"),
        "request_p90_ms": (percentile(lat_ms, 90), "ms"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "powsumdiv" / "cli.py").is_file():
        print(f"error: the program's source is not at {SRC}", file=sys.stderr)
        return 2

    ops = round_ops(args.workload, args.seed)
    starts = []
    if not args.trace:
        fresh_starts(1)   # compiles the bytecode and warms the file cache
        starts += fresh_starts(SETUP_STARTS // 2)
    child = run_workload(ops, args.seconds, trace=False)
    traced = run_workload(ops, args.seconds, trace=True) if args.trace else None
    if not args.trace:
        # the other half after the workload, so the median spans the run
        starts += fresh_starts(SETUP_STARTS - SETUP_STARTS // 2)

    import check  # sympy and mpmath load only after the workload processes end
    verdict = check.check_round(args.workload, ops, child["results"])
    problems = list(verdict.problems)
    for run in filter(None, (child, traced)):
        if run["mismatches"]:
            problems.append(f"{run['mismatches']} outputs of later rounds differ from round 1")
    if traced is not None and traced["results"] != child["results"]:
        problems.append("traced outputs differ from untraced outputs")

    if traced is None:
        metrics = end_to_end(args.workload, child, verdict, statistics.median(starts))
        runs = len(child["rounds"])
    else:
        from layers import layer_metrics
        runs = len(traced["rounds"])
        sweeps = args.workload.startswith("sweep-")
        overhead = (sum(traced["rounds"]) / runs
                    - sum(child["rounds"]) / len(child["rounds"]))
        metrics, missing = layer_metrics(
            traced["trace"], traced["caches"],
            sweep_primes=verdict.primes * runs if sweeps else 0,
            suite_checks={k: c * runs for k, c in verdict.suite_checks.items()},
            overhead_s=overhead)
        for name in missing:
            print(f"missing: {name} (the function it times is gone)", file=sys.stderr)

    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    for i in verdict.failed:
        rc, exc, _, err = child["results"][i]
        print(f"failed operation: {' '.join(ops[i])[:120]}: status {rc}, "
              f"{exc or err.strip()[:200]}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(ops) * runs,
        "failed": len(verdict.failed) * runs,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"args": vars(args), "result": result, "problems": problems[:200],
              "rounds": (traced or child)["rounds"], "latencies": child["latencies"],
              "trace": traced["trace"] if traced else None}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
