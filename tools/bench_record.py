"""Fold the benchmark records of a parent and a change into BENCH_<label>.json.

    python3 tools/bench_record.py --label L --what TEXT --protocol TEXT \\
        --parent-commit SHA --change-commit SHA \\
        [--sweep ARGS PARENT_S CHANGE_S ...] PARENT_OUT CHANGE_OUT

PARENT_OUT and CHANGE_OUT are the perfbench/out/ directories of the two
checkouts.  Each holds one <workload>-seed<n>-trace0.json record per run of
perfbench/run.py; runs of one workload with the same seed on both sides
make a pair.  For every workload and every end-to-end metric that
BENCHMARK.json declares, the record gives each side's median, minimum and
quartiles over its paired runs, the ratio of the medians (change over
parent), and the number of pairs the change won, ties counting for
neither.  Each --sweep gives the wall times, in seconds and separated by
commas, of ``powsumdiv ARGS`` on each side, run in alternating pairs; the
record folds them the same way, under ARGS as given (which may abridge a
long checkpoint list).  The core count and the Python and numpy versions
are those of the interpreter running this script, so run it on the
machine that ran the benchmark.  The record is written to the repository
root.
"""

import argparse
import json
import os
import platform
import re
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RECORD = re.compile(r"(?P<workload>.+)-seed(?P<seed>-?\d+)-trace0\.json")


def load_runs(out_dir: Path) -> dict[tuple[str, int], dict]:
    """The result of every untraced run in out_dir, by (workload, seed)."""
    runs = {}
    for path in sorted(out_dir.iterdir()):
        match = RECORD.fullmatch(path.name)
        if match:
            runs[match["workload"], int(match["seed"])] = json.loads(path.read_text())["result"]
    return runs


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round6(statistics.median(values)), "min": round6(min(values)),
            "quartiles": [round6(q1), round6(q3)]}


def round6(x: float) -> float:
    return float(f"{x:.6g}")


def compare(parent: list[float], change: list[float], unit: str, better: str) -> dict:
    """Both sides' summaries of one metric over paired runs, the ratio of
    the medians and the number of pairs the change won."""
    sign = 1 if better == "higher" else -1
    return {
        "unit": unit, "better": better,
        "parent": summary(parent), "change": summary(change),
        "change_over_parent": round6(statistics.median(change) / statistics.median(parent)),
        "pairs_won": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
    }


def fold(parent: dict, change: dict, benchmark: dict) -> dict:
    """Per workload of the benchmark that has at least two pairs, the paired
    runs of both sides folded metric by metric."""
    workloads = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        if len(seeds) < 2:
            continue
        sides = {"parent": [parent[workload, s] for s in seeds],
                 "change": [change[workload, s] for s in seeds]}
        metrics = {}
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            values = [[r["metrics"][name]["value"] for r in sides[side]]
                      for side in ("parent", "change")]
            metrics[name] = compare(*values, spec["unit"], spec["better"])
        workloads[workload] = {
            "runs_per_side": len(seeds),
            "seeds": seeds,
            "correct": {side: all(r["correct"] for r in runs) for side, runs in sides.items()},
            "failed_share": {side: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                             for side, runs in sides.items()},
            "metrics": metrics,
        }
    return workloads


def sweep_times(specs: list[list[str]]) -> dict:
    """The --sweep wall times folded per command, or ValueError when a side
    has fewer than two times or the sides differ in length."""
    sweeps = {}
    for args, *sides in specs:
        parent, change = ([float(t) for t in side.split(",")] for side in sides)
        if len(parent) < 2 or len(parent) != len(change):
            raise ValueError(f"--sweep {args}: give two or more times per side, as many on each")
        sweeps[f"powsumdiv {args}"] = compare(parent, change, "s", "lower")
    return sweeps


def render(value, levels: int = 4, indent: int = 0) -> str:
    """JSON with the outer `levels` levels of objects one key a line."""
    if levels == 0 or not isinstance(value, dict) or not value:
        return json.dumps(value)
    pad = " " * (indent + 1)
    items = [f"{pad}{json.dumps(k)}: {render(v, levels - 1, indent + 1)}" for k, v in value.items()]
    return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--what", required=True)
    parser.add_argument("--protocol", required=True)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--change-commit", required=True)
    parser.add_argument("--sweep", nargs=3, action="append", default=[],
                        metavar=("ARGS", "PARENT_S", "CHANGE_S"))
    parser.add_argument("parent_out", type=Path)
    parser.add_argument("change_out", type=Path)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = fold(load_runs(args.parent_out), load_runs(args.change_out), benchmark)
    if not workloads:
        print("error: no workload has two or more paired runs", file=sys.stderr)
        return 2
    try:
        sweeps = sweep_times(args.sweep)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    record = {
        "label": args.label,
        "what": args.what,
        "command": " ".join(benchmark["command"]) + " --workload W --seed N --seconds "
                   f"{benchmark['run_seconds']} --trace 0",
        "protocol": args.protocol,
        "parent_commit": args.parent_commit,
        "change_commit": args.change_commit,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": workloads,
        "sweeps": sweeps,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(render(record) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
