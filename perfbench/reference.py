"""Write perfbench/reference.json: pi, n_exact, h1 and h2 at every checkpoint
of the sweep-deep and sweep-dense workloads, computed with sympy alone.

    python3 perfbench/reference.py

sympy's n_order costs about 0.1 ms a prime, so the 4 pairs to 10^7 take
several minutes; the pairs run in parallel, one process per available CPU.
"""

import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

from sympy import primerange

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from inputs import DEEP, DENSE  # noqa: E402

OUT = HERE / "reference.json"


def pair_counts(task):
    (a, b), checkpoints = task
    rows = oracle.counts(a, b, checkpoints, primerange(2, checkpoints[-1] + 1))
    return {
        "n_exact": [r["n_exact"] for r in rows],
        "h1": [str(r["h1"]) for r in rows],
        "h2": [str(r["h2"]) for r in rows],
        "pi": [r["pi"] for r in rows],
    }


def main() -> int:
    tasks, where = [], []
    for name, spec in (("sweep-deep", DEEP), ("sweep-dense", DENSE)):
        for pair in spec.pairs:
            tasks.append((pair, list(spec.checkpoints)))
            where.append((name, pair))
    workers = min(len(os.sched_getaffinity(0)), len(tasks))
    with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
        results = list(pool.map(pair_counts, tasks))
    doc = {"command": "python3 perfbench/reference.py"}
    for (name, (a, b)), res in zip(where, results):
        spec = DEEP if name == "sweep-deep" else DENSE
        sweep = doc.setdefault(name, {"x_max": spec.x_max,
                                      "checkpoints": list(spec.checkpoints),
                                      "pi": res["pi"], "pairs": {}})
        if sweep["pi"] != res["pi"]:
            raise SystemExit(f"pi differs between pairs of {name}")
        sweep["pairs"][f"{a} {b}"] = {k: res[k] for k in ("n_exact", "h1", "h2")}
    OUT.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
