"""The benchmark's per-layer metrics stay measurable: every name that
perfbench/layers.py traces is still in the package.

layer_metrics leaves a metric whose traced function is gone out of its
result and names it as missing, so a renamed or removed function would drop
a metric that BENCHMARK.json names.  The check runs in a fresh interpreter,
because Tracer.install rebinds the package's globals."""

import json
import os
import subprocess
import sys
from pathlib import Path

import powsumdiv

ROOT = Path(__file__).resolve().parents[1]

_METRICS = """
import json
import powsumdiv
from layers import Tracer, layer_metrics
from workload import package_caches

caches = package_caches(powsumdiv)
tracer = Tracer()
tracer.install()
metrics, missing = layer_metrics(tracer.report(), {name: [0, 0] for name in caches}, 0, {}, 0.0)
print(json.dumps({"metrics": sorted(metrics), "missing": missing}))
"""


def test_every_per_layer_metric_is_traced():
    src = Path(powsumdiv.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), str(ROOT / "perfbench")])
    out = subprocess.run([sys.executable, "-c", _METRICS], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    got = json.loads(out)
    want = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert got["missing"] == []
    assert got["metrics"] == sorted(want) and len(want) == 44
