"""tools/bench_record.py folds synthetic perfbench records into one record."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

BENCHMARK = {
    "workloads": [{"name": "sweep-deep"}, {"name": "query-mix"}],
    "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower"},
                   {"name": "primes_per_s", "unit": "1/s", "better": "higher"}],
}


def write_runs(out: Path, workload: str, runs: dict[int, tuple[float, float, int]],
               names=("wall_s", "primes_per_s")) -> None:
    """One record per seed: (wall_s, primes_per_s, failed of 10 attempted);
    any further metric named reads 1."""
    out.mkdir(exist_ok=True)
    for seed, (wall, rate, failed) in runs.items():
        values = {"wall_s": wall, "primes_per_s": rate}
        result = {"correct": True, "attempted": 10, "failed": failed,
                  "metrics": {name: {"value": values.get(name, 1)} for name in names}}
        (out / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps({"result": result}))


def test_fold_pairs_by_seed(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_runs(parent, "sweep-deep", {1: (4.0, 100, 0), 2: (3.0, 110, 0), 3: (2.0, 120, 1),
                                      4: (1.0, 130, 0), 9: (9.0, 1, 0)})
    write_runs(change, "sweep-deep", {1: (2.0, 150, 0), 2: (3.0, 105, 0), 3: (1.0, 160, 0),
                                      4: (0.5, 170, 0)})
    write_runs(parent, "query-mix", {1: (1.0, 1, 0)})   # one pair: left out
    write_runs(change, "query-mix", {1: (1.0, 1, 0)})
    (parent / "sweep-deep-seed5-trace1.json").write_text("{}")   # traced: ignored

    got = bench_record.fold(bench_record.load_runs(parent), bench_record.load_runs(change),
                            BENCHMARK)
    assert list(got) == ["sweep-deep"]
    deep = got["sweep-deep"]
    assert deep["runs_per_side"] == 4 and deep["seeds"] == [1, 2, 3, 4]
    assert deep["correct"] == {"parent": True, "change": True}
    assert deep["failed_share"] == {"parent": 0.025, "change": 0.0}
    wall, rate = deep["metrics"]["wall_s"], deep["metrics"]["primes_per_s"]
    assert wall["parent"] == {"median": 2.5, "min": 1.0, "quartiles": [1.75, 3.25]}
    assert wall["change"]["median"] == 1.5
    assert wall["change_over_parent"] == 0.6
    assert wall["pairs_won"] == 3          # seed 2 is a tie
    assert rate["parent"] == {"median": 115, "min": 100, "quartiles": [107.5, 122.5]}
    assert rate["change_over_parent"] == round(155 / 115, 5)
    assert rate["pairs_won"] == 3          # seed 2 is a loss
    assert (rate["unit"], rate["better"]) == ("1/s", "higher")


def test_main_writes_the_record(tmp_path, monkeypatch):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    runs = {seed: (1.0 + seed, 10.0 * seed, 0) for seed in (1, 2, 3)}
    write_runs(tmp_path / "p", "sweep-dense", runs, names)
    write_runs(tmp_path / "c", "sweep-dense", runs, names)
    argv = ["--label", "x", "--what", "w", "--protocol", "pr", "--parent-commit", "a",
            "--change-commit", "b",
            "--sweep", "sweep 2 1 1000000000 --threads 1", "38,37,39", "25,26,24",
            str(tmp_path / "p"), str(tmp_path / "c")]
    assert bench_record.main(argv) == 0
    record = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert (record["label"], record["parent_commit"], record["change_commit"]) == ("x", "a", "b")
    assert {"cores", "python", "numpy"} <= record.keys()
    assert record["workloads"]["sweep-dense"]["metrics"]["wall_s"]["pairs_won"] == 0
    assert record["sweeps"] == {"powsumdiv sweep 2 1 1000000000 --threads 1": {
        "unit": "s", "better": "lower",
        "parent": {"median": 38, "min": 37, "quartiles": [37.5, 38.5]},
        "change": {"median": 25, "min": 24, "quartiles": [24.5, 25.5]},
        "change_over_parent": 0.657895, "pairs_won": 3}}
    (tmp_path / "empty").mkdir()
    assert bench_record.main(argv[:-1] + [str(tmp_path / "empty")]) == 2
    # one time per side, or sides of different lengths, make no record
    for times in (["38", "25"], ["38,37", "25"]):
        bad = argv[:11] + times + argv[13:]
        assert bench_record.main(bad) == 2


def test_sweeps_are_optional(tmp_path, monkeypatch):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    runs = {seed: (1.0, 1.0, 0) for seed in (1, 2)}
    write_runs(tmp_path / "p", "query-mix", runs, names)
    write_runs(tmp_path / "c", "query-mix", runs, names)
    argv = ["--label", "y", "--what", "w", "--protocol", "pr", "--parent-commit", "a",
            "--change-commit", "b", str(tmp_path / "p"), str(tmp_path / "c")]
    assert bench_record.main(argv) == 0
    assert json.loads((tmp_path / "BENCH_y.json").read_text())["sweeps"] == {}
