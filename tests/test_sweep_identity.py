"""tools/sweep_identity.py compares the sweeps of two source trees."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("sweep_identity", ROOT / "tools" / "sweep_identity.py")
sweep_identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sweep_identity)


def test_run_prints_the_sweep():
    code, out = sweep_identity.run(str(ROOT / "src"), ["sweep", "2", "1", "30", "--checkpoints", "1"])
    assert code == 0 and out.startswith(b"x,pi,") and out.count(b"\n") == 2


def test_run_stream_prints_every_count_in_one_process():
    requests = [["count", "2", "1", "30"], ["count", "2", "1", "10"], ["count", "2", "1", "30"]]
    assert sweep_identity.run_stream(str(ROOT / "src"), requests) == (0, b"7\n2\n7\n")
    # a request that fails sets the exit status
    assert sweep_identity.run_stream(str(ROOT / "src"), [*requests, ["count", "2", "1", "1"]]) \
        == (2, b"7\n2\n7\n")


def test_stream_covers_every_count_pair_and_method():
    stream = sweep_identity.STREAM
    assert {(argv[1], argv[2]) for argv in stream} \
        == {(str(a), str(b)) for a, b in sweep_identity.COUNT_PAIRS}
    assert {argv[-1] for argv in stream} == set(sweep_identity.METHODS)
    xs = [int(argv[3]) for argv in stream]
    assert min(xs) == 2 and {3, 4, 2**20 - 1, 2**20 + 1} <= set(xs)
    assert len(set(map(tuple, stream))) < len(stream) and stream != sorted(stream)


def test_exits_1_on_any_difference(monkeypatch, capsys):
    # stand-in trees: "same" agrees with "parent" on every command; "odd"
    # differs in the json sweeps of one pair and in the stream; "broken"
    # agrees but exits 1
    def fake_run(src, argv):
        odd = src == "odd" and argv[:3] == ["sweep", "7", "3"] and "json" in argv
        return (1 if src == "broken" else 0), b"odd" if odd else " ".join(argv).encode()

    def fake_stream(src, requests):
        assert requests is sweep_identity.STREAM
        return (1 if src == "broken" else 0), b"odd" if src == "odd" else b"counts"

    monkeypatch.setattr(sweep_identity, "run", fake_run)
    monkeypatch.setattr(sweep_identity, "run_stream", fake_stream)
    assert sweep_identity.main(["parent", "same"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 113 and all(line.startswith("same ") for line in out)
    assert sum(" stream of " in line for line in out) == 1
    assert out[-1] == "same   powsumdiv verify all"
    assert sweep_identity.main(["parent", "odd"]) == 1
    assert sum(line.startswith("DIFFER") for line in capsys.readouterr().out.splitlines()) == 3
    assert sweep_identity.main(["broken", "broken"]) == 1
    assert sweep_identity.main(["parent"]) == 2
