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


def test_exits_1_on_any_difference(monkeypatch, capsys):
    # stand-in trees: "same" agrees with "parent" on every command; "odd"
    # differs in the json sweeps of one pair; "broken" agrees but exits 1
    def fake_run(src, argv):
        odd = src == "odd" and argv[:3] == ["sweep", "7", "3"] and "json" in argv
        return (1 if src == "broken" else 0), b"odd" if odd else " ".join(argv).encode()

    monkeypatch.setattr(sweep_identity, "run", fake_run)
    assert sweep_identity.main(["parent", "same"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 112 and all(line.startswith("same ") for line in out)
    assert out[-1] == "same   powsumdiv verify all"
    assert sweep_identity.main(["parent", "odd"]) == 1
    assert sum(line.startswith("DIFFER") for line in capsys.readouterr().out.splitlines()) == 2
    assert sweep_identity.main(["broken", "broken"]) == 1
    assert sweep_identity.main(["parent"]) == 2
