"""CLI surface: formats, exit codes, determinism of emitted payloads."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from powsumdiv import census, cli
from powsumdiv.census import (
    character_count,
    count_exact,
    formula_count,
    heuristic_counts,
    ramanujan_count,
)
from powsumdiv.profile import decompose


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_profile_json(capsys):
    code, out, _ = run_cli(capsys, "profile", "8", "27")
    assert code == 0
    doc = json.loads(out)
    assert doc["h"] == 3 and doc["e"] == 0
    assert doc["kernel"] == 6 and doc["discriminant"] == 24
    assert doc["lambda"] == 0
    assert doc["special_primes"] == [[2, False], [3, False]]


def test_profile_degenerate_exits_2(capsys):
    code, _, err = run_cli(capsys, "profile", "2", "2")
    assert code == 2
    assert "ratio" in err


def test_profile_zero_exits_2(capsys):
    code, _, err = run_cli(capsys, "profile", "2", "0")
    assert code == 2
    assert "zero" in err


def test_density_text(capsys):
    code, out, _ = run_cli(capsys, "density", "2", "1")
    assert code == 0
    assert "delta  = 17/24" in out
    assert "delta1 = 2/3" in out
    assert "anomaly" in out
    code, out, _ = run_cli(capsys, "density", "3", "1")
    assert code == 0
    assert out.count("2/3") == 3
    assert "anomaly" not in out
    code, out, _ = run_cli(capsys, "density", "16", "1")
    assert "delta  = 1/12" in out


def test_density_json(capsys):
    code, out, _ = run_cli(capsys, "density", "2", "1", "--format", "json")
    doc = json.loads(out)
    assert doc["delta"] == "17/24" and doc["delta2"] == "17/24"
    assert doc["delta1"] == "2/3"
    assert doc["anomaly"] is True


def test_count_exact(capsys):
    code, out, _ = run_cli(capsys, "count", "2", "1", "30", "--method", "exact")
    assert code == 0 and out.strip() == "7"


def test_count_h2(capsys):
    code, out, _ = run_cli(capsys, "count", "2", "1", "7", "--method", "h2")
    assert code == 0 and out.strip() == "2 (2)"


def test_count_ramanujan_equals_exact_minus_specials(capsys):
    _, exact_out, _ = run_cli(capsys, "count", "2", "1", "500", "--method", "exact")
    _, ram_out, _ = run_cli(capsys, "count", "2", "1", "500",
                            "--method", "ramanujan", "--format", "json")
    doc = json.loads(ram_out)
    # 2 is the only special prime of (2,1) and it does not divide
    assert doc["decimal"] == float(exact_out.strip())


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("method, count", [
    ("exact", count_exact),
    ("h1", lambda profile, x: heuristic_counts(profile, x).h1),
    ("h2", lambda profile, x: heuristic_counts(profile, x).h2),
    ("formula", formula_count),
    ("ramanujan", lambda profile, x: ramanujan_count(profile, x, "full")),
    ("character", character_count),
])
def test_count_prints_the_library_value(capsys, method, count, fmt):
    value = count(decompose(2, 1), 500)
    code, out, _ = run_cli(capsys, "count", "2", "1", "500", "--method", method,
                           "--format", fmt)
    assert code == 0
    if fmt == "text":
        assert out == (f"{value}\n" if isinstance(value, int)
                       else f"{value} ({float(value):.10g})\n")
        return
    doc = json.loads(out)
    assert {k: doc.pop(k) for k in ("method", "a", "b", "x")} == \
        {"method": method, "a": 2, "b": 1, "x": 500}
    if isinstance(value, int):
        assert doc == {"value": value}
    else:
        assert doc == {"value": f"{value.numerator}/{value.denominator}",
                       "decimal": float(value)}


def test_count_character_oversize_exits_2(capsys):
    code, _, err = run_cli(capsys, "count", "2", "1", "5000", "--method", "character")
    assert code == 2 and "character" in err


def test_count_formula_json(capsys):
    code, out, _ = run_cli(capsys, "count", "-2", "1", "100",
                           "--method", "formula", "--format", "json")
    doc = json.loads(out)
    _, h2_out, _ = run_cli(capsys, "count", "-2", "1", "100",
                           "--method", "h2", "--format", "json")
    assert doc["value"] == json.loads(h2_out)["value"]


def test_sweep_csv_header_and_rows(capsys):
    code, out, _ = run_cli(capsys, "sweep", "2", "1", "10000",
                           "--checkpoint-list", "10,30,10000")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,pi,li,n_exact,n_generic,h1,h2,k1,k2,tail,delta,delta1"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "10" and first[1] == "4" and first[3] == "2"
    # decimal point, no thousands separators
    assert all("." in cell or cell.lstrip("-").isdigit()
               for cell in lines[1].split(","))


def test_sweep_thread_determinism(capsys):
    args = ["sweep", "2", "1", "100000", "--checkpoints", "6"]
    _, out1, _ = run_cli(capsys, *args, "--threads", "1")
    _, out2, _ = run_cli(capsys, *args, "--threads", "2")
    assert out1 == out2


def _children(pid: int) -> list[int]:
    """The pids of pid's child processes, from each of its threads."""
    return [int(child) for task in Path(f"/proc/{pid}/task").iterdir()
            for child in (task / "children").read_text().split()]


def _running(pid: int) -> bool:
    # a zombie has exited and waits only to be reaped
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _wait_until(condition, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.05)
    return condition()


def test_sigterm_stops_the_sweep_workers(tmp_path):
    x = str(2**38)
    src = Path(cli.__file__).resolve().parents[1]
    # the workers inherit stdout and stderr: no pipe, which a surviving
    # worker would hold open
    stderr = tmp_path / "stderr"
    with stderr.open("w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "powsumdiv.cli", "sweep", "2", "1", x,
             "--checkpoint-list", x, "--threads", "2"],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.DEVNULL, stderr=err)
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = _children(proc.pid)
        assert len(workers) == 2
        proc.send_signal(signal.SIGTERM)
        # ended by SIGTERM itself, once the workers are shut down
        assert proc.wait(timeout=10) == -signal.SIGTERM
        assert "Traceback" not in stderr.read_text()
        assert _wait_until(lambda: not any(map(_running, workers)), 5)
    finally:
        proc.kill()
        proc.wait()
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


# Sends SIGTERM from inside the first submit, between the fork of the pool's
# workers and the start of its manager thread, at one of two points: right
# after the fork (the manager thread not yet made) or right before the thread
# starts.  The workers' pids go to the file named by argv[1].
_TERM_AT_POOL_START = """
import concurrent.futures.process as process, signal, sys
from powsumdiv import cli

def terminate():
    with open(sys.argv[1], "w") as out:
        out.write(" ".join(map(str, pool._processes)))
    signal.raise_signal(signal.SIGTERM)

launch = process.ProcessPoolExecutor._launch_processes
start = process._ExecutorManagerThread.start

def launch_then_terminate(self):
    global pool
    launch(self)
    pool = self
    if sys.argv[2] == "fork":
        terminate()

def terminate_then_start(self):
    if sys.argv[2] == "thread":
        terminate()
    start(self)

process.ProcessPoolExecutor._launch_processes = launch_then_terminate
process._ExecutorManagerThread.start = terminate_then_start
x = str(3 << 20)
sys.exit(cli.main(["sweep", "2", "1", x, "--checkpoint-list", x, "--threads", "2"]))
"""


@pytest.mark.parametrize("point", ["fork", "thread"])
def test_sigterm_at_the_pool_start_stops_the_sweep(tmp_path, point):
    # a SIGTERM there once orphaned the workers (at "fork": shutdown found no
    # manager thread to stop them) or, at "thread", raised a RuntimeError from
    # shutdown joining a thread that was never started, and then hung
    src = Path(cli.__file__).resolve().parents[1]
    pids, stderr = tmp_path / "pids", tmp_path / "stderr"
    try:
        with stderr.open("w") as err:
            proc = subprocess.run([sys.executable, "-c", _TERM_AT_POOL_START, str(pids), point],
                                  env={**os.environ, "PYTHONPATH": str(src)},
                                  stdout=subprocess.DEVNULL, stderr=err, timeout=30)
    finally:
        # the workers of a run that hung or failed are killed here too
        workers = [int(pid) for pid in pids.read_text().split()] if pids.exists() else []
        stopped = _wait_until(lambda: not any(map(_running, workers)), 5)
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
    assert len(workers) == 2
    assert proc.returncode == -signal.SIGTERM
    assert "Traceback" not in stderr.read_text()
    assert stopped


def test_sweep_takes_sigterm_as_sigint_and_restores_it(monkeypatch, capsys):
    during = []

    def recording_sweep(*args, **kwargs):
        during.append(signal.getsignal(signal.SIGTERM))
        return census.sweep(*args, **kwargs)

    monkeypatch.setattr(cli, "sweep", recording_sweep)
    previous = signal.getsignal(signal.SIGTERM)
    assert run_cli(capsys, "sweep", "2", "1", "1000", "--checkpoint-list", "10,1000")[0] == 0
    assert signal.getsignal(signal.SIGTERM) is previous
    # a sweep that raises restores it too
    assert run_cli(capsys, "sweep", "2", "1", "1000", "--checkpoint-list", "1000,10")[0] == 2
    assert signal.getsignal(signal.SIGTERM) is previous
    assert during == [cli._raise_terminated] * 2
    with pytest.raises(KeyboardInterrupt):
        cli._raise_terminated(signal.SIGTERM, None)


def test_sweep_json_mirrors_csv_keys(capsys):
    code, out, _ = run_cli(capsys, "sweep", "2", "1", "1000",
                           "--checkpoint-list", "10,1000", "--format", "json")
    docs = json.loads(out)
    assert [d["x"] for d in docs] == [10, 1000]
    assert set(docs[0]) == {"x", "pi", "li", "n_exact", "n_generic",
                            "h1", "h2", "k1", "k2", "tail", "delta", "delta1"}
    assert docs[0]["h2"] == "2/1"
    assert docs[0]["delta"] == "17/24"


def test_sweep_geometric_checkpoints():
    pts = cli.default_checkpoints(20, 10**7)
    assert pts[-1] == 10**7
    assert pts == sorted(set(pts))
    assert all(p >= 2 for p in pts)
    assert len(pts) >= 15
    assert cli.default_checkpoints(1, 50) == [50]


def test_sweep_bad_checkpoint_list(capsys):
    code, _, err = run_cli(capsys, "sweep", "2", "1", "100",
                           "--checkpoint-list", "10,abc")
    assert code == 2 and "comma-separated" in err


def test_sweep_folds_only_to_its_last_checkpoint(monkeypatch, capsys):
    folded = []
    fold = census._fold_segment

    def recording_fold(profile, lo, hi, cuts=()):
        folded.append((lo, hi))
        return fold(profile, lo, hi, cuts)

    monkeypatch.setattr(census, "_fold_segment", recording_fold)
    assert cli.main(["sweep", "2", "1", "10000000", "--checkpoint-list", "1000"]) == 0
    assert folded == [(2, 1001)]
    assert capsys.readouterr().out.splitlines()[1].startswith("1000,168,")


def test_checkpoint_cap_covers_the_checkpoint_list(monkeypatch, capsys):
    # the cap is checked before any fold: a fold here fails at once
    def no_fold(*args):
        raise AssertionError("folded a segment")

    monkeypatch.setattr(census, "_fold_segment", no_fold)
    too_many = list(range(2, census.MAX_CHECKPOINTS + 3))
    with pytest.raises(ValueError, match="checkpoint count"):
        census.sweep(decompose(2, 1), too_many)
    argv = ["sweep", "2", "1", str(too_many[-1]), "--checkpoint-list", ",".join(map(str, too_many))]
    assert run_cli(capsys, *argv) == \
        (2, "", f"error: checkpoint count must lie in [1, {census.MAX_CHECKPOINTS}]\n")


@pytest.mark.parametrize("argv", [
    ["count", "2", "1", str(2**40 + 1)],                             # x > 2^40
    ["sweep", "2", "1", str(2**40 + 1), "--checkpoint-list", "10"],
    ["count", "2", "1", "1"],                                        # x < 2
    ["sweep", "2", "1", "1"],
    ["profile", str(2**63), "1"],                                    # |a| >= 2^63
    ["count", "3", str(-(2**63)), "100"],
    ["sweep", "2", "1", "100", "--checkpoint-list", "10,abc"],       # bad list
    ["sweep", "2", "1", "100", "--checkpoint-list", "50,20"],
    ["sweep", "2", "1", "100", "--checkpoint-list", "10,200"],
    ["sweep", "2", "1", "100", "--threads", "0"],
    ["sweep", "2", "1", "100", "--checkpoints", "0"],
    ["sweep", "2", "1", str(10**400)],                               # x far above 2^40
    ["sweep", "2", "1", "100", "--checkpoints", str(10**11)],        # unbounded loop
    ["sweep", "2", "1", "100", "--checkpoint-list", ""],             # empty list
])
def test_invalid_arguments_exit_2_with_one_line(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert len(out.err.strip().splitlines()) == 1
    assert "Traceback" not in out.err


def test_verify_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "densities")
    assert code == 0
    assert out.startswith("ok densities:")


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(cli.SUITES, "group", lambda: (3, ["broken identity"]))
    code, out, _ = run_cli(capsys, "verify", "group")
    assert code == 1
    assert "FAIL group" in out and "broken identity" in out


def test_verify_runs_every_suite_or_the_named_one(capsys, monkeypatch):
    # `verify all` runs the suites in SUITES order, a named suite runs alone,
    # and at most 10 counterexamples are printed per failing suite
    for i, name in enumerate(cli.SUITES):
        failures = [f"bad {j}" for j in range(12)] if name == "densities" else []
        monkeypatch.setitem(cli.SUITES, name, lambda n=i + 1, f=failures: (n, f))
    code, out, _ = run_cli(capsys, "verify", "all")
    assert code == 1
    assert out.splitlines() == [
        "ok group: 1 checks", "ok ramanujan: 2 checks", "ok characters: 3 checks",
        "ok local-factors: 4 checks", "FAIL densities: 12 violation(s) in 5 checks",
        *[f"  counterexample: bad {j}" for j in range(10)], "ok oracle: 6 checks"]
    assert run_cli(capsys, "verify", "characters") == (0, "ok characters: 3 checks\n", "")


def test_verify_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nosuch"])
    assert exc.value.code == 2


def test_threads_come_only_from_the_command_line(capsys, monkeypatch):
    # the environment sets no worker count: without --threads a sweep has one
    asked = []

    def one_worker_sweep(*args, threads):
        asked.append(threads)
        return sweep(*args, threads=1)

    sweep = cli.sweep
    monkeypatch.setattr(cli, "sweep", one_worker_sweep)
    monkeypatch.setenv("POWSUMDIV_THREADS", "4")
    argv = ["sweep", "2", "1", "100"]
    for extra, want in [([], 1), (["--threads", "2"], 2)]:
        assert cli.main(argv + extra) == 0
        assert asked.pop() == want, extra
    assert capsys.readouterr().out.count("x,pi") == 2


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # census imports the pool when a sweep starts one, so that the start of
    # every command does not load multiprocessing
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys, powsumdiv.cli; "
            "print(*sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == []
