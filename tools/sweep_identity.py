"""Check that two source trees print byte-identical sweeps, densities,
counts and verify reports.

    python3 tools/sweep_identity.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the src/ directories of two checkouts.  For
each pair in PAIRS, each format (csv, json) and each worker count (1, 2)
the script runs ``powsumdiv sweep A B 10000000 --format F --threads T``
from both trees, one after the other; then the csv, one-worker sweeps of
DEEP_PAIRS to 70000000, which reach past 2^26 into the uint64 mulmod
regime with the smaller term of r0 on both sides of 2^16 (Fermat inverse
and closed form); then ``powsumdiv density A B`` in text and json for
each pair in PAIRS; ``powsumdiv count A B 2000 --method M`` for each
pair in COUNT_PAIRS and each of the six methods; the commands of
SEGMENT_EDGES, which walk three sieve segments (the cached base primes
grow from 1024 to 2048 between the first two), put checkpoints on and
beside the segment edges and sweep to 10^8 with every checkpoint in the
first segment; DENSE, the benchmark's dense json sweep of (-4, 1) to
2 * 10^6 with a checkpoint every 1000, which cuts two segments into
2,001 pieces; ONE_LANE, a sweep with one checkpoint and one with 17,
whose Li takes a group of a single point (its logs take one lane);
STREAM, the count requests that one process per tree sends through
cli.main in a fixed shuffled order, so that its counts resume the folds of
earlier ones: every pair of COUNT_PAIRS and every method, with x on both
sides of 2^20, repeated, and on and beside the special primes 2 and 3;
``powsumdiv verify S`` for each single suite; and last ``powsumdiv verify
all``, whose ``ok <suite>: <n> checks`` lines pin every suite's check
count.  It compares stdout and the exit code byte for byte, prints one
line per command and exits 0 when all 113 agree and exit 0, else 1.  The
pairs cover b = 1 and b != 1, eps = +-1, e = 0, 1 and 2 (COUNT_PAIRS add
e = 3), Q(sqrt 2), three special primes ((7,3)), the smaller term of r0
on both sides of 2^16, and the largest kernel with a Legendre table
(65535) and the smallest without (65537).
"""

import json
import os
import random
import subprocess
import sys

X = 10_000_000
PAIRS = [(2, 1), (-4, 1), (8, 27), (7, 3), (-16, 1), (-81, 16),
         (65537, 65535), (65537, 65536), (65535, 1), (65537, 1)]
X_DEEP = 70_000_000
DEEP_PAIRS = [(65537, 65536), (65537, 65535)]
X_COUNT = 2000
COUNT_PAIRS = [(2, 1), (8, 27), (-2, 1), (4, 1), (256, 1), (-256, 1)]
METHODS = ("exact", "h1", "h2", "formula", "ramanujan", "character")
SEGMENT_EDGES = [
    ["count", "2", "1", "3000000", "--method", "exact"],
    ["count", "7", "3", "3000000", "--method", "h2"],
    ["sweep", "8", "27", "3145728",
     "--checkpoint-list", "1048575,1048576,2097151,2097152,3145728"],
    ["sweep", "2", "1", "100000000", "--checkpoint-list", "1000,50000"],
]
DENSE = ["sweep", "-4", "1", "2000000", "--checkpoint-list",
         ",".join(map(str, range(1000, 2_000_001, 1000))), "--format", "json"]
# Li takes its checkpoints in groups of 16: one checkpoint, or 17, leave a
# group of one
ONE_LANE = [
    ["sweep", "2", "1", "10000000", "--checkpoints", "1"],
    ["sweep", "-4", "1", "10000000", "--checkpoints", "17"],
]
# character counts take x <= 2000 only
STREAM = [["count", str(a), str(b), str(x), "--method", method]
          for a, b in COUNT_PAIRS for method in METHODS
          for x in (2, 3, 4, 1000, 2000, 1048575, 1048576, 1048577, 1500000)
          if x <= X_COUNT or method != "character"]
STREAM += STREAM[::7]  # repeated requests
random.Random(2003).shuffle(STREAM)
# the requests of STREAM, read from stdin, through cli.main in one process;
# it exits with the largest exit status
STREAM_SCRIPT = """\
import json, sys
from powsumdiv.cli import main
sys.exit(max(main(argv) for argv in json.load(sys.stdin)))
"""
SUITES = ("group", "ramanujan", "characters", "local-factors", "densities", "oracle")


def run(src: str, argv: list[str]) -> tuple[int, bytes]:
    """(exit status, stdout) of ``powsumdiv ARGV`` in a fresh process."""
    return _python(src, ["-m", "powsumdiv.cli", *argv])


def run_stream(src: str, requests: list[list[str]]) -> tuple[int, bytes]:
    """(largest exit status, concatenated stdout) of the requests, sent to
    cli.main in turn by one fresh process."""
    return _python(src, ["-c", STREAM_SCRIPT], json.dumps(requests).encode())


def _python(src: str, args: list[str], stdin: bytes = b"") -> tuple[int, bytes]:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    done = subprocess.run([sys.executable, *args], input=stdin,
                          env=env, capture_output=True, check=False)
    return done.returncode, done.stdout


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = argv
    same = True
    commands = [["sweep", str(a), str(b), str(X), "--format", fmt, "--threads", threads]
                for a, b in PAIRS for fmt in ("csv", "json") for threads in ("1", "2")]
    commands += [["sweep", str(a), str(b), str(X_DEEP), "--format", "csv", "--threads", "1"]
                 for a, b in DEEP_PAIRS]
    commands += [["density", str(a), str(b), "--format", fmt]
                 for a, b in PAIRS for fmt in ("text", "json")]
    commands += [["count", str(a), str(b), str(X_COUNT), "--method", method]
                 for a, b in COUNT_PAIRS for method in METHODS]
    commands += [*SEGMENT_EDGES, DENSE, *ONE_LANE, STREAM]
    commands += [["verify", suite] for suite in SUITES]
    for cmd in [*commands, ["verify", "all"]]:
        if cmd is STREAM:
            label = f"stream of {len(STREAM)} count requests through cli.main"
            want, got = run_stream(parent, STREAM), run_stream(change, STREAM)
        else:
            label = "powsumdiv " + " ".join(cmd)
            want, got = run(parent, cmd), run(change, cmd)
        ok = want == got and want[0] == 0
        same &= ok
        print(("same  " if ok else "DIFFER") + " " + label, flush=True)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
