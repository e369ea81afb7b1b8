#!/usr/bin/env python3
"""Wall time and output of centralized `simulate` runs at K >= 63, where a
set of users takes more than one mask word, against a second checkout.

Each run is a fresh process that imports ``coopcache`` from one checkout's
``src/`` and runs

    simulate --scheme centralized --N N --K K --M M --alpha-max A --export-log log.csv

in a scratch directory of its own, so that both sides print the same log
path.  For each of ``--pairs`` pairs one run goes per checkout, and the side
that goes first alternates from pair to pair.

    python3 scripts/wide_masks.py --base ../other-checkout [--pairs 3]

Per shape and side it prints the exit codes, the median wall time and the
SHA-256 over stdout and the exported log.  Wherever both sides exit 0 they
must give one digest; if they differ the script exits 1.  Stdlib only here;
``coopcache`` is imported in the children alone.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# (N, K, M, alpha_max): two words of users from K = 63 on; the last two
# shapes hold users 64..99 in the second word
SHAPES = ((64, 64, 1, 1), (66, 66, 65, 1), (100, 100, 2, 1), (100, 100, 99, 1))
CLI = "import sys; from coopcache.cli import main; sys.exit(main(sys.argv[1:]))"


def run_side(src: Path, shape: tuple[int, int, int, int]) -> tuple[int, float, str]:
    """(exit code, wall seconds, SHA-256 of stdout and the log) of one run."""
    N, K, M, amax = shape
    argv = ["simulate", "--scheme", "centralized", "--N", str(N), "--K", str(K),
            "--M", str(M), "--alpha-max", str(amax), "--export-log", "log.csv"]
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as scratch:
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", CLI, *argv], cwd=scratch, env=env, capture_output=True
        )
        wall = time.perf_counter() - start
        digest = hashlib.sha256(done.stdout)
        log = Path(scratch) / "log.csv"
        if log.exists():
            digest.update(log.read_bytes())
    return done.returncode, wall, digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    parser.add_argument(
        "--head", type=Path, default=Path(__file__).resolve().parent.parent,
        help="checkout under test (default: the one holding this script)",
    )
    parser.add_argument("--pairs", type=int, default=3)
    args = parser.parse_args()
    sides = {"base": args.base / "src", "head": args.head / "src"}
    mismatch = False
    print("shape | side | exit codes | median_s | sha256")
    for shape in SHAPES:
        runs = {side: [] for side in sides}
        for pair in range(max(1, args.pairs)):
            order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
            for side in order:
                runs[side].append(run_side(sides[side], shape))
        for side, got in runs.items():
            codes = ",".join(str(code) for code, _, _ in got)
            wall = statistics.median(w for _, w, _ in got)
            shas = ",".join(sorted({sha[:16] for _, _, sha in got}))
            print(f"{shape} | {side} | {codes} | {wall:.2f} | {shas}")
        ok = [{sha for code, _, sha in got if code == 0} for got in runs.values()]
        if all(ok) and (len(ok[0]) != 1 or ok[0] != ok[1]):
            print(f"error: the two checkouts gave different outputs at {shape}", file=sys.stderr)
            mismatch = True
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
