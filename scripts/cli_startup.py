#!/usr/bin/env python3
"""Time the analytic CLI commands in fresh processes, against a second checkout.

Each command is ``coopcache verify`` or one of the three sweeps of the
benchmark's ``certify`` workload, run the way the ``coopcache`` console
script runs it, in a new interpreter, so its wall time includes the
interpreter's start-up and every import the command makes.  For each of
``--pairs`` pairs the command runs once on the ``src/`` directory of each
checkout, and the side that goes first alternates from pair to pair.

    python3 scripts/cli_startup.py --base ../other-checkout [--pairs 10]

For each command and side it prints the median and minimum wall seconds,
the pairs that side was faster in, and the SHA-256 of its stdout.  The two
sides must print the same bytes: if a digest differs, or a command exits
other than 0, the script exits 1.  Stdlib only; nothing is imported from
either checkout into this process.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# the ``certify`` workload's commands, as perfbench/workloads.py lists them
COMMANDS = (
    ("verify",),
    ("sweep", "--scheme", "centralized", "--N", "20", "--K", "10",
     "--alpha-max", "5", "--grid", "0:20:1/2"),
    ("sweep", "--scheme", "bounds", "--N", "20", "--K", "10",
     "--alpha-max", "5", "--grid", "0:20:1/2"),
    ("sweep", "--scheme", "decentralized", "--N", "20", "--K", "10",
     "--alpha-max", "5", "--grid", "1/100:99/100:1/100"),
)
ENTRY = "import sys; from coopcache.cli import main; sys.exit(main(sys.argv[1:]))"


def run_once(src: Path, argv: tuple[str, ...]) -> tuple[float, str]:
    """(wall seconds, stdout SHA-256) of one command in a fresh interpreter
    that imports the package from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", ENTRY, *argv], env=env, capture_output=True
    )
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {done.returncode} on {src}")
    return wall, hashlib.sha256(done.stdout).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    parser.add_argument(
        "--head", type=Path, default=Path(__file__).resolve().parent.parent,
        help="checkout under test (default: the one holding this script)",
    )
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    sides = {"base": args.base / "src", "head": args.head / "src"}
    same = True
    print("command | side | median_s | min_s | pairs_won | stdout_sha256")
    for argv in COMMANDS:
        walls = {side: [] for side in sides}
        digests = {side: set() for side in sides}
        for pair in range(max(1, args.pairs)):
            order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
            for side in order:
                wall, digest = run_once(sides[side], argv)
                walls[side].append(wall)
                digests[side].add(digest)
        won = {
            "base": sum(b < h for b, h in zip(walls["base"], walls["head"])),
            "head": sum(h < b for b, h in zip(walls["base"], walls["head"])),
        }
        for side in sides:
            print(
                f"{' '.join(argv)} | {side} | {statistics.median(walls[side]):.3f} | "
                f"{min(walls[side]):.3f} | {won[side]}/{len(walls[side])} | "
                f"{','.join(sorted(digests[side]))}"
            )
        same &= len(digests["base"]) == 1 and digests["base"] == digests["head"]
    if not same:
        print("error: the two checkouts printed different stdout", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
