#!/usr/bin/env python3
"""Time the centralized ladder walks that run failed hosting flows.

Each walk is one ``coopcache simulate --scheme centralized`` command, run
in-process with its stdout captured.  Its (rho, offset) ladder proves
rungs infeasible before it reaches a feasible one, so these walks measure
what the benchmark's workloads do not: the cost of infeasible rungs.  For
each walk the script prints the wall time of the command, the hosting
flows run (calls of the max-flow), the rungs certified infeasible without
a flow, and the SHA-256 of the command's stdout.

    PYTHONPATH=src python3 scripts/ladder_walks.py [--repeat 3]

With ``--repeat`` each walk runs that many times and the best time is
printed; the counts and the digest are those of the last run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import time

from coopcache import centralized
from coopcache.cli import main

WALKS = (
    "--N 12 --K 12 --M 6 --alpha 3 --alpha-max 3",
    "--N 11 --K 11 --M 5 --alpha 3 --alpha-max 3",
    "--N 11 --K 11 --M 7 --alpha 2 --alpha-max 2",
    "--N 12 --K 12 --M 4 --alpha-max 4",
)


class _Counts:
    """Wraps the flow decider of the hosting ladder: every rung the flow
    network decides, and every max-flow run.  A rung decided with no
    max-flow was certified infeasible."""

    def __init__(self) -> None:
        self.rungs = self.flows = 0

    @contextlib.contextmanager
    def wrapped(self):
        solve, flow = centralized._solve_hosting, centralized._Dinic.max_flow

        def counted_solve(*args):
            self.rungs += 1
            return solve(*args)

        def counted_flow(net, *args):
            self.flows += 1
            return flow(net, *args)

        centralized._solve_hosting = counted_solve
        centralized._Dinic.max_flow = counted_flow
        try:
            yield self
        finally:
            centralized._solve_hosting = solve
            centralized._Dinic.max_flow = flow


def run_walk(walk: str) -> tuple[float, int, int, str]:
    """(wall seconds, flows run, rungs certified, stdout SHA-256) of one walk."""
    argv = ["simulate", "--scheme", "centralized", *walk.split()]
    out = io.StringIO()
    with _Counts().wrapped() as counts, contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"walk {walk!r} exited with {code}")
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return wall, counts.flows, counts.rungs - counts.flows, digest


def main_cli() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args()
    print("walk | wall_s | flows | certified | stdout_sha256")
    for walk in WALKS:
        runs = [run_walk(walk) for _ in range(max(1, args.repeat))]
        wall = min(run[0] for run in runs)
        _, flows, certified, digest = runs[-1]
        print(f"{walk} | {wall:.2f} | {flows} | {certified} | {digest}")


if __name__ == "__main__":
    main_cli()
