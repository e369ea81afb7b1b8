#!/usr/bin/env python3
"""Peak resident memory of the bit-mode ops in fresh processes, against a
second checkout.

The ops are the six of the benchmark's ``bits`` workload, with demands and
seeds drawn from ``--seed`` the way the workload draws them.  A child
process imports ``coopcache`` from one checkout's ``src/``, runs the op list
twice and keeps the latest result of the first op alive until it exits,
as the benchmark worker keeps its self-check sample.  For each of
``--pairs`` pairs one child runs per checkout, and the side that goes
first alternates from pair to pair.

    python3 scripts/bits_memory.py --base ../other-checkout [--pairs 5]

Each child line shows ``ru_maxrss`` in MB after every op and the run's
peak.  Per side it then prints the median peak, the pairs that side used
less memory in, and the SHA-256 over every op's exported log, payload
bytes, rates and decode verdict.  The two sides must give one digest: if
they differ, or a child fails, the script exits 1.  Stdlib only here;
``coopcache`` is imported in the children alone.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# (scheme, (N, K, M, alpha_max), F), as perfbench/workloads.py lists BITS
OPS = (
    ("decentralized", (5, 5, 2, 1), 10**6),
    ("decentralized", (5, 5, 2, 2), 10**6),
    ("decentralized", (6, 6, 2, 3), 10**6),
    ("centralized", (8, 8, 2, 4), 980000),
    ("centralized", (9, 9, 3, 3), 1008000),
    ("centralized", (8, 8, 4, 2), 1001000),
)
PASSES = 2


def child(seed: int) -> None:
    """Run the op list ``PASSES`` times in this process; print one JSON
    line with the RSS after each op, the peak and the digest."""
    import gc
    import hashlib
    import random
    import resource
    from fractions import Fraction

    from coopcache import SystemConfig, run_centralized, run_decentralized

    rng = random.Random(seed)
    runs = []
    for scheme, (N, K, M, amax), F in OPS:
        config = SystemConfig(N=N, K=K, M=Fraction(M), alpha_max=amax, F=F)
        demands = tuple(rng.sample(range(1, N + 1), K))
        run = run_centralized if scheme == "centralized" else run_decentralized
        runs.append((run, config, demands, rng.randrange(2**31)))
    digest = hashlib.sha256()
    rss_mb, sample = [], None
    for _ in range(PASSES):
        for i, (run, config, demands, op_seed) in enumerate(runs):
            out = run(config, demands, seed=op_seed, mode="bits")
            digest.update("\n".join(out.log.export_lines()).encode())
            for payload in out.log.columns().payloads:
                digest.update(payload.tobytes())
            r = out.rates
            digest.update(repr((r.R1, r.R2, r.closed_R1, r.closed_R2, out.decode_ok)).encode())
            if i == 0:
                sample = out
            del out
            gc.collect()
            rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    del sample
    print(json.dumps({"rss_mb": rss_mb, "sha256": digest.hexdigest()}))


def run_side(src: Path, seed: int) -> dict:
    """One child's result, importing the package from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, __file__, "--child", "--seed", str(seed)],
        env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"child on {src} exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="checkout to compare against")
    parser.add_argument(
        "--head", type=Path, default=Path(__file__).resolve().parent.parent,
        help="checkout under test (default: the one holding this script)",
    )
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=301, help="draws demands and bit seeds")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.seed)
        return 0
    if args.base is None:
        parser.error("--base is required")
    sides = {"base": args.base / "src", "head": args.head / "src"}
    peaks = {side: [] for side in sides}
    digests = {side: set() for side in sides}
    print("pair | side | rss_mb after each op | peak_mb")
    for pair in range(max(1, args.pairs)):
        order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
        for side in order:
            result = run_side(sides[side], args.seed)
            peaks[side].append(max(result["rss_mb"]))
            digests[side].add(result["sha256"])
            steps = " ".join(f"{x:.1f}" for x in result["rss_mb"])
            print(f"{pair} | {side} | {steps} | {peaks[side][-1]:.1f}")
    won = {
        "base": sum(b < h for b, h in zip(peaks["base"], peaks["head"])),
        "head": sum(h < b for b, h in zip(peaks["base"], peaks["head"])),
    }
    print("side | median_peak_mb | pairs_won | sha256")
    for side in sides:
        print(
            f"{side} | {statistics.median(peaks[side]):.1f} | "
            f"{won[side]}/{len(peaks[side])} | {','.join(sorted(digests[side]))}"
        )
    if len(digests["base"]) != 1 or digests["base"] != digests["head"]:
        print("error: the two checkouts gave different outputs", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
