"""Compare two commits on the benchmark with alternating pairs.

    python3 perfbench/compare.py run --base DIR --change DIR [--pairs 10]
        [--workloads W ...] [--first-seed 1000] [--out DIR]
    python3 perfbench/compare.py report BASE.jsonl CHANGE.jsonl

``run`` runs each checkout's own ``perfbench/run.py`` (the benchmark code
must be identical on both sides) for ``--pairs`` pairs per workload, at the
run length that BENCHMARK.json sets.  Both
sides of a pair use the same seed, and the side that runs first alternates
from pair to pair.  Every result line is appended to ``base.jsonl`` and
``change.jsonl`` in ``--out``, then the report is printed.  ``report``
prints it from two existing result files.

The report gives, per workload and end-to-end metric, each side's median
and quartiles and the share of pairs the change won (ties count for
neither), and applies the rule of the benchmark's README:

* invalid: a run of the change failed its checks (``"correct": false``),
  or the change failed more ops than the base; no other verdict counts;
* gain: the change wins at least 9 of 10 pairs and the medians differ by
  more than the base's own quartile spread;
* worse: the change's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json;
* unresolved: the base's own spread exceeds the bound, and not every run of
  the change beats every run of the base;
* same: otherwise.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench_once(checkout: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"benchmark failed in {checkout}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pairs(args) -> None:
    base, change = Path(args.base).resolve(), Path(args.change).resolve()
    diff = filecmp.dircmp(base / "perfbench", change / "perfbench")
    if diff.diff_files or diff.left_only or diff.right_only:
        raise SystemExit("the two checkouts carry different benchmark code: "
                         f"{diff.diff_files + diff.left_only + diff.right_only}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = {"base": out / "base.jsonl", "change": out / "change.jsonl"}
    for workload in args.workloads:
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            order = [("base", base), ("change", change)]
            if pair % 2:
                order.reverse()
            for side, checkout in order:
                result = bench_once(checkout, workload, seed)
                record = {"workload": workload, "pair": pair, "seed": seed,
                          "first": order[0][0], "result": result}
                with open(files[side], "a") as fh:
                    fh.write(json.dumps(record) + "\n")
                print(f"{workload} pair {pair} {side}: correct={result['correct']} "
                      f"failed={result['failed']} "
                      f"pass_s={result['metrics']['pass_s']['value']:.4f}", flush=True)
    report(files["base"], files["change"])


def load(path: Path) -> dict:
    runs: dict = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        runs.setdefault(rec["workload"], {})[(rec["pair"], rec["seed"])] = rec["result"]
    return runs


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return q1, med, q3


def spread(xs: list[float]) -> str:
    q1, med, q3 = quartiles(xs)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def verdict(base: list[float], change: list[float], wins: int, pairs: int,
            better: str, bound: float) -> str:
    b1, bmed, b3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    improved = cmed < bmed if better == "lower" else cmed > bmed
    if improved and wins >= 0.9 * pairs and abs(cmed - bmed) > b3 - b1:
        return "gain"
    worse_by = (cmed - bmed if better == "lower" else bmed - cmed) / bmed
    if worse_by > bound:
        return "worse"
    all_better = (max(change) < min(base)) if better == "lower" else (min(change) > max(base))
    if (b3 - b1) / bmed > bound and not all_better:
        return "unresolved"
    return "same"


def report(base_path, change_path) -> None:
    base, change = load(base_path), load(change_path)
    for workload in sorted(set(base) & set(change)):
        keys = sorted(set(base[workload]) & set(change[workload]))
        sides = {"base": base[workload], "change": change[workload]}
        failed = {side: sum(runs[k]["failed"] for k in keys) for side, runs in sides.items()}
        incorrect = {side: sum(not runs[k]["correct"] for k in keys)
                     for side, runs in sides.items()}
        invalid = incorrect["change"] > 0 or failed["change"] > failed["base"]
        print(f"{workload}: {len(keys)} pairs; failed ops: base {failed['base']}, "
              f"change {failed['change']}; runs with correct=false: base "
              f"{incorrect['base']}, change {incorrect['change']}")
        print(f"  {'metric':18s} {'base median [q1, q3]':>36s} {'change median [q1, q3]':>36s}"
              f" {'won':>7s}  verdict")
        for m in SPEC["end_to_end"]:
            name = m["name"]
            b = [base[workload][k]["metrics"][name]["value"] for k in keys]
            c = [change[workload][k]["metrics"][name]["value"] for k in keys]
            if m["better"] == "lower":
                wins = sum(ci < bi for bi, ci in zip(b, c))
            else:
                wins = sum(ci > bi for bi, ci in zip(b, c))
            print(f"  {name:18s} {spread(b):>36s} {spread(c):>36s} {wins:>3d}/{len(keys):<3d}  "
                  + ("invalid" if invalid
                     else verdict(b, c, wins, len(keys), m["better"], m["bound"])))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compare two commits on the benchmark")
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run alternating pairs, then report")
    r.add_argument("--base", required=True, help="checkout of the parent commit")
    r.add_argument("--change", required=True, help="checkout of the change")
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    r.add_argument("--first-seed", type=int, default=1000)
    r.add_argument("--out", default=".perfbench/compare")
    p = sub.add_parser("report", help="report on two existing result files")
    p.add_argument("base")
    p.add_argument("change")
    args = ap.parse_args(argv)
    if args.cmd == "run":
        if args.pairs < 10:
            ap.error("the rule needs at least ten pairs")
        run_pairs(args)
    else:
        report(args.base, args.change)
    return 0


if __name__ == "__main__":
    sys.exit(main())
