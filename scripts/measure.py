#!/usr/bin/env python3
"""Fresh-process measurements of ``coopcache`` runs on two checkouts.

    python3 scripts/measure.py CASE [--base DIR] [--head DIR] [--pairs N] [--seed S]

A case is a list of items, an item a list of steps: ``coopcache`` command
lines, or bit-mode library runs.  Each item runs in a fresh interpreter
per side, with ``PYTHONPATH`` at that side's ``src/`` (its bytecode compiled
first) and an empty scratch cwd, once per pair, the side that goes first
alternating.  ``--head`` defaults to this checkout; without ``--base`` only
the head runs.  Items are drawn with the head's package, and one the
head's guards refuse runs on the head only.  The cases, with their default
pair counts:

- ``guard-edge`` (2): ``simulate`` of the admitted shapes with the most
  constituents and with the most symbols, by a closed-form scan with the
  head's guards (centralized: N = K <= 62, and 63..80 with two mask words,
  integer t = M; decentralized: N = K <= 15, M = K/3; every alpha_max),
  and the centralized (28, 28, 23, 1) and (43, 43, 39, 1).
- ``bits-memory`` (5): the benchmark's ``bits`` ops as
  ``perfbench/workloads.build_ops`` draws them from ``--seed``, twice in one
  child; the first op's latest result is kept alive, as the worker keeps it.
- ``cli-startup`` (10): the benchmark's ``certify`` commands, timed with
  the interpreter's start-up and every import the command makes.
- ``wide-masks`` (3): ``simulate --export-log`` at K >= 63, two mask words.
- ``ladder-walks`` (1): centralized walks whose ladder proves rungs
  infeasible: ``_Dinic.max_flow`` calls are the flows run, and
  ``_solve_hosting`` calls less those the rungs certified without one.

Per step a child records the exit code, ``ru_maxrss``, the SHA-256 of all
the item has output so far (stdout, files written to the cwd, and for bit
runs the log, payloads, rates and decode verdict), and for ``simulate``
the calls, seconds and ``ru_maxrss`` after each function of ``STAGES``;
other steps import only what their command imports.  Per item and side
the report gives the exit codes, median and minimum wall time, median peak
``ru_maxrss``, pairs won on time and on memory, the digests, and per step
the median ``ru_maxrss``, the last line of output (stderr's on failure)
and each stage's medians.  The script exits 1 when an item's runs all
exit 0 with more than one digest.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

# the functions a ``simulate`` step times, as module.attribute of the package
STAGES = (
    "centralized._user_schedule",
    "centralized._solve_hosting",
    "centralized._Dinic.max_flow",
    "centralized._assemble_schedule",
    "centralized._audit_user_schedule",
    "centralized.build_server_schedule",
    "simulator.build_decentral_placement",
    "decentralized.parallel_user_delivery",
    "decentralized.server_delivery_decentralized",
    "simulator.execute_schedule",
    "simulator._first_decode_failure",
)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def owner(path: str) -> tuple[object, str]:
    """The object that holds the package function at ``path``, and its name
    there."""
    module, _, name = path.partition(".")
    *outer, attr = name.split(".")
    held = importlib.import_module(f"coopcache.{module}")
    for part in outer:
        held = getattr(held, part)
    return held, attr


def hook(path: str, stages: dict) -> None:
    """Wrap the package function at ``path`` so that each call adds to
    ``stages[path]``: [calls, seconds, ru_maxrss after the call]."""
    held, attr = owner(path)
    f = getattr(held, attr)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return f(*args, **kwargs)
        finally:
            calls, seconds, _ = stages.get(path, (0, 0.0, 0.0))
            stages[path] = [calls + 1, seconds + time.perf_counter() - start, _rss_mb()]

    setattr(held, attr, timed)


def _command(argv: list[str], digest) -> tuple[int, str]:
    """Run one command line in this process: (exit code, last line)."""
    from coopcache.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    digest.update(out.getvalue().encode())
    for name in sorted(os.listdir()):
        with open(name, "rb") as f:
            digest.update(f.read())
        os.remove(name)
    return code, (out if code == 0 else err).getvalue().rstrip("\n").rpartition("\n")[2]


def _bits(op: dict, digest):
    """Run one bit-mode op; its result."""
    from fractions import Fraction

    from coopcache import SystemConfig, run_centralized, run_decentralized

    N, K, M, amax, F = op["config"]
    config = SystemConfig(N=N, K=K, M=Fraction(M), alpha_max=amax, F=F)
    run = run_centralized if op["scheme"] == "centralized" else run_decentralized
    out = run(config, tuple(op["demands"]), seed=op["seed"], mode="bits")
    digest.update("\n".join(out.log.export_lines()).encode())
    for payload in out.log.columns().payloads:
        digest.update(payload.tobytes())
    r = out.rates
    digest.update(repr((r.R1, r.R2, r.closed_R1, r.closed_R2, out.decode_ok)).encode())
    return out


def child() -> None:
    """Run the steps read as JSON from stdin; print one JSON line."""
    steps = json.load(sys.stdin)
    digest, stages, kept, results = hashlib.sha256(), {}, None, []
    if any(step[0] == "simulate" for step in steps if isinstance(step, list)):
        for path in STAGES:
            hook(path, stages)
    for step in steps:
        stages.clear()
        if isinstance(step, dict):
            out = _bits(step, digest)
            code, tail = 0, f"decode_ok={out.decode_ok}"
            if step == steps[0]:
                kept = out
            del out
            gc.collect()
        else:
            code, tail = _command(step, digest)
        results.append({"code": code, "rss_mb": _rss_mb(), "sha256": digest.hexdigest(),
                        "tail": tail, "stages": dict(stages)})
    del kept
    print(json.dumps(results))


class Item(NamedTuple):
    label: str
    steps: list
    head_only: bool = False


def _simulate(scheme: str, shape: tuple, *extra: str) -> list[str]:
    N, K, M, amax = shape
    return ["simulate", "--scheme", scheme, "--N", str(N), "--K", str(K), "--M", str(M),
            "--alpha-max", str(amax), *extra]


def _workloads(head: Path):
    """The benchmark's ``workloads`` module, with the package, imported from
    the head, writing no bytecode under ``perfbench/``."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(head / "src"), str(head / "perfbench")]
    import workloads

    return workloads


def _decentral(config) -> tuple[int, int]:
    """(symbols, constituents) of a decentralized run: the user symbols, s - 1
    (or r - 1 in a remainder group) constituents each, and the server's raw
    subfiles and multicasts, 2^K - 1 + K symbols of K*2^(K-1) + K
    constituents."""
    from coopcache.closed_forms import round_shapes
    from coopcache.decentralized import user_symbol_count
    from coopcache.model import equal_partition_count

    K = config.K
    cons = K * 2 ** (K - 1) + K
    for s, regular, r, _ in round_shapes(K, config.alpha_max):
        extra = math.comb(K - r, s - r) if r else 0
        cons += equal_partition_count(K, s, regular) * (
            s * regular * (s - 1) + r * extra * (r - 1))
    return 2**K - 1 + K + user_symbol_count(config), cons


def guard_edge(head: Path, seed: int) -> list[Item]:
    _workloads(head)  # puts the head's package on the path
    from fractions import Fraction

    from coopcache.centralized import check_schedule_size
    from coopcache.closed_forms import make_split_plan
    from coopcache.config import SystemConfig
    from coopcache.decentralized import check_run_size

    def central(K, t, amax):
        config = SystemConfig(K, K, t, alpha_max=amax)
        try:
            return check_schedule_size(config, make_split_plan(config))
        except ValueError:
            return None

    def decentral(K, amax):
        config = SystemConfig(K, K, Fraction(K, 3), alpha_max=amax)
        try:
            check_run_size(config)
        except ValueError:
            return None
        return _decentral(config)

    tables = [  # centralized sets of users of one mask word, then of two
        ("centralized", {(K, K, t, a): central(K, t, a)
                         for K in Ks for t in range(1, K) for a in range(1, K // 2 + 1)})
        for Ks in (range(2, 63), range(63, 81))
    ]
    tables.append(("decentralized", {(K, K, f"{K}/3", a): decentral(K, a)
                                     for K in range(2, 16) for a in range(1, max(1, K // 2) + 1)}))
    items = []
    for scheme, table in tables:
        admitted = {shape: size for shape, size in table.items() if size}
        for i in (1, 0):  # the most constituents, then the most symbols
            shape = max(admitted, key=lambda s: admitted[s][i])
            items.append(Item(f"{scheme} {shape}", [_simulate(scheme, shape)]))
    for edge in ((28, 28, 23, 1), (43, 43, 39, 1)):
        refused = central(*edge[1:]) is None
        items.append(Item(f"centralized {edge}", [_simulate("centralized", edge)], refused))
    return list({item.label: item for item in items}.values())


def bits_memory(head: Path, seed: int) -> list[Item]:
    steps = [
        {"scheme": op.scheme, "demands": list(op.demands), "seed": op.seed,
         "config": [c.N, c.K, str(c.M), c.alpha_max, c.F]}
        for op in _workloads(head).build_ops("bits", seed) for c in [op.config]
    ]
    return [Item(f"bits ops of seed {seed}, twice", steps * 2)]


def cli_startup(head: Path, seed: int) -> list[Item]:
    return [Item(op.key, [list(op.argv)]) for op in _workloads(head).build_ops("certify", seed)]


def wide_masks(head: Path, seed: int) -> list[Item]:
    # two words of users from K = 63 on; the last two shapes hold users
    # 64..99 in the second word
    shapes = ((64, 64, 1, 1), (66, 66, 65, 1), (100, 100, 2, 1), (100, 100, 99, 1))
    return [Item(f"centralized {shape}",
                 [_simulate("centralized", shape, "--export-log", "log.csv")]) for shape in shapes]


WALKS = (
    "--N 12 --K 12 --M 6 --alpha 3 --alpha-max 3",
    "--N 11 --K 11 --M 5 --alpha 3 --alpha-max 3",
    "--N 11 --K 11 --M 7 --alpha 2 --alpha-max 2",
    "--N 12 --K 12 --M 4 --alpha-max 4",
)


def ladder_walks(head: Path, seed: int) -> list[Item]:
    return [Item(walk, [["simulate", "--scheme", "centralized", *walk.split()]]) for walk in WALKS]


# each case's items and default pair count
CASES = {
    "guard-edge": (guard_edge, 2),
    "bits-memory": (bits_memory, 5),
    "cli-startup": (cli_startup, 10),
    "wide-masks": (wide_masks, 3),
    "ladder-walks": (ladder_walks, 1),
}


def spawn(root: Path, steps: list) -> dict:
    """One child's run of ``steps`` against ``root/src``: its wall time,
    first nonzero exit code, peak ``ru_maxrss``, digest and steps.  A child
    that fails shows as one step with the last line of its stderr."""
    import subprocess
    import tempfile

    with tempfile.TemporaryDirectory() as cwd:
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child"],
            input=json.dumps(steps), capture_output=True, text=True, cwd=cwd,
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
        )
        wall = time.perf_counter() - start
    got = json.loads(done.stdout) if done.returncode == 0 else [
        {"code": done.returncode, "rss_mb": math.nan, "sha256": "", "stages": {},
         "tail": done.stderr.rstrip("\n").rpartition("\n")[2]}
    ]
    return {"wall": wall, "code": next((s["code"] for s in got if s["code"]), 0),
            "rss_mb": max(s["rss_mb"] for s in got), "sha256": got[-1]["sha256"], "steps": got}


def _won(runs: dict, side: str, key: str) -> str:
    """Pairs in which ``side`` measured less ``key`` than the other side."""
    if len(runs) < 2:
        return "-"
    mine, other = runs[side], next(r for s, r in runs.items() if s != side)
    return f"{sum(a[key] < b[key] for a, b in zip(mine, other))}/{len(mine)}"


def report(item: Item, runs: dict) -> None:
    from statistics import median

    print(item.label)
    print(f"  {'side':5} {'exit':5} {'wall_s med':>10} {'min':>7} {'peak_mb':>9} "
          f"{'won_s':>6} {'won_mb':>6}  sha256")
    for side, got in runs.items():
        codes = ",".join(sorted({str(r["code"]) for r in got}))
        walls = [r["wall"] for r in got]
        shas = ",".join(sorted({r["sha256"][:16] for r in got}))
        print(f"  {side:5} {codes:5} {median(walls):10.3f} {min(walls):7.3f} "
              f"{median(r['rss_mb'] for r in got):9.1f} {_won(runs, side, 'wall'):>6} "
              f"{_won(runs, side, 'rss_mb'):>6}  {shas}")
    for side, got in runs.items():
        for i, step in enumerate(got[-1]["steps"]):
            same = [r["steps"][i] for r in got if i < len(r["steps"])]
            rss = median(s["rss_mb"] for s in same)
            print(f"  step {i} {side}: ru_maxrss {rss:.1f} MB, {step['tail'][:160]}")
            for path in (p for p in STAGES if p in step["stages"]):
                calls, seconds, after = (median(s["stages"][path][j] for s in same
                                                if path in s["stages"]) for j in range(3))
                print(f"    {path:44} {calls:6g} calls {seconds:8.3f} s  "
                      f"ru_maxrss after {after:8.1f} MB")


def measure(items: list[Item], sides: dict, pairs: int) -> int:
    """Run each item ``pairs`` times on each side, report it, and return 1
    if an item whose runs all exit 0 gave more than one digest."""
    import subprocess

    for root in sides.values():  # so that stale bytecode slows neither side
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src")], check=True)
    differ = False
    for item in items:
        names = ["head"] if item.head_only else list(sides)
        runs = {name: [] for name in names}
        for pair in range(max(1, pairs)):
            for name in names if pair % 2 == 0 else names[::-1]:
                runs[name].append(spawn(sides[name], item.steps))
        report(item, runs)
        got = [r for side in runs.values() for r in side]
        if all(r["code"] == 0 for r in got) and len({r["sha256"] for r in got}) != 1:
            print("  OUTPUT DIFFERS")
            differ = True
    return int(differ)


def main() -> int:
    import argparse

    if sys.argv[1:] == ["--child"]:
        child()
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("case", choices=CASES)
    ap.add_argument("--base", type=Path, help="the checkout to compare against")
    ap.add_argument("--head", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="the checkout under test")
    ap.add_argument("--pairs", type=int, help="runs a side (default: the case's)")
    ap.add_argument("--seed", type=int, default=301, help="draws the bits ops")
    args = ap.parse_args()
    build, pairs = CASES[args.case]
    sides = {"base": args.base, "head": args.head} if args.base else {"head": args.head}
    sides = {name: root.resolve() for name, root in sides.items()}
    return measure(build(sides["head"], args.seed), sides, args.pairs or pairs)


if __name__ == "__main__":
    sys.exit(main())
