"""coopcache benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` there.  Workloads: central_fluid, decentral_fluid, bits, certify
(see ``perfbench/README.md`` for why each exists and what it predicts).

The workload runs in a fresh worker process of its own, so ``peak_rss_mb``
and ``setup_s`` belong to it, with one client thread in a closed loop: each
op starts only after the previous one finished.  A run makes one pass over
the op list for every ``PASS_SECONDS`` of ``--seconds``; the pass count, and
so the sample count behind every percentile, does not depend on how fast
the program is, which keeps percentiles comparable between commits.

``--trace 0`` times every op with tracing off and prints the end-to-end
metrics; ``--trace 1`` makes the separate traced run and prints the
per-layer metrics.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# run.py never imports the program, so it keeps its own copy of the names.
WORKLOADS = ("central_fluid", "decentral_fluid", "bits", "certify")
# One pass of each workload takes 7-10 s at the seed commit on a 2-core
# Xeon VM; one pass per 8 s of --seconds keeps a run close to --seconds.
PASS_SECONDS = 8
SETUP_PROBES = 5
# The machine's speed drifts by up to 40% over minutes on a shared VM, so
# the gated times are scaled to a reference speed: each op's wall time times
# REF_UNIT_S over the mean time of one speed-kernel unit during that op, or
# around it for a short op (see speed.py).  REF_UNIT_S is the unit's time on
# the reference VM.
REF_UNIT_S = 0.001
DEADLINE_S = 170  # the whole run must end within 180 s
UNIT_NAMES = {"certify": "points_per_s: grid points certified per second"}
DEFAULT_UNIT_NAME = "symbols_per_s: log entries executed and decoded per second"


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    # one client thread: keep numpy's native pools from adding threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run the worker to completion and parse its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting the worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} failed (exit {proc.returncode}):\n"
                         + proc.stderr.strip())
    return json.loads(lines[-1])


def tail(samples: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it (the
    maximum when there are too few samples for that)."""
    xs = sorted(samples)
    return xs[-1] if len(xs) <= 10 else xs[len(xs) - 11]


def tail_label(n: int) -> str:
    if n <= 10:
        return f"max of {n} op latencies (fewer than 11 samples)"
    return f"p{100 * (n - 10) / n:.1f} of {n} op latencies (10 beyond it)"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def scaled(seconds: float, unit_s: float) -> float:
    """``seconds`` at reference machine speed (see REF_UNIT_S)."""
    return seconds * REF_UNIT_S / unit_s


def end_to_end(workload: str, seed: int, passes: int, deadline: float) -> dict:
    probes = [
        run_worker(["--workload", workload, "--seed", str(seed), "--setup-only"], deadline)
        for _ in range(SETUP_PROBES)
    ]
    out = run_worker(["--workload", workload, "--seed", str(seed),
                      "--passes", str(passes), "--trace", "0"], deadline)
    wall = out["latencies"]
    ref = [[scaled(x, u) for x, u in zip(row, speeds)]
           for row, speeds in zip(wall, out["unit_s"])]
    attempted, failed = out["attempted"], out["failed"]

    def timings(lat: list[list[float]], setup: list[float]) -> dict:
        flat = [x for row in lat for x in row]
        passes_s = [sum(row) for row in lat]
        return {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(passes_s),
            "throughput_per_s": out["units"] / sum(passes_s),
            "op_p50_s": statistics.median(flat),
            "op_tail_s": tail(flat),
        }

    at_ref = timings(ref, [scaled(p["setup_s"], p["unit_s"]) for p in probes])
    at_wall = timings(wall, [p["setup_s"] for p in probes])
    units = {"setup_s": "s", "pass_s": "s", "throughput_per_s": "1/s",
             "op_p50_s": "s", "op_tail_s": "s"}
    # op_tail_s is printed but not a metric: with the 12 to 14 samples of a
    # simulator workload, the tail rule picks p16.7 or p28.6, below the
    # median (see README.md).
    metrics = {name: metric(at_ref[name], units[name]) for name in units if name != "op_tail_s"}
    metrics["peak_rss_mb"] = metric(out["peak_rss_mb"], "MB")
    n_ops = len(wall) * len(out["ops"])
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh processes (import + inputs)",
        "pass_s": f"median of {passes} passes of {len(out['ops'])} ops",
        "throughput_per_s": UNIT_NAMES.get(workload, DEFAULT_UNIT_NAME),
        "op_p50_s": f"median of {n_ops} op latencies",
        "op_tail_s": tail_label(n_ops) + "; printed only, not gated",
    }
    print(f"workload {workload} seed {seed}: {passes} passes x {len(out['ops'])} ops, "
          "closed loop, 1 client thread, tracing off")
    print(f"  {'metric':18s} {'at ref speed':>13s} {'wall':>13s}")
    for name, note in notes.items():
        print(f"  {name:18s} {at_ref[name]:13.6g} {at_wall[name]:13.6g} "
              f"{units[name]:4s} {note}")
    print(f"  {'peak_rss_mb':18s} {out['peak_rss_mb']:13.6g} {'':13s} MB   "
          "ru_maxrss of the workload process")
    # error_rate is carried by "attempted" and "failed"; as a metric it would
    # read 0 whenever all is well.
    print(f"  {'error_rate':18s} {failed / attempted:13.6g} {'':13s} 1    "
          f"{failed} of {attempted} ops failed")
    slow = statistics.median(u for row in out["unit_s"] for u in row) / REF_UNIT_S
    print(f"  speed kernel ran at {slow:.3f}x its reference time")
    for i, key in enumerate(out["ops"]):
        print(f"    op {key:42s} median {statistics.median(row[i] for row in wall):.4f} s wall")
    for e in out["errors"][:10]:
        print(f"  FAILED {e}")
    print(f"  self-check: {out['tamper_detail']}: "
          + ("counted as failed" if out["tamper_caught"] else "NOT caught"))
    return {"correct": failed == 0 and out["tamper_caught"], "attempted": attempted,
            "failed": failed, "metrics": metrics}


UNITS = {"_s": "s", "_mb": "MB", "_us": "us", "_us_per_constituent": "us",
         "_us_per_symbol": "us", "_ns_per_bit": "ns", "_us_per_point": "us"}


def per_layer(workload: str, seed: int, deadline: float) -> dict:
    out = run_worker(["--workload", workload, "--seed", str(seed), "--trace", "1"], deadline)
    metrics = {}
    for name, value in out["metrics"].items():
        unit = next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")
        metrics[name] = metric(value, unit)
    print(f"workload {workload} seed {seed}: traced run, 1 pass, spans in {out['span_file']} "
          f"({out['span_count']} spans)")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    m = out["metrics"]
    share = m["bench.trace_overhead_s"] / m["bench.untraced_pass_s"]
    print(f"  tracing overhead, measured: traced {m['bench.traced_pass_s']:.4f} s - untraced "
          f"{m['bench.untraced_pass_s']:.4f} s = {m['bench.trace_overhead_s']:.4f} s "
          f"({100 * share:+.2f}%, mostly machine noise)")
    cost = m["bench.spans"] * m["bench.span_cost_us"] / 1e6
    print(f"  tracing overhead, span bookkeeping: {m['bench.spans']} spans x "
          f"{m['bench.span_cost_us']:.3f} us = {cost * 1e3:.3f} ms "
          f"({100 * cost / m['bench.untraced_pass_s']:.4f}% of the untraced pass)")
    for o in out["per_op"]:
        print(f"    op {o['op']:42s} untraced {o['untraced_s']:.4f} s  traced "
              f"{o['traced_s']:.4f} s  glue {o['glue_s'] * 1e3:.3f} ms  "
              f"overhead {o['overhead_s'] * 1e3:+.3f} ms")
    for e in out["errors"][:10]:
        print(f"  FAILED {e}")
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="coopcache benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "coopcache" / "__init__.py").is_file():
        print(f"error: no coopcache sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            result = per_layer(args.workload, args.seed, deadline)
        else:
            passes = max(1, args.seconds // PASS_SECONDS)
            result = end_to_end(args.workload, args.seed, passes, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
