"""One workload in a fresh process of its own.

Modes:

* ``--setup-only``: import coopcache and generate the inputs, print the
  time taken and the machine's speed right after, and exit (``run.py``
  starts several of these for ``setup_s``);
* ``--trace 0``: run the op list for ``--passes`` passes in a closed loop
  (one thread; each op starts after the previous one finished), time every
  op with tracing off, check every op's output, and record the machine's
  speed around and during each op (see ``speed.py``);
* ``--trace 1``: per op, run the untraced entry point, then the staged
  replica under spans, and check the two agree; then one memory pass under
  tracemalloc.  Spans go to ``.perfbench/`` at exit.

Prints one JSON object as the last line of stdout for ``run.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"
# ``speed`` is imported where it is used, after the setup timing, so that its
# own imports (fractions, decimal) still count as coopcache's set-up.


def timed(fn, *args):
    """(outcome, seconds, error, speed tally) of one closed-loop call.

    The speed probe's samples inside the call are taken out of its time;
    an exception fails the op instead of the run.
    """
    import speed

    gc.collect()
    with speed.sampling() as tally:
        start = time.perf_counter()
        try:
            out, err = fn(*args), None
        except Exception as exc:  # a failing op is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        inside = tally.seconds
        end = time.perf_counter()
    return out, end - start - inside, err, tally


def tamper_check(w, op, outcome, seed: int) -> tuple[bool, str]:
    """A deliberately corrupted outcome must fail the op's check.

    Simulator ops lose one non-redundant symbol from the log (the decoder
    must then reject it); CLI ops get one byte of stdout changed.
    """
    if op.scheme == "cli":
        bad = dataclasses.replace(outcome, stdout=outcome.stdout[:-1] + "#")
        return bool(w.check(op, bad)), f"altered last byte of `{op.key}` stdout"
    from coopcache import TransmissionLog, brute_force_decode_check

    log = outcome.log
    live = [i for i, e in enumerate(log.entries) if not e.symbol.redundant]
    drop = random.Random(seed).choice(live)
    entries = log.entries[:drop] + log.entries[drop + 1:]
    bad_log = TransmissionLog(log.config, log.mode, entries, log.resolver)
    decoded = brute_force_decode_check(bad_log, outcome.placement, op.demands, outcome.library)
    rates = dataclasses.replace(outcome.rates, R1=bad_log.server_load(), R2=bad_log.user_load())
    bad = dataclasses.replace(outcome, log=bad_log, decode_ok=decoded, rates=rates)
    caught = decoded is False and bool(w.check(op, bad))
    return caught, f"deleted log entry {drop} of {len(log.entries)} from {op.key}"


def untraced(w, ops, passes: int, seed: int) -> dict:
    import speed

    latencies, unit_s, errors, units = [], [], [], 0
    sample = None  # last good outcome of ops[0], for the self-check
    before = speed.bracket()
    for p in range(passes):
        row, speeds = [], []
        for i, op in enumerate(ops):
            out, secs, err, during = timed(w.execute, op)
            bad = [err] if err else w.check(op, out)
            if bad:
                errors.append(f"pass {p} {op.key}: {'; '.join(bad)}")
            else:
                units += w.work_units(op, out)
                if i == 0:
                    sample = out
            row.append(secs)
            del out
            gc.collect()
            after = speed.bracket()
            speeds.append(speed.op_unit_seconds(before, during, after))
            before = after
        latencies.append(row)
        unit_s.append(speeds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if sample is not None:
        caught, detail = tamper_check(w, ops[0], sample, seed)
    else:
        caught, detail = False, f"{ops[0].key} never succeeded, nothing to tamper with"
    return {
        "ops": [op.key for op in ops],
        "latencies": latencies,
        "unit_s": unit_s,
        "units": units,
        "attempted": passes * len(ops),
        "failed": len(errors),
        "errors": errors,
        "peak_rss_mb": rss_mb,
        "tamper_caught": caught,
        "tamper_detail": detail,
    }


def staged_mismatches(w, op, ref, got) -> list[str]:
    """Differences between the untraced entry point and its staged replica."""
    if op.scheme == "cli":
        return [] if (ref.code, ref.stdout) == (got.code, got.stdout) else ["CLI output differs"]
    out = []
    for name in ("R1", "R2", "closed_R1", "closed_R2"):
        if getattr(ref.rates, name) != getattr(got.rates, name):
            out.append(f"{name} differs")
    if ref.decode_ok != got.decode_ok:
        out.append("decode verdict differs")
    if w.sim_counts(op, ref) != w.sim_counts(op, got):
        out.append("counts differ")
    return out


def traced(w, st, ops, span_file: Path) -> dict:
    import speed

    rec = st.SpanRecorder()
    failures: dict[str, list[str]] = {}  # op key -> reasons
    per_op = []
    tallies = [speed.bracket()]
    counts: dict[str, int] = {}
    central_user_symbols = decentral_bits = grid_points = 0
    for i, op in enumerate(ops):
        ref, untraced_s, err, _ = timed(w.execute, op)
        bad = [err] if err else w.check(op, ref)
        rec.op = f"{i}:{op.key}"
        gc.collect()
        try:
            with rec.span("op") as root:
                got = st.staged(rec, op)
        except Exception as exc:
            got, bad = None, bad + [f"staged run raised {type(exc).__name__}: {exc}"]
        if got is not None and ref is not None:
            bad += staged_mismatches(w, op, ref, got)
        children = sum(s.seconds for s in rec.spans if s.parent == root.id)
        if op.scheme == "cli":
            with rec.span("stages"):
                seen = st.bounds_stages(rec, op)
            printed = (list(w.verify_point_counts(ref.stdout)) if op.argv[0] == "verify"
                       else [w.grid_points(op, ref)]) if ref is not None else None
            if seen["points"] != printed or not seen["passed"]:
                bad.append(f"stage calls saw points {seen['points']}, CLI printed {printed}")
            grid_points += sum(seen["points"])
        elif got is not None:
            c = w.sim_counts(op, got)
            for k, v in c.items():
                counts[k] = counts.get(k, 0) + v
            if op.scheme == "centralized":
                central_user_symbols += c["schedule.user_symbols"]
            elif op.mode == "bits":
                decentral_bits += op.config.N * op.config.F
        if bad:
            failures.setdefault(op.key, []).extend(bad)
        per_op.append({
            "op": op.key,
            "untraced_s": untraced_s,
            "traced_s": root.seconds,
            "glue_s": root.seconds - children,
            "overhead_s": root.seconds - untraced_s,
        })
        del ref, got

    mem = st.MemoryRecorder()
    for op in ops:
        if op.scheme != "cli":
            try:
                st.staged(mem, op)
            except Exception as exc:
                failures.setdefault(op.key, []).append(
                    f"memory pass raised {type(exc).__name__}: {exc}")

    def stage(name, pred=lambda op: True):
        return sum(s.seconds for s in rec.spans
                   if s.name == name and pred(ops[int(s.op.split(":")[0])]))

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    names = [
        "centralized.placement", "decentralized.placement",
        "centralized.split_plan", "decentralized.split_plan",
        "centralized.user_schedule", "decentralized.user_schedule",
        "centralized.server_schedule", "decentralized.server_schedule",
        "simulator.library", "simulator.execute", "simulator.loads",
        "simulator.decode", "centralized.closed_form", "decentralized.closed_form",
        "bounds.lower_bound", "bounds.certify_centralized",
        "bounds.certify_decentralized", "cli.verify", "cli.sweep",
    ]
    m = {f"{n}_s": stage(n) for n in names}
    m["cli.verify_other_s"] = (m["cli.verify_s"] - m["bounds.certify_centralized_s"]
                               - m["bounds.certify_decentralized_s"]) if m["cli.verify_s"] else 0.0
    for k in ("schedule.server_symbols", "schedule.user_symbols", "schedule.user_rounds",
              "centralized.rho", "log.entries", "log.constituents", "log.payload_bytes"):
        m[k] = counts.get(k, 0)
    m["bounds.grid_points"] = grid_points
    m["simulator.decode_us_per_constituent"] = ratio(
        m["simulator.decode_s"], m["log.constituents"], 1e6)
    m["centralized.user_schedule_us_per_symbol"] = ratio(
        m["centralized.user_schedule_s"], central_user_symbols, 1e6)
    m["decentralized.placement_ns_per_bit"] = ratio(
        stage("decentralized.placement", lambda op: op.mode == "bits"), decentral_bits, 1e9)
    m["bounds.lower_bound_us_per_point"] = ratio(
        m["bounds.lower_bound_s"], grid_points, 1e6)
    for s in st.MEMORY_STAGES:
        m[f"mem.{s}_peak_mb"] = mem.peaks.get(s, 0.0)
    m["bench.untraced_pass_s"] = sum(o["untraced_s"] for o in per_op)
    m["bench.traced_pass_s"] = sum(o["traced_s"] for o in per_op)
    m["bench.glue_s"] = sum(o["glue_s"] for o in per_op)
    m["bench.trace_overhead_s"] = sum(o["overhead_s"] for o in per_op)
    tallies.append(speed.bracket())
    m["bench.speed_unit_s"] = speed.unit_seconds(*tallies)
    # The traced-minus-untraced difference is dominated by machine noise, so
    # also time the span bookkeeping itself: the overhead is spans x cost.
    probe, n = st.SpanRecorder(), 20000
    start = time.perf_counter()
    for _ in range(n):
        with probe.span("probe"):
            pass
    m["bench.spans"] = len(rec.spans)
    m["bench.span_cost_us"] = (time.perf_counter() - start) / n * 1e6

    SPAN_DIR.mkdir(exist_ok=True)
    t0 = rec.spans[0].start if rec.spans else 0.0
    with open(span_file, "w") as fh:
        for s in rec.spans:
            fh.write(json.dumps({"id": s.id, "name": s.name, "op": s.op, "parent": s.parent,
                                 "start": s.start - t0, "end": s.end - t0}) + "\n")
    return {
        "metrics": m,
        "per_op": per_op,
        "attempted": len(ops),
        "failed": len(failures),
        "errors": [f"{k}: {'; '.join(v)}" for k, v in failures.items()],
        "span_file": str(span_file.relative_to(ROOT)),
        "span_count": len(rec.spans),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import coopcache
    import workloads as w

    if not Path(coopcache.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported coopcache from {coopcache.__file__}, not {SRC}", file=sys.stderr)
        return 2
    ops = w.build_ops(args.workload, args.seed)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        import speed

        after = [speed.bracket() for _ in range(3)]
        print(json.dumps({"setup_s": setup_s, "unit_s": speed.unit_seconds(*after)}))
        return 0
    if args.trace:
        import stages as st

        span_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        out = traced(w, st, ops, span_file)
    else:
        out = untraced(w, ops, args.passes, args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
