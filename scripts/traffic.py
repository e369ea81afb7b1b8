#!/usr/bin/env python3
"""List the program's functions that the benchmark's traffic leaves partly
unrun.

Under ``sys.settrace``, limited to the files of ``src/coopcache/``, the
script runs every op of the four benchmark workloads
(``perfbench/workloads.py``) once, with the checks the benchmark's worker
makes on each outcome: the op's recorded-output check, its work counts,
and, on each workload's first op, the tamper step of
``perfbench/worker.py``.  It then prints each function of ``src/`` that
has statements the traffic never ran, as ``file:line qualname``, the
count of unrun statement lines over all of them, and the unrun lines.
A function never entered shows all its lines.  Lambdas, comprehensions
and generator expressions count as part of the function they sit in.

    PYTHONPATH=src python3 scripts/traffic.py [--seed 5]

Standard library only; nothing under ``perfbench/`` is written.  Tracing
slows the ops about tenfold, so a run takes minutes.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coopcache"
sys.path.insert(0, str(ROOT / "perfbench"))


def statement_lines(path: Path) -> dict[tuple[int, str], set[int]]:
    """Each function of a source file, as (first line, qualname), and the
    lines that hold its statements; the ``def`` line itself is left out."""
    functions: dict[tuple[int, str], set[int]] = {}

    def walk(code, owner):
        if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
            owner = functions.setdefault((code.co_firstlineno, code.co_qualname), set())
            first = code.co_firstlineno
        else:
            first = None
        if owner is not None:
            owner.update(line for _, _, line in code.co_lines() if line not in (None, first))
        for const in code.co_consts:
            if inspect.iscode(const):
                walk(const, owner)

    walk(compile(path.read_text(), str(path), "exec"), None)
    return functions


def traced(run) -> dict[str, set[int]]:
    """The lines of each package file that ``run()`` executed."""
    files = {str(p): p.name for p in PACKAGE.glob("*.py")}
    hits: dict[str, set[int]] = {name: set() for name in files.values()}
    ours: dict[str, object] = {}

    def local(frame, event, arg):
        if event == "line":
            ours[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = hits.get(files.get(str(Path(name).resolve())))
        return local if ours[name] is not None else None

    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
    return hits


def traffic(seed: int) -> None:
    """Every op of the four workloads, with the worker's checks."""
    import worker
    import workloads as w

    for workload in w.WORKLOADS:
        ops = w.build_ops(workload, seed)
        for i, op in enumerate(ops):
            out = w.execute(op)
            errors = w.check(op, out)
            if errors:
                raise SystemExit(f"{op.key}: {'; '.join(errors)}")
            w.work_units(op, out)
            if op.scheme != "cli":
                w.sim_counts(op, out)
            if i == 0:
                caught, detail = worker.tamper_check(w, op, out, seed)
                if not caught:
                    raise SystemExit(f"tamper not caught: {detail}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    hits = traced(lambda: traffic(args.seed))
    elapsed = time.perf_counter() - start
    unrun = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for (line, name), lines in sorted(statement_lines(path).items()):
            missed = sorted(lines - hits[path.name])
            if missed:
                unrun += 1
                total += len(missed)
                print(f"{path.name}:{line} {name}: {len(missed)} of {len(lines)} "
                      f"lines unrun: {' '.join(map(str, missed))}")
    print(f"{unrun} functions with unrun lines, {total} lines; traced traffic "
          f"of seed {args.seed} took {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
