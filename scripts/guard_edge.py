"""Peak memory and stage times of the largest runs the size guards admit,
here and in a second checkout.

Usage::

    python3 scripts/guard_edge.py --base /path/to/other/checkout [--rounds 2]

The shapes come from a closed-form scan with this checkout's guards: for
each scheme, the admitted shape whose run holds the most constituents and
the one with the most symbols (centralized: N = K <= 60, integer t = M,
every alpha_max; decentralized: N = K <= 15, M = K/3, every alpha_max),
plus the centralized shapes (28, 28, 23, 1) and (43, 43, 39, 1).  Each
shape runs as ``coopcache simulate`` in a fresh process per side, with
``PYTHONPATH`` at that side's ``src/``, ``--rounds`` times, the side that
goes first alternating.  A shape this checkout refuses runs here only, to
show the refusal.  Each child prints its exit code, ``ru_maxrss`` and the
wall time and ``ru_maxrss`` after each stage it reached.  The script exits
1 if the two sides print different output for a shape.  Stdlib only, plus
the package; it runs one child at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

# (module, function, stage label): the stages a child times, where they exist
STAGES = [
    ("centralized", "_user_schedule", "user schedule"),
    ("centralized", "_assemble_schedule", "  assembly"),
    ("centralized", "_audit_user_schedule", "  audit"),
    ("centralized", "build_server_schedule", "server schedule"),
    ("simulator", "build_decentral_placement", "placement"),
    ("decentralized", "parallel_user_delivery", "user schedule"),
    ("decentralized", "server_delivery_decentralized", "server schedule"),
    ("simulator", "execute_schedule", "execute"),
    ("simulator", "_first_decode_failure", "decode"),
]


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child(src: str, argv: list[str]) -> None:
    """Run ``simulate`` in this process against ``src``, timing each stage,
    and print one JSON line."""
    sys.path.insert(0, src)
    from coopcache.cli import main

    stages: list[tuple[str, float, float]] = []

    def timed(f, label):
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                stages.append((label, time.perf_counter() - start, _rss_mb()))
        return run

    for module, name, label in STAGES:
        mod = importlib.import_module(f"coopcache.{module}")
        if hasattr(mod, name):
            setattr(mod, name, timed(getattr(mod, name), label))
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    print(json.dumps({
        "code": code,
        "wall_s": time.perf_counter() - start,
        "maxrss_mb": _rss_mb(),
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "decode_ok": out.getvalue().endswith("decode OK\n"),
        "stderr": err.getvalue().strip(),
        "stages": stages,
    }))


def _central(K: int, t: int, amax: int):
    """(constituents, symbols) of the worst-case run of a centralized shape
    N = K, M = t, or None when this checkout's guard refuses it."""
    from coopcache.centralized import _user_slots, check_schedule_size
    from coopcache.closed_forms import make_split_plan
    from coopcache.config import SystemConfig

    config = SystemConfig(K, K, t, alpha_max=amax)
    plan = make_split_plan(config)
    try:
        check_schedule_size(config, plan)
    except ValueError:
        return None
    server = math.comb(K, t + 1) if plan.server_share else 0
    shape = _user_slots(config, plan)
    if shape is None:
        return server * (t + 1), server
    _, fp, slots, beta = shape
    user = math.lcm(slots, beta) * plan.alpha
    return server * (t + 1) + user * (fp - 1), server + user


def _decentral(K: int, amax: int):
    """(constituents, symbols) of a decentralized shape N = K, M = K/3, or
    None when this checkout's guard refuses it: every user round's symbols,
    s - 1 (or r - 1 in a remainder group) constituents each, and the
    server's raw subfiles and multicasts, 2^K - 1 + K symbols of K*2^(K-1)
    + K constituents."""
    from coopcache.closed_forms import round_shapes
    from coopcache.config import SystemConfig
    from coopcache.decentralized import check_run_size
    from coopcache.model import equal_partition_count

    config = SystemConfig(K, K, Fraction(K, 3), alpha_max=amax)
    try:
        check_run_size(config)
    except ValueError:
        return None
    cons, symbols = K * 2 ** (K - 1) + K, 2**K - 1 + K
    for s, regular, r, _ in round_shapes(K, amax):
        n = equal_partition_count(K, s, regular)
        extra = math.comb(K - r, s - r) if r else 0
        symbols += n * (s * regular + r * extra)
        cons += n * (s * regular * (s - 1) + r * extra * (r - 1))
    return cons, symbols


def shapes() -> list[tuple[str, tuple, bool]]:
    """Each scheme's admitted shapes with the most constituents and with
    the most symbols, and the two centralized edges named above, each with
    whether this checkout admits it."""
    sys.path.insert(0, str(HERE / "src"))
    central = {
        (K, K, t, a): _central(K, t, a)
        for K in range(2, 61) for t in range(1, K) for a in range(1, K // 2 + 1)
    }
    decentral = {
        (K, K, f"{K}/3", a): _decentral(K, a)
        for K in range(2, 16) for a in range(1, max(1, K // 2) + 1)
    }
    out = []
    for scheme, table in (("centralized", central), ("decentralized", decentral)):
        admitted = {shape: size for shape, size in table.items() if size is not None}
        for i in (0, 1):
            best = max(admitted, key=lambda shape: admitted[shape][i])
            if (scheme, best, True) not in out:
                out.append((scheme, best, True))
    for edge in ((28, 28, 23, 1), (43, 43, 39, 1)):
        if ("centralized", edge, True) not in out:
            out.append(("centralized", edge, central[edge] is not None))
    return out


def _argv(scheme: str, shape: tuple) -> list[str]:
    N, K, M, amax = shape
    return ["simulate", "--scheme", scheme, "--N", str(N), "--K", str(K), "--M", str(M),
            "--alpha-max", str(amax)]


def _spawn(side: Path, argv: list[str]) -> dict:
    cmd = [sys.executable, __file__, "--child", str(side / "src"), "--", *argv]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=side)
    if done.returncode:
        return {"code": done.returncode, "maxrss_mb": float("nan"), "wall_s": 0.0,
                "stdout_sha256": "", "decode_ok": False, "stages": [],
                "stderr": done.stderr.strip().splitlines()[-1:]}
    return json.loads(done.stdout.splitlines()[-1])


def _report(name: str, got: dict) -> None:
    verdict = "decode OK" if got["decode_ok"] else f"stderr {got['stderr']!r}"
    print(f"  {name:6} exit {got['code']}  ru_maxrss {got['maxrss_mb']:8.1f} MB  "
          f"wall {got['wall_s']:6.2f} s  {verdict}  stdout {got['stdout_sha256'][:12]}")
    for label, seconds, rss in got["stages"]:
        print(f"           {label:18} {seconds:7.3f} s  ru_maxrss after {rss:8.1f} MB")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, help="the other checkout's root")
    ap.add_argument("--rounds", type=int, default=2)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("argv", nargs="*", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        child(args.child, args.argv)
        return 0
    if args.base is None:
        ap.error("--base is required")
    differ = False
    for i, (scheme, shape, admitted) in enumerate(shapes()):
        argv = _argv(scheme, shape)
        print(f"{scheme} {shape}:")
        if not admitted:  # refused here, so the other side is not run
            _report("change", _spawn(HERE, argv))
            continue
        digests = set()
        for r in range(args.rounds):
            order = ("base", "change") if (i + r) % 2 == 0 else ("change", "base")
            for name in order:
                got = _spawn(args.base if name == "base" else HERE, argv)
                digests.add(got["stdout_sha256"])
                _report(name, got)
        if len(digests) != 1:
            print("  OUTPUT DIFFERS")
            differ = True
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
