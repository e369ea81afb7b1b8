"""Workload definitions, seeded input generation, op execution and checks.

A workload is a fixed list of ops, repeated in passes.  The benchmark seed
draws the demand vectors and the bit-mode placement/library seeds; the
program under test only ever receives the generated inputs.  ``certify`` is
deterministic and ignores the seed.

Every op's output is checked against values recorded from the seed commit
(``expected.json``): decode verdicts, exact rates, and for the CLI ops the
exit code, point counts and a digest of stdout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from coopcache import SystemConfig, run_centralized, run_decentralized
from coopcache.cli import main as cli_main

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

# Tolerance of acceptance criterion 06 for decentralized bit-mode loads.
BIT_RATE_TOLERANCE = 0.05

# (N, K, M, alpha_max)
CENTRAL_FLUID = [
    (6, 6, 4, 3), (8, 8, 2, 4), (16, 8, 4, 4), (18, 9, 4, 3),
    (10, 10, 3, 5), (20, 10, 4, 5), (12, 12, 6, 3),
]
DECENTRAL_FLUID = [
    (6, 6, 2, 3), (7, 7, "7/3", 3), (8, 8, "8/3", 4), (8, 8, 4, 2),
    (9, 9, 3, 1), (9, 9, 3, 4),
]
# (scheme, (N, K, M, alpha_max), F); centralized F values are multiples of
# required_central_F.
BITS = [
    ("decentralized", (5, 5, 2, 1), 10**6),
    ("decentralized", (5, 5, 2, 2), 10**6),
    ("decentralized", (6, 6, 2, 3), 10**6),
    ("centralized", (8, 8, 2, 4), 980000),
    ("centralized", (9, 9, 3, 3), 1008000),
    ("centralized", (8, 8, 4, 2), 1001000),
]
CERTIFY = [
    ("verify",),
    ("sweep", "--scheme", "centralized", "--N", "20", "--K", "10",
     "--alpha-max", "5", "--grid", "0:20:1/2"),
    ("sweep", "--scheme", "bounds", "--N", "20", "--K", "10",
     "--alpha-max", "5", "--grid", "0:20:1/2"),
    ("sweep", "--scheme", "decentralized", "--N", "20", "--K", "10",
     "--alpha-max", "5", "--grid", "1/100:99/100:1/100"),
]

WORKLOADS = ("central_fluid", "decentral_fluid", "bits", "certify")


@dataclass(frozen=True)
class Op:
    """One benchmark operation: a simulator run or an in-process CLI call."""

    key: str  # names the op's recorded expectations
    scheme: str  # centralized | decentralized | cli
    mode: str = "fluid"
    config: Optional[SystemConfig] = None
    demands: tuple = ()
    seed: int = 0
    argv: tuple = ()


@dataclass
class CliOutcome:
    code: int
    stdout: str


def _config(shape, F=None) -> SystemConfig:
    N, K, M, amax = shape
    return SystemConfig(N=N, K=K, M=Fraction(M), alpha_max=amax, F=F)


def _key(scheme: str, mode: str, shape) -> str:
    return f"{scheme}/{mode}/" + ",".join(str(x) for x in shape)


def build_ops(workload: str, seed: int) -> list[Op]:
    """The workload's op list, with demands and bit seeds drawn from ``seed``."""
    rng = random.Random(seed)

    def sim(scheme, mode, shape, F=None) -> Op:
        cfg = _config(shape, F)
        demands = tuple(rng.sample(range(1, cfg.N + 1), cfg.K))  # distinct
        return Op(_key(scheme, mode, shape), scheme, mode, cfg, demands,
                  rng.randrange(2**31))

    if workload == "central_fluid":
        return [sim("centralized", "fluid", s) for s in CENTRAL_FLUID]
    if workload == "decentral_fluid":
        return [sim("decentralized", "fluid", s) for s in DECENTRAL_FLUID]
    if workload == "bits":
        return [sim(scheme, "bits", s, F) for scheme, s, F in BITS]
    if workload == "certify":
        return [Op(" ".join(argv), "cli", argv=argv) for argv in CERTIFY]
    raise ValueError(f"unknown workload {workload!r}")


def run_cli(argv) -> CliOutcome:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    return CliOutcome(code, buf.getvalue())


def execute(op: Op):
    """Run one op through the program's public entry point, untraced."""
    if op.scheme == "centralized":
        return run_centralized(op.config, op.demands, seed=op.seed, mode=op.mode)
    if op.scheme == "decentralized":
        return run_decentralized(op.config, op.demands, seed=op.seed, mode=op.mode)
    return run_cli(op.argv)


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------


def verify_point_counts(stdout: str) -> tuple[int, int]:
    """(centralized, decentralized) point counts printed by ``verify``."""
    cen = re.search(r"centralized gap <= 31 on (\d+) points", stdout)
    dec = re.search(r"decentralized branch bounds on (\d+) points", stdout)
    return (int(cen.group(1)) if cen else -1, int(dec.group(1)) if dec else -1)


def check(op: Op, outcome) -> list[str]:
    """Reasons ``outcome`` is wrong for ``op``; empty when it is correct."""
    want = EXPECTED[op.key]
    errors = []
    if op.scheme == "cli":
        if outcome.code != 0:
            errors.append(f"exit code {outcome.code}")
        digest = hashlib.sha256(outcome.stdout.encode()).hexdigest()
        if digest != want["stdout_sha256"]:
            errors.append("stdout differs from the recorded output")
        if "points" in want and list(verify_point_counts(outcome.stdout)) != want["points"]:
            errors.append(f"point counts {verify_point_counts(outcome.stdout)}")
        return errors

    r = outcome.rates
    if outcome.decode_ok is not True:
        errors.append(f"decode verdict {outcome.decode_ok}")
    closed = (str(r.closed_R1), str(r.closed_R2))
    if closed != (want["R1"], want["R2"]):
        errors.append(f"closed forms {closed} != recorded {want['R1']}, {want['R2']}")
    if op.scheme == "decentralized" and op.mode == "bits":
        for name, got, ref in (("R1", r.R1, r.closed_R1), ("R2", r.R2, r.closed_R2)):
            if abs(float(got / ref) - 1.0) >= BIT_RATE_TOLERANCE:
                errors.append(f"{name}={float(got):.6f} not within 5% of {float(ref):.6f}")
    elif (r.R1, r.R2) != (r.closed_R1, r.closed_R2):
        errors.append(f"measured R1={r.R1} R2={r.R2} differ from the closed forms")
    return errors


# ---------------------------------------------------------------------------
# work counts
# ---------------------------------------------------------------------------


def central_rho(result) -> int:
    """Refinement factor the scheduler chose: fragment count over L1."""
    for _, symbols in result.schedule.user_rounds:
        for sym in symbols:
            return sym.constituents[0].fragment.count // result.plan.L1
    return 1


def sim_counts(op: Op, result) -> dict[str, int]:
    """Exact work counts of one simulator op (they repeat for a given seed)."""
    sched, entries = result.schedule, result.log.entries
    return {
        "schedule.server_symbols": len(sched.server_symbols),
        "schedule.user_symbols": sched.user_symbol_count(),
        "schedule.user_rounds": len(sched.user_rounds),
        "log.entries": len(entries),
        "log.constituents": sum(len(e.symbol.constituents) for e in entries),
        "log.payload_bytes": sum(e.bits for e in entries) // 8 if op.mode == "bits" else 0,
        "centralized.rho": central_rho(result) if op.scheme == "centralized" else 0,
    }


def grid_points(op: Op, outcome: CliOutcome) -> int:
    """Grid points an ok CLI op certified: verify's two grids or sweep rows."""
    if op.argv[0] == "verify":
        return sum(verify_point_counts(outcome.stdout))
    return len(outcome.stdout.splitlines()) - 1  # CSV header


def work_units(op: Op, outcome) -> int:
    """Throughput numerator: log entries (simulator) or grid points (CLI)."""
    if op.scheme == "cli":
        return grid_points(op, outcome)
    return len(outcome.log.entries)
