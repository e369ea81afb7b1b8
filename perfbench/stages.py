"""Staged, traced replicas of the program's public entry points.

``run_centralized``, ``run_decentralized`` and ``cmd_verify`` are each a
short sequence of public calls.  The functions here make the same calls in
the same order, with a span around each, so per-layer times come from the
benchmark's own files without touching the program.  The traced run checks
every staged result against the untraced entry point, so the replicas
cannot drift from the real path unnoticed.

Two recorders share the staged code: ``SpanRecorder`` keeps wall-clock
spans (name, start, end, parent, op) in memory; ``MemoryRecorder`` runs
tracemalloc inside the memory-heavy stages only, in a pass of its own, so
allocation tracing never inflates the timed spans.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from coopcache import (
    BitLibrary,
    CentralFragmentResolver,
    DecentralFragmentResolver,
    SystemConfig,
    allocation_plan,
    brute_force_decode_check,
    build_central_placement,
    build_decentral_placement,
    build_server_schedule,
    build_user_schedule,
    centralized_delay,
    centralized_gap_grid,
    centralized_rates,
    decentralized_delay,
    decentralized_gap_grid,
    decentralized_rates,
    execute_schedule,
    load_grid_spec,
    lower_bound,
    make_split_plan,
    parallel_user_delivery,
    server_delivery_decentralized,
    validate_demands,
    verify_gap_centralized,
    verify_gap_decentralized,
)
from workloads import Op, run_cli

# Stages whose tracemalloc peak the memory pass reports.
MEMORY_STAGES = ("placement", "user_schedule", "execute", "decode")


@dataclass
class Span:
    id: int
    name: str
    op: str
    parent: Optional[int]
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Wall-clock spans kept in memory; nesting gives each span its parent."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op = ""

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = Span(len(self.spans), name, self.op, parent, time.perf_counter())
        self.spans.append(rec)
        self._open.append(rec.id)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()


class MemoryRecorder:
    """Peak traced allocation (MB) of each memory stage, per op."""

    def __init__(self) -> None:
        self.peaks: dict[str, float] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        stage = name.split(".", 1)[1]
        if stage not in MEMORY_STAGES:
            yield None
            return
        tracemalloc.start()
        try:
            yield None
        finally:
            peak = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
            self.peaks[stage] = max(self.peaks.get(stage, 0.0), peak)


@dataclass
class StagedSimResult:
    """Mirror of ``SimulationResult`` for the fields the benchmark reads."""

    log: object
    decode_ok: bool
    rates: object
    plan: object
    schedule: object


@dataclass
class StagedRates:
    R1: object
    R2: object
    closed_R1: object
    closed_R2: object


def staged_centralized(rec, op: Op) -> StagedSimResult:
    """``run_centralized`` as its public calls, one span per stage."""
    config, mode = op.config, op.mode
    demands = validate_demands(config, op.demands)
    with rec.span("centralized.placement"):
        placement = build_central_placement(config)
    with rec.span("centralized.split_plan"):
        plan = make_split_plan(config)
    with rec.span("centralized.user_schedule"):
        schedule = build_user_schedule(config, plan, demands)
    with rec.span("centralized.server_schedule"):
        schedule.server_symbols = build_server_schedule(config, plan, demands)
    with rec.span("simulator.library"):
        library = BitLibrary.build(config.N, config.F, op.seed) if mode == "bits" else None
        resolver = CentralFragmentResolver(
            placement, plan, config.F if mode == "bits" else None
        )
    with rec.span("simulator.execute"):
        log = execute_schedule(config, schedule, resolver, mode, library)
    with rec.span("centralized.closed_form"):
        closed = centralized_rates(config, alpha=plan.alpha, server_share=plan.server_share)
    with rec.span("simulator.loads"):
        R1, R2 = log.server_load(), log.user_load()
    with rec.span("simulator.decode"):
        ok = brute_force_decode_check(log, placement, demands, library)
    return StagedSimResult(log, ok, StagedRates(R1, R2, closed.R1, closed.R2), plan, schedule)


def staged_decentralized(rec, op: Op) -> StagedSimResult:
    """``run_decentralized`` as its public calls, one span per stage."""
    config, mode = op.config, op.mode
    demands = validate_demands(config, op.demands)
    with rec.span("decentralized.placement"):
        placement = build_decentral_placement(config, seed=op.seed, mode=mode)
    with rec.span("decentralized.split_plan"):
        plan = allocation_plan(config)
    with rec.span("decentralized.user_schedule"):
        schedule = parallel_user_delivery(config, placement, demands, plan)
    with rec.span("decentralized.server_schedule"):
        schedule.server_symbols = server_delivery_decentralized(
            config, placement, demands, plan
        )
    with rec.span("simulator.library"):
        resolver = DecentralFragmentResolver(placement, plan)
        library = BitLibrary.build(config.N, config.F, op.seed) if mode == "bits" else None
    with rec.span("simulator.execute"):
        log = execute_schedule(config, schedule, resolver, mode, library)
    with rec.span("decentralized.closed_form"):
        closed = decentralized_rates(config)
    with rec.span("simulator.loads"):
        R1, R2 = log.server_load(), log.user_load()
    with rec.span("simulator.decode"):
        ok = brute_force_decode_check(log, placement, demands, library)
    return StagedSimResult(log, ok, StagedRates(R1, R2, closed.R1, closed.R2), plan, schedule)


def staged_cli(rec, op: Op):
    """The CLI op itself inside a ``cli.*`` span (same call as untraced)."""
    with rec.span(f"cli.{op.argv[0]}"):
        return run_cli(op.argv)


def _grid_values(text: str) -> list[Fraction]:
    """Values of an inclusive ``lo:hi:step`` sweep grid."""
    lo, hi, step = (Fraction(x) for x in text.split(":"))
    return [lo + i * step for i in range(int((hi - lo) / step) + 1)]


def bounds_stages(rec, op: Op) -> dict:
    """The analytic stages behind one CLI op, each run separately on the
    op's own grid: the certifications, the cut-set bound, the closed forms.

    Returns the point counts the stage calls saw, for comparison with what
    the CLI printed.
    """
    if op.argv[0] == "verify":
        spec = load_grid_spec(None)
        cen = list(centralized_gap_grid(spec))
        dec = list(decentralized_gap_grid(spec))
        with rec.span("bounds.certify_centralized"):
            rep_c = verify_gap_centralized(cen)
        with rec.span("bounds.certify_decentralized"):
            rep_d = verify_gap_decentralized(dec)
        with rec.span("bounds.lower_bound"):
            for cfg in cen + dec:
                lower_bound(cfg)
        with rec.span("centralized.closed_form"):
            for cfg in cen:
                centralized_delay(cfg)
        with rec.span("decentralized.closed_form"):
            for cfg in dec:
                decentralized_delay(cfg)
        return {
            "points": [rep_c.points, rep_d.points],
            "passed": rep_c.passed and rep_d.passed,
        }

    args = dict(zip(op.argv[1::2], op.argv[2::2]))
    scheme, N = args["--scheme"], int(args["--N"])
    grid = []
    for v in _grid_values(args["--grid"]):
        M = v * N if scheme == "decentralized" else v
        grid.append(SystemConfig(N=N, K=int(args["--K"]), M=M,
                                 alpha_max=int(args["--alpha-max"])))
    with rec.span("bounds.lower_bound"):
        for cfg in grid:
            lower_bound(cfg)
    if scheme == "centralized":
        with rec.span("centralized.closed_form"):
            for cfg in grid:
                centralized_rates(cfg)
    elif scheme == "decentralized":
        with rec.span("decentralized.closed_form"):
            for cfg in grid:
                decentralized_rates(cfg)
    return {"points": [len(grid)], "passed": True}


def staged(rec, op: Op):
    if op.scheme == "centralized":
        return staged_centralized(rec, op)
    if op.scheme == "decentralized":
        return staged_decentralized(rec, op)
    return staged_cli(rec, op)
