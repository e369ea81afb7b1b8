"""Batch front-end: sweeps, gap verification, and single-run simulation.

Subcommands:

* ``sweep``    — evaluate a scheme (or the lower bound) over an M- or
  p-grid and emit CSV or JSON rows, exact rationals alongside 12-digit
  decimals;
* ``verify``   — run the gap certifications and invariant suites over a
  grid file (the packaged default if none is given); exit 1 on violation;
* ``simulate`` — build, execute, and decode one configuration, printing
  the schedule summary and measured-versus-closed-form rates.

Exit codes: 0 success, 1 verification/decode failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction as Frac
from typing import Optional, Sequence, TextIO

from .bounds import (
    centralized_gains,
    certify_centralized,
    certify_decentralized,
    gap_grid_sizes,
    load_grid_spec,
    lower_bound,
    p_threshold,
    verify_user_rate_bounds,
)
from .closed_forms import centralized_rates, decentralized_gains, decentralized_rates
from .config import MAX_USER_SYMBOLS, SystemConfig, as_frac

# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


@dataclass
class SweepSpec:
    """One sweep request: scheme, fixed system shape, and the value grid."""

    scheme: str  # centralized | decentralized | bounds
    N: int
    K: int
    alpha_max: int
    grid: list[Frac]  # M values (centralized/bounds) or p values (decentralized)
    fmt: str = "csv"

    def __post_init__(self) -> None:
        if self.scheme not in ("centralized", "decentralized", "bounds"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.K > self.N:
            raise ValueError(f"K={self.K} exceeds N={self.N}")
        hi = self.N if self.scheme != "decentralized" else 1
        for v in self.grid:
            if not (0 <= v <= hi):
                raise ValueError(f"grid value {v} outside [0, {hi}]")


def _fmt12(x) -> str:
    return f"{float(x):.12g}"


def _pair(name: str, value: Optional[Frac]) -> list[tuple[str, str]]:
    """Column pair (exact, 12-digit float); empty strings when undefined."""
    if value is None:
        return [(name, ""), (f"{name}_float", "")]
    return [(name, str(value)), (f"{name}_float", _fmt12(value))]


def _centralized_row(config: SystemConfig) -> list[tuple[str, str]]:
    rates = centralized_rates(config)
    bound = lower_bound(config)
    t = config.t
    G_c = G_p = None
    if t.denominator == 1:
        if t == 0:
            G_c = Frac(1)
        else:
            G_c, G_p = centralized_gains(config)
    lam = rates.server_share
    row = _pair("M", config.M)
    row += _pair("T_upper", rates.T)
    row += _pair("T_lower", bound.T_lower)
    row.append(("alpha", "" if rates.alpha is None else str(rates.alpha)))
    row += _pair("lambda", lam)
    row += _pair("G_c", G_c)
    row += _pair("G_p", G_p)
    row += _pair("R1", rates.R1)
    row += _pair("R2", rates.R2)
    return row


def _decentralized_row(config: SystemConfig) -> list[tuple[str, str]]:
    rates = decentralized_rates(config)
    bound = lower_bound(config)
    G_c = G_p = None
    if config.p > 0:
        gains = decentralized_gains(config)
        G_c, G_p = gains.G_c, gains.G_p
    row = _pair("p", config.p)
    row += _pair("T_upper", rates.T)
    row += _pair("T_lower", bound.T_lower)
    row.append(("alpha_max", str(config.alpha_max)))
    row += _pair("lambda", rates.server_share)
    row += _pair("G_c", G_c)
    row += _pair("G_p", G_p)
    row += _pair("R_empty", rates.components.R_empty)
    row += _pair("R_s", rates.components.R_s)
    row += _pair("R_u", rates.components.R_u)
    row += _pair("R1", rates.R1)
    row += _pair("R2", rates.R2)
    return row


def _bounds_row(config: SystemConfig) -> list[tuple[str, str]]:
    rep = lower_bound(config)
    half, server_only, coop = rep.cutset_terms
    row = _pair("M", config.M)
    row += _pair("T_lower", rep.T_lower)
    row += _pair("cut_half", half)
    row += _pair("cut_server", server_only)
    row += _pair("cut_coop", coop)
    row.append(("regime", rep.regime))
    row.append(("p_th", _fmt12(rep.p_th)))
    return row


def cmd_sweep(spec: SweepSpec) -> list[list[tuple[str, str]]]:
    """One ordered (column, value) row per grid point."""
    rows = []
    for v in spec.grid:
        M = v * spec.N if spec.scheme == "decentralized" else v
        config = SystemConfig(N=spec.N, K=spec.K, M=M, alpha_max=spec.alpha_max)
        if spec.scheme == "centralized":
            rows.append(_centralized_row(config))
        elif spec.scheme == "decentralized":
            rows.append(_decentralized_row(config))
        else:
            rows.append(_bounds_row(config))
    return rows


def _emit_rows(rows, fmt: str, out: TextIO) -> None:
    if not rows:
        return
    if fmt == "csv":
        out.write(",".join(name for name, _ in rows[0]) + "\n")
        for row in rows:
            out.write(",".join(value for _, value in row) + "\n")
    else:
        out.write(json.dumps([dict(row) for row in rows], indent=2) + "\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _check(out: TextIO, label: str, ok: bool, detail: str = "") -> bool:
    out.write(f"[{'PASS' if ok else 'FAIL'}] {label}{': ' + detail if detail else ''}\n")
    return ok


def cmd_verify(grid_path: Optional[str], out: TextIO) -> int:
    """Gap certifications plus standing invariants; 0 iff everything holds."""
    spec = load_grid_spec(grid_path)
    ok = True

    cen, dec = gap_grid_sizes(spec)
    for name, size in (("centralized", cen), ("decentralized", dec)):
        if size > MAX_USER_SYMBOLS:
            raise ValueError(
                f"{name} gap grid has {size} points, above the limit of {MAX_USER_SYMBOLS}"
            )
    if not cen and not dec:
        out.write("warning: empty grid — nothing to verify\n")
        return 0

    if cen:
        rep = certify_centralized(spec)
        w = rep.worst
        ok &= _check(
            out,
            f"centralized gap <= {rep.BOUND} on {rep.points} points",
            rep.passed,
            f"worst {float(w.ratio):.3f} at K={w.config.K} N={w.config.N} "
            f"M={w.config.M} alpha_max={w.config.alpha_max}",
        )
        if rep.worst_high_t is not None:
            ok &= _check(
                out,
                f"centralized gap <= {rep.HIGH_T_BOUND} on t >= K-1",
                rep.worst_high_t.ratio <= rep.HIGH_T_BOUND,
                f"worst {float(rep.worst_high_t.ratio):.3f}",
            )
        for v in rep.violations[:5]:
            out.write(
                f"  violation: ratio {float(v.ratio):.3f} at K={v.config.K} "
                f"N={v.config.N} M={v.config.M} alpha_max={v.config.alpha_max}\n"
            )

    if dec:
        rep = certify_decentralized(spec)
        ok &= _check(out, f"decentralized branch bounds on {rep.points} points", rep.passed)
        for branch, pt in sorted(rep.worst_by_branch.items()):
            out.write(
                f"  {branch}: worst {float(pt.ratio):.3f} "
                f"(K={pt.config.K} alpha_max={pt.config.alpha_max} p={pt.config.p})\n"
            )
        for v in rep.violations[:5]:
            out.write(
                f"  violation: {v.regime} ratio {float(v.ratio):.3f} at "
                f"K={v.config.K} alpha_max={v.config.alpha_max} p={v.config.p}\n"
            )
        if rep.min_form_exceedances:
            out.write(
                f"  note: {len(rep.min_form_exceedances)} points exceed the bare "
                "min-form bound (floored branch bound still holds)\n"
            )

    prev = None
    mono = True
    for K in range(3, 65):
        lo, hi = p_threshold(K)
        if prev is not None and not hi < prev:
            mono = False
        prev = lo
    ok &= _check(out, "p_th strictly decreasing on K in 3..64", mono)

    failure, shared_ok = verify_user_rate_bounds()
    detail = ""
    if failure is not None:
        cfg, regime = failure
        detail = (
            f"first failure K={cfg.K} alpha_max={cfg.alpha_max} p={cfg.p} ({regime})"
        )
    ok &= _check(
        out, "user-rate upper bounds dominate R_u (K in 4..12)", not detail, detail
    )
    ok &= _check(out, "shared-link bound < 4*R_s pointwise", shared_ok)

    out.write("verification " + ("PASSED" if ok else "FAILED") + "\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args, out: TextIO) -> int:
    from . import simulator  # numpy and the schedulers load for a run only

    if args.scheme == "decentralized" and (
        args.alpha is not None or args.server_share is not None
    ):
        raise ValueError(
            "--alpha and --server-share apply to the centralized scheme only"
        )
    server_share = None if args.server_share is None else as_frac(args.server_share)
    config = SystemConfig(
        N=args.N, K=args.K, M=as_frac(args.M), alpha_max=args.alpha_max, F=args.F
    )
    if args.detail_round is not None and not 1 <= args.detail_round <= config.K:
        # a group has 1 to K members, so no partition would be listed
        bound = "at least 1" if args.detail_round < 1 else f"at most K={config.K}"
        raise ValueError(f"--detail-round must be {bound}, got {args.detail_round}")
    demands = (
        None if args.demands is None else [int(x) for x in args.demands.split(",")]
    )
    if args.export_log is not None:
        _check_writable(args.export_log)
    # the header is written after the run, so that a refusal, which the
    # run raises before any work, comes before anything is written
    header = (
        f"scheme: {args.scheme} N={config.N} K={config.K} M={config.M} "
        f"alpha_max={config.alpha_max} mode={args.mode} seed={args.seed}\n"
    )
    try:
        if args.scheme == "centralized":
            res = simulator.run_centralized(
                config,
                demands,
                seed=args.seed,
                mode=args.mode,
                alpha=args.alpha,
                server_share=server_share,
            )
        else:
            res = simulator.run_decentralized(
                config, demands, seed=args.seed, mode=args.mode
            )
    except RuntimeError as e:  # a schedule that could not be built
        out.write(f"{header}error: {e}\n")
        return 1
    if args.mode == "fluid" and args.F is not None:
        print("warning: --F is ignored in fluid mode", file=sys.stderr)
    out.write(header)
    plan = res.plan
    if args.scheme == "centralized":
        out.write(f"alpha={plan.alpha} lambda={plan.server_share} L1={plan.L1}\n")
    else:
        lam2 = {s: str(v) for s, v in plan.lambda2_by_round.items()}
        out.write(f"lambda={plan.server_share} lambda2={lam2}\n")
    sched = res.schedule
    out.write(
        f"server symbols: {len(sched.server_symbols)}; user rounds: "
        f"{len(sched.user_rounds)}; user symbols: {sched.user_symbol_count()}\n"
    )
    if args.detail_round is not None:
        shown = 0
        for groups, round_index, symbols in sched.round_outline():
            # a delivery stage's regular groups have the stage's size s;
            # a shorter remainder group never exceeds it
            if max(len(g) for g in groups) != args.detail_round:
                continue
            shown_groups = " ".join("{" + ",".join(str(u) for u in g) + "}" for g in groups)
            out.write(f"  round {round_index}: {shown_groups} ({symbols} symbols)\n")
            shown += 1
        out.write(f"  {shown} partitions with group size {args.detail_round}\n")
    r = res.rates
    out.write(f"R1={r.R1} R2={r.R2} T={r.T}\n")
    out.write(
        f"closed form: R1={r.closed_R1} R2={r.closed_R2} T={r.closed_T} "
        f"match={'yes' if r.matches_closed else 'no'}\n"
    )
    if args.export_log is not None:
        with open(args.export_log, "w") as fh:
            fh.write("\n".join(res.log.export_lines()) + "\n")
        out.write(f"log written to {args.export_log}\n")
    if res.decode_ok:
        out.write("decode OK\n")
        return 0
    k, n, T = res.decode_failure
    out.write(f"decode FAILED: user {k} cannot recover file {n}, subfile {T}\n")
    return 1


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _check_writable(path: str) -> None:
    """Raise the OSError that writing ``path`` would, before any work is
    done; a file the check creates is removed again."""
    existed = os.path.lexists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _parse_grid(text: str) -> list[Frac]:
    """Comma list of rationals, or an inclusive start:stop:step progression
    of at most ``MAX_USER_SYMBOLS`` values (counted before any is built)."""
    if ":" in text:
        lo, hi, step = (as_frac(part) for part in text.split(":"))
        if step <= 0:
            raise ValueError("grid step must be positive")
        count = max(0, (hi - lo) // step + 1)
        if count > MAX_USER_SYMBOLS:
            raise ValueError(
                f"grid {text} has {count} values, above the limit of {MAX_USER_SYMBOLS}"
            )
        return [lo + i * step for i in range(count)]
    return [as_frac(part) for part in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopcache",
        description="Cooperative coded caching: sweeps, gap verification, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="evaluate a scheme over an M- or p-grid")
    sw.add_argument("--config", help="JSON file with default values for the flags below")
    sw.add_argument("--scheme", choices=["centralized", "decentralized", "bounds"])
    sw.add_argument("--N", type=int)
    sw.add_argument("--K", type=int)
    sw.add_argument("--alpha-max", type=int, dest="alpha_max")
    sw.add_argument(
        "--grid",
        help="M values (or p for decentralized): '0,2,4' or inclusive 'lo:hi:step'",
    )
    sw.add_argument("--format", choices=["csv", "json"], default=None)
    sw.add_argument("--out", help="output path (default stdout)")

    vf = sub.add_parser("verify", help="run gap certifications and invariants")
    vf.add_argument("--grid", help="grid spec JSON (default: packaged acceptance grid)")
    vf.add_argument("--out", help="report path (default stdout)")

    sim = sub.add_parser("simulate", help="run one configuration end to end")
    sim.add_argument("--scheme", choices=["centralized", "decentralized"], required=True)
    sim.add_argument("--N", type=int, required=True)
    sim.add_argument("--K", type=int, required=True)
    sim.add_argument("--M", required=True, help="cache size, rational like 4 or 5/3")
    sim.add_argument("--alpha-max", type=int, dest="alpha_max", default=1)
    sim.add_argument("--F", type=int, help="file size in bits (bit mode)")
    sim.add_argument("--mode", choices=["fluid", "bits"], default="fluid")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--demands", help="comma list, user k's file (default identity)")
    sim.add_argument("--alpha", type=int, help="centralized: parallel sender groups")
    sim.add_argument(
        "--server-share",
        dest="server_share",
        help="centralized: server split lambda, rational like 1/3",
    )
    sim.add_argument(
        "--detail-round",
        dest="detail_round",
        type=int,
        help="list the user partitions whose groups have this size",
    )
    sim.add_argument("--export-log", dest="export_log", help="write slot,sender,receivers,bits records here")
    return parser


_SWEEP_DEFAULTS = {
    "scheme": "centralized",
    "N": 20,
    "K": 10,
    "alpha_max": 5,
    "grid": "0:20:2",
    "format": "csv",
}


def _sweep_spec(args) -> SweepSpec:
    merged = dict(_SWEEP_DEFAULTS)
    default_grid = args.grid is None
    if args.config is not None:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"{args.config} must hold a JSON object")
        unknown = sorted(set(loaded) - set(_SWEEP_DEFAULTS))
        if unknown:
            raise ValueError(
                f"unknown key(s) in {args.config}: {', '.join(unknown)}"
            )
        merged.update(loaded)
        default_grid &= "grid" not in loaded
    for key in ("scheme", "N", "K", "alpha_max", "grid", "format"):
        v = getattr(args, key)
        if v is not None:
            merged[key] = v
    for key in ("N", "K", "alpha_max"):
        if type(merged[key]) is not int:  # not JSON true, not 20.7
            raise ValueError(f"{key} must be an integer, got {merged[key]!r}")
    grid = merged["grid"]
    if isinstance(grid, str):
        values = _parse_grid(grid)
    elif isinstance(grid, list) and all(
        type(v) is int or isinstance(v, str) for v in grid
    ):
        values = [as_frac(v) for v in grid]
    else:
        raise ValueError(
            f"grid must be a string or a list of integers and 'p/q' strings, "
            f"got {grid!r}"
        )
    try:
        return SweepSpec(
            scheme=merged["scheme"],
            N=merged["N"],
            K=merged["K"],
            alpha_max=merged["alpha_max"],
            grid=values,
            fmt=merged["format"],
        )
    except ValueError as e:
        # a value the user never typed: say where it came from
        if default_grid and str(e).startswith("grid value"):
            raise ValueError(f"{e} in the default grid {grid}; pass --grid") from None
        raise


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for dest, value in vars(args).items():
            if value == "":  # no default is "", so the flag was given empty
                raise ValueError(f"--{dest.replace('_', '-')} needs a value, got ''")
        if args.command == "simulate":
            return cmd_simulate(args, sys.stdout)
        if args.out is not None:  # written once the rows or the report are done
            _check_writable(args.out)
        if args.command == "sweep":
            spec = _sweep_spec(args)
            rows = cmd_sweep(spec)
            if args.out is not None:
                with open(args.out, "w") as fh:
                    _emit_rows(rows, spec.fmt, fh)
            else:
                _emit_rows(rows, spec.fmt, sys.stdout)
            if not rows:  # once the output is written, so a refusal stays alone
                print("warning: empty grid — no rows", file=sys.stderr)
            return 0
        if args.out is None:
            return cmd_verify(args.grid, sys.stdout)
        report = io.StringIO()
        code = cmd_verify(args.grid, report)
        with open(args.out, "w") as fh:
            fh.write(report.getvalue())
        return code
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
