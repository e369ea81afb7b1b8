"""Converse bound, cooperation/parallel gains, and numeric gap certification.

The cut-set style lower bound on the optimal delay combines three families
of cuts: the half-rate singleton cut (1/2)(1-M/N), server-only cuts
s - K*M/floor(N/s), and cooperative cuts (s - s*M/floor(N/s))/(1+alpha_max),
each maximised over the cut size s in 1..K; no achievable delay enters it.
The cuts are compared in integers: with M = a/b and q = floor(N/s), cut s
is (s*q*b - c*a)/(q*b), c = K (server-only) or s (cooperative).

Gap certification sweeps explicit config grids (the shipped default grid
lives in data/acceptance_grid.json) and checks the achievable-to-lower-bound
ratio against regime constants: 31 for the centralized scheme (2 on the
large-cache region t >= K-1), and for the decentralized scheme 24 on a
shared link, 6 above the memory threshold p_th with full parallelism, 77 in
the intermediate-parallelism regime.  Both take the ratio by one rule,
``gap_ratio``: 1 where the achievable delay and the converse are both 0
(only at M = N, as the half-rate cut is positive below it), else achievable
over converse.  p_th(K) is the unique root of
(K+1)(1-p)^(K-1) = 1; side-of-threshold tests are exact integer
comparisons, and the reported value is a bisection interval of width 1e-9.

Certification compares exact integers over integer points (N, K, a, b,
alpha_max), M = a/b in lowest terms: ``certify_*`` read a spec's grid from
private walkers in grid order, and ``verify_gap_*`` read configs into the
same points.  alpha_max enters the converse only as the cooperative cut's
1/(1+alpha_max), so each memory point's cut maxima are taken once and each
alpha_max costs one cross-multiplied comparison.  The centralized delay at
integer t is (K-t)/(1+t+alpha*m), with alpha read from one table of
choices per (K, t), built once in the call; the decentralized one comes
from the integer rate numerators, ratios follow ``gap_ratio`` and are
compared by cross-multiplying, and a strict > keeps the first of a tie as
the worst.
Only reported points (worst points, violations, min-form exceedances) and
one point per decentralized branch-bound key build a ``SystemConfig``.  The
closed-form R_u bounds are checked the same way against R_u and 4*R_s.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction as Frac
from importlib import resources
from typing import Iterable, Iterator, Optional, Union

from .closed_forms import (
    _alpha_table,
    _corollary_ints,
    _delay_ints,
    _rate_ints,
    centralized_delay,
    choose_alpha,
    parallelism_regime,
)
from .config import SystemConfig, as_frac

# ---------------------------------------------------------------------------
# threshold p_th and friends
# ---------------------------------------------------------------------------


def p_at_least_threshold(K: int, p: Frac) -> bool:
    """Exact test of p >= p_th(K): (K+1)(b-a)^(K-1) <= b^(K-1), p = a/b."""
    if K < 2:
        raise ValueError(f"threshold needs K >= 2, got {K}")
    return _at_least_threshold(K, p.numerator, p.denominator)


def _at_least_threshold(K: int, a: int, b: int) -> bool:
    return (K + 1) * (b - a) ** (K - 1) <= b ** (K - 1)


P_TH_WIDTH = Frac(1, 10**9)


@functools.lru_cache(maxsize=None)
def p_threshold(K: int) -> tuple[Frac, Frac]:
    """Rational interval (lo, hi) of width < ``P_TH_WIDTH`` bracketing p_th(K)."""
    if K < 2:
        raise ValueError(f"threshold needs K >= 2, got {K}")
    lo, hi = Frac(0), Frac(1)
    while hi - lo >= P_TH_WIDTH:
        mid = (lo + hi) / 2
        if p_at_least_threshold(K, mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


@functools.lru_cache(maxsize=None)
def _p_th_midpoint(K: int) -> float:
    return float(sum(p_threshold(K)) / 2)


# ---------------------------------------------------------------------------
# lower bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """Converse evaluation at a single config; no achievable delay.

    ``cutset_terms`` are the three cut-family maxima (half-rate, server-only,
    cooperative); ``T_lower`` is their overall max; ``regime`` names the
    decentralized gap branch that applies to (K, alpha_max, p); ``p_th`` is
    a float approximation of the memory threshold.  A gap is
    ``gap_ratio(achievable, T_lower)``.
    """

    cutset_terms: tuple[Frac, Frac, Frac]
    T_lower: Frac
    regime: str
    p_th: float


def gap_regime(config: SystemConfig) -> str:
    """Theorem-branch label for the decentralized gap at this config."""
    side = ">=p_th" if p_at_least_threshold(config.K, config.p) else "<p_th"
    return f"{parallelism_regime(config)}/p{side}"


def gap_ratio(achievable: Frac, converse: Frac) -> Frac:
    """Achievable delay over the converse; 1 where both are 0 (M = N)."""
    return Frac(*_ratio(*achievable.as_integer_ratio(), *converse.as_integer_ratio()))


def _ratio(an: int, ad: int, cn: int, cd: int) -> tuple[int, int]:
    """``gap_ratio`` of achievable an/ad over converse cn/cd (positive
    denominators) as (numerator, denominator); the denominator is positive
    where the converse is, as it is at every config."""
    if cn == 0:
        if an == 0:
            return 1, 1
        raise ZeroDivisionError(f"achievable delay {an}/{ad} over a zero converse")
    return an * cd, ad * cn


def _cuts(N: int, K: int, a: int, b: int) -> tuple[tuple[int, int], ...]:
    """The half-rate, server-only and cooperative cut maxima at M = a/b, each
    as (numerator, positive denominator); the last without 1/(1+alpha_max)."""
    # each family's best cut so far as (numerator, denominator), from s = 1
    (sn, sd), (cn, cd) = (N * b - K * a, N * b), (N * b - a, N * b)
    for s in range(2, K + 1):
        d = (N // s) * b
        if (s * d - K * a) * sd > sn * d:
            sn, sd = s * d - K * a, d
        if s * (d - a) * cd > cn * d:
            cn, cd = s * (d - a), d
    return (N * b - a, 2 * N * b), (sn, sd), (cn, cd)


def _shared_cuts(N: int, K: int, a: int, b: int) -> tuple[int, int, int, int]:
    """(xn, xd, cn, cd) at M = a/b, shared by every alpha_max: the larger of
    the half-rate and server-only maxima, and the bare cooperative one."""
    (xn, xd), (sn, sd), (cn, cd) = _cuts(N, K, a, b)
    if sn * xd > xn * sd:
        xn, xd = sn, sd
    return xn, xd, cn, cd


def _converse(xn: int, xd: int, cn: int, cd: int, alpha_max: int) -> tuple[int, int]:
    """T_lower from ``_shared_cuts`` at ``alpha_max``, as (numerator,
    positive denominator)."""
    cd *= 1 + alpha_max
    return (cn, cd) if cn * xd > xn * cd else (xn, xd)


def lower_bound(config: SystemConfig) -> BoundReport:
    """Best cut-set lower bound on the optimal delay (exact rational).

    Inner terms may go negative for large M; the max is still taken, and the
    half-rate term keeps the bound nonnegative.
    """
    N, K, M = config.N, config.K, config.M
    half, server, (cn, cd) = _cuts(N, K, M.numerator, M.denominator)
    terms = (Frac(*half), Frac(*server), Frac(cn, cd * (1 + config.alpha_max)))
    return BoundReport(terms, max(terms), gap_regime(config), _p_th_midpoint(K))


# ---------------------------------------------------------------------------
# baselines and centralized gains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Baselines:
    """Reference delays: server-only multicast and serverless device-to-device."""

    server_only: Frac
    d2d_only: Frac


def baselines(config: SystemConfig) -> Baselines:
    """K(1-M/N)/(1+t) (no cooperation) and (N/M)(1-M/N) (no server)."""
    if config.M == 0:
        raise ValueError("device-to-device baseline undefined at M = 0")
    one_minus = 1 - config.M / config.N
    return Baselines(
        Frac(config.K) * one_minus / (1 + config.t),
        Frac(config.N) / config.M * one_minus,
    )


def centralized_gains(
    config: SystemConfig, alpha: Union[int, Frac, None] = None
) -> tuple[Frac, Frac]:
    """(G_c, G_p): delay reduction factors versus the two baselines.

    G_c = 1/(1 + (alpha/(1+t))*m) against the no-cooperation scheme and
    G_p = 1/(1 + 1/t + (alpha/t)*m) against the serverless scheme, with
    m = min(floor(K/alpha)-1, t).  ``alpha`` may be a rational (the relaxed
    optimum K/(t+1)); it defaults to the best integer choice.  G_p is
    undefined at t = 0.
    """
    t = config.t
    if t.denominator != 1:
        raise ValueError(f"gains need integer t, got {t}")
    if alpha is None:
        alpha = choose_alpha(config)
    alpha = as_frac(alpha)
    if not (1 <= alpha <= config.alpha_max):
        raise ValueError(f"alpha {alpha} outside [1, {config.alpha_max}]")
    m = min(Frac(math.floor(Frac(config.K) / alpha) - 1), t)
    G_c = 1 / (1 + alpha * m / (1 + t))
    if t == 0:
        raise ValueError("parallel gain undefined at t = 0")
    G_p = 1 / (1 + Frac(1) / t + alpha * m / t)
    return G_c, G_p


# ---------------------------------------------------------------------------
# grid verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapPoint:
    config: SystemConfig
    ratio: Frac
    regime: str


@dataclass
class CentralizedGapReport:
    """Worst achievable/converse ratios over a centralized grid."""

    worst: Optional[GapPoint] = None
    worst_high_t: Optional[GapPoint] = None  # restricted to t >= K-1
    violations: list[GapPoint] = field(default_factory=list)
    points: int = 0

    BOUND = Frac(31)
    HIGH_T_BOUND = Frac(2)

    @property
    def passed(self) -> bool:
        return self.points > 0 and not self.violations


# a grid point in integers: (N, K, a, b, alpha_max), M = a/b in lowest terms
_Point = tuple[int, int, int, int, int]


def _config(point: _Point) -> SystemConfig:
    N, K, a, b, amax = point
    return SystemConfig(N=N, K=K, M=Frac(a, b), alpha_max=amax)


def _points(grid: Iterable[SystemConfig]) -> Iterator[_Point]:
    return ((c.N, c.K, c.M.numerator, c.M.denominator, c.alpha_max) for c in grid)


def _central_delay(
    N: int, K: int, a: int, b: int, amax: int, tables: dict[tuple[int, int], list[int]]
) -> tuple[int, int]:
    """``centralized_delay`` at M = a/b as (numerator, positive denominator);
    at integer t, (K-t)/(1+t+alpha*m) with m = min(K//alpha - 1, t).  The
    choice of alpha at integer t comes from ``tables``, which holds one
    ``_alpha_table`` per (K, t) and is filled here on first use."""
    tn, td = K * a, N * b
    if tn % td:
        T = centralized_delay(_config((N, K, a, b, amax)))
        return T.numerator, T.denominator
    t = tn // td
    best = tables.get((K, t))
    if best is None:
        best = tables[K, t] = _alpha_table(K, t, 1)
    alpha = best[amax]
    return K - t, 1 + t + alpha * min(K // alpha - 1, t)


def verify_gap_centralized(grid: Iterable[SystemConfig]) -> CentralizedGapReport:
    """Check T_central/T_lower <= BOUND = 31 on ``grid`` (and <= HIGH_T_BOUND
    = 2 where t >= K-1).

    Ratios are exact ``gap_ratio`` values, compared in integers; the worst
    point (the first of a tie) and every offending config are reported,
    each config rebuilt from its (N, K, M, alpha_max).
    """
    return _certify_centralized(_points(grid))


def certify_centralized(spec: Optional[dict] = None) -> CentralizedGapReport:
    """``verify_gap_centralized`` over the spec's centralized gap grid, read
    as integer points: only the reported points build a config."""
    return _certify_centralized(_central_points(spec))


def _certify_centralized(points: Iterable[_Point]) -> CentralizedGapReport:
    report = CentralizedGapReport()
    bn, bd = report.BOUND.numerator, report.BOUND.denominator
    hn, hd = report.HIGH_T_BOUND.numerator, report.HIGH_T_BOUND.denominator
    worst = worst_high = None  # (ratio numerator, denominator, point)
    memory = None  # the (N, K, a, b) whose cuts ``shared`` holds
    tables: dict[tuple[int, int], list[int]] = {}  # (K, t) -> _alpha_table
    for point in points:
        N, K, a, b, amax = point
        if memory != (N, K, a, b):
            memory = N, K, a, b
            shared = _shared_cuts(N, K, a, b)
            high = K * a >= (K - 1) * N * b  # t >= K-1
        rn, rd = _ratio(*_central_delay(*point, tables), *_converse(*shared, amax))
        report.points += 1
        if worst is None or rn * worst[1] > worst[0] * rd:
            worst = rn, rd, point
        if high:
            if worst_high is None or rn * worst_high[1] > worst_high[0] * rd:
                worst_high = rn, rd, point
            if rn * hd > hn * rd:
                report.violations.append(_gap_point(rn, rd, point))
        elif rn * bd > bn * rd:
            report.violations.append(_gap_point(rn, rd, point))
    if worst is not None:
        report.worst = _gap_point(*worst)
    if worst_high is not None:
        report.worst_high_t = _gap_point(*worst_high)
    return report


def _gap_point(
    rn: int, rd: int, point: _Point, regime: Optional[str] = None
) -> GapPoint:
    config = _config(point)
    return GapPoint(config, Frac(rn, rd), regime or gap_regime(config))


def decentralized_gap_bound(config: SystemConfig) -> tuple[Frac, str, Optional[Frac]]:
    """(bound, branch label, min_form) for the decentralized gap.

    Branch by parallelism: alpha_max = floor(K/2) takes the tight
    full-parallelism bound (6 above threshold, max{6, 2K(2K/(2K+1))^(K-1)}
    below), alpha_max = 1 the shared-link constant 24, anything between the
    intermediate constant 77 (below threshold relaxed to
    max{77, min_form} with min_form = min{12(1+alpha_max),
    2K(2K/(2K+1))^(K-1)}).  ``min_form`` is that bare term at intermediate
    below-threshold points and None elsewhere.
    """
    branch = gap_regime(config)
    kind = parallelism_regime(config)
    K = config.K
    if kind == "shared":
        return Frac(24), branch, None
    if branch.endswith(">=p_th"):
        return Frac(6 if kind == "flexible" else 77), branch, None
    growth = 2 * K * Frac(2 * K, 2 * K + 1) ** (K - 1)
    if kind == "flexible":
        return max(Frac(6), growth), branch, None
    min_form = min(Frac(12) * (1 + config.alpha_max), growth)
    return max(Frac(77), min_form), branch, min_form


@dataclass
class DecentralizedGapReport:
    """Worst decentralized achievable/converse ratio per gap branch."""

    worst_by_branch: dict[str, GapPoint] = field(default_factory=dict)
    violations: list[GapPoint] = field(default_factory=list)
    min_form_exceedances: list[GapPoint] = field(default_factory=list)
    points: int = 0

    @property
    def passed(self) -> bool:
        return self.points > 0 and not self.violations


def verify_gap_decentralized(grid: Iterable[SystemConfig]) -> DecentralizedGapReport:
    """Check T_decentral/T_lower against the branch bounds on ``grid``.

    Points whose ratio exceeds the bare min-form bound (but not the floored
    branch bound) are recorded in ``min_form_exceedances`` rather than
    failed.  Ratios and bounds are compared in integers; the branch bound
    depends only on (K, alpha_max, side of p_th) and is looked up once per
    such key in this call.  Reported configs are rebuilt from their
    (N, K, M, alpha_max).
    """
    return _certify_decentralized(_points(grid))


def certify_decentralized(spec: Optional[dict] = None) -> DecentralizedGapReport:
    """``verify_gap_decentralized`` over the spec's decentralized gap grid,
    read as integer points: only the reported points and one point per
    branch-bound key build a config."""
    return _certify_decentralized(_decentral_points(spec))


def _certify_decentralized(points: Iterable[_Point]) -> DecentralizedGapReport:
    report = DecentralizedGapReport()
    branch_bounds: dict[tuple[int, int, bool], tuple] = {}
    worst: dict[str, tuple[int, int, _Point]] = {}
    memory, memory_K = {}, None  # (N, a, b) -> (pa, pb, side, cuts) at memory_K
    for point in points:
        N, K, a, b, amax = point
        if K != memory_K:
            memory, memory_K = {}, K
        shared = memory.get((N, a, b))
        if shared is None:
            g = math.gcd(a, N * b)
            pa, pb = a // g, N * b // g  # p = M/N in lowest terms
            shared = memory[N, a, b] = (
                pa, pb, _at_least_threshold(K, pa, pb), _shared_cuts(N, K, a, b)
            )
        pa, pb, side, cuts = shared
        key = (K, amax, side)
        if key not in branch_bounds:
            bound, branch, min_form = decentralized_gap_bound(_config(point))
            if min_form is not None:
                min_form = min_form.as_integer_ratio()
            branch_bounds[key] = bound.as_integer_ratio(), branch, min_form
        (bn, bd), branch, min_form = branch_bounds[key]
        rn, rd = _ratio(*_delay_ints(K, amax, pa, pb), *_converse(*cuts, amax))
        report.points += 1
        cur = worst.get(branch)
        if cur is None or rn * cur[1] > cur[0] * rd:
            worst[branch] = rn, rd, point
        if rn * bd > bn * rd:
            report.violations.append(_gap_point(rn, rd, point, branch))
        elif min_form is not None and rn * min_form[1] > min_form[0] * rd:
            report.min_form_exceedances.append(_gap_point(rn, rd, point, branch))
    report.worst_by_branch = {
        branch: _gap_point(rn, rd, point, branch)
        for branch, (rn, rd, point) in worst.items()
    }
    return report


def verify_user_rate_bounds() -> tuple[Optional[tuple[SystemConfig, str]], bool]:
    """Check the closed-form R_u bounds on K in 4..12, p in 1/100..99/100.

    Returns (first_failure, shared_ok): the first (config, regime), scanning
    K, then alpha_max in {1, 2, floor(K/2)}, then p, whose bound falls below
    R_u (None if none does), and whether the shared-link bound stays below
    4*R_s at every alpha_max = 1 point.  Bounds and rates are compared in
    integers over their own positive denominators; only a failing point
    builds its config.
    """
    first_failure = None
    shared_ok = True
    for K in range(4, 13):
        for amax in sorted({1, 2, K // 2}):
            for i in range(1, 100):
                g = math.gcd(i, 100)
                a, b = i // g, 100 // g
                regime, (cn, cd) = _corollary_ints(K, amax, a, b)
                _, S, U, D = _rate_ints(K, amax, a, b)
                if first_failure is None and cn * D < U * cd:
                    cfg = SystemConfig(N=K, K=K, M=Frac(i * K, 100), alpha_max=amax)
                    first_failure = (cfg, regime)
                if amax == 1 and not cn * D < 4 * S * cd:
                    shared_ok = False
    return first_failure, shared_ok


# ---------------------------------------------------------------------------
# shipped default grids
# ---------------------------------------------------------------------------


# the keys each section of a grid spec must hold
_GRID_KEYS = {
    "centralized_gap": ("K", "N_max_multiple", "alpha_max_choices"),
    "decentralized_gap": ("K", "p_grid_denominator"),
}


def load_grid_spec(path: Optional[str] = None) -> dict:
    """Grid description, from ``path`` or the packaged default.

    A file that is not a JSON object, or that lacks a section (an object)
    or one of its keys, is refused with a ValueError naming what is
    missing; so is a value of the wrong type, naming its key: ``K`` is two
    integers, the first at least 2 (a config has two users),
    ``N_max_multiple`` and ``p_grid_denominator`` are integers,
    ``alpha_max_choices`` is a list of integers and "half".
    """
    if path is None:
        packaged = resources.files("coopcache").joinpath("data/acceptance_grid.json")
        return json.loads(packaged.read_text())
    with open(path) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError(f"{path} must hold a JSON object")
    missing = []
    for section, keys in _GRID_KEYS.items():
        if not isinstance(spec.get(section), dict):
            missing.append(section)
        else:
            missing += [f"{section}.{key}" for key in keys if key not in spec[section]]
    if missing:
        raise ValueError(f"grid spec {path} lacks {', '.join(missing)}")
    for section, keys in _GRID_KEYS.items():
        for key in keys:
            v = spec[section][key]
            if key == "K":
                want = "a list of two integers"
                ok = isinstance(v, list) and len(v) == 2
                ok = ok and all(type(x) is int for x in v)
            elif key == "alpha_max_choices":
                want = 'a list of integers and "half"'
                ok = isinstance(v, list)
                ok = ok and all(type(x) is int or x == "half" for x in v)
            else:
                want, ok = "an integer", type(v) is int  # not JSON true
            if not ok:
                raise ValueError(
                    f"grid spec {path}: {section}.{key} must be {want}, got {v!r}"
                )
        if spec[section]["K"][0] < 2:
            raise ValueError(
                f"grid spec {path}: {section}.K must start at 2 or above, "
                f"got {spec[section]['K']!r}"
            )
    return spec


def _alpha_max_choices(K: int, choices: list) -> list[int]:
    values = {K // 2 if c == "half" else int(c) for c in choices}
    return sorted(v for v in values if 1 <= v <= max(1, K // 2))


def gap_grid_sizes(spec: dict) -> tuple[int, int]:
    """Point counts of the centralized and decentralized gap grids, in
    closed form: nothing is enumerated.  Both K ranges start at 2 or above
    (``load_grid_spec``)."""
    cen, dec = spec["centralized_gap"], spec["decentralized_gap"]
    n_mult, choices = cen["N_max_multiple"], cen["alpha_max_choices"]

    def pairs(lo: int, hi: int) -> int:
        # (N, t) pairs over K in lo..hi: the sum of K*((n_mult-1)*K + 1)
        f = lambda n: (n_mult - 1) * n * (n + 1) * (2 * n + 1) // 6 + n * (n + 1) // 2
        return f(hi) - f(lo - 1) if hi >= lo and n_mult >= 1 else 0

    lo, hi = cen["K"]
    ints = {c for c in choices if c != "half" and c >= 1}
    # alpha_max = c is valid where K >= 2c, "half" where K//2 is no such c
    central = sum(pairs(max(lo, 2 * c), hi) for c in ints)
    if "half" in choices:
        central += pairs(lo, hi)
        central -= sum(pairs(max(lo, 2 * c), min(hi, 2 * c + 1)) for c in ints)
    lo, hi = dec["K"]
    halves = lambda n: (n // 2) * ((n + 1) // 2)  # sum of K//2 over K in 0..n
    widths = halves(hi) - halves(lo - 1) if hi >= lo else 0
    return central, widths * max(0, dec["p_grid_denominator"] - 1)


def _central_points(spec: Optional[dict] = None) -> Iterator[_Point]:
    """Points of the centralized gap sweep, every integer t, in the order
    K, N, t, alpha_max."""
    spec = (load_grid_spec() if spec is None else spec)["centralized_gap"]
    K_lo, K_hi = spec["K"]
    for K in range(K_lo, K_hi + 1):
        choices = _alpha_max_choices(K, spec["alpha_max_choices"])
        for N in range(K, spec["N_max_multiple"] * K + 1):
            for t in range(1, K + 1):
                g = math.gcd(t * N, K)
                for amax in choices:
                    yield N, K, t * N // g, K // g, amax


def _decentral_points(spec: Optional[dict] = None) -> Iterator[_Point]:
    """Points of the decentralized gap sweep, N = K and p = i/den, in the
    order K, alpha_max, i."""
    spec = (load_grid_spec() if spec is None else spec)["decentralized_gap"]
    K_lo, K_hi = spec["K"]
    den = spec["p_grid_denominator"]
    for K in range(K_lo, K_hi + 1):
        for amax in range(1, max(1, K // 2) + 1):
            for i in range(1, den):
                g = math.gcd(i * K, den)
                yield K, K, i * K // g, den // g, amax


def centralized_gap_grid(spec: Optional[dict] = None) -> Iterator[SystemConfig]:
    """Configs for the centralized gap sweep: all integer-t memory points."""
    return map(_config, _central_points(spec))


def decentralized_gap_grid(spec: Optional[dict] = None) -> Iterator[SystemConfig]:
    """Configs for the decentralized gap sweep: uniform interior p grid."""
    return map(_config, _decentral_points(spec))
