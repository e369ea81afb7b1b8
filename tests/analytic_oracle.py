"""The Fraction-arithmetic analytic path, kept as the reference for the
integer one.

``lower_bound``, ``p_at_least_threshold``, ``rate_components`` and the
integer-t centralized rates below are what the package evaluated before it
compared the cuts and summed the closed forms in integers: every cut,
power and coefficient is its own ``Fraction``.  ``coding_gain_m``,
``choose_alpha`` and ``make_split_plan`` are the Fraction versions the
centralized rates were built on.  ``gap_ratio``, ``corollary_bounds`` and
the three certifications (``verify_gap_centralized``,
``verify_gap_decentralized``, ``verify_user_rate_bounds``) are the versions
that built a ``Fraction`` ratio, converse and bound at every grid point,
before the package compared them in integers.  They serve only as the
oracle the integer path in ``coopcache`` is checked against.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction as Frac
from typing import Iterable, Optional

from coopcache import (
    BoundReport,
    CentralizedGapReport,
    CentralizedRates,
    DecentralizedGapReport,
    GapPoint,
    RateComponents,
    SplitPlan,
    SystemConfig,
    centralized_delay,
    decentralized_delay,
    decentralized_gap_bound,
    f_ks,
    parallelism_regime,
    round_shapes,
)
from coopcache import lower_bound as package_lower_bound

# ---------------------------------------------------------------------------
# threshold and converse
# ---------------------------------------------------------------------------


def p_at_least_threshold(K: int, p: Frac) -> bool:
    """Exact test of p >= p_th(K), i.e. (K+1)(1-p)^(K-1) <= 1."""
    if K < 2:
        raise ValueError(f"threshold needs K >= 2, got {K}")
    return (K + 1) * (1 - p) ** (K - 1) <= 1


@functools.lru_cache(maxsize=None)
def p_threshold(K: int, width: Frac = Frac(1, 10**9)) -> tuple[Frac, Frac]:
    """Rational interval (lo, hi) of width < ``width`` bracketing p_th(K)."""
    if K < 2:
        raise ValueError(f"threshold needs K >= 2, got {K}")
    lo, hi = Frac(0), Frac(1)
    while hi - lo >= width:
        mid = (lo + hi) / 2
        if (K + 1) * (1 - mid) ** (K - 1) > 1:
            lo = mid
        else:
            hi = mid
    return lo, hi


def gap_regime(config: SystemConfig) -> str:
    """Theorem-branch label for the decentralized gap at this config."""
    side = ">=p_th" if p_at_least_threshold(config.K, config.p) else "<p_th"
    return f"{parallelism_regime(config)}/p{side}"


def lower_bound(config: SystemConfig) -> BoundReport:
    """Best cut-set lower bound on the optimal delay (exact rational).

    Inner terms may go negative for large M; the max is still taken, and the
    half-rate term keeps the bound nonnegative.
    """
    N, K, M = config.N, config.K, config.M
    half = (1 - M / N) / 2
    server_only = max(Frac(s) - Frac(K) * M / (N // s) for s in range(1, K + 1))
    coop = max(
        (Frac(s) - Frac(s) * M / (N // s)) / (1 + config.alpha_max)
        for s in range(1, K + 1)
    )
    lo, hi = p_threshold(K)
    return BoundReport(
        (half, server_only, coop),
        max(half, server_only, coop),
        gap_regime(config),
        float((lo + hi) / 2),
    )


# ---------------------------------------------------------------------------
# decentralized rate components
# ---------------------------------------------------------------------------


def rate_components(config: SystemConfig) -> RateComponents:
    """Exact R_empty, R_s, R_u for this config.

    R_empty = K q^K (content cached nowhere, q = 1-p);
    R_s = (q/p)(1 - q^K) (server delivering everything single-handedly;
    continuity value K at p = 0);
    R_u = per-link user rate: rounds below the parallelism knee contribute
    (1/alpha_max) * s*C(K,s)/(s-1) * p^(s-1) q^(K-s+1), rounds at or above
    it contribute K*C(K-1,s-1)/f(K,s) * p^(s-1) q^(K-s+1).
    """
    K, p = config.K, config.p
    q = 1 - p
    R_empty = K * q**K
    R_s = Frac(K) if p == 0 else (q / p) * (1 - q**K)
    knee = -(-K // config.alpha_max)  # ceil(K / alpha_max)
    R_u = Frac(0)
    for s in range(2, knee):
        R_u += (
            Frac(s * math.comb(K, s), s - 1)
            * p ** (s - 1)
            * q ** (K - s + 1)
            / config.alpha_max
        )
    for s in range(max(2, knee), K + 1):
        R_u += (
            Frac(K * math.comb(K - 1, s - 1), f_ks(K, s))
            * p ** (s - 1)
            * q ** (K - s + 1)
        )
    return RateComponents(R_empty, R_s, R_u)


def rate_numerators(config: SystemConfig) -> tuple[int, int, int, int]:
    """(E, S, U, D) with R_empty = E/D, R_s = S/D, R_u = U/D, the R_u terms
    summed over a running lcm of the rounds' D_s, one round at a time."""
    K = config.K
    a, b = config.p.numerator, config.p.denominator
    c, bK = b - a, b**K
    if a == 0:
        return K, K, 0, 1
    num, den = 0, 1
    for s, _, _, D in round_shapes(K, config.alpha_max):
        lcm = math.lcm(den, D)
        coef = s * math.comb(K, s) * (lcm // D)
        num = num * (lcm // den) + coef * a ** (s - 1) * c ** (K - s + 1)
        den = lcm
    return K * c**K * a * den, c * (bK - c**K) * den, num * a, a * den * bK


# ---------------------------------------------------------------------------
# centralized split and rates
# ---------------------------------------------------------------------------


def coding_gain_m(K: int, t: Frac, alpha: int) -> Frac:
    """Pico-files XOR-coded per user symbol: min(K//alpha - 1, t)."""
    return min(Frac(K // alpha - 1), Frac(t))


def _delay_denominator(K: int, t: Frac, alpha: int) -> Frac:
    return 1 + t + alpha * coding_gain_m(K, t, alpha)


def choose_alpha(config: SystemConfig) -> int:
    """Delay-minimising number of parallel groups, by exhaustive search.

    Minimises K(1-M/N) / (1 + t + alpha*min(K//alpha - 1, t)) over
    alpha in [1, alpha_max]; ties resolve to the smallest alpha.
    """
    K, t = config.K, config.t
    best, best_val = 1, _delay_denominator(K, t, 1)
    for alpha in range(2, config.alpha_max + 1):
        val = _delay_denominator(K, t, alpha)
        if val > best_val:
            best, best_val = alpha, val
    return best


def make_split_plan(
    config: SystemConfig,
    alpha: Optional[int] = None,
    server_share: Optional[Frac] = None,
) -> SplitPlan:
    """Build the delivery split for integer t; see ``SplitPlan``."""
    t = config.t
    if t.denominator != 1:
        raise ValueError(f"split plan needs integer t, got {t}")
    ti = int(t)
    if alpha is None:
        alpha = choose_alpha(config)
    if not (1 <= alpha <= config.alpha_max):
        raise ValueError(f"alpha={alpha} outside [1, alpha_max={config.alpha_max}]")
    m = coding_gain_m(config.K, Frac(ti), alpha)
    if server_share is None:
        server_share = Frac(1 + ti, int(alpha * m) + 1 + ti) if m > 0 else Frac(1)
    else:
        server_share = Frac(server_share)
    if m == 0:
        return SplitPlan(alpha, server_share, 1)
    per_link = Frac(config.K * math.comb(config.K - 1, ti), alpha * int(m))
    L1 = per_link.denominator  # smallest L1 with per_link*L1 an integer
    return SplitPlan(alpha, server_share, L1)


def _rates_integer_t(
    config: SystemConfig,
    ti: int,
    alpha: Optional[int],
    server_share: Optional[Frac],
) -> CentralizedRates:
    sub = SystemConfig(config.N, config.K, Frac(ti * config.N, config.K),
                       config.alpha_max, config.F)
    plan = make_split_plan(sub, alpha=alpha, server_share=server_share)
    K = config.K
    base = K * (1 - sub.p)
    lam = plan.server_share
    if ti == 0 and lam != 1:
        raise ValueError(
            f"server share {lam} at t=0: users cache nothing to send, so it must be 1"
        )
    R1 = lam * base / (1 + ti)
    m = coding_gain_m(K, Frac(ti), plan.alpha)
    R2 = (1 - lam) * base / (plan.alpha * m) if m > 0 else Frac(0)
    if base == 0:
        R1 = R2 = Frac(0)
    return CentralizedRates(R1, R2, max(R1, R2), plan.alpha, lam, plan.L1)


def centralized_rates(
    config: SystemConfig,
    alpha: Optional[int] = None,
    server_share: Optional[Frac] = None,
) -> CentralizedRates:
    """Delivery rates for the centralized scheme at this config.

    Integer t: exact formulas at the given (or delay-optimal) alpha.
    Non-integer t: memory sharing between the two adjacent integer-t
    placements — the file/caches are split so each sub-placement is run at
    its own optimum (or at the fixed alpha if given), and rates combine
    linearly.
    """
    t = config.t
    if t.denominator == 1:
        return _rates_integer_t(config, int(t), alpha, server_share)
    t0, t1 = int(t), int(t) + 1
    theta = t - t0  # fraction of memory/time on the upper placement
    lo = _rates_integer_t(config, t0, alpha, server_share)
    hi = _rates_integer_t(config, t1, alpha, server_share)
    mix = lambda a, b: (1 - theta) * a + theta * b
    return CentralizedRates(
        mix(lo.R1, hi.R1),
        mix(lo.R2, hi.R2),
        mix(lo.T, hi.T),
        alpha,
        None,
        None,
        interpolated=True,
    )


# ---------------------------------------------------------------------------
# closed-form R_u bounds and the grid certifications
# ---------------------------------------------------------------------------

# The certifications take the converse from the package's ``lower_bound``,
# as they did in the package; the Fraction ``lower_bound`` above is checked
# against it at every point of both shipped grids.


def gap_ratio(achievable: Frac, converse: Frac) -> Frac:
    """Achievable delay over the converse; 1 where both are 0 (M = N)."""
    if achievable == 0 and converse == 0:
        return Frac(1)
    return achievable / converse


def corollary_bounds(config: SystemConfig) -> tuple[str, object]:
    """Closed-form upper bound on R_u for the config's parallelism regime.

    Returns (regime, bound), the regime as ``parallelism_regime`` names it:

      shared:   (q/p)[1 - (5/2)Kpq^(K-1) - 4q^K + 3(1-q^(K+1))/((K+1)p)]
      flexible: (Kq/(K-1))[1 - q^(K-1) + (2/p)(1 - q^K - Kpq^(K-1))/(K-2)]
      middle:   shared/alpha_max + flexible

    K = 2 takes the shared form and label: the flexible form divides by
    K-2.  p = 0 returns math.inf (the bounds blow up as 1/p).
    """
    K, p, amax = config.K, config.p, config.alpha_max
    regime = "shared" if K == 2 else parallelism_regime(config)
    if p == 0:
        return regime, math.inf
    q = 1 - p

    def shared() -> Frac:
        return (q / p) * (
            1
            - Frac(5, 2) * K * p * q ** (K - 1)
            - 4 * q**K
            + 3 * (1 - q ** (K + 1)) / ((K + 1) * p)
        )

    def flexible() -> Frac:
        return (Frac(K) * q / (K - 1)) * (
            1 - q ** (K - 1) + Frac(2) / p * (1 - q**K - K * p * q ** (K - 1)) / (K - 2)
        )

    if regime == "shared":
        return regime, shared()
    if regime == "flexible":
        return regime, flexible()
    return regime, shared() / amax + flexible()


def verify_gap_centralized(grid: Iterable[SystemConfig]) -> CentralizedGapReport:
    """Check T_central/T_lower <= 31 on ``grid`` (and <= 2 where t >= K-1).

    Ratios are exact ``gap_ratio`` values.  Every offending config lands
    in ``violations``.
    """
    report = CentralizedGapReport()
    for config in grid:
        rep = package_lower_bound(config)
        point = GapPoint(
            config, gap_ratio(centralized_delay(config), rep.T_lower), rep.regime
        )
        report.points += 1
        if report.worst is None or point.ratio > report.worst.ratio:
            report.worst = point
        high_t = config.t >= config.K - 1
        if high_t and (
            report.worst_high_t is None or point.ratio > report.worst_high_t.ratio
        ):
            report.worst_high_t = point
        bound = report.HIGH_T_BOUND if high_t else report.BOUND
        if point.ratio > bound:
            report.violations.append(point)
    return report


def verify_gap_decentralized(grid: Iterable[SystemConfig]) -> DecentralizedGapReport:
    """Check T_decentral/T_lower against the branch bounds on ``grid``.

    Points whose ratio exceeds the bare min-form bound (but not the floored
    branch bound) are recorded in ``min_form_exceedances`` rather than
    failed.
    """
    report = DecentralizedGapReport()
    for config in grid:
        ratio = gap_ratio(
            decentralized_delay(config), package_lower_bound(config).T_lower
        )
        bound, branch, min_form = decentralized_gap_bound(config)
        point = GapPoint(config, ratio, branch)
        report.points += 1
        cur = report.worst_by_branch.get(branch)
        if cur is None or ratio > cur.ratio:
            report.worst_by_branch[branch] = point
        if ratio > bound:
            report.violations.append(point)
        elif min_form is not None and ratio > min_form:
            report.min_form_exceedances.append(point)
    return report


def verify_user_rate_bounds() -> tuple[Optional[tuple[SystemConfig, str]], bool]:
    """Check the closed-form R_u bounds on K in 4..12, p in 1/100..99/100.

    Returns (first_failure, shared_ok): the first (config, regime), scanning
    K, then alpha_max in {1, 2, floor(K/2)}, then p, whose bound falls below
    R_u (None if none does), and whether the shared-link bound stays below
    4*R_s at every alpha_max = 1 point.  Each config is built, bounded and
    rated once.
    """
    first_failure = None
    shared_ok = True
    for K in range(4, 13):
        for amax in sorted({1, 2, K // 2}):
            for i in range(1, 100):
                cfg = SystemConfig(N=K, K=K, M=Frac(i * K, 100), alpha_max=amax)
                regime, bound = corollary_bounds(cfg)
                rc = rate_components(cfg)
                if first_failure is None and bound < rc.R_u:
                    first_failure = (cfg, regime)
                if amax == 1 and not bound < 4 * rc.R_s:
                    shared_ok = False
    return first_failure, shared_ok
