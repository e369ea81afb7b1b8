"""The Fraction-arithmetic analytic path, kept as the reference for the
integer one.

``lower_bound``, ``p_at_least_threshold``, ``rate_components`` and the
integer-t centralized rates below are what the package evaluated before it
compared the cuts and summed the closed forms in integers: every cut,
power and coefficient is its own ``Fraction``.  ``coding_gain_m``,
``choose_alpha`` and ``make_split_plan`` are the Fraction versions the
centralized rates were built on.  They serve only as the oracle the integer path in ``coopcache``
is checked against.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction as Frac
from typing import Optional

from coopcache import (
    BoundReport,
    CentralizedRates,
    RateComponents,
    SplitPlan,
    SystemConfig,
    f_ks,
    parallelism_regime,
)

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
