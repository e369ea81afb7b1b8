"""Closed-form rates of both schemes, with no numpy.

Centralized (integer t = K*M/N, memory sharing between the adjacent
integer points otherwise): the delay-minimising group count alpha, the
server/user split and the rates R1, R2 and T = max(R1, R2) that
``centralized`` derives and its scheduler realises exactly.

Decentralized (p = M/N): the round shapes of ``decentralized``, the
component rates R_empty, R_s and R_u in integers over one common
denominator, the balanced allocation and delay, the cooperation gains,
the parallelism regime and the corollary bounds on R_u.

With ``config`` this is the analytic layer that ``bounds`` and ``cli``
build on; it imports no numpy and no scheduler.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction as Frac
from typing import Optional

from .config import SystemConfig

# ---------------------------------------------------------------------------
# centralized: integer t, parallelism degree and the server/user split
# ---------------------------------------------------------------------------


def _integer_t(config: SystemConfig) -> int:
    t = config.t
    if t.denominator != 1:
        raise ValueError(
            f"centralized placement needs integer t=K*M/N, got t={t}; "
            "use memory sharing (rate interpolation) for this M"
        )
    return int(t)


def _alpha_table(K: int, tn: int, td: int) -> list[int]:
    """best[alpha_max], the delay-minimising alpha in 1..alpha_max at
    t = tn/td, for every alpha_max in 1..K//2 (best[0] is unused)."""
    # td times the delay denominator is td + tn + alpha*min((K//alpha - 1)*td,
    # tn); one running argmax serves every prefix, and > keeps the first
    # alpha of a tie
    best, top, val = [1], 1, -1
    for alpha in range(1, K // 2 + 1):
        v = alpha * min((K // alpha - 1) * td, tn)
        if v > val:
            top, val = alpha, v
        best.append(top)
    return best


def choose_alpha(config: SystemConfig) -> int:
    """Delay-minimising number of parallel groups, by exhaustive search.

    Minimises K(1-M/N) / (1 + t + alpha*min(K//alpha - 1, t)) over
    alpha in [1, alpha_max]; ties resolve to the smallest alpha.
    """
    t = config.t
    return _alpha_table(config.K, t.numerator, t.denominator)[config.alpha_max]


@dataclass(frozen=True)
class SplitPlan:
    """Server/user delivery split: parallelism alpha, server share, layers.

    ``server_share`` (lambda) is the fraction of every needed subfile the
    server delivers; the rest is cut into L1 pico-files per subfile for user
    delivery.  The default lambda = (1+t) / (alpha*m + 1 + t) balances the
    two links; an explicit override (kept in [0,1]) is allowed for running
    deliberately unbalanced schedules.  L1 is the smallest layer count
    making the per-link user symbol count K*C(K-1,t)*L1/(alpha*m) integral.
    """

    alpha: int
    server_share: Frac
    L1: int

    def __post_init__(self) -> None:
        if not (0 <= self.server_share <= 1):
            raise ValueError(f"server share {self.server_share} outside [0, 1]")
        if self.L1 < 1:
            raise ValueError(f"layer count L1={self.L1} must be positive")


def _split(
    K: int, t: int, alpha_max: int, alpha: Optional[int], server_share: Optional[Frac]
) -> tuple[int, int, Frac, int]:
    """(alpha, m, lambda, L1) at integer t, range-checked; see ``SplitPlan``."""
    if alpha is None:
        alpha = _alpha_table(K, t, 1)[alpha_max]
    if not (1 <= alpha <= alpha_max):
        raise ValueError(f"alpha={alpha} outside [1, alpha_max={alpha_max}]")
    m = min(K // alpha - 1, t)
    # the default balances the two links; it is 1 at m = 0
    lam = Frac(1 + t, alpha * m + 1 + t) if server_share is None else Frac(server_share)
    if not (0 <= lam <= 1):
        raise ValueError(f"server share {lam} outside [0, 1]")
    # smallest L1 with K*C(K-1,t)*L1/(alpha*m) an integer
    L1 = alpha * m // math.gcd(K * math.comb(K - 1, t), alpha * m) if m else 1
    return alpha, m, lam, L1


def check_user_share(t: int, server_share: Frac) -> None:
    """Refuse a server share other than 1 at integer t = 0: the closed forms
    would put R2 = 0, but no user caches anything to send."""
    if t == 0 and server_share != 1:
        raise ValueError(
            f"server share {server_share} at t=0: users cache nothing to "
            "send, so it must be 1"
        )


def make_split_plan(
    config: SystemConfig,
    alpha: Optional[int] = None,
    server_share: Optional[Frac] = None,
) -> SplitPlan:
    """Build the delivery split for integer t; see ``SplitPlan``."""
    alpha, _, lam, L1 = _split(
        config.K, _integer_t(config), config.alpha_max, alpha, server_share
    )
    return SplitPlan(alpha, lam, L1)


# ---------------------------------------------------------------------------
# centralized: closed-form rates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CentralizedRates:
    """Closed-form delivery rates: server R1, per-link user R2, delay T."""

    R1: Frac
    R2: Frac
    T: Frac
    alpha: Optional[int]
    server_share: Optional[Frac]
    L1: Optional[int]
    interpolated: bool = False


def _rates_integer_t(
    config: SystemConfig,
    ti: int,
    alpha: Optional[int],
    server_share: Optional[Frac],
) -> CentralizedRates:
    K = config.K
    alpha, m, lam, L1 = _split(K, ti, config.alpha_max, alpha, server_share)
    check_user_share(ti, lam)
    # R1 = lambda*K(1-t/K)/(1+t) and R2 = (1-lambda)*K(1-t/K)/(alpha*m),
    # with lambda = ln/ld and K(1-t/K) = K-t
    ln, ld = lam.numerator, lam.denominator
    R1 = Frac(ln * (K - ti), ld * (1 + ti))
    R2 = Frac((ld - ln) * (K - ti), ld * alpha * m) if m else Frac(0)
    return CentralizedRates(R1, R2, max(R1, R2), alpha, lam, L1)


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


def centralized_delay(config: SystemConfig, alpha: Optional[int] = None) -> Frac:
    """Delivery delay T = max(R1, R2) at balanced split (convenience)."""
    return centralized_rates(config, alpha=alpha).T


# ---------------------------------------------------------------------------
# decentralized: rate components and the server/user allocation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateComponents:
    """Load building blocks: uncached, server-only, and user-only rates."""

    R_empty: Frac
    R_s: Frac
    R_u: Frac


def round_shapes(K: int, alpha_max: int) -> list[tuple[int, int, int, int]]:
    """(s, regular, remainder, D) for each round s = 2..K (module docstring).

    regular = min(floor(K/s), alpha_max) is the number of full s-groups;
    remainder is r = K mod s when r >= 2 and floor(K/s) < alpha_max, else 0;
    D = (s-1)*regular + max(remainder-1, 0) is the number of fragments a
    partition of the round codes.
    """
    shapes = []
    for s in range(2, K + 1):
        q, r = divmod(K, s)
        if q >= alpha_max:
            shapes.append((s, alpha_max, 0, (s - 1) * alpha_max))
        elif r < 2:
            shapes.append((s, q, 0, (s - 1) * q))
        else:
            shapes.append((s, q, r, (s - 1) * q + r - 1))
    return shapes


def f_ks(K: int, s: int) -> int:
    """Round s's D from ``round_shapes`` with no cap on parallel groups:
    floor(K/s)*(s-1) if K mod s < 2, else K - 1 - floor(K/s)."""
    if not (2 <= s <= K):
        raise ValueError(f"need 2 <= s <= K, got K={K}, s={s}")
    return round_shapes(K, K)[s - 2][3]


@functools.lru_cache(maxsize=None)
def _round_coefficients(
    K: int, alpha_max: int
) -> tuple[tuple[tuple[int, int], ...], int]:
    """((s, s*C(K,s) * den/D_s) per round, den): the R_u terms' integer
    coefficients over den, the lcm of the rounds' D_s (``round_shapes``)."""
    shapes = round_shapes(K, alpha_max)
    den = math.lcm(*(D for _, _, _, D in shapes))
    return tuple((s, s * math.comb(K, s) * (den // D)) for s, _, _, D in shapes), den


def _rate_ints(K: int, alpha_max: int, a: int, b: int) -> tuple[int, int, int, int]:
    """:func:`_rate_numerators` at p = a/b, in lowest terms.

    The R_u sum of coef_s a^(s-1) c^(K-s+1) over s = 2..K is one
    homogeneous Horner pass from s = K down: acc = acc*a + coef_s c^(K-s)
    leaves sum coef_s a^(s-2) c^(K-s), times a*c; c^K is the last power
    times c.
    """
    if a == 0:
        return K, K, 0, 1
    c, bK = b - a, b**K
    coefs, den = _round_coefficients(K, alpha_max)
    acc, cp = 0, 1
    for _, coef in reversed(coefs):
        acc = acc * a + coef * cp
        cp *= c
    cK = cp * c
    return K * cK * a * den, c * (bK - cK) * den, acc * a * c * a, a * den * bK


def _rate_numerators(config: SystemConfig) -> tuple[int, int, int, int]:
    """R_empty, R_s, R_u of :func:`rate_components` as integer numerators
    over one common denominator: (E, S, U, D) with R_empty = E/D and so on.

    In integers, with p = a/b and c = b - a: R_empty = K c^K / b^K, R_s =
    c (b^K - c^K) / (a b^K), and the R_u terms s*C(K,s) * a^(s-1)
    c^(K-s+1) / (D_s b^K) are summed over the lcm of the rounds' D_s.  At
    p = 0, R_s takes its continuity value K and R_u is 0.
    """
    p = config.p
    return _rate_ints(config.K, config.alpha_max, p.numerator, p.denominator)


def _balanced_delay(E: int, S: int, U: int, D: int) -> Optional[tuple[int, int]]:
    """The balance rule of :func:`decentralized_rates` on (E, S, U, D): None
    when lambda is 0 (U < E, or S + U = E), where T = R_empty = E/D; else
    T = S*U / (D (S + U - E)) as (numerator, positive denominator)."""
    if U < E or S + U == E:
        return None
    return S * U, D * (S + U - E)


def rate_components(config: SystemConfig) -> RateComponents:
    """Exact R_empty, R_s, R_u for this config.

    R_empty = K q^K (content cached nowhere, q = 1-p);
    R_s = (q/p)(1 - q^K) (server delivering everything single-handedly;
    continuity value K at p = 0);
    R_u = per-link user rate: round s contributes s*C(K,s)/D *
    p^(s-1) q^(K-s+1), with D the fragments a partition codes
    (``round_shapes``).  Computed in integers (:func:`_rate_numerators`).
    """
    E, S, U, D = _rate_numerators(config)
    return RateComponents(Frac(E, D), Frac(S, D), Frac(U, D))


@dataclass(frozen=True)
class AllocationPlan:
    """Server/user traffic split for decentralized delivery.

    ``server_share`` (lambda) and the component rates are those of
    :func:`decentralized_rates`.  ``lambda2_by_round`` carries the u1/u2
    intra-round split for each round that has a remainder group.
    """

    server_share: Frac
    lambda2_by_round: dict[int, Frac]
    R_empty: Frac
    R_s: Frac
    R_u: Frac

    def __post_init__(self) -> None:
        if not (0 <= self.server_share <= 1):
            raise ValueError(f"server share {self.server_share} outside [0, 1]")
        for s, l2 in self.lambda2_by_round.items():
            if not (0 <= l2 <= 1):
                raise ValueError(f"round {s} split {l2} outside [0, 1]")


def allocation_plan(config: SystemConfig) -> AllocationPlan:
    rates = decentralized_rates(config)
    rc = rates.components
    lam2 = {
        s: Frac((s - 1) * regular, D)
        for s, regular, remainder, D in round_shapes(config.K, config.alpha_max)
        if remainder
    }
    return AllocationPlan(rates.server_share, lam2, rc.R_empty, rc.R_s, rc.R_u)


@dataclass(frozen=True)
class DecentralizedRates:
    """Closed-form rates.  R1/R2 are the balanced link loads the schedule
    realises; T is the headline delay formula (see module docstring)."""

    R1: Frac
    R2: Frac
    T: Frac
    server_share: Frac
    components: RateComponents


def decentralized_rates(config: SystemConfig) -> DecentralizedRates:
    """Rates under the balance rule: lambda is 0 when users cannot even
    absorb the uncached load (R_u < R_empty), else
    (R_u - R_empty)/(R_s + R_u), which equalises R_empty + lambda*R_s and
    (1-lambda)*R_u.

    In integers over the common denominator D of (E, S, U): lambda =
    (U - E)/(S + U), T = S*U / (D (S + U - E)), and both balanced loads
    equal U (E + S) / (D (S + U)).
    """
    E, S, U, D = _rate_numerators(config)
    rc = RateComponents(Frac(E, D), Frac(S, D), Frac(U, D))
    T = _balanced_delay(E, S, U, D)
    if T is None:
        return DecentralizedRates(rc.R_empty, rc.R_u, rc.R_empty, Frac(0), rc)
    balanced = Frac(U * (E + S), D * (S + U))
    return DecentralizedRates(balanced, balanced, Frac(*T), Frac(U - E, S + U), rc)


def _delay_ints(K: int, alpha_max: int, a: int, b: int) -> tuple[int, int]:
    """Headline delay T at p = a/b, in lowest terms, as (numerator,
    positive denominator)."""
    E, S, U, D = _rate_ints(K, alpha_max, a, b)
    return _balanced_delay(E, S, U, D) or (E, D)


def decentralized_delay(config: SystemConfig) -> Frac:
    """Headline decentralized delay T (exact), ``decentralized_rates(config).T``."""
    p = config.p
    return Frac(*_delay_ints(config.K, config.alpha_max, p.numerator, p.denominator))


# ---------------------------------------------------------------------------
# decentralized: gains and closed-form bounds on R_u
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GainReport:
    G_c: Frac
    G_p: Frac
    limit_point: bool = False  # value is a one-sided limit (p -> 1)


def decentralized_gains(config: SystemConfig) -> GainReport:
    """Cooperation gains: delay relative to the no-cooperation scheme.

    G_c = max{R_empty/R_s, R_u/(R_s+R_u-R_empty)} (coded caching baseline),
    G_p = G_c*(1-(1-p)^K) (uncoded baseline); both lie in [0, 1].
    At p = 1 every component vanishes; the exact one-sided limit
    G_c -> K/(2K-1) is returned with ``limit_point`` set.  p = 0 is a
    domain error (no cached content, both baselines degenerate).
    """
    p, K = config.p, config.K
    if p == 0:
        raise ValueError("cooperation gain undefined at p = 0 (empty caches)")
    if p == 1:
        lim = Frac(K, 2 * K - 1)
        return GainReport(lim, lim, limit_point=True)
    rc = rate_components(config)
    G_c = max(rc.R_empty / rc.R_s, rc.R_u / (rc.R_s + rc.R_u - rc.R_empty))
    G_p = G_c * (1 - (1 - p) ** K)
    return GainReport(G_c, G_p)


def parallelism_regime(config: SystemConfig) -> str:
    """Parallelism regime: "flexible" at alpha_max = floor(K/2), else
    "shared" at alpha_max = 1, else "middle".

    K = 2 and K = 3 allow only alpha_max = 1 = floor(K/2): flexible.
    """
    return _regime(config.K, config.alpha_max)


def _regime(K: int, alpha_max: int) -> str:
    if alpha_max == K // 2:
        return "flexible"
    return "shared" if alpha_max == 1 else "middle"


def _corollary_ints(
    K: int, alpha_max: int, a: int, b: int
) -> tuple[str, Optional[tuple[int, int]]]:
    """:func:`corollary_bounds` at p = a/b as (regime, (numerator, positive
    denominator)); the bound is None at p = 0.

    With c = b - a, the shared form is c X / (2(K+1) a^2 b^K), where
    X = 2(K+1) a b^K - 5K(K+1) a^2 c^(K-1) - 8(K+1) a c^K
    + 6(b^(K+1) - c^(K+1)); the flexible form is
    K c Y / ((K-1)(K-2) a b^(K+1)), where
    Y = (K-2) a b (b^(K-1) - c^(K-1)) + 2b(b^K - c^K - K a c^(K-1)).
    """
    regime = "shared" if K == 2 else _regime(K, alpha_max)
    if a == 0:
        return regime, None
    c = b - a
    bK1, cK1 = b ** (K - 1), c ** (K - 1)
    bK, cK = bK1 * b, cK1 * c
    if regime != "flexible":
        X = 2 * (K + 1) * a * bK - 5 * K * (K + 1) * a * a * cK1
        X += 6 * (bK * b - cK * c) - 8 * (K + 1) * a * cK
        shared = c * X, 2 * (K + 1) * a * a * bK
        if regime == "shared":
            return regime, shared
    Y = (K - 2) * a * b * (bK1 - cK1) + 2 * b * (bK - cK - K * a * cK1)
    flexible = K * c * Y, (K - 1) * (K - 2) * a * bK * b
    if regime == "flexible":
        return regime, flexible
    (sn, sd), (fn, fd) = shared, flexible
    return regime, (sn * fd + fn * sd * alpha_max, sd * alpha_max * fd)


def corollary_bounds(config: SystemConfig) -> tuple[str, object]:
    """Closed-form upper bound on R_u for the config's parallelism regime.

    Returns (regime, bound), the regime as ``parallelism_regime`` names it:

      shared:   (q/p)[1 - (5/2)Kpq^(K-1) - 4q^K + 3(1-q^(K+1))/((K+1)p)]
      flexible: (Kq/(K-1))[1 - q^(K-1) + (2/p)(1 - q^K - Kpq^(K-1))/(K-2)]
      middle:   shared/alpha_max + flexible

    K = 2 takes the shared form and label: the flexible form divides by
    K-2.  p = 0 returns math.inf (the bounds blow up as 1/p).  Computed in
    integers (:func:`_corollary_ints`).
    """
    p = config.p
    regime, bound = _corollary_ints(
        config.K, config.alpha_max, p.numerator, p.denominator
    )
    return regime, math.inf if bound is None else Frac(*bound)
