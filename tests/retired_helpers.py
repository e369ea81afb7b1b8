"""Four helpers the package exported although only tests called them, kept
here as they shipped so that the assertions on them stay.

``piecewise_alpha`` was ``coopcache.closed_forms``'s, ``piecewise_gains``
and ``p_star`` were ``coopcache.bounds``', and ``enumerate_equal_partitions``
was ``coopcache.model``'s wrapper over ``model.partition_table``.
"""

from __future__ import annotations

import math
from fractions import Fraction as Frac

from coopcache.config import SystemConfig
from coopcache.model import partition_table


def piecewise_alpha(config: SystemConfig) -> Frac:
    """Analytic optimiser of the delay denominator, as an exact rational.

    Three regimes: alpha* = 1 when t >= K-1 (a single full group already
    codes t pico-files per symbol); alpha* = K/(t+1) (possibly fractional)
    in the middle where groups of size t+1 are ideal; alpha* = alpha_max
    when t <= K//alpha_max - 1 (caches too small to fill even the widest
    grouping).  ``choose_alpha`` is the integer ground truth; this exposes
    the idealised curve for cross-checking.
    """
    K, t = config.K, config.t
    if t >= K - 1:
        return Frac(1)
    if t <= K // config.alpha_max - 1:
        return Frac(config.alpha_max)
    return Frac(K) / (t + 1)


def p_star(K: int) -> Frac:
    """Memory point where the uncached load is farthest above the converse."""
    return Frac(1, 2 * K + 1)


def piecewise_gains(config: SystemConfig) -> tuple[Frac, Frac, str]:
    """(G_c, G_p, branch) from the closed three-branch forms at alpha*.

    Branches: "high-t" (t >= K-1, alpha* = 1), "low-t"
    (t <= floor(K/alpha_max)-1, alpha* = alpha_max), "interior" (alpha* =
    K/(t+1), relaxed).  Matches ``centralized_gains`` evaluated at the same
    alpha*.
    """
    t = config.t
    if t.denominator != 1 or t == 0:
        raise ValueError(f"piecewise gains need integer t >= 1, got {t}")
    K, amax = config.K, config.alpha_max
    if t >= K - 1:
        return Frac(1 + t, K + t), Frac(t, K + t), "high-t"
    if t <= K // amax - 1:
        denom = amax * t + t + 1
        return Frac(1 + t, denom), Frac(t, denom), "low-t"
    alpha_star = Frac(K, int(t) + 1)
    m = math.floor(Frac(K) / alpha_star) - 1
    G_c = (1 + t) / (m * alpha_star + t + 1)
    G_p = t / (alpha_star * t + t + 1)
    return G_c, G_p, "interior"


def enumerate_equal_partitions(
    K: int, s: int, alpha_d: int
) -> list[tuple[tuple[int, ...], ...]]:
    """All unordered collections of ``alpha_d`` disjoint s-subsets of 1..K.

    Users not covered by any group are idle.  Canonical form sorts groups by
    smallest member; the output is in lexicographic order of the flattened
    canonical form.  Requires s >= 2 and alpha_d*s <= K.
    """
    if s < 2:
        raise ValueError(f"groups need at least two members, got s={s}")
    if alpha_d < 1 or alpha_d * s > K:
        raise ValueError(f"cannot fit {alpha_d} disjoint {s}-subsets in 1..{K}")
    groups = partition_table(K, s, alpha_d)[0].tolist()
    return [tuple(map(tuple, part)) for part in groups]
