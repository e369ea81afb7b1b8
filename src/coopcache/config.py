"""The problem instance and exact rationals, with no numpy.

``SystemConfig`` is the instance every layer takes (``model`` describes
the system), ``as_frac`` reads the rationals the library and the CLI
accept, and ``MAX_USER_SYMBOLS`` is the limit of every size guard but
the centralized constituent count's, ``MAX_CONSTITUENTS``, and the
bit-mode byte count's, ``MAX_BIT_BYTES``.  With ``closed_forms`` this
is the analytic layer that ``bounds`` and ``cli`` build on; it imports no
numpy and no scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Frac
from typing import Optional, Union

RationalLike = Union[int, str, Frac]


def as_frac(x: RationalLike) -> Frac:
    """Coerce ints, "p/q" strings and Fractions to an exact Fraction; a
    zero denominator is a ValueError."""
    if isinstance(x, float):
        raise TypeError(
            f"refusing to coerce float {x!r} to an exact rational; "
            "pass a Fraction, int or 'p/q' string"
        )
    try:
        return Frac(x)
    except ZeroDivisionError:
        raise ValueError(f"{x!r} has a zero denominator") from None


# ---------------------------------------------------------------------------
# system configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemConfig:
    """Problem instance: N files, K users, cache size M, cooperation width.

    ``alpha_max`` is the maximum number of user groups that may transmit in
    parallel; it must lie in [1, max(1, K//2)] (a sending group has at least
    two members, so more than K//2 parallel groups can never be realised).
    ``F`` is the file size in bits; it may be None for purely analytical
    work and must be set for bit-level simulation.
    """

    N: int
    K: int
    M: Frac
    alpha_max: int = 1
    F: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "M", as_frac(self.M))
        if self.K < 2:
            raise ValueError(f"need at least two users, got K={self.K}")
        if self.N < self.K:
            raise ValueError(
                f"standing assumption K <= N violated: K={self.K}, N={self.N}"
            )
        if not (0 <= self.M <= self.N):
            raise ValueError(f"cache size M={self.M} outside [0, N={self.N}]")
        amax_cap = max(1, self.K // 2)
        if not (1 <= self.alpha_max <= amax_cap):
            raise ValueError(
                f"alpha_max={self.alpha_max} outside [1, K//2]=[1, {amax_cap}]"
            )
        if self.F is not None and self.F <= 0:
            raise ValueError(f"file size F={self.F} must be positive")

    @property
    def t(self) -> Frac:
        """Cache replication factor K*M/N (number of copies of each bit)."""
        return Frac(self.K) * self.M / self.N

    @property
    def p(self) -> Frac:
        """Per-bit caching probability M/N."""
        return self.M / self.N

    def users(self) -> range:
        return range(1, self.K + 1)


# Refuse a user schedule whose worst-case size, the symbol count of the
# uniform full-cycle rung, exceeds this, before anything is enumerated; the
# placement entries and grid points the size guards count share the limit.
MAX_USER_SYMBOLS = 500_000

# Refuse a centralized run that would hold more constituents than this, the
# server's and the uniform rung's user symbols', counted in closed form
# before anything is enumerated.  A run peaks at about 80 bytes per
# constituent (the schedule's table, then the decode check's interning),
# so this bounds a run near 1 GB; (28, 28, 23, 1) holds 11,793,600.
MAX_CONSTITUENTS = 12_000_000

# A constituent's bytes at a centralized run's peak: a fixed part and one
# per word of its W-word subset mask (W = K // 63 + 1).  Fitted to ru_maxrss
# above a 50 MB interpreter (``scripts/measure.py guard-edge``) of the
# largest one- and two-word runs that a count blind to W admitted:
# (39, 39, 35, 1), 872 MB, and (71, 71, 68, 1), 1,259 MB, with 11.8 million
# constituents each.  The guard weighs a W-word constituent as
# (38 + 35 W) / 73 of one word; the largest two-word run it admits,
# (64, 64, 61, 1), peaks at 884 MB.
CONSTITUENT_BYTES = (38, 35)

# Refuse a bit-mode run whose up-front arrays, the library and the
# decentralized placement's position orders, would take more bytes than
# this, counted in closed form before any is allocated.
MAX_BIT_BYTES = 1 << 30
