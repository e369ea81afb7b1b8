"""The Fraction load accounting, kept as the reference for the integer one.

``server_load`` and ``user_load`` are the loads the simulator measured
before it summed integer numerators: every entry's size becomes a
``Fraction`` of F (an int size is a bit count in bit mode and a whole
number of files in fluid mode) and the sums are taken in ``Fraction``
arithmetic.  They serve only as the oracle that
``TransmissionLog.server_load``/``user_load`` are checked against.
"""

from __future__ import annotations

from fractions import Fraction as Frac
from typing import Union

from coopcache import TransmissionLog


def _as_rate(log: TransmissionLog, bits: Union[int, Frac]) -> Frac:
    if log.mode == "bits":
        return Frac(int(bits), log.config.F)
    return bits if isinstance(bits, Frac) else Frac(bits)


def server_load(log: TransmissionLog) -> Frac:
    """Total traffic on the server link, as a fraction of F."""
    return sum((_as_rate(log, e.bits) for e in log.entries if e.sender == 0), Frac(0))


def user_load(log: TransmissionLog) -> Frac:
    """Cooperation-link delay: per round, the busiest lane; summed."""
    per_round_lane: dict[int, dict[tuple, Frac]] = {}
    for e in log.entries:
        if e.sender == 0:
            continue
        lanes = per_round_lane.setdefault(e.round_index, {})
        lanes[e.group] = lanes.get(e.group, Frac(0)) + _as_rate(log, e.bits)
    return sum((max(lanes.values()) for lanes in per_round_lane.values()), Frac(0))
