"""The object schedules and the object execution, kept as the reference for
the columnar ones.

``parallel_user_delivery`` is the decentralized user schedule the package
built before it held schedules as int columns: one ``XorSymbol`` per
symbol, drawing each fragment index from a ``next_index`` dict keyed by
(receiver, subset, part) and auditing the dict at the end of every round.
``build_server_schedule`` and ``server_delivery_decentralized`` built the
two schemes' server symbols as objects, each XOR from ``server_shares``.
``execute_schedule`` ran a schedule into a log of ``LogEntry`` objects,
grouping each round's symbols into lanes by their group, computing
``receivers()`` once per (sender, group), and checking the slot discipline
entry by entry (``verify_slot_discipline``).  ``coopcache`` now builds the
same values as columns and shows them through read-only views; every
view checked against this module must compare equal to its lists, with the
same ``repr``, and raise the same ``SchedulingError`` messages.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction as Frac
from typing import Optional, Sequence, Union

import numpy as np

from coopcache.centralized import SplitPlan, _integer_t
from coopcache.decentralized import (
    AllocationPlan,
    DecentralPlacement,
    _round_plan,
    round_shapes,
)
from coopcache.model import (
    Constituent,
    DeliverySchedule,
    FragmentId,
    GroupPartition,
    SchedulingError,
    SystemConfig,
    XorSymbol,
    enumerate_subsets,
    validate_demands,
)
from coopcache.simulator import BitLibrary, FragmentResolver, LogEntry, TransmissionLog


def server_shares(
    demands: Sequence[int], S: tuple[int, ...]
) -> tuple[Constituent, ...]:
    """What the server XORs into its symbol for user set S: each member k's
    server share W^s_{d_k, S\\{k}}."""
    return tuple(
        Constituent(
            k, FragmentId(demands[k - 1], tuple(x for x in S if x != k), "s", 0, 1)
        )
        for k in S
    )


def build_server_schedule(
    config: SystemConfig, plan: SplitPlan, demands: Sequence[int]
) -> list[XorSymbol]:
    """Server multicast: for each (t+1)-subset S, XOR of server shares
    W^s_{d_k, S\\{k}} over k in S; each symbol is lambda*F/C(K,t) long."""
    d = validate_demands(config, demands)
    t, K = _integer_t(config), config.K
    lam = plan.server_share
    if lam == 0 or t >= K:
        return []
    size = lam / math.comb(K, t)
    everyone = tuple(config.users())
    return [
        XorSymbol(0, everyone, server_shares(d, S), size)
        for S in enumerate_subsets(K, t + 1)
    ]


def server_delivery_decentralized(
    config: SystemConfig,
    placement: DecentralPlacement,
    demands: Sequence[int],
    plan: AllocationPlan,
) -> list[XorSymbol]:
    """Server phase: raw uncached subfiles, then the lambda-share multicast.

    For every nonempty S the server XORs the server shares W^s_{d_k,S\\{k}}
    of its members (singleton S symbols repeat material already inside the
    raw W_{d_k,empty} transmissions; they are kept — flagged redundant — so
    the fluid server load is exactly R_empty + lambda*R_s).
    """
    d = validate_demands(config, demands)
    K, p = config.K, config.p
    q = 1 - p
    lam = plan.server_share
    everyone = tuple(config.users())
    out: list[XorSymbol] = []
    raw_size = q**K
    if raw_size > 0:
        for k in everyone:
            out.append(
                XorSymbol(
                    0,
                    everyone,
                    (Constituent(k, FragmentId(d[k - 1], (), "full", 0, 1)),),
                    raw_size,
                )
            )
    if lam == 0:
        return out
    for s_sz in range(1, K + 1):
        size = lam * p ** (s_sz - 1) * q ** (K - s_sz + 1)
        if size == 0:
            continue
        for S in enumerate_subsets(K, s_sz):
            out.append(
                XorSymbol(0, everyone, server_shares(d, S), size, redundant=(s_sz == 1))
            )
    return out


def parallel_user_delivery(
    config: SystemConfig,
    placement: DecentralPlacement,
    demands: Sequence[int],
    plan: AllocationPlan,
) -> DeliverySchedule:
    """All user rounds: s = 2..K, each a walk over its round plan."""
    d = validate_demands(config, demands)
    K = config.K
    sched = DeliverySchedule()
    if plan.server_share == 1:
        return sched
    next_index: dict[tuple[int, tuple[int, ...], str], int] = {}
    round_index = 0
    for shape in round_shapes(K, config.alpha_max):
        s = shape[0]
        planned = _round_plan(config, plan, shape)
        if planned is None:
            continue
        (table, idle), parts = planned
        # each partition's (group, part) pairs: its s-groups on the first
        # part, its idle users, when they form a remainder group, on the
        # second
        names = list(parts)
        for row, rest in zip(table.tolist(), idle.tolist()):
            pairs = [(tuple(G), names[0]) for G in row]
            if len(names) > 1:
                pairs.append((tuple(rest), names[1]))
            syms: list[XorSymbol] = []
            for group, part in pairs:
                count, size = parts[part]
                if part == "u2":
                    rest = [u for u in config.users() if u not in group]
                    supersets = [
                        tuple(sorted(group + extra))
                        for extra in itertools.combinations(rest, s - len(group))
                    ]
                else:
                    supersets = [group]
                for S in supersets:
                    for sender in group:
                        cons = []
                        for j in group:
                            if j == sender:
                                continue
                            T = tuple(x for x in S if x != j)
                            key = (j, T, part)
                            idx = next_index.get(key, 0)
                            if idx >= count:
                                raise SchedulingError(
                                    f"fragment exhaustion for {key}: "
                                    f"need index {idx} of {count}"
                                )
                            next_index[key] = idx + 1
                            cons.append(
                                Constituent(j, FragmentId(d[j - 1], T, part, idx, count))
                            )
                        syms.append(XorSymbol(sender, group, tuple(cons), size))
            groups = tuple(sorted((G for G, _ in pairs), key=min))
            sched.user_rounds.append((GroupPartition(groups, round_index), syms))
            round_index += 1
        for part, (count, _) in parts.items():
            for T in enumerate_subsets(K, s - 1):
                for j in config.users():
                    got = next_index.get((j, T, part), 0)
                    if j not in T and got != count:
                        raise SchedulingError(
                            f"mini-file {(j, T, part)} only {got}/{count} "
                            "fragments delivered"
                        )
    return sched


def _symbol_payload(
    sym: XorSymbol, resolver: FragmentResolver, library: BitLibrary
) -> tuple[np.ndarray, int]:
    parts = [
        library.files[c.fragment.file][resolver.frag_positions(c.fragment)]
        for c in sym.constituents
    ]
    length = max((len(p) for p in parts), default=0)
    out = np.zeros(length, dtype=np.uint8)
    for p in parts:
        out[: len(p)] ^= p
    return out, length


def execute_schedule(
    config: SystemConfig,
    schedule: DeliverySchedule,
    resolver: FragmentResolver,
    mode: str,
    library: Optional[BitLibrary] = None,
) -> TransmissionLog:
    """Run a built schedule into a transmission log of ``LogEntry`` objects.

    Server symbols occupy their own link's slots 0..; each user round packs
    its lanes in parallel (lane i's j-th symbol in relative slot j).
    """
    if mode == "bits" and library is None:
        raise ValueError("bit mode needs a BitLibrary")
    log = TransmissionLog(config, mode, resolver=resolver)
    heard_by: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}

    def entry(slot: int, round_index: int, sym: XorSymbol) -> LogEntry:
        key = (sym.sender, sym.group)
        receivers = heard_by.get(key)
        if receivers is None:
            receivers = heard_by[key] = sym.receivers()
        if mode == "fluid":
            bits: Union[int, Frac] = sym.size
        else:
            payload, bits = _symbol_payload(sym, resolver, library)
            sym = XorSymbol(
                sym.sender, sym.group, sym.constituents, sym.size, payload, sym.redundant
            )
        return LogEntry(slot, round_index, sym.sender, sym.group, receivers, bits, sym)

    for slot, sym in enumerate(schedule.server_symbols):
        log.entries.append(entry(slot, -1, sym))
    base = 0
    for partition, symbols in schedule.user_rounds:
        lanes: dict[tuple, list[XorSymbol]] = {}
        for sym in symbols:
            lanes.setdefault(sym.group, []).append(sym)
        depth = max((len(v) for v in lanes.values()), default=0)
        for j in range(depth):
            for lane_syms in lanes.values():
                if j < len(lane_syms):
                    log.entries.append(
                        entry(base + j, partition.round_index, lane_syms[j])
                    )
        base += depth
    verify_slot_discipline(log)
    return log


def verify_slot_discipline(log: TransmissionLog) -> None:
    """Each slot: at most one server symbol; user senders bounded by
    alpha_max and their groups pairwise disjoint."""
    server_slots = set()
    user_slots: dict[int, list[LogEntry]] = {}
    for e in log.entries:
        if e.sender == 0:
            if e.slot in server_slots:
                raise ValueError(f"two server symbols in slot {e.slot}")
            server_slots.add(e.slot)
        else:
            user_slots.setdefault(e.slot, []).append(e)
    for slot, entries in user_slots.items():
        if len(entries) > log.config.alpha_max:
            raise ValueError(
                f"slot {slot} has {len(entries)} user senders "
                f"(alpha_max={log.config.alpha_max})"
            )
        seen: set[int] = set()
        for e in entries:
            if seen & set(e.group):
                raise ValueError(f"slot {slot} has overlapping groups")
            seen |= set(e.group)
