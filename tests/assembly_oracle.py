"""The centralized assembly and audit, kept as the reference for the fast ones.

``_assemble_schedule`` and ``_audit_user_schedule`` are what the centralized
scheduler ran once its ladder had chosen a rung: the assembly keyed each
class's next layer by a ``Counter``, indexed each receiver's pico-file list
by a cursor and merged rounds by comparing slot partitions as tuples; the
audit counted deliveries in a dict.  ``coopcache.centralized`` now assembles
in one pass and audits on precomputed masks; on every rung checked against
this module it must build the same ``repr(user_rounds)`` and raise the same
audit errors.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction as Frac

from coopcache.centralized import CentralPlacement, SplitPlan
from coopcache.model import (
    Constituent,
    DeliverySchedule,
    FragmentId,
    GroupPartition,
    SchedulingError,
    SystemConfig,
    XorSymbol,
)


def _assemble_schedule(
    config: SystemConfig,
    placement: CentralPlacement,
    plan: SplitPlan,
    demands: tuple[int, ...],
    seq: list[tuple[tuple[int, ...], ...]],
    quotas: Counter,
    assignment: dict,
    L: int,
    fp: int,
) -> DeliverySchedule:
    """Latin assembly per group, then execution along the slot sequence."""
    K = config.K
    m = fp - 1
    size = (1 - plan.server_share) / Frac(math.comb(K, placement.t) * L)

    # Per-group receiver workloads: ordered pico-file lists per receiver.
    group_load: dict[tuple[int, ...], dict[int, list[FragmentId]]] = {
        G: {u: [] for u in G} for G in quotas if quotas[G] > 0
    }
    next_layer: Counter = Counter()
    for (j, T) in sorted(assignment.keys()):
        for G, units in sorted(assignment[(j, T)]):
            for _ in range(units):
                layer = next_layer[(j, T)]
                next_layer[(j, T)] += 1
                frag = FragmentId(demands[j - 1], T, "u", layer, L)
                group_load[G][j].append(frag)

    # Assemble each group's symbols: sender u appears quota - c_u times and
    # receiver j's picos land exactly on the symbols whose sender is not j.
    group_symbols: dict[tuple[int, ...], list[XorSymbol]] = {}
    for G, per_recv in group_load.items():
        Q = quotas[G]
        counts = {u: len(per_recv[u]) for u in G}
        if any(c > Q for c in counts.values()) or sum(counts.values()) != m * Q:
            raise SchedulingError(f"group {G} workload inconsistent with quota {Q}")
        senders: list[int] = []
        for u in G:
            senders.extend([u] * (Q - counts[u]))
        if len(senders) != Q:
            raise SchedulingError(f"group {G} sender multiset does not fill quota")
        taken = {u: 0 for u in G}
        symbols = []
        for i in range(Q):
            cons = []
            for j in G:
                if j == senders[i]:
                    continue
                frag = per_recv[j][taken[j]]
                taken[j] += 1
                cons.append(Constituent(j, frag))
            symbols.append(XorSymbol(senders[i], G, tuple(cons), size))
        group_symbols[G] = symbols

    # Execute along the slot sequence; merge consecutive equal partitions
    # into rounds for the per-link delay accounting.
    sched = DeliverySchedule()
    cursor: Counter = Counter()
    i = 0
    round_index = 0
    while i < len(seq):
        j = i
        while j < len(seq) and seq[j] == seq[i]:
            j += 1
        part = GroupPartition(seq[i], round_index)
        round_syms: list[XorSymbol] = []
        for slot in range(i, j):
            for G in seq[i]:
                round_syms.append(group_symbols[G][cursor[G]])
                cursor[G] += 1
        sched.user_rounds.append((part, round_syms))
        round_index += 1
        i = j

    _audit_user_schedule(config, placement, demands, sched, L, m, size)
    return sched


def _audit_user_schedule(
    config: SystemConfig,
    placement: CentralPlacement,
    demands: tuple[int, ...],
    sched: DeliverySchedule,
    L: int,
    m: int,
    size: Frac,
) -> None:
    """Hard guarantees: every pico-file delivered exactly once, every symbol
    decodable by construction, every constituent cached by its co-members.

    Checked on bitmasks, user u being bit u: each group's members and each
    subset's cachers are masked once.  Deliveries are counted per int key
    of (subset, layer, receiver); a pico no check looks at is not counted.
    """
    bit = {u: 1 << u for u in config.users()}
    masks: dict[tuple[int, ...], int] = {}

    def mask(users: tuple[int, ...]) -> int:
        code = masks.get(users)
        if code is None:
            code = masks[users] = sum(bit.get(u, 0) for u in users)
        return code

    subset_id = {T: i for i, T in enumerate(placement.subsets)}
    width = config.K + 1
    seen: dict[int, int] = {}
    for part, syms in sched.user_rounds:
        for sym in syms:
            if len(sym.constituents) != m:
                raise SchedulingError(f"symbol codes {len(sym.constituents)} != {m}")
            if sym.size is not size and sym.size != size:
                raise SchedulingError("unequal pico sizes in user schedule")
            group = mask(sym.group)
            if not group & bit.get(sym.sender, 0):
                raise SchedulingError("sender outside its group")
            for c in sym.constituents:
                j, frag = c.receiver, c.fragment
                if j == sym.sender or not group & bit.get(j, 0):
                    raise SchedulingError("constituent receiver misplaced")
                if group & ~bit[j] & ~mask(frag.subset):
                    raise SchedulingError(
                        f"group {sym.group} cannot strip {frag} for user {j}"
                    )
                tid = subset_id.get(frag.subset)
                if tid is not None and frag.index < L:
                    key = (tid * L + frag.index) * width + j
                    seen[key] = seen.get(key, 0) + 1
    for j in config.users():
        for T in placement.subsets:
            if mask(T) & bit[j]:
                continue
            for layer in range(L):
                got = seen.get((subset_id[T] * L + layer) * width + j, 0)
                if got != 1:
                    raise SchedulingError(
                        f"pico (user {j}, T={T}, layer {layer}) delivered "
                        f"{got} times"
                    )
