"""The max-flow hosting solver, kept as the reference for the fast ladder.

``_solve_hosting`` and the recursive ``_Dinic`` are what the centralized
scheduler ran on every rung of its (rho, offset) ladder before forced rungs
were settled by a quota check and the flow's DFS became iterative.  They
decide every rung, forced or not, by a full max-flow, so they serve only as
the oracle the fast decision in ``coopcache.centralized`` is checked
against.  ``_slot_quotas`` is the quota count it made from the whole slot
sequence of every rung.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional


class _Dinic:
    """Small deterministic integer max-flow (adjacency in insertion order)."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int) -> int:
        eid = len(self.to)
        self.adj[u].append(eid)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(eid + 1)
        self.to.append(u)
        self.cap.append(0)
        return eid

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for eid in self.adj[u]:
                    v = self.to[eid]
                    if self.cap[eid] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.n

            def dfs(u: int, pushed: int) -> int:
                if u == t:
                    return pushed
                while it[u] < len(self.adj[u]):
                    eid = self.adj[u][it[u]]
                    v = self.to[eid]
                    if self.cap[eid] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[eid]))
                        if got > 0:
                            self.cap[eid] -= got
                            self.cap[eid ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 60)
                if pushed == 0:
                    break
                flow += pushed


def _solve_hosting(
    classes: list[tuple[int, tuple[int, ...]]],
    candidates: dict[tuple[int, tuple[int, ...]], list[tuple[int, ...]]],
    quotas: dict[tuple[int, ...], int],
    L: int,
    m: int,
) -> Optional[dict[tuple[int, tuple[int, ...]], list[tuple[tuple[int, ...], int]]]]:
    """Route L pico-file units per class (receiver j, subset T) to hosting
    groups, respecting per-(receiver, group) caps of quota(G) (a receiver
    occupies at most one constituent slot per symbol) and per-group totals
    of m*quota(G) (each symbol carries m constituents).

    Returns {class: [(group, units), ...]} or None if infeasible.
    """
    total = L * len(classes)
    groups = sorted(g for g, q in quotas.items() if q > 0)
    gid = {g: i for i, g in enumerate(groups)}
    n_class = len(classes)
    # nodes: src, classes, (receiver, group) pairs, groups, sink.  The
    # receiver-group layer caps a receiver's total hosting inside one group
    # at quota(G): a receiver occupies at most one constituent per symbol.
    jg_ids: dict[tuple[int, tuple[int, ...]], int] = {}
    for cls in classes:
        j = cls[0]
        for G in candidates[cls]:
            if quotas.get(G, 0) > 0 and (j, G) not in jg_ids:
                jg_ids[(j, G)] = len(jg_ids)
    n_nodes = 1 + n_class + len(jg_ids) + len(groups) + 1
    src, dst = 0, n_nodes - 1
    jg_base = 1 + n_class
    grp_base = jg_base + len(jg_ids)
    net = _Dinic(n_nodes)
    class_edges: list[list[tuple[int, tuple[int, ...]]]] = []
    for ci, cls in enumerate(classes):
        net.add_edge(src, 1 + ci, L)
        edges_here: list[tuple[int, tuple[int, ...]]] = []
        for G in candidates[cls]:
            if quotas.get(G, 0) > 0:
                eid = net.add_edge(1 + ci, jg_base + jg_ids[(cls[0], G)], L)
                edges_here.append((eid, G))
        class_edges.append(edges_here)
    for (j, G), ji in sorted(jg_ids.items()):
        net.add_edge(jg_base + ji, grp_base + gid[G], quotas[G])
    for G in groups:
        net.add_edge(grp_base + gid[G], dst, m * quotas[G])
    if net.max_flow(src, dst) != total:
        return None
    out: dict[tuple[int, tuple[int, ...]], list[tuple[tuple[int, ...], int]]] = {}
    for ci, cls in enumerate(classes):
        alloc = []
        for eid, G in class_edges[ci]:
            used = net.cap[eid ^ 1]  # flow = reverse residual
            if used:
                alloc.append((G, used))
        out[cls] = alloc
    return out


def _slot_quotas(
    partitions: list[tuple[tuple[int, ...], ...]], slots: int, offset: int
) -> tuple[list[tuple[tuple[int, ...], ...]], Counter]:
    """Cyclic slot sequence over the canonical partition list, plus the
    per-group appearance counts it induces."""
    beta = len(partitions)
    seq = [partitions[(offset + i) % beta] for i in range(slots)]
    quotas: Counter = Counter()
    for part in seq:
        for G in part:
            quotas[G] += 1
    return seq, quotas
