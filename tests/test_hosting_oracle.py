"""The centralized ladder's rung decisions against the max-flow oracle.

``hosting_oracle`` keeps the hosting solver the scheduler ran before: every
rung of the (rho, offset) ladder is decided by a full max-flow over quotas
counted from the whole slot sequence.  The scheduler now counts quotas in
closed form, settles forced rungs (groups of t+1 members, m == t) by a quota
check and runs the flow as a greedy first phase, then numpy levels pruned
to the shortest paths, with an iterative search over compact level lists
that resumes after each augmentation, over a network laid out once per
(K, t, m) as int arrays on which a rung sets capacities, 0 on a dead
edge.  It runs no flow on a rung that the minimum cut of an earlier
rung's failed flow certifies infeasible, and hands the assembly its
decision as (class, group, units) int arrays, which ``_assignment`` turns
into the oracle's dict.  On every rung checked here it must reach the same decision, with
the same assignment, its entries in the oracle's order; each rung's
network must be, on its live edges, the one that adding its edges one
by one builds (``_Edges``), edge for edge; and on every network generated
here the flow, with or without the greedy phase, must leave the same
residual network, edge for edge, and a dead edge at 0.
"""

import contextlib
import hashlib
import io
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hosting_oracle as oracle
from retired_helpers import enumerate_equal_partitions
from coopcache import SystemConfig, centralized, make_split_plan
from coopcache.centralized import (
    _Dinic,
    _forced_hosting,
    _greedy_phase,
    _hosting_classes,
    _hosting_decider,
    _HostingNetwork,
    _rho_ladder,
    _slot_quotas,
    _solve_hosting,
    build_delivery,
)
from coopcache.cli import main
from coopcache.model import enumerate_subsets, offsets, partition_table, subset_ranks


class _Edges:
    """A network built edge by edge: each node's edges in insertion order,
    edge e from ``to[e ^ 1]`` to ``to[e]``.  ``dinic`` hands it to the
    package's max-flow as edge arrays."""

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

    def dinic(self) -> _Dinic:
        order = np.array([e for edges in self.adj for e in edges], np.int64)
        start = offsets(len(edges) for edges in self.adj)
        return _Dinic(np.array(self.to, np.int64), list(self.cap), order, start)


def _quotas(K, fp, partitions, slots, offset):
    """The oracle's quotas of a rung, as the scheduler's vector: one count
    per fp-subset, in lex order."""
    counts = oracle._slot_quotas(partitions, slots, offset)[1]
    return np.array([counts[G] for G in enumerate_subsets(K, fp)], np.int64)


def _ranks(K, fp, alpha):
    """The canonical partitions' groups as rows of the lex fp-subset list,
    and one cycle's count of each."""
    ranks = subset_ranks(partition_table(K, fp, alpha)[0], K)
    return ranks, np.bincount(ranks.ravel(), minlength=math.comb(K, fp))


def _classes_and_candidates(K, t, m):
    """The hosting classes (j, T) and each one's candidate groups."""
    classes = [
        (j, T) for j in range(1, K + 1) for T in itertools.combinations(range(1, K + 1), t)
        if j not in T
    ]
    candidates = {
        (j, T): [tuple(sorted((j,) + B)) for B in itertools.combinations(T, m)]
        for (j, T) in classes
    }
    return classes, candidates


def _network(K, t, m):
    """The hosting network of (K, t, m) and the classes it is built over,
    each one's receiver and subset rank."""
    receiver, subset, cand = _hosting_classes(K, t, m)
    return _HostingNetwork(K, m, receiver, cand), (receiver, subset)


def _assignment(K, t, m, classes, hosting):
    """A hosting decision's (class, group, units) arrays as the oracle's
    {(j, T): [(G, units)]} dict, each class's list in the arrays' order;
    None, an infeasible rung, stays None.  ``classes`` holds each class's
    receiver and subset rank."""
    if hosting is None:
        return None
    subsets, groups = enumerate_subsets(K, t), enumerate_subsets(K, m + 1)
    keys = [(j, subsets[T]) for j, T in zip(*(c.tolist() for c in classes))]
    out = {key: [] for key in keys}
    for c, g, units in zip(*(a.tolist() for a in hosting)):
        out[keys[c]].append((groups[g], units))
    return out


@pytest.mark.parametrize("K", range(2, 11))
def test_classes_and_candidates_come_in_the_order_the_assembly_reads(K):
    # the assembly lays the hosting out in the order its arrays come in,
    # with no sort: classes in (j, T) order, and each class's candidate
    # groups in strictly increasing rank (a single group at m == t)
    for t in range(1, K):
        for m in range(1, t + 1):
            receiver, subset, cand = _hosting_classes(K, t, m)
            assert (np.diff(receiver * math.comb(K, t) + subset) > 0).all(), (K, t, m)
            assert cand.shape[1] == math.comb(t, m)
            assert (np.diff(cand, axis=1) > 0).all(), (K, t, m)
            classes, candidates = _classes_and_candidates(K, t, m)
            subsets, groups = enumerate_subsets(K, t), enumerate_subsets(K, m + 1)
            assert [(j, subsets[T]) for j, T in zip(receiver.tolist(), subset.tolist())] \
                == classes
            assert [[groups[g] for g in row] for row in cand.tolist()] \
                == [candidates[c] for c in classes]


def _walk_ladder(K, t, alpha, last_rung=False):
    """Check every rung up to and including the first feasible one; return
    (rungs checked, whether the shape is forced).  With ``last_rung``, also
    check that the ladder ends at the uniform rung (beta/gcd(slots1, beta), 0)
    and that this rung is feasible."""
    cfg = SystemConfig(K, K, t, alpha_max=max(1, K // 2))
    plan = make_split_plan(cfg, alpha=alpha)
    fp = min(K // alpha, t + 1)
    m = fp - 1
    classes, candidates = _classes_and_candidates(K, t, m)
    partitions = enumerate_equal_partitions(K, fp, alpha)
    ranks, cycle = _ranks(K, fp, alpha)
    slots1 = K * math.comb(K - 1, t) * plan.L1 // (m * alpha)
    receiver, subset, cand = _hosting_classes(K, t, m)
    decide = _hosting_decider(K, m, receiver, cand)
    beta = len(partitions)
    ladder = _rho_ladder(slots1, beta)
    if last_rung:
        rho, offset = ladder[-1]
        assert (rho, offset) == (beta // math.gcd(slots1, beta), 0)
        quotas = _slot_quotas(ranks, cycle, slots1 * rho, offset)
        assert decide(quotas, plan.L1 * rho) is not None, (K, t, alpha)
    rungs = 0
    for rho, offset in ladder:
        L, slots = plan.L1 * rho, slots1 * rho
        quotas = _slot_quotas(ranks, cycle, slots, offset)
        assert quotas.tolist() == _quotas(K, fp, partitions, slots, offset).tolist()
        counts = dict(oracle._slot_quotas(partitions, slots, offset)[1])
        got = _assignment(K, t, m, (receiver, subset), decide(quotas, L))
        assert got == oracle._solve_hosting(classes, candidates, counts, L, m), (
            K, t, alpha, rho, offset,
        )
        rungs += 1
        if got is not None:
            return rungs, m == t
    pytest.fail(f"no feasible rung for K={K}, t={t}, alpha={alpha}")


SMALL_SHAPES = [
    (K, t, alpha)
    for K in range(2, 8)
    for t in range(1, K)
    for alpha in range(1, max(1, K // 2) + 1)
]


def test_every_rung_agrees_with_the_oracle_for_k_up_to_7():
    forced = free = 0
    for shape in SMALL_SHAPES:
        rungs, is_forced = _walk_ladder(*shape, last_rung=True)
        if is_forced:
            forced += rungs
        else:
            free += rungs
    # both kinds of rung, and failed rungs of each, were exercised
    assert forced > len(SMALL_SHAPES) and free > len(SMALL_SHAPES)


@pytest.mark.parametrize("K", range(2, 10))
def test_sliding_ladder_quotas_agree_with_the_oracle_on_every_rung(K):
    # every rung's quotas, counted in closed form from the partition table,
    # against the oracle's count over the whole slot sequence
    slid = 0
    for t in range(1, K):
        for alpha in range(1, K // 2 + 1):
            plan = make_split_plan(SystemConfig(K, K, t, alpha_max=K // 2), alpha=alpha)
            fp = min(K // alpha, t + 1)
            partitions = enumerate_equal_partitions(K, fp, alpha)
            ranks, cycle = _ranks(K, fp, alpha)
            slots1 = K * math.comb(K - 1, t) * plan.L1 // ((fp - 1) * alpha)
            for rho, offset in _rho_ladder(slots1, len(partitions)):
                quotas = _slot_quotas(ranks, cycle, slots1 * rho, offset)
                expected = _quotas(K, fp, partitions, slots1 * rho, offset)
                assert quotas.tolist() == expected.tolist(), (K, t, alpha, rho, offset)
                slid += offset > 0
    assert slid > 0 or K < 4


@settings(max_examples=12)
@given(
    st.sampled_from([8, 9]).flatmap(
        lambda K: st.tuples(
            st.just(K),
            st.integers(min_value=1, max_value=K - 1),
            st.integers(min_value=1, max_value=K // 2),
        )
    )
)
def test_rungs_agree_with_the_oracle_for_k_8_and_9(shape):
    _walk_ladder(*shape)


def test_forced_rung_with_uneven_quotas_is_infeasible():
    K, t, L = 6, 2, 2
    m = t  # groups of t+1 = 3 members, alpha = 2
    receiver, subset, cand = _hosting_classes(K, t, m)
    decide = _hosting_decider(K, m, receiver, cand)
    hosts = list(itertools.combinations(range(1, K + 1), t + 1))
    classes = [(j, T) for j in range(1, K + 1)
               for T in itertools.combinations(range(1, K + 1), t) if j not in T]
    candidates = {(j, T): [tuple(sorted((j,) + T))] for (j, T) in classes}
    even = np.full(len(hosts), (t + 1) * L // m)
    forced = {(j, T): [(tuple(sorted((j,) + T)), L)] for (j, T) in classes}
    assert _assignment(K, t, m, (receiver, subset), decide(even, L)) == forced
    assert oracle._solve_hosting(classes, candidates, dict(zip(hosts, even)), L, m) == forced
    uneven = even.copy()
    uneven[0] -= 1
    uneven[-1] += 1  # same total, one group short
    assert decide(uneven, L) is None
    assert _forced_hosting(cand, uneven, L, m) is None
    assert oracle._solve_hosting(classes, candidates, dict(zip(hosts, uneven)), L, m) is None


def _copy_network(net, cls):
    other = cls(net.n)
    for eid in range(0, len(net.to), 2):
        other.add_edge(net.to[eid + 1], net.to[eid], net.cap[eid])
    return other


@given(st.integers(min_value=0, max_value=2**32))
def test_iterative_dinic_finds_the_recursive_flow(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    edges = _Edges(n)
    for _ in range(rng.randint(0, 40)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add_edge(u, v, rng.randint(0, 9))
    ref = _copy_network(edges, oracle._Dinic)
    net = edges.dinic()
    assert net.max_flow(0, n - 1) == ref.max_flow(0, n - 1)
    assert net.cap == ref.cap  # same residual network, edge for edge


def _count_phases(monkeypatch):
    """A list that grows by one for every level graph ``_Dinic`` builds: a
    flow of k phases builds k + 1."""
    calls = []
    levels = _Dinic._levels

    def counting(self, *args):
        calls.append(1)
        return levels(self, *args)

    monkeypatch.setattr(_Dinic, "_levels", counting)
    return calls


def _count_greedy_phases(monkeypatch):
    """A list that grows by one for every greedy first phase a hosting
    flow pushes."""
    calls = []
    greedy = centralized._greedy_phase

    def counting(*args):
        calls.append(1)
        return greedy(*args)

    monkeypatch.setattr(centralized, "_greedy_phase", counting)
    return calls


def _count_flows(monkeypatch):
    """The ``_Dinic`` instances whose max-flow ran, in order."""
    nets = []
    flow = _Dinic.max_flow

    def counting(self, *args):
        nets.append(self)
        return flow(self, *args)

    monkeypatch.setattr(_Dinic, "max_flow", counting)
    return nets


def _hosting_network(rng):
    """A random network of the hosting flow's shape: source -> classes ->
    (receiver, group) -> groups -> sink, with L units per class, a class's
    edges to its candidate groups' (receiver, group) nodes, caps quota(G)
    into each group and m*quota(G) out of it.  A class's candidates are a
    run of consecutive groups, so that rerouting one class's units pushes
    its neighbours' on along the ring, and the quotas are tight, summing
    to about what the classes send: later phases then need long paths
    through reverse edges.

    Returns the network and its layers as :func:`_greedy_phase` takes
    them: L, each class's candidates as their classes, pairs and groups,
    class after class, the capacity into each group from each pair and out
    of each group, and the edges of each candidate's path."""
    receivers, n_groups = rng.randint(2, 6), rng.randint(3, 12)
    L, m = rng.randint(1, 3), rng.randint(1, 2)
    classes = []
    for _ in range(rng.randint(10, 60)):
        first = rng.randrange(n_groups)
        picks = [(first + k) % n_groups for k in range(rng.randint(2, 3))]
        classes.append((rng.randrange(receivers), picks))
    units = -(-L * len(classes) // m) + rng.choice((-1, 0, 0, 1))
    quotas = [0] * n_groups
    for _ in range(units):
        quotas[rng.randrange(n_groups)] += 1
    pairs = {}
    for j, picks in classes:
        for g in picks:
            pairs.setdefault((j, g), len(pairs))
    jg_base = 1 + len(classes)
    grp_base = jg_base + len(pairs)
    net = _Edges(grp_base + n_groups + 1)
    class_edges = []
    for ci, (j, picks) in enumerate(classes):
        source = net.add_edge(0, 1 + ci, L)
        class_edges += [(source, net.add_edge(1 + ci, jg_base + pairs[(j, g)], L))
                        for g in picks]
    pair_edges = {}
    for (j, g), ji in sorted(pairs.items()):
        pair_edges[ji] = net.add_edge(jg_base + ji, grp_base + g, quotas[g])
    group_edges = [net.add_edge(grp_base + g, net.n - 1, m * quotas[g])
                   for g in range(n_groups)]
    candidates = [(ci, pairs[(j, g)], g) for ci, (j, picks) in enumerate(classes)
                  for g in picks]
    paths = [(*class_edge, pair_edges[p], group_edges[g])
             for class_edge, (_, p, g) in zip(class_edges, candidates)]
    pair_caps = [quotas[g] for _, g in pairs]  # in id order, which is insertion order
    return net, (L, list(zip(*candidates)), pair_caps, [m * q for q in quotas], paths)


def test_hosting_shaped_flows_match_the_recursive_flow(monkeypatch):
    phases = _count_phases(monkeypatch)
    deep = saturated = 0
    for seed in range(300):
        edges, _ = _hosting_network(random.Random(seed))
        ref = _copy_network(edges, oracle._Dinic)
        total = sum(edges.cap[eid] for eid in edges.adj[0])
        net = edges.dinic()
        phases.clear()
        flow = net.max_flow(0, net.n - 1)
        assert flow == ref.max_flow(0, net.n - 1), seed
        assert net.cap == ref.cap, seed  # same residual network, edge for edge
        deep += len(phases) - 1 >= 5
        saturated += flow == total
    # many flows take five phases or more, so augmenting paths of 12 edges
    # or more were exercised; both feasible and infeasible flows occur
    assert deep >= 20 and 30 <= saturated <= 270


def test_greedy_first_phase_is_the_first_blocking_flow(monkeypatch):
    # the greedy phase, pushed along its paths, then the flow from that
    # residual network leave the recursive flow's residual network, and
    # the greedy phase takes the place of exactly one of its phases
    phases = _count_phases(monkeypatch)
    pushed_all = 0
    for seed in range(300):
        edges, (L, candidates, pair_caps, group_caps, paths) = _hosting_network(
            random.Random(seed))
        ref = _copy_network(edges, oracle._Dinic)
        phases.clear()
        plain = edges.dinic().max_flow(0, edges.n - 1)
        plain_phases = len(phases)
        flows = _greedy_phase(L, *candidates, list(pair_caps), list(group_caps))
        assert len(flows) == len(paths), seed
        for units, path in zip(flows, paths):
            for eid in path:
                edges.cap[eid] -= units
                edges.cap[eid ^ 1] += units
        net = edges.dinic()
        phases.clear()
        flow = sum(flows) + net.max_flow(0, net.n - 1)
        assert flow == ref.max_flow(0, net.n - 1) == plain, seed
        assert net.cap == ref.cap, seed  # same residual network, edge for edge
        assert len(phases) == max(plain_phases - 1, 1), seed
        pushed_all += flow == sum(flows)
    # some flows end with the greedy phase, most need later phases
    assert 30 <= pushed_all <= 90


def test_solve_hosting_matches_the_oracle_on_the_central_fluid_flow(monkeypatch):
    # the one flow of simulate --scheme centralized --N 12 --K 12 --M 6
    # --alpha-max 3: its first rung (rho 1, offset 0) is feasible
    cfg = SystemConfig(12, 12, 6, alpha_max=3)
    plan = make_split_plan(cfg)
    K, t, alpha = 12, 6, plan.alpha
    fp = min(K // alpha, t + 1)
    m = fp - 1
    assert m < t  # not a forced shape: the rung is decided by the flow
    classes, candidates = _classes_and_candidates(K, t, m)
    ranks, cycle = _ranks(K, fp, alpha)
    slots1 = K * math.comb(K - 1, t) * plan.L1 // (m * alpha)
    quotas = _slot_quotas(ranks, cycle, slots1, 0)
    counts = {G: q for G, q in zip(enumerate_subsets(K, fp), quotas.tolist()) if q}
    phases = _count_phases(monkeypatch)
    greedy = _count_greedy_phases(monkeypatch)
    network, arrays = _network(K, t, m)
    got = _assignment(K, t, m, arrays, _solve_hosting(network, quotas, plan.L1))
    # seven phases: the greedy first phase, then six level graphs and the
    # BFS that finds the sink out of reach
    assert got is not None and len(greedy) + len(phases) - 1 == 7
    assert got == oracle._solve_hosting(classes, candidates, counts, plan.L1, m)


def _added_network(classes, candidates, quotas, L, m):
    """A rung's hosting network added edge by edge, as the scheduler built
    it before it laid the network out as arrays, with each node's label:
    "source", ("class", (j, T)), ("pair", j, G), ("group", G) or "sink"."""
    groups = sorted(g for g, q in quotas.items() if q > 0)
    gid = {g: i for i, g in enumerate(groups)}
    usable = [[G for G in candidates[cls] if G in gid] for cls in classes]
    jg_ids = {}
    for (j, _), gs in zip(classes, usable):
        for G in gs:
            if (j, G) not in jg_ids:
                jg_ids[j, G] = len(jg_ids)
    jg_base = 1 + len(classes)
    grp_base = jg_base + len(jg_ids)
    net = _Edges(grp_base + len(groups) + 1)
    for ci, ((j, _), gs) in enumerate(zip(classes, usable), 1):
        net.add_edge(0, ci, L)
        for G in gs:
            net.add_edge(ci, jg_base + jg_ids[j, G], L)
    for (j, G), ji in sorted(jg_ids.items()):
        net.add_edge(jg_base + ji, grp_base + gid[G], quotas[G])
    for G in groups:
        net.add_edge(grp_base + gid[G], net.n - 1, m * quotas[G])
    pairs = sorted(jg_ids, key=jg_ids.get)
    labels = ["source", *(("class", c) for c in classes),
              *(("pair", j, G) for j, G in pairs), *(("group", G) for G in groups), "sink"]
    return net, labels


def _same_network(K, t, m, built, quotas, L, classes, candidates):
    """Assert that a rung's network, on its fixed node ids, is on its live
    half-edges (those of edges of positive capacity) the one added edge by
    edge, edge for edge: the same heads, capacities and adjacency order of
    every node, matched by label; and that every dead half-edge starts at
    capacity 0.  ``built`` is what ``_network`` returns.  Returns both, and
    the live half-edges as a mask."""
    network, (receiver, subset) = built
    net = network.rung(quotas, L)
    live = np.repeat(network.capacities(quotas, L) > 0, 2)
    ids = np.cumsum(live) - 1  # a live half-edge's id among the live ones
    subsets, groups = enumerate_subsets(K, t), enumerate_subsets(K, m + 1)
    counts = {G: q for G, q in zip(groups, quotas.tolist()) if q}
    edges, added = _added_network(classes, candidates, counts, L, m)
    labels = ["source",
              *(("class", (j, subsets[T])) for j, T in zip(receiver.tolist(), subset.tolist())),
              *(("pair", j, groups[g]) for j, g in network.pairs.tolist()),
              *(("group", G) for G in groups), "sink"]
    assert [labels[v] for v in net.head[live].tolist()] == [added[v] for v in edges.to]
    cap = np.array(net.cap)
    assert cap[live].tolist() == edges.cap and not cap[~live].any()
    adjacency = {}
    for u in range(net.n):
        out = net.order[net.start[u]:net.start[u + 1]]
        adjacency[labels[u]] = ids[out[live[out]]].tolist()
    assert {u: e for u, e in adjacency.items() if e} == dict(zip(added, edges.adj))
    return net, edges, live


def _same_residual(net, live, ref):
    """Assert that a flow left on the live half-edges the residual network
    ``ref`` leaves, edge for edge, and every dead half-edge at 0."""
    cap = np.array(net.cap)
    assert cap[live].tolist() == ref.cap and not cap[~live].any()


@pytest.mark.parametrize("K", range(4, 10))
def test_every_rung_network_is_the_edge_by_edge_network(K):
    rungs = dead = 0
    for t in range(1, K):
        for alpha in range(1, K // 2 + 1):
            fp = min(K // alpha, t + 1)
            m = fp - 1
            if m == t:  # a forced shape: its rungs run no flow
                continue
            plan = make_split_plan(SystemConfig(K, K, t, alpha_max=K // 2), alpha=alpha)
            built = _network(K, t, m)
            classes, candidates = _classes_and_candidates(K, t, m)
            ranks, cycle = _ranks(K, fp, alpha)
            slots1 = K * math.comb(K - 1, t) * plan.L1 // (m * alpha)
            for rho, offset in _rho_ladder(slots1, len(ranks)):
                quotas = _slot_quotas(ranks, cycle, slots1 * rho, offset)
                _same_network(K, t, m, built, quotas, plan.L1 * rho, classes, candidates)
                rungs += 1
                dead += (quotas == 0).any()
    # many rungs leave some groups' edges out
    assert rungs > dead > 0


def test_the_central_fluid_rung_network_flows_as_the_edge_by_edge_one():
    # the first rung of the flow of the test above
    plan = make_split_plan(SystemConfig(12, 12, 6, alpha_max=3))
    K, t, alpha, L = 12, 6, plan.alpha, plan.L1
    fp = min(K // alpha, t + 1)
    m = fp - 1
    ranks, cycle = _ranks(K, fp, alpha)
    quotas = _slot_quotas(ranks, cycle, K * math.comb(K - 1, t) * L // (m * alpha), 0)
    classes, candidates = _classes_and_candidates(K, t, m)
    net, edges, live = _same_network(K, t, m, _network(K, t, m), quotas, L, classes, candidates)
    ref = edges.dinic()
    assert net.max_flow(0, net.n - 1) == ref.max_flow(0, ref.n - 1) == L * len(classes)
    _same_residual(net, live, ref)


def test_the_central_fluid_rung_flow_leaves_the_recursive_residual(monkeypatch):
    # the greedy first phase, then the flow from its residual network, as
    # the ladder runs them, against the recursive flow on the rung's
    # network added edge by edge
    plan = make_split_plan(SystemConfig(12, 12, 6, alpha_max=3))
    K, t, alpha, L = 12, 6, plan.alpha, plan.L1
    fp = min(K // alpha, t + 1)
    m = fp - 1
    ranks, cycle = _ranks(K, fp, alpha)
    quotas = _slot_quotas(ranks, cycle, K * math.comb(K - 1, t) * L // (m * alpha), 0)
    classes, candidates = _classes_and_candidates(K, t, m)
    network, arrays = built = _network(K, t, m)
    _, edges, live = _same_network(K, t, m, built, quotas, L, classes, candidates)
    ref = _copy_network(edges, oracle._Dinic)
    assert ref.max_flow(0, ref.n - 1) == L * len(classes)
    nets = _count_flows(monkeypatch)
    assert _solve_hosting(network, quotas, L) is not None
    assert len(nets) == 1
    _same_residual(nets[0], live, ref)


def _walk_counts(monkeypatch, argv):
    """The flows run, the rungs certified infeasible without a flow and
    the stdout SHA-256 of one ``simulate`` command."""
    nets = _count_flows(monkeypatch)
    rungs = []
    solve = centralized._solve_hosting

    def counting(*args):
        rungs.append(1)
        return solve(*args)

    monkeypatch.setattr(centralized, "_solve_hosting", counting)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["simulate", "--scheme", "centralized", *argv.split()]) == 0
    return len(nets), len(rungs) - len(nets), hashlib.sha256(out.getvalue().encode()).hexdigest()


# the ladder walks whose rungs fail by the flow, not by a quota check:
# flows run and rungs certified, and the SHA-256 of their stdout, which
# the walk of every rung by a flow printed
LADDER_WALKS = {
    "--N 12 --K 12 --M 6 --alpha 3 --alpha-max 3": (
        7, 66, "1167f85fa3fb26eb17d4c6290a98dd3ac9399f7a0cbd39d878bb4d39bdc81513"),
    "--N 11 --K 11 --M 5 --alpha 3 --alpha-max 3": (
        6, 79, "44ffa8afa2aac8b7992c61be776ea6b96f7e2c9d5d5accc24b5a19e492bf402b"),
    "--N 11 --K 11 --M 7 --alpha 2 --alpha-max 2": (
        9, 52, "d8b6d87adb8c1a27e9ef7d50163bba784dce7335708724d83adf286579ce405b"),
    "--N 12 --K 12 --M 4 --alpha-max 4": (
        7, 78, "7dc8e87a01890e9febe86dbaa70babfb3ad059d10c97f1684ff5028a73b6e2eb"),
}


@pytest.mark.parametrize("walk", LADDER_WALKS)
def test_ladder_walks_certify_their_infeasible_rungs(walk, monkeypatch):
    flows, certified, digest = _walk_counts(monkeypatch, walk)
    assert flows <= 10
    assert (flows, certified, digest) == LADDER_WALKS[walk]


@pytest.mark.parametrize("K", [8, 9])
def test_certified_rungs_are_infeasible_under_the_oracle(K, monkeypatch):
    # every rung of every shape that runs flows, up to the first feasible
    # one, against the oracle: each rung a kept cut certifies is one the
    # oracle finds infeasible, and the chosen rung and its assignment are
    # the oracle's
    nets = _count_flows(monkeypatch)
    rungs = certified = 0
    for t in range(1, K):
        for alpha in range(1, K // 2 + 1):
            if min(K // alpha, t + 1) - 1 == t:
                continue  # a forced shape: its rungs run no flow
            nets.clear()
            walked, _ = _walk_ladder(K, t, alpha)
            rungs += walked
            certified += walked - len(nets)
    assert (rungs, certified) == {8: (157, 113), 9: (678, 582)}[K]


# (N, K, M, alpha_max, alpha, server share) -> SHA-256 of the export and of
# repr(user_rounds), recorded from the max-flow ladder; the README's worked
# example runs the flow, (6,6,2,3) a forced rung, and (12,12,6,3), the only
# central_fluid benchmark shape that runs a flow, a seven-phase one
PINNED_RUNS = {
    ("12", "12", "6", "3", None, None): (
        "fc4402c2c3d61134cf26d1fecc634ffe774647f91389bc1e395d4a9b10b9bac2",
        "0626c21fb6ee8a83fa13b2260e3b317fcc21f9b35c3ccf0d73cdc4ab4a1d91ab",
    ),
    ("6", "6", "4", "3", "2", "1/3"): (
        "5c3f37386b5fbb44ab27e4e8820ad32a191c837868bb0908565c9a8b0cc19d44",
        "36d680d55aede44bc4529ea374418ad9bfce74f5dcdb4eb849ec2b5d1f83bbe8",
    ),
    ("6", "6", "2", "3", None, None): (
        "51b1cd9b88a33a0506dff8a22e061c75a64af480e2eb652df0c639c7fd44dbfa",
        "4e6757c0951d19521ec6e10dd85d379daf1a86ee1cd1ae49d99be5e977e5a082",
    ),
}


@pytest.mark.parametrize("run", sorted(PINNED_RUNS, key=str))
def test_exported_log_and_schedule_are_unchanged(run, tmp_path, capsys):
    N, K, M, amax, alpha, share = run
    export_sha, rounds_sha = PINNED_RUNS[run]
    path = tmp_path / "log.csv"
    argv = ["simulate", "--scheme", "centralized", "--N", N, "--K", K, "--M", M,
            "--alpha-max", amax, "--export-log", str(path)]
    if alpha:
        argv += ["--alpha", alpha, "--server-share", share]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == export_sha
    cfg = SystemConfig(int(N), int(K), int(M), alpha_max=int(amax))
    _, sched = build_delivery(
        cfg, tuple(cfg.users()), alpha=int(alpha) if alpha else None,
        server_share=Fraction(share) if share else None,
    )
    assert hashlib.sha256(repr(sched.user_rounds).encode()).hexdigest() == rounds_sha
