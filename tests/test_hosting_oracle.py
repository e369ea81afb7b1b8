"""The centralized ladder's rung decisions against the max-flow oracle.

``hosting_oracle`` keeps the hosting solver the scheduler ran before: every
rung of the (rho, offset) ladder is decided by a full max-flow over quotas
counted from the whole slot sequence.  The scheduler now counts quotas in
closed form, settles forced rungs (groups of t+1 members, m == t) by a quota
check and runs the flow on numpy levels pruned to the shortest paths, with
an iterative search that resumes after each augmentation.  On every rung
checked here it must reach the same decision, with the same assignment, and
on every network generated here the flow must leave the same residual
network, edge for edge.
"""

import hashlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hosting_oracle as oracle
from coopcache import SystemConfig, enumerate_equal_partitions, make_split_plan
from coopcache.centralized import (
    _Dinic,
    _forced_hosting,
    _hosting_decider,
    _ladder_quotas,
    _rho_ladder,
    _slot_quotas,
    _solve_hosting,
    build_delivery,
)
from coopcache.cli import main


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
    cycle = Counter(G for part in partitions for G in part)
    slots1 = K * math.comb(K - 1, t) * plan.L1 // (m * alpha)
    decide = _hosting_decider(K, t, m)
    beta = len(partitions)
    ladder = _rho_ladder(slots1, beta)
    if last_rung:
        rho, offset = ladder[-1]
        assert (rho, offset) == (beta // math.gcd(slots1, beta), 0)
        quotas = _slot_quotas(partitions, cycle, slots1 * rho, offset)
        assert decide(quotas, plan.L1 * rho) is not None, (K, t, alpha)
    rungs = 0
    for rho, offset in ladder:
        L, slots = plan.L1 * rho, slots1 * rho
        quotas = _slot_quotas(partitions, cycle, slots, offset)
        assert quotas == oracle._slot_quotas(partitions, slots, offset)[1]
        got = decide(quotas, L)
        assert got == oracle._solve_hosting(classes, candidates, dict(quotas), L, m), (
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
    slid = 0
    for t in range(1, K):
        for alpha in range(1, K // 2 + 1):
            plan = make_split_plan(SystemConfig(K, K, t, alpha_max=K // 2), alpha=alpha)
            fp = min(K // alpha, t + 1)
            partitions = enumerate_equal_partitions(K, fp, alpha)
            cycle = Counter(G for part in partitions for G in part)
            slots1 = K * math.comb(K - 1, t) * plan.L1 // ((fp - 1) * alpha)
            ladder = _rho_ladder(slots1, len(partitions))
            rungs = list(_ladder_quotas(partitions, cycle, slots1, ladder))
            assert [(rho, offset) for rho, offset, _ in rungs] == ladder
            for rho, offset, quotas in rungs:
                expected = oracle._slot_quotas(partitions, slots1 * rho, offset)[1]
                assert dict(quotas) == dict(expected), (K, t, alpha, rho, offset)
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
    decide = _hosting_decider(K, t, m)
    hosts = list(itertools.combinations(range(1, K + 1), t + 1))
    classes = [(j, T) for j in range(1, K + 1)
               for T in itertools.combinations(range(1, K + 1), t) if j not in T]
    candidates = {(j, T): [tuple(sorted((j,) + T))] for (j, T) in classes}
    even = Counter({G: (t + 1) * L // m for G in hosts})
    forced = {(j, T): [(tuple(sorted((j,) + T)), L)] for (j, T) in classes}
    assert decide(even, L) == forced
    assert oracle._solve_hosting(classes, candidates, dict(even), L, m) == forced
    uneven = Counter(even)
    uneven[hosts[0]] -= 1
    uneven[hosts[-1]] += 1  # same total, one group short
    assert decide(uneven, L) is None
    assert _forced_hosting(classes, hosts, uneven, L, m) is None
    assert oracle._solve_hosting(classes, candidates, dict(uneven), L, m) is None


def _copy_network(net, cls):
    other = cls(net.n)
    for eid in range(0, len(net.to), 2):
        other.add_edge(net.to[eid + 1], net.to[eid], net.cap[eid])
    return other


@given(st.integers(min_value=0, max_value=2**32))
def test_iterative_dinic_finds_the_recursive_flow(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    net = _Dinic(n)
    for _ in range(rng.randint(0, 40)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            net.add_edge(u, v, rng.randint(0, 9))
    ref = _copy_network(net, oracle._Dinic)
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


def _hosting_network(rng):
    """A random network of the hosting flow's shape: source -> classes ->
    (receiver, group) -> groups -> sink, with L units per class, a class's
    edges to its candidate groups' (receiver, group) nodes, caps quota(G)
    into each group and m*quota(G) out of it.  A class's candidates are a
    run of consecutive groups, so that rerouting one class's units pushes
    its neighbours' on along the ring, and the quotas are tight, summing
    to about what the classes send: later phases then need long paths
    through reverse edges."""
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
    net = _Dinic(grp_base + n_groups + 1)
    for ci, (j, picks) in enumerate(classes):
        net.add_edge(0, 1 + ci, L)
        for g in picks:
            net.add_edge(1 + ci, jg_base + pairs[(j, g)], L)
    for (j, g), ji in sorted(pairs.items()):
        net.add_edge(jg_base + ji, grp_base + g, quotas[g])
    for g in range(n_groups):
        net.add_edge(grp_base + g, net.n - 1, m * quotas[g])
    return net


def test_hosting_shaped_flows_match_the_recursive_flow(monkeypatch):
    phases = _count_phases(monkeypatch)
    deep = saturated = 0
    for seed in range(300):
        net = _hosting_network(random.Random(seed))
        ref = _copy_network(net, oracle._Dinic)
        total = sum(net.cap[eid] for eid in net.adj[0])
        phases.clear()
        flow = net.max_flow(0, net.n - 1)
        assert flow == ref.max_flow(0, net.n - 1), seed
        assert net.cap == ref.cap, seed  # same residual network, edge for edge
        deep += len(phases) - 1 >= 5
        saturated += flow == total
    # many flows take five phases or more, so augmenting paths of 12 edges
    # or more were exercised; both feasible and infeasible flows occur
    assert deep >= 20 and 30 <= saturated <= 270


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
    partitions = enumerate_equal_partitions(K, fp, alpha)
    cycle = Counter(G for part in partitions for G in part)
    slots1 = K * math.comb(K - 1, t) * plan.L1 // (m * alpha)
    quotas = dict(_slot_quotas(partitions, cycle, slots1, 0))
    phases = _count_phases(monkeypatch)
    got = _solve_hosting(classes, candidates, quotas, plan.L1, m)
    assert got is not None and len(phases) - 1 == 7
    assert got == oracle._solve_hosting(classes, candidates, quotas, plan.L1, m)


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
