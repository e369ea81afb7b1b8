"""The centralized assembly and audit against their reference versions.

``assembly_oracle`` keeps the assembly and audit the scheduler ran before:
layers counted in a ``Counter``, pico-files taken by cursor, rounds merged
by comparing slot partitions as tuples, deliveries counted in a dict.  On
the rung the ladder chooses, the one-pass assembly in
``coopcache.centralized`` must build the same ``repr(user_rounds)``, and
its audit must pass and refuse exactly the schedules the reference audit
passes and refuses, with the same message.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

import assembly_oracle as oracle
import coopcache.centralized as centralized
from coopcache import (
    SchedulingError,
    SystemConfig,
    build_central_placement,
    build_user_schedule,
    enumerate_subsets,
    make_split_plan,
)
from test_centralized import AUDIT_BREAKS, _replace_symbol
from test_hosting_oracle import _assignment

# (N, K, M, alpha_max) of the benchmark's central_fluid workload
CENTRAL_FLUID = [
    (6, 6, 4, 3), (8, 8, 2, 4), (16, 8, 4, 4), (18, 9, 4, 3),
    (10, 10, 3, 5), (20, 10, 4, 5), (12, 12, 6, 3),
]
SMALL_SHAPES = [
    (K, t, alpha)
    for K in range(2, 9)
    for t in range(1, K)
    for alpha in range(1, K // 2 + 1)
]


def _both_assemblies(cfg, plan, demands, monkeypatch):
    """The user schedule ``build_user_schedule`` returns, and the reference
    assembly of the rung it chose (the rung's inputs are recorded on the
    way, so the ladder runs once)."""
    calls = []
    assemble = centralized._assemble_schedule

    def record(*args):
        calls.append(args)
        return assemble(*args)

    monkeypatch.setattr(centralized, "_assemble_schedule", record)
    sched = build_user_schedule(cfg, plan, demands)
    if not calls:
        return sched, None
    [(config, placement, plan, d, ranks, offset, slots, quotas, classes, hosting,
      L, fp)] = calls
    groups = enumerate_subsets(config.K, fp)
    partitions = [tuple(groups[G] for G in p) for p in ranks.tolist()]
    seq = [partitions[(offset + i) % len(partitions)] for i in range(slots)]
    counts = {G: q for G, q in zip(groups, quotas.tolist()) if q}
    assignment = _assignment(config.K, placement.t, fp - 1, classes, hosting)
    ref = oracle._assemble_schedule(
        config, placement, plan, d, seq, counts, assignment, L, fp
    )
    return sched, ref


def _check_shape(N, K, M, alpha, monkeypatch, alpha_max=None):
    cfg = SystemConfig(N, K, M, alpha_max=alpha_max or max(1, K // 2))
    plan = make_split_plan(cfg, alpha=alpha)
    demands = tuple(random.Random(N * 1000 + K * 10 + alpha).sample(range(1, N + 1), K))
    sched, ref = _both_assemblies(cfg, plan, demands, monkeypatch)
    if ref is None:  # users deliver nothing
        assert sched.user_rounds == []
        return
    assert repr(sched.user_rounds) == repr(ref.user_rounds), (N, K, M, alpha)


@pytest.mark.parametrize("K", range(2, 9))
def test_assembly_matches_the_oracle_for_k_up_to_8(K, monkeypatch):
    for k, t, alpha in SMALL_SHAPES:
        if k == K:
            _check_shape(K, K, t, alpha, monkeypatch)


@pytest.mark.parametrize("shape", CENTRAL_FLUID, ids=lambda s: ",".join(map(str, s)))
def test_assembly_matches_the_oracle_on_the_benchmark_shapes(shape, monkeypatch):
    N, K, M, alpha_max = shape
    cfg = SystemConfig(N, K, M, alpha_max=alpha_max)
    _check_shape(N, K, M, make_split_plan(cfg).alpha, monkeypatch, alpha_max)


def _worked_schedule():
    # (6, 6, 4) at alpha 2: groups of three, two picos per symbol
    cfg = SystemConfig(6, 6, 4, alpha_max=3)
    demands = tuple(cfg.users())
    plan = make_split_plan(cfg, alpha=2, server_share=Fraction(1, 3))
    sched = build_user_schedule(cfg, plan, demands)
    first = sched.user_rounds[0][1][0]
    args = (first.constituents[0].fragment.count, len(first.constituents), first.size)
    return cfg, build_central_placement(cfg), demands, sched, args


def _verdicts(cfg, placement, demands, schedule, args):
    """(fast, reference) audit verdicts: None for a pass, else the message."""
    out = []
    for audit in (centralized._audit_user_schedule, oracle._audit_user_schedule):
        try:
            audit(cfg, placement, demands, schedule, *args)
            out.append(None)
        except SchedulingError as exc:
            out.append(str(exc))
    return out


@pytest.mark.parametrize("brk", sorted(AUDIT_BREAKS))
def test_audit_gives_the_oracle_verdict_on_each_break(brk):
    cfg, placement, demands, sched, args = _worked_schedule()
    assert _verdicts(cfg, placement, demands, sched, args) == [None, None]
    broken = _replace_symbol(sched, AUDIT_BREAKS[brk][0])
    fast, ref = _verdicts(cfg, placement, demands, broken, args)
    assert fast == ref and fast is not None


def _mutate(sched, rng):
    """A copy of ``sched`` with one random symbol dropped, repeated, moved to
    another round, or given another constituent's fragment or receiver."""
    rounds = [(part, list(syms)) for part, syms in sched.user_rounds]
    r = rng.randrange(len(rounds))
    syms = rounds[r][1]
    i = rng.randrange(len(syms))
    kind = rng.choice(["drop", "repeat", "move", "fragment", "receiver"])
    if kind == "drop":
        del syms[i]
    elif kind == "repeat":
        syms.insert(rng.randrange(len(syms) + 1), syms[i])
    elif kind == "move":
        rounds[rng.randrange(len(rounds))][1].append(syms.pop(i))
    else:
        donor = rng.choice(rng.choice(rounds)[1]).constituents
        cons = list(syms[i].constituents)
        k = rng.randrange(len(cons))
        field = "fragment" if kind == "fragment" else "receiver"
        cons[k] = dataclasses.replace(
            cons[k], **{field: getattr(rng.choice(donor), field)}
        )
        syms[i] = dataclasses.replace(syms[i], constituents=tuple(cons))
    return dataclasses.replace(sched, user_rounds=rounds)


def test_audit_gives_the_oracle_verdict_on_random_breaks():
    cfg, placement, demands, sched, args = _worked_schedule()
    rng = random.Random(13)
    refused = 0
    for _ in range(300):
        fast, ref = _verdicts(cfg, placement, demands, _mutate(sched, rng), args)
        assert fast == ref
        refused += fast is not None
    assert refused > 200  # most mutations break the schedule
