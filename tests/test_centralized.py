"""Centralized scheme: placement, parallelism choice, split plan, rates,
and the schedule builders' structural guarantees.

Delay values at hand-checkable configurations are frozen as exact
rationals; the parallelism optimizer is compared against a brute-force
argmin re-derived here.
"""

import dataclasses
import math
import re
import time
from fractions import Fraction as Frac

import pytest
from hypothesis import given
from hypothesis import strategies as st

import coopcache.centralized as centralized
from coopcache import (
    SchedulingError,
    SystemConfig,
    build_central_placement,
    build_delivery,
    build_server_schedule,
    centralized_delay,
    centralized_rates,
    choose_alpha,
    enumerate_subsets,
    make_split_plan,
    run_centralized,
)
from retired_helpers import piecewise_alpha

WORKED = SystemConfig(6, 6, 4, alpha_max=3)  # t = 4


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------


def test_placement_subfile_bookkeeping():
    placement = build_central_placement(WORKED)
    C = math.comb(6, 4)
    assert len(placement.subsets) == C
    # user k caches the subfiles whose subset contains k: C(K-1, t-1) of them
    for k in range(1, 7):
        cached = [T for T in placement.subsets if k in T]
        assert len(cached) == math.comb(5, 3)
    # total cache = N * C(K-1,t-1)/C(K,t) = N*t/K = M  (as fraction of F each)
    frac = Frac(math.comb(5, 3), C) * 6
    assert frac == Frac(4)


def test_placement_needs_integer_t():
    with pytest.raises(ValueError):
        build_central_placement(SystemConfig(20, 10, 3, alpha_max=5))


# ---------------------------------------------------------------------------
# parallelism choice and split plan
# ---------------------------------------------------------------------------


def _delay_at(config, alpha):
    t = int(config.t)
    m = min(config.K // alpha - 1, t)
    return Frac(config.K) * (1 - config.p) / (1 + t + alpha * m)


def test_choose_alpha_is_argmin():
    for K in range(2, 13):
        for t in range(1, K):
            cfg = SystemConfig(K, K, Frac(t * K, K), alpha_max=max(1, K // 2))
            best = min(range(1, cfg.alpha_max + 1), key=lambda a: _delay_at(cfg, a))
            assert _delay_at(cfg, choose_alpha(cfg)) == _delay_at(cfg, best)


def test_piecewise_alpha_branches():
    # dense caches: one big group is optimal
    assert piecewise_alpha(SystemConfig(6, 6, 5, alpha_max=3)) == 1
    # sparse caches: all allowed senders in parallel
    assert piecewise_alpha(SystemConfig(12, 12, 1, alpha_max=6)) == 6
    # in between: the smooth optimum K/(t+1)
    assert piecewise_alpha(SystemConfig(10, 10, 2, alpha_max=5)) == Frac(10, 3)


def test_piecewise_alpha_never_beats_integer_argmin():
    # the rounded smooth optimum is as good as exhaustive search
    for K in range(3, 12):
        for t in range(1, K):
            cfg = SystemConfig(K, K, t, alpha_max=max(1, K // 2))
            star = piecewise_alpha(cfg)
            nearby = {max(1, math.floor(star)), min(cfg.alpha_max, math.ceil(star))}
            assert min(_delay_at(cfg, a) for a in nearby) == _delay_at(
                cfg, choose_alpha(cfg)
            )


def test_split_plan_worked_example():
    # alpha=1 and alpha=2 tie at delay 2/9 here; ties break toward fewer
    # parallel senders
    assert _delay_at(WORKED, 1) == _delay_at(WORKED, 2)
    plan = make_split_plan(WORKED)
    assert plan.alpha == 1
    assert plan.server_share == Frac(5, 9)  # balanced split
    assert plan.L1 == 2

    plan = make_split_plan(WORKED, alpha=2, server_share=Frac(1, 3))
    assert (plan.alpha, plan.server_share, plan.L1) == (2, Frac(1, 3), 2)


def test_split_plan_layer_count_is_minimal():
    for K in range(2, 10):
        for t in range(1, K):
            for alpha in range(1, max(1, K // 2) + 1):
                cfg = SystemConfig(K, K, t, alpha_max=max(1, K // 2))
                m = min(K // alpha - 1, t)
                if m == 0:
                    continue
                plan = make_split_plan(cfg, alpha=alpha)
                per_link = Frac(K * math.comb(K - 1, t), alpha * int(m))
                assert (per_link * plan.L1).denominator == 1
                if plan.L1 > 1:
                    assert (per_link * (plan.L1 - 1)).denominator != 1


def test_split_plan_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_split_plan(WORKED, alpha=4)  # above alpha_max
    with pytest.raises(ValueError):
        make_split_plan(WORKED, server_share=Frac(3, 2))
    with pytest.raises(ValueError):
        make_split_plan(SystemConfig(20, 10, 3, alpha_max=5))  # t not integer


# ---------------------------------------------------------------------------
# closed-form rates
# ---------------------------------------------------------------------------


def test_worked_example_rates():
    # balanced default: both links carry 2/9
    rates = centralized_rates(WORKED)
    assert (rates.R1, rates.R2, rates.T) == (Frac(2, 9), Frac(2, 9), Frac(2, 9))
    # deliberately server-light split: delay set by the cooperation links
    rates = centralized_rates(WORKED, alpha=2, server_share=Frac(1, 3))
    assert (rates.R1, rates.R2, rates.T) == (Frac(2, 15), Frac(1, 3), Frac(1, 3))


def test_full_cache_grid_delay_oracle():
    # t = K-1 with alpha_max >= 1: delay collapses to 1/(2K-1)
    for K in range(3, 8):
        cfg = SystemConfig(K, K, K - 1, alpha_max=1)
        assert centralized_delay(cfg) == Frac(1, 2 * K - 1)


def test_delay_is_min_over_alpha():
    for K in (5, 8, 11):
        for t in range(1, K):
            cfg = SystemConfig(K, K, t, alpha_max=max(1, K // 2))
            assert centralized_delay(cfg) == min(
                _delay_at(cfg, a) for a in range(1, cfg.alpha_max + 1)
            )


def test_degenerate_memory_endpoints():
    empty = centralized_rates(SystemConfig(5, 5, 0, alpha_max=2))
    assert (empty.R1, empty.R2, empty.T) == (Frac(5), Frac(0), Frac(5))
    full = centralized_rates(SystemConfig(5, 5, 5, alpha_max=2))
    assert (full.R1, full.R2, full.T) == (Frac(0), Frac(0), Frac(0))


def test_noninteger_t_interpolates():
    lo = SystemConfig(6, 6, 2, alpha_max=3)
    hi = SystemConfig(6, 6, 3, alpha_max=3)
    mid = SystemConfig(6, 6, Frac(5, 2), alpha_max=3)
    rates = centralized_rates(mid)
    assert rates.interpolated
    assert rates.L1 is None and rates.server_share is None
    half = Frac(1, 2)
    assert rates.T == half * centralized_delay(lo) + half * centralized_delay(hi)
    assert rates.R1 == half * (
        centralized_rates(lo).R1 + centralized_rates(hi).R1
    )


def test_interpolation_respects_fixed_alpha():
    mid = SystemConfig(6, 6, Frac(5, 2), alpha_max=3)
    pinned = centralized_rates(mid, alpha=1)
    t2 = centralized_rates(SystemConfig(6, 6, 2, alpha_max=3), alpha=1)
    t3 = centralized_rates(SystemConfig(6, 6, 3, alpha_max=3), alpha=1)
    assert pinned.T == Frac(1, 2) * (t2.T + t3.T)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_server_schedule_shape():
    plan = make_split_plan(WORKED, alpha=2, server_share=Frac(1, 3))
    symbols = build_server_schedule(WORKED, plan, demands=(1, 2, 3, 4, 5, 6))
    assert len(symbols) == math.comb(6, 5)
    assert all(s.sender == 0 for s in symbols)
    # broadcast: every user hears the server link
    assert all(s.group == (1, 2, 3, 4, 5, 6) for s in symbols)
    assert all(s.size == Frac(1, 3) * Frac(1, 15) for s in symbols)
    # the served subsets run over all (t+1)-subsets, one fragment per member
    served = sorted(tuple(sorted(c.receiver for c in s.constituents)) for s in symbols)
    assert served == enumerate_subsets(6, 5)


def test_worked_example_schedule_structure():
    plan, sched = build_delivery(
        WORKED, demands=(1, 2, 3, 4, 5, 6), alpha=2, server_share=Frac(1, 3)
    )
    user_symbols = [s for _, syms in sched.user_rounds for s in syms]
    assert len(user_symbols) == 30
    assert all(s.size == Frac(1, 45) for s in user_symbols)
    assert len(sched.user_rounds) == 15
    for part, syms in sched.user_rounds:
        assert len(part.groups) == 2
        # alpha=2 splits the six users into two in-group multicast cliques
        assert all(len(g) == 3 for g in part.groups)
        for s in syms:
            assert s.sender in s.group
            for c in s.constituents:
                assert c.receiver in s.group and c.receiver != s.sender


def test_every_sender_is_a_group_member():
    cfg = SystemConfig(8, 8, 2, alpha_max=4)
    _, sched = build_delivery(cfg, demands=tuple(range(1, 9)))
    for part, syms in sched.user_rounds:
        members = {u for g in part.groups for u in g}
        for s in syms:
            assert s.sender in members
            assert tuple(sorted(s.group)) in part.groups


@given(
    st.integers(min_value=2, max_value=8).flatmap(
        lambda K: st.tuples(
            st.just(K),
            st.integers(min_value=1, max_value=K - 1),
            st.integers(min_value=1, max_value=max(1, K // 2)),
        )
    )
)
def test_schedule_builds_for_any_feasible_shape(shape):
    K, t, alpha = shape
    cfg = SystemConfig(K, K, t, alpha_max=max(1, K // 2))
    try:
        plan, sched = build_delivery(cfg, demands=tuple(range(1, K + 1)), alpha=alpha)
    except SchedulingError as exc:  # pragma: no cover - should never happen
        pytest.fail(f"scheduler failed on K={K} t={t} alpha={alpha}: {exc}")
    # total user traffic: every needed fragment once, m receivers per symbol
    total = sum(s.size for _, syms in sched.user_rounds for s in syms)
    m = min(K // plan.alpha - 1, t)
    expected = (1 - plan.server_share) * K * (1 - cfg.p) / m if m > 0 else Frac(0)
    assert total == expected


# ---------------------------------------------------------------------------
# size guard
# ---------------------------------------------------------------------------


def test_oversized_user_schedule_is_refused_before_enumeration():
    cfg = SystemConfig(28, 14, 4, alpha_max=7)  # once killed for memory
    start = time.perf_counter()
    with pytest.raises(ValueError, match="may need 16816800 user symbols"):
        build_delivery(cfg, demands=tuple(range(1, 15)))
    assert time.perf_counter() - start < 1.0


class _Enumerated(Exception):
    pass


@pytest.mark.parametrize(
    "shape", [(24, 12, 6, 3), (20, 10, 4, 5)]  # 69,300 and 25,200 symbols
)
def test_size_guard_admits_schedules_below_the_limit(shape, monkeypatch):
    def stop(*args):
        raise _Enumerated

    # the guard runs first; reaching the partition enumeration means it passed
    monkeypatch.setattr(centralized, "partition_table", stop)
    N, K, M, amax = shape
    with pytest.raises(_Enumerated):
        build_delivery(SystemConfig(N, K, M, alpha_max=amax), tuple(range(1, K + 1)))


def test_size_guard_limit_is_inclusive(monkeypatch):
    demands = tuple(range(1, 7))
    # the worked example at alpha=2: lcm(15 slots, 10 partitions) * 2 = 60
    monkeypatch.setattr(centralized, "MAX_USER_SYMBOLS", 60)
    _, sched = build_delivery(WORKED, demands, alpha=2, server_share=Frac(1, 3))
    assert sched.user_symbol_count() == 30  # rho = 1 suffices
    monkeypatch.setattr(centralized, "MAX_USER_SYMBOLS", 59)
    with pytest.raises(ValueError, match="may need 60 user symbols"):
        build_delivery(WORKED, demands, alpha=2, server_share=Frac(1, 3))


@pytest.mark.parametrize(
    "M,count,message",
    [
        # t = 2: C(6,2) = 15 subsets, C(6,3) = 20 server symbols
        (2, 20, "server schedule for K=6, t=2 needs C(K,t+1) = 20 server symbols"),
        # t = 4: C(6,4) = 15 subsets, C(6,5) = 6 server symbols
        (4, 15, "placement for K=6, t=4 needs C(K,t) = 15 subsets"),
    ],
)
def test_size_guard_counts_a_server_only_plan(M, count, message, monkeypatch):
    cfg = SystemConfig(6, 6, M, alpha_max=3)
    demands = tuple(range(1, 7))
    monkeypatch.setattr(centralized, "MAX_USER_SYMBOLS", count)
    _, sched = build_delivery(cfg, demands, server_share=Frac(1))
    assert sched.user_rounds == []
    assert len(sched.server_symbols) == math.comb(6, M + 1)
    monkeypatch.setattr(centralized, "MAX_USER_SYMBOLS", count - 1)
    for build in (
        lambda: build_delivery(cfg, demands, server_share=Frac(1)),
        lambda: run_centralized(cfg, demands, server_share=Frac(1)),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


@pytest.mark.parametrize("share", [Frac(1, 2), Frac(0)])
def test_both_builders_refuse_a_user_share_at_t_0(share):
    # no user caches anything to send, so such a plan would deliver only
    # the server's share of every file; lambda = 1 is built
    cfg = SystemConfig(4, 4, 0, alpha_max=2)
    demands = (1, 2, 3, 4)
    plan = make_split_plan(cfg, server_share=share)
    message = f"^server share {share} at t=0: users cache nothing to send, so it must be 1$"
    for build in (
        lambda: build_delivery(cfg, demands, server_share=share),
        lambda: centralized.build_user_schedule(cfg, plan, demands),
    ):
        with pytest.raises(ValueError, match=message):
            build()
    _, sched = build_delivery(cfg, demands, server_share=Frac(1))
    assert sched.user_rounds == [] and len(sched.server_symbols) == 4


@pytest.mark.parametrize("share", [Frac(1, 2), Frac(0)])
@pytest.mark.parametrize("M", [0, Frac(1, 2)])
def test_the_closed_form_refuses_a_user_share_at_t_0(M, share):
    # the closed forms put R2 = 0 there, and T = 2 at lambda = 1/2 where
    # the only deliverable plan, lambda = 1, takes T = 4; M = 1/2 shares
    # memory with the t = 0 placement
    cfg = SystemConfig(4, 4, M, alpha_max=2)
    message = f"^server share {share} at t=0: users cache nothing to send, so it must be 1$"
    with pytest.raises(ValueError, match=message):
        centralized_rates(cfg, server_share=share)
    assert centralized_rates(SystemConfig(4, 4, 0, alpha_max=2), server_share=Frac(1)).T == 4


def test_size_guard_refuses_server_only_plans_at_the_real_limit(monkeypatch):
    def stop(*args):
        raise _Enumerated

    monkeypatch.setattr(centralized, "enumerate_subsets", stop)
    # C(30,15) = 155,117,520 placement subsets
    cfg = SystemConfig(30, 30, 15, alpha_max=1)
    with pytest.raises(ValueError, match="C\\(K,t\\) = 155117520 subsets"):
        run_centralized(cfg, server_share=Frac(1))
    # C(24,7) = 346,104 placement subsets pass; C(24,8) = 735,471 server
    # symbols do not
    cfg = SystemConfig(24, 24, 7, alpha_max=1)
    with pytest.raises(ValueError, match="C\\(K,t\\+1\\) = 735471 server symbols"):
        run_centralized(cfg, server_share=Frac(1))


# ---------------------------------------------------------------------------
# the user schedule's audit
# ---------------------------------------------------------------------------


def _replace_symbol(sched, change):
    """A copy of ``sched`` with its first user symbol replaced by
    ``change(symbol)``, or removed when that is None."""
    (part, syms), *rest = sched.user_rounds
    new = change(syms[0])
    head = ([] if new is None else [new]) + syms[1:]
    return dataclasses.replace(sched, user_rounds=[(part, head), *rest])


def _with_constituent(sym, i, **fields):
    cons = list(sym.constituents)
    cons[i] = dataclasses.replace(cons[i], **fields)
    return dataclasses.replace(sym, constituents=tuple(cons))


def _outsider(sym):
    return next(u for u in range(1, 7) if u not in sym.group)


AUDIT_BREAKS = {
    "wrong-arity": (
        lambda s: dataclasses.replace(s, constituents=s.constituents[:-1]),
        r"symbol codes 1 != 2",
    ),
    "unequal-size": (
        lambda s: dataclasses.replace(s, size=2 * s.size),
        r"unequal pico sizes in user schedule",
    ),
    "sender-outside-group": (
        lambda s: dataclasses.replace(s, sender=_outsider(s)),
        r"sender outside its group",
    ),
    "receiver-is-sender": (
        lambda s: _with_constituent(s, 0, receiver=s.sender),
        r"constituent receiver misplaced",
    ),
    "receiver-outside-group": (
        lambda s: _with_constituent(s, 0, receiver=_outsider(s)),
        r"constituent receiver misplaced",
    ),
    "cannot-strip": (
        lambda s: _with_constituent(
            s, 0,
            fragment=dataclasses.replace(
                s.constituents[0].fragment,
                subset=tuple(
                    u for u in range(1, 7)
                    if u != s.constituents[0].receiver and u != s.sender
                )[:4],
            ),
        ),
        r"group \(\d(, \d)*\) cannot strip FragmentId\(.*\) for user \d",
    ),
    "pico-missing": (lambda s: None, r"pico \(user \d, T=.*, layer \d+\) delivered 0 times"),
}


@pytest.mark.parametrize("brk", sorted(AUDIT_BREAKS) + ["pico-twice"])
def test_user_schedule_audit_catches_each_break(brk):
    # (6, 6, 4) at alpha 2: groups of three, two picos per symbol
    cfg = SystemConfig(6, 6, 4, alpha_max=3)
    demands = tuple(cfg.users())
    placement = build_central_placement(cfg)
    plan, sched = build_delivery(cfg, demands, alpha=2, server_share=Frac(1, 3))
    first = sched.user_rounds[0][1][0]
    L, m, size = first.constituents[0].fragment.count, len(first.constituents), first.size
    assert m == 2

    def audit(schedule):
        centralized._audit_user_schedule(cfg, placement, demands, schedule, L, m, size)

    audit(sched)
    if brk == "pico-twice":
        part, syms = sched.user_rounds[0]
        broken = dataclasses.replace(
            sched, user_rounds=[(part, syms + syms[:1]), *sched.user_rounds[1:]]
        )
        message = r"pico \(user \d, T=.*, layer \d+\) delivered 2 times"
    else:
        change, message = AUDIT_BREAKS[brk]
        broken = _replace_symbol(sched, change)
    with pytest.raises(SchedulingError, match=message):
        audit(broken)
