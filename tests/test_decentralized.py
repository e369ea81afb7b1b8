"""Decentralized scheme: component rates, allocation, case selection,
random placement, and the parallel delivery builder.

Component rates at hand-solved configurations are frozen as exact
rationals.  Schedule structure is audited externally: fragment indices per
(file, subset, part) must form a complete, duplicate-free range, senders
must sit inside their groups, and lane loads must balance.
"""

import hashlib
import itertools
import math
from fractions import Fraction as Frac

import numpy as np
import pytest

import analytic_oracle
import coopcache.closed_forms as closed_forms
import coopcache.decentralized as decentralized
import coopcache.simulator as simulator
from hypothesis import given
from hypothesis import strategies as st

from coopcache import (
    DecentralizedRates,
    SystemConfig,
    allocation_plan,
    build_decentral_delivery,
    build_decentral_placement,
    corollary_bounds,
    decentralized_delay,
    decentralized_gains,
    decentralized_gap_grid,
    decentralized_rates,
    enumerate_subsets,
    equal_partition_count,
    f_ks,
    rate_components,
    round_shapes,
    run_decentralized,
)

K3 = SystemConfig(3, 3, Frac(3, 2), alpha_max=1)  # p = 1/2, solved by hand


# ---------------------------------------------------------------------------
# component rates
# ---------------------------------------------------------------------------


def test_component_rates_frozen_values():
    rc = rate_components(K3)
    assert rc.R_empty == Frac(3, 8)
    assert rc.R_s == Frac(7, 8)
    assert rc.R_u == Frac(15, 16)

    big = rate_components(SystemConfig(10, 10, 5, alpha_max=1))
    assert big.R_empty == Frac(10, 1024)
    assert big.R_s == Frac(1023, 1024)


def test_component_rates_memory_endpoints():
    rc = rate_components(SystemConfig(4, 4, 0, alpha_max=2))
    assert (rc.R_empty, rc.R_s, rc.R_u) == (Frac(4), Frac(4), Frac(0))
    rc = rate_components(SystemConfig(4, 4, 4, alpha_max=2))
    assert (rc.R_empty, rc.R_s, rc.R_u) == (Frac(0), Frac(0), Frac(0))


def test_rates_balance_the_two_links():
    rates = decentralized_rates(K3)
    assert rates.server_share == Frac(9, 29)
    assert rates.R1 == rates.R2 == Frac(75, 116)
    assert rates.T == Frac(105, 184)


def test_rates_server_only_when_users_cannot_help():
    # tiny caches: uncached traffic alone exceeds what cooperation absorbs
    cfg = SystemConfig(3, 3, Frac(3, 100), alpha_max=1)
    rc = rate_components(cfg)
    assert rc.R_u < rc.R_empty
    rates = decentralized_rates(cfg)
    assert rates.server_share == 0
    assert rates.T == rates.R1 == rc.R_empty
    assert rates.R2 == rc.R_u  # users still clear their own share

    zero = decentralized_rates(SystemConfig(4, 4, 0, alpha_max=2))
    assert zero.T == Frac(4)


def _fraction_rates(cfg):
    """``decentralized_rates`` in Fraction arithmetic, as it was computed
    before the integer path, from the oracle's rate components."""
    rc = analytic_oracle.rate_components(cfg)
    denom = rc.R_s + rc.R_u - rc.R_empty
    if rc.R_u < rc.R_empty or denom == 0:
        lam, T = Frac(0), rc.R_empty
    else:
        lam = (rc.R_u - rc.R_empty) / (rc.R_s + rc.R_u)
        T = rc.R_s * rc.R_u / denom
    return DecentralizedRates(rc.R_empty + lam * rc.R_s, (1 - lam) * rc.R_u, T, lam, rc)


def test_integer_rates_match_the_fraction_path():
    # every point of the shipped decentralized gap grid and of the
    # benchmark's decentralized sweep, p = 0 and p = 1 at every K <= 8
    grid = list(decentralized_gap_grid())
    sweep = [SystemConfig(20, 10, Frac(i, 5), alpha_max=5) for i in range(1, 100)]
    ends = [
        SystemConfig(K, K, M, alpha_max=amax)
        for K in range(2, 9)
        for amax in range(1, K // 2 + 1)
        for M in (0, K)
    ]
    assert len(grid) == 6237
    for cfg in grid + sweep + ends:
        assert decentralized_rates(cfg) == _fraction_rates(cfg), cfg


@given(
    st.integers(min_value=2, max_value=16).flatmap(
        lambda K: st.tuples(
            st.just(K),
            st.integers(min_value=K, max_value=3 * K),
            st.fractions(min_value=0, max_value=1, max_denominator=100),
            st.integers(min_value=1, max_value=max(1, K // 2)),
        )
    )
)
def test_integer_rates_match_the_fraction_path_on_a_sample(shape):
    K, N, p, amax = shape
    cfg = SystemConfig(N, K, p * N, alpha_max=amax)
    assert decentralized_rates(cfg) == _fraction_rates(cfg)


def test_horner_rate_numerators_match_the_oracle_exhaustively():
    # every K = 2..16, every alpha_max and every p = a/b with b <= 30, the
    # ends p = 0 and p = 1 among them: the integers equal the running-lcm
    # oracle's; at b <= 20 the rates also equal the oracle's Fraction sum,
    # which costs about 3.5 s over the whole sample
    ps = sorted({Frac(a, b) for b in range(1, 31) for a in range(b + 1)})
    assert (len(ps), ps[0], ps[-1]) == (279, 0, 1)
    for K in range(2, 17):
        for amax in range(1, K // 2 + 1):
            for p in ps:
                cfg = SystemConfig(K, K, p * K, alpha_max=amax)
                E, S, U, D = closed_forms._rate_ints(
                    K, amax, p.numerator, p.denominator
                )
                assert (E, S, U, D) == analytic_oracle.rate_numerators(cfg), cfg
                if p.denominator <= 20:
                    rc = analytic_oracle.rate_components(cfg)
                    assert (Frac(E, D), Frac(S, D), Frac(U, D)) == (
                        rc.R_empty, rc.R_s, rc.R_u
                    ), cfg


def test_headline_delay_formula():
    for K in (4, 6, 8):
        for amax in (1, 2, K // 2):
            for i in range(1, 8):
                cfg = SystemConfig(K, K, Frac(i * K, 8), alpha_max=amax)
                rc = rate_components(cfg)
                got = decentralized_rates(cfg).T
                if rc.R_u < rc.R_empty:
                    assert got == rc.R_empty
                else:
                    assert got == rc.R_s * rc.R_u / (rc.R_s + rc.R_u - rc.R_empty)
                # headline delay sits between the component extremes
                assert rc.R_empty <= got <= rc.R_s


def test_delay_never_increases_with_more_parallelism():
    for K in (4, 6, 8):
        for i in range(0, 9):
            p = Frac(i, 8)
            delays = [
                decentralized_delay(SystemConfig(K, K, p * K, alpha_max=a))
                for a in range(1, K // 2 + 1)
            ]
            assert delays == sorted(delays, reverse=True)


# ---------------------------------------------------------------------------
# case selection and intra-round split
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "K,s,amax,case,alpha_d",
    [
        (7, 4, 1, 1, 1),   # not enough parallel lanes: sequential groups
        (7, 4, 2, 3, 2),   # remainder 3 >= 2 joins as its own group
        (8, 4, 2, 2, 2),   # exact split
        (8, 7, 4, 2, 1),   # remainder 1: fold into floor(K/s) groups
        (8, 3, 4, 3, 3),   # remainder 2
        (5, 5, 2, 2, 1),   # single all-user group
        (9, 2, 4, 1, 4),   # ceil(9/2)=5 > 4 lanes
    ],
)
def test_select_case(K, s, amax, case, alpha_d):
    # the paper's case and group count, read off the one round-shape rule
    assert _paper_case(K, s, amax) == case
    _, regular, remainder, D = round_shapes(K, amax)[s - 2]
    assert regular + (remainder > 0) == alpha_d
    assert remainder == (K % s if case == 3 else 0)
    assert D == ((s - 1) * amax if case == 1 else f_ks(K, s))


def _paper_case(K, s, amax):
    remainder = round_shapes(K, amax)[s - 2][2]
    return 3 if remainder else 1 if -(-K // s) > amax else 2


def test_lambda2_split_values():
    # lambda2 = floor(K/s)(s-1) / (K - 1 - floor(K/s)), only for rounds
    # whose remainder K mod s >= 2 joins as its own group
    lam2 = allocation_plan(SystemConfig(7, 7, 4, alpha_max=3)).lambda2_by_round
    assert lam2 == {4: Frac(3, 5), 5: Frac(4, 5)}
    lam2 = allocation_plan(SystemConfig(8, 8, 4, alpha_max=4)).lambda2_by_round
    assert lam2 == {3: Frac(2 * 2, 8 - 1 - 2), 5: Frac(2, 3), 6: Frac(5, 6)}
    # alpha_max = 1 leaves no free lane for a remainder group
    assert allocation_plan(SystemConfig(8, 8, 4, alpha_max=1)).lambda2_by_round == {}


def test_allocation_plan_contents():
    plan = allocation_plan(SystemConfig(7, 7, 4, alpha_max=3))
    rc = rate_components(SystemConfig(7, 7, 4, alpha_max=3))
    assert (plan.R_empty, plan.R_s, plan.R_u) == (rc.R_empty, rc.R_s, rc.R_u)
    assert plan.server_share == (rc.R_u - rc.R_empty) / (rc.R_s + rc.R_u)
    # rounds with a remainder group of size >= 2 under enough lanes: only
    # s=4 and s=5 for K=7 (other s leave a remainder of 0 or 1)
    assert set(plan.lambda2_by_round) == {4, 5}
    assert all(0 <= l2 <= 1 for l2 in plan.lambda2_by_round.values())


# ---------------------------------------------------------------------------
# gains and upper bounds on the cooperation load
# ---------------------------------------------------------------------------


def test_gains_frozen_values():
    report = decentralized_gains(K3)
    assert report.G_c == Frac(15, 23)
    assert report.G_p == Frac(105, 184)
    assert not report.limit_point


def test_gains_identity_and_edges():
    for K in (4, 7):
        for i in range(1, 8):
            cfg = SystemConfig(K, K, Frac(i * K, 8), alpha_max=K // 2)
            r = decentralized_gains(cfg)
            assert r.G_p == r.G_c * (1 - (1 - cfg.p) ** K)
    full = decentralized_gains(SystemConfig(5, 5, 5, alpha_max=2))
    assert full.limit_point
    assert full.G_c == Frac(5, 9)
    with pytest.raises(ValueError):
        decentralized_gains(SystemConfig(5, 5, 0, alpha_max=2))


def test_corollary_regimes():
    pick = lambda K, a: corollary_bounds(SystemConfig(K, K, K // 2, alpha_max=a))[0]
    assert pick(3, 1) == "flexible"  # alpha_max == floor(K/2) wins the tie
    assert pick(7, 1) == "shared"
    assert pick(7, 3) == "flexible"
    assert pick(8, 2) == "middle"
    assert pick(8, 4) == "flexible"


def test_corollary_bound_dominates_exact_load():
    for K, amax in [(4, 2), (7, 1), (8, 2), (9, 4)]:
        for i in (1, 3, 5, 7):
            cfg = SystemConfig(K, K, Frac(i * K, 8), alpha_max=amax)
            _, bound = corollary_bounds(cfg)
            assert bound >= rate_components(cfg).R_u


def test_corollary_empty_cache_sentinel():
    regime, bound = corollary_bounds(SystemConfig(5, 5, 0, alpha_max=2))
    assert bound == math.inf


# ---------------------------------------------------------------------------
# random placement
# ---------------------------------------------------------------------------


def _all_subsets(K):
    return [
        T for size in range(K + 1) for T in enumerate_subsets(K, size)
    ]


def test_fluid_placement_sizes():
    cfg = SystemConfig(4, 4, 1, alpha_max=2)  # p = 1/4
    placement = build_decentral_placement(cfg)
    sizes = {T: placement.subfile_size(T) for T in _all_subsets(4)}
    assert sum(sizes.values()) == 1
    for T, size in sizes.items():
        assert size == Frac(1, 4) ** len(T) * Frac(3, 4) ** (4 - len(T))


def test_bit_placement_partitions_every_file():
    cfg = SystemConfig(3, 3, 1, alpha_max=1, F=300)
    placement = build_decentral_placement(cfg, seed=5, mode="bits")
    per_file = 100  # M*F/N
    for n in range(1, 4):
        covered = np.concatenate(
            [placement.subfile_positions[(n, T)] for T in _all_subsets(3)]
        )
        assert sorted(covered.tolist()) == list(range(300))
        for k in range(1, 4):
            cached = sum(
                len(placement.subfile_positions[(n, T)])
                for T in _all_subsets(3)
                if k in T
            )
            assert cached == per_file


def test_bit_placement_is_seed_deterministic():
    cfg = SystemConfig(3, 3, 1, alpha_max=1, F=120)
    a = build_decentral_placement(cfg, seed=9, mode="bits")
    b = build_decentral_placement(cfg, seed=9, mode="bits")
    c = build_decentral_placement(cfg, seed=10, mode="bits")
    assert np.array_equal(
        a.subfile_positions[(1, (1, 2))], b.subfile_positions[(1, (1, 2))]
    )
    differs = any(
        not np.array_equal(a.subfile_positions[(n, T)], c.subfile_positions[(n, T)])
        for n in range(1, 4)
        for T in _all_subsets(3)
    )
    assert differs


@pytest.mark.parametrize("mode", ["fluid", "bits"])
def test_placement_size_guard_limit_is_inclusive(mode, monkeypatch):
    cfg = SystemConfig(3, 3, 1, alpha_max=1, F=30)  # 3 * 2^3 = 24 entries
    monkeypatch.setattr(decentralized, "MAX_USER_SYMBOLS", 24)
    placement = build_decentral_placement(cfg, mode=mode)
    if mode == "bits":
        assert len(placement.subfile_positions) == 24
    monkeypatch.setattr(decentralized, "MAX_USER_SYMBOLS", 23)
    with pytest.raises(ValueError, match=r"N\*2\^K = 24 \(file, subset\) entries"):
        build_decentral_placement(cfg, mode=mode)


def test_placement_size_guard_runs_before_any_enumeration(monkeypatch):
    def stop(*args):
        raise AssertionError("enumerated before the size guard")

    monkeypatch.setattr(decentralized, "enumerate_subsets", stop)
    monkeypatch.setattr(decentralized, "MAX_USER_SYMBOLS", 23)
    with pytest.raises(ValueError, match="above the limit of 23"):
        build_decentral_placement(SystemConfig(3, 3, 1, F=30), mode="bits")


def test_user_symbol_count_matches_the_built_schedule():
    # every shape with K <= 8, at p = 0, 1/3, 1/2 and 1
    for K in range(2, 9):
        for amax in range(1, K // 2 + 1):
            for p in (Frac(0), Frac(1, 3), Frac(1, 2), Frac(1)):
                cfg = SystemConfig(K, K, p * K, alpha_max=amax)
                placement = build_decentral_placement(cfg)
                _, sched = build_decentral_delivery(cfg, placement, tuple(cfg.users()))
                assert decentralized.user_symbol_count(cfg) == (
                    sched.user_symbol_count()
                ), cfg


def test_user_symbol_guard_limit_is_inclusive(monkeypatch):
    cfg = SystemConfig(6, 6, 2, alpha_max=3)  # 6 * 2^6 = 384 entries
    count = decentralized.user_symbol_count(cfg)
    assert count == 426
    monkeypatch.setattr(decentralized, "MAX_USER_SYMBOLS", count)
    assert run_decentralized(cfg).schedule.user_symbol_count() == count
    monkeypatch.setattr(decentralized, "MAX_USER_SYMBOLS", count - 1)

    def stop(*args, **kwargs):
        raise AssertionError("placed before the symbol guard")

    monkeypatch.setattr(simulator, "build_decentral_placement", stop)
    with pytest.raises(
        ValueError,
        match=r"^decentralized user schedule for K=6, alpha_max=3 needs 426 user "
        r"symbols, above the limit of 425$",
    ):
        run_decentralized(cfg)


def test_empty_rounds_are_skipped_before_enumeration(monkeypatch):
    def stop(*args):
        raise AssertionError("enumerated an empty round")

    monkeypatch.setattr(decentralized, "partition_table", stop)
    for M in (0, 6):
        cfg = SystemConfig(6, 6, M, alpha_max=3)
        placement = build_decentral_placement(cfg)
        _, sched = build_decentral_delivery(cfg, placement, tuple(cfg.users()))
        assert sched.user_rounds == []


# ---------------------------------------------------------------------------
# delivery structure
# ---------------------------------------------------------------------------


def _external_fragment_audit(schedule):
    """Re-derive the counters' guarantee from the schedule alone: per
    (file, subset, part), indices form exactly the range 0..count-1."""
    seen: dict[tuple, list[int]] = {}
    counts: dict[tuple, int] = {}
    for _, syms in schedule.user_rounds:
        for sym in syms:
            for con in sym.constituents:
                f = con.fragment
                key = (f.file, f.subset, f.part)
                seen.setdefault(key, []).append(f.index)
                assert counts.setdefault(key, f.count) == f.count
    for key, indices in seen.items():
        assert sorted(indices) == list(range(counts[key])), key


def test_delivery_structure_with_remainder_rounds():
    cfg = SystemConfig(7, 7, 4, alpha_max=3)
    placement = build_decentral_placement(cfg)
    plan, sched = build_decentral_delivery(cfg, placement, tuple(range(1, 8)))
    _external_fragment_audit(sched)

    # round s=4 runs over all 35 regular+remainder partitions of 7 users
    s4 = [
        (part, syms)
        for part, syms in sched.user_rounds
        if max(len(g) for g in part.groups) == 4
    ]
    assert len(s4) == equal_partition_count(7, 4, 1) == 35
    for part, syms in s4:
        assert sorted(len(g) for g in part.groups) == [3, 4]
        for sym in syms:
            assert sym.sender in sym.group
            assert all(
                c.receiver in sym.group and c.receiver != sym.sender
                for c in sym.constituents
            )


def test_lane_loads_balance_within_each_partition():
    cfg = SystemConfig(7, 7, 4, alpha_max=3)
    placement = build_decentral_placement(cfg)
    _, sched = build_decentral_delivery(cfg, placement, tuple(range(1, 8)))
    for part, syms in sched.user_rounds:
        if len(part.groups) < 2:
            continue
        lane = {g: Frac(0) for g in part.groups}
        for sym in syms:
            lane[sym.group] += sym.size
        assert len(set(lane.values())) == 1, part


def test_schedule_load_identities():
    for K, amax in [(4, 2), (5, 1), (6, 3), (7, 2)]:
        cfg = SystemConfig(K, K, Frac(K, 2), alpha_max=amax)  # p = 1/2
        placement = build_decentral_placement(cfg)
        plan, sched = build_decentral_delivery(cfg, placement, tuple(range(1, K + 1)))
        server = sum(s.size for s in sched.server_symbols)
        assert server == plan.R_empty + plan.server_share * plan.R_s
        user_total = Frac(0)
        for part, syms in sched.user_rounds:
            by_lane: dict[tuple, Frac] = {}
            for sym in syms:
                by_lane[sym.group] = by_lane.get(sym.group, Frac(0)) + sym.size
            user_total += max(by_lane.values())
        assert user_total == (1 - plan.server_share) * plan.R_u


def test_server_symbols_mark_redundant_singletons():
    cfg = SystemConfig(4, 4, 2, alpha_max=2)
    placement = build_decentral_placement(cfg)
    plan, sched = build_decentral_delivery(cfg, placement, (1, 2, 3, 4))
    raw = [s for s in sched.server_symbols if s.constituents[0].fragment.part == "full"]
    singles = [s for s in sched.server_symbols if s.redundant]
    assert len(raw) == 4
    assert all(s.size == Frac(1, 16) for s in raw)  # q^K at p = 1/2
    assert len(singles) == 4
    multis = [
        s for s in sched.server_symbols if len(s.constituents) > 1
    ]
    assert all(not s.redundant for s in multis)


@st.composite
def _decentral_config(draw):
    K = draw(st.integers(min_value=3, max_value=7))
    amax = draw(st.integers(min_value=1, max_value=max(1, K // 2)))
    num = draw(st.integers(min_value=1, max_value=7))
    return SystemConfig(K, K, Frac(num * K, 8), alpha_max=amax)


@given(_decentral_config())
def test_delivery_identities_hold_generally(cfg):
    placement = build_decentral_placement(cfg)
    plan, sched = build_decentral_delivery(
        cfg, placement, tuple(range(1, cfg.K + 1))
    )
    _external_fragment_audit(sched)
    server = sum(s.size for s in sched.server_symbols)
    assert server == plan.R_empty + plan.server_share * plan.R_s


# (config, demands) whose rounds, taken together, run all three cases, with
# one distinct non-identity demand vector, server share 0, M = 0 and M = N
_PINNED_SHAPES = [
    (SystemConfig(7, 7, 4, alpha_max=3), None),
    (SystemConfig(6, 6, 2, alpha_max=1), None),
    (SystemConfig(8, 8, 3, alpha_max=2), None),
    (SystemConfig(6, 5, 3, alpha_max=2), (2, 5, 6, 1, 3)),
    (SystemConfig(5, 5, Frac(1, 4), alpha_max=1), None),
    (SystemConfig(5, 5, 0, alpha_max=2), None),
    (SystemConfig(5, 5, 5, alpha_max=2), None),
]


def test_schedules_are_pinned():
    cases = {
        _paper_case(cfg.K, s, cfg.alpha_max)
        for cfg, _ in _PINNED_SHAPES
        for s in range(2, cfg.K + 1)
    }
    assert cases == {1, 2, 3}
    assert allocation_plan(_PINNED_SHAPES[4][0]).server_share == 0
    digest = hashlib.sha256()
    for cfg, demands in _PINNED_SHAPES:
        demands = demands or tuple(cfg.users())
        placement = build_decentral_placement(cfg)
        _, sched = build_decentral_delivery(cfg, placement, demands)
        digest.update(repr((sched.user_rounds, sched.server_symbols)).encode())
    assert digest.hexdigest() == (
        "8ec90f841c452dc7dc0d27fb9bdde076ea6b67fb59b041885b6be3199b85922e"
    )
