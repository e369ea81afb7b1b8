"""System model: configs, demand validation, group-partition combinatorics.

The enumeration functions, and the decentralized round plans built on them,
are checked against brute-force oracles built from raw itertools output,
and the closed-form counts against the enumerations themselves.
"""

import itertools
import math
from fractions import Fraction as Frac

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coopcache import (
    GroupPartition,
    SystemConfig,
    as_frac,
    allocation_plan,
    enumerate_subsets,
    equal_partition_count,
    f_ks,
    round_shapes,
    validate_demands,
)
from coopcache.decentralized import _round_plan
from coopcache.model import (
    Constituent,
    FragmentId,
    SymbolTable,
    XorSymbol,
    offsets,
    pack,
    user_sets,
)
from retired_helpers import enumerate_equal_partitions


# ---------------------------------------------------------------------------
# config and demands
# ---------------------------------------------------------------------------


def test_config_properties():
    cfg = SystemConfig(6, 6, 4, alpha_max=3)
    assert cfg.t == Frac(4)
    assert cfg.p == Frac(2, 3)
    assert list(cfg.users()) == [1, 2, 3, 4, 5, 6]


def test_config_accepts_rational_memory():
    cfg = SystemConfig(20, 10, Frac(1, 2), alpha_max=5)
    assert cfg.t == Frac(1, 4)
    assert cfg.p == Frac(1, 40)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(N=5, K=6, M=1),  # more users than files
        dict(N=5, K=1, M=1),  # cooperation needs at least two users
        dict(N=5, K=4, M=6),  # cache larger than the library
        dict(N=5, K=4, M=-1),
        dict(N=5, K=4, M=1, alpha_max=3),  # above floor(K/2)
        dict(N=5, K=4, M=1, alpha_max=0),
        dict(N=5, K=4, M=1, F=0),
    ],
)
def test_config_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        SystemConfig(**kwargs)


def test_alpha_max_defaults_to_one():
    assert SystemConfig(5, 4, 1).alpha_max == 1


def test_k2_allows_alpha_max_one():
    # floor(K/2) = 1, so the bound is max(1, floor(K/2)) = 1
    assert SystemConfig(4, 2, 1, alpha_max=1).alpha_max == 1


def test_validate_demands_roundtrip_and_errors():
    cfg = SystemConfig(6, 4, 2, alpha_max=2)
    assert validate_demands(cfg, [3, 1, 6, 2]) == (3, 1, 6, 2)
    with pytest.raises(ValueError):
        validate_demands(cfg, [1, 2, 3])  # wrong length
    with pytest.raises(ValueError):
        validate_demands(cfg, [1, 2, 3, 7])  # file id out of range
    with pytest.raises(ValueError):
        validate_demands(cfg, [1, 2, 3, 3])  # repeated demand


def test_as_frac():
    assert as_frac(3) == Frac(3)
    assert as_frac("2/3") == Frac(2, 3)
    assert as_frac(Frac(1, 4)) == Frac(1, 4)
    with pytest.raises(ValueError, match="zero denominator"):
        as_frac("1/0")


# ---------------------------------------------------------------------------
# subsets and partitions
# ---------------------------------------------------------------------------


def test_offsets_take_any_run_lengths_alike():
    runs = [3, 0, 2, 5]
    want = np.array([0, 3, 3, 5, 10], np.int64)
    for lengths in (runs, iter(runs), (n for n in runs), np.array(runs, np.int32)):
        out = offsets(lengths)
        assert out.dtype == np.int64
        assert np.array_equal(out, want)
    for empty in ([], iter(()), np.array([], np.int32)):
        out = offsets(empty)
        assert out.dtype == np.int64 and out.tolist() == [0]


@pytest.mark.parametrize("users", [(2, 1), (-1, 2), (1, 1)])
def test_hand_made_sets_of_users_must_ascend_from_0(users):
    # unsorted, negative or repeated users are refused, not read as the set
    # they would name once sorted, cut and merged
    frag = FragmentId(1, users, "full", 0, 1)
    with pytest.raises(ValueError, match=r"not ascending from 0"):
        SymbolTable.from_symbols([XorSymbol(0, (1, 2), (Constituent(1, frag),), Frac(1))])
    with pytest.raises(ValueError, match=r"not ascending from 0"):
        SymbolTable.from_symbols([XorSymbol(0, users, (), Frac(1))])


def test_hand_made_sets_of_users_round_trip_past_one_word():
    sets = [(), (0,), (1, 62, 63, 125, 126)]
    (rows,) = pack(sets)
    assert rows.shape == (3, 3) and (rows >= 0).all()
    assert user_sets(rows) == sets


def test_enumerate_subsets_matches_itertools():
    assert enumerate_subsets(6, 4) == list(itertools.combinations(range(1, 7), 4))
    assert len(enumerate_subsets(6, 4)) == 15
    assert enumerate_subsets(4, 0) == [()]
    assert enumerate_subsets(4, 5) == []


def test_group_partition_canonical_form_enforced():
    GroupPartition(((1, 2), (3, 4)))
    with pytest.raises(ValueError):
        GroupPartition(((2, 1), (3, 4)))  # group not ascending
    with pytest.raises(ValueError):
        GroupPartition(((3, 4), (1, 2)))  # groups not sorted by min
    with pytest.raises(ValueError):
        GroupPartition(((1, 2), (2, 3)))  # overlap


@pytest.mark.parametrize(
    "groups,message",
    [
        # each group is checked for order, then against the groups before it,
        # and the groups' smallest members are checked last
        (((2, 1), (1, 3)), "group (2, 1) not ascending"),
        (((1, 2), (2, 3), (5, 4)), "groups overlap in partition ((1, 2), (2, 3), (5, 4))"),
        (((1, 2), (4, 3), (2, 5)), "group (4, 3) not ascending"),
        (((3, 4), (1, 2), (2, 5)), "groups overlap in partition ((3, 4), (1, 2), (2, 5))"),
        (((3, 4), (1, 2)), "groups not sorted by smallest member: ((3, 4), (1, 2))"),
        (([1, 2],), "group [1, 2] not ascending"),
    ],
)
def test_group_partition_checks_run_in_order(groups, message):
    with pytest.raises(ValueError) as exc:
        GroupPartition(groups)
    assert str(exc.value) == message


def _brute_equal_partitions(K, s, alpha_d):
    """Oracle: all sets of alpha_d pairwise-disjoint s-subsets of 1..K."""
    out = set()
    for combo in itertools.combinations(itertools.combinations(range(1, K + 1), s),
                                        alpha_d):
        if len({u for g in combo for u in g}) == alpha_d * s:
            out.add(frozenset(combo))
    return out


@pytest.mark.parametrize("K,s,alpha_d", [(4, 2, 2), (5, 2, 2), (6, 2, 3),
                                         (6, 3, 2), (7, 3, 2), (8, 4, 2)])
def test_equal_partitions_against_brute_force(K, s, alpha_d):
    got = enumerate_equal_partitions(K, s, alpha_d)
    assert {frozenset(p) for p in got} == _brute_equal_partitions(K, s, alpha_d)
    assert len(got) == len(set(got))  # no duplicates under canonical form
    assert len(got) == equal_partition_count(K, s, alpha_d)


def test_equal_partitions_rejects_bad_shapes():
    with pytest.raises(ValueError):
        enumerate_equal_partitions(6, 1, 2)  # singleton groups
    with pytest.raises(ValueError):
        enumerate_equal_partitions(6, 4, 2)  # 2*4 > 6


def _check_round_plan(K, s, alpha_max):
    """Round s's plan against brute force: as many disjoint s-groups as fit
    under the cap, then a remainder group, listed last, of everyone left
    when a lane is free and at least two users are idle; every s-group and
    every remainder group appears exactly as often as the plan's fragment
    counts n1 and n2 assume.  Returns the round's shape."""
    cfg = SystemConfig(K, K, Frac(K, 2), alpha_max=alpha_max)
    shape = round_shapes(K, alpha_max)[s - 2]
    _, regular, r, D = shape
    assert shape[0] == s
    assert regular == min(K // s, alpha_max)
    idle = K - s * regular
    assert r == (idle if idle >= 2 and regular < alpha_max else 0)
    assert D == (s - 1) * regular + max(r - 1, 0)
    if alpha_max >= -(-K // s):
        assert D == f_ks(K, s)
    (table, idle), parts = _round_plan(cfg, allocation_plan(cfg), shape)
    # the s-groups work on the first part, a remainder group on the second
    assert list(parts) == (["u1", "u2"] if r else ["u"])
    seen, distinct = {}, set()
    for row, rest in zip(table.tolist(), idle.tolist()):
        groups = tuple(map(tuple, row)) + ((tuple(rest),) if r else ())
        assert groups not in distinct
        distinct.add(groups)
        assert len(row) == regular
        if r:
            assert len(groups[-1]) == r
            assert sorted(u for G in groups for u in G) == list(range(1, K + 1))
        GroupPartition(groups[:regular])  # canonical and disjoint, or this raises
        assert all(len(G) == s for G in groups[:regular])
        for G in groups:
            seen[G] = seen.get(G, 0) + 1
    n1 = parts["u1" if r else "u"][0]
    for G in itertools.combinations(range(1, K + 1), s):
        assert (s - 1) * seen.get(G, 0) == n1, G
    if r:
        n2 = parts["u2"][0]
        for G in itertools.combinations(range(1, K + 1), r):
            assert (r - 1) * math.comb(s - 1, r - 1) * seen.get(G, 0) == n2, G
    return shape


@pytest.mark.parametrize("K,s", [(5, 3), (7, 4), (8, 3), (8, 5), (11, 3)])
def test_remainder_partitions_cover_everyone(K, s):
    assert _check_round_plan(K, s, K // 2)[2] == K % s


@pytest.mark.parametrize("K,s,alpha_d", [(6, 2, 2), (6, 2, 3), (6, 3, 2), (8, 3, 2)])
def test_group_multiplicity_equal_partitions(K, s, alpha_d):
    assert _check_round_plan(K, s, alpha_d)[1:3] == (alpha_d, 0)


@pytest.mark.parametrize("K,s", [(5, 3), (7, 4), (8, 3), (8, 5)])
def test_group_multiplicity_remainder_partitions(K, s):
    # the remainder group needs a free lane: it forms at alpha_max =
    # floor(K/s) + 1, not at floor(K/s)
    assert _check_round_plan(K, s, K // s + 1)[2] == K % s
    assert _check_round_plan(K, s, K // s)[2] == 0


def test_remainder_partitions_reject_small_remainder():
    # K mod s < 2 leaves no remainder group, even with a lane free for one
    for K, s in [(6, 3), (7, 3)]:  # K mod s = 0, 1
        assert _check_round_plan(K, s, K // 2)[2] == 0


def test_round_plans_against_brute_force():
    for K in range(2, 11):
        for alpha_max in range(1, max(1, K // 2) + 1):
            for s in range(2, K + 1):
                _check_round_plan(K, s, alpha_max)


def test_f_ks_values():
    # exact split: floor(K/s) groups of s, each coding across s-1 receivers
    assert f_ks(6, 3) == 2 * 2
    assert f_ks(6, 2) == 3 * 1
    assert f_ks(8, 4) == 2 * 3
    # remainder >= 2 joins the round: K - 1 - floor(K/s)
    assert f_ks(7, 4) == 7 - 1 - 1
    assert f_ks(8, 3) == 8 - 1 - 2
    assert f_ks(5, 3) == 5 - 1 - 1
    # single group spanning everyone
    assert f_ks(5, 5) == 4
    with pytest.raises(ValueError):
        f_ks(5, 1)
    with pytest.raises(ValueError):
        f_ks(5, 6)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@st.composite
def _partition_shape(draw):
    K = draw(st.integers(min_value=4, max_value=9))
    s = draw(st.integers(min_value=2, max_value=K // 2))
    alpha_d = draw(st.integers(min_value=1, max_value=K // s))
    return K, s, alpha_d


@given(_partition_shape())
def test_equal_partitions_properties(shape):
    K, s, alpha_d = shape
    parts = enumerate_equal_partitions(K, s, alpha_d)
    assert len(parts) == equal_partition_count(K, s, alpha_d)
    for part in parts:
        GroupPartition(part)  # canonical and disjoint, or this raises
        assert len(part) == alpha_d
        assert all(len(g) == s for g in part)
    # every fixed s-group appears equally often
    mult = equal_partition_count(K - s, s, alpha_d - 1)
    probe = tuple(range(1, s + 1))
    assert sum(probe in part for part in parts) == mult
    # double count: partitions * groups-per-partition = groups * multiplicity
    assert len(parts) * alpha_d == math.comb(K, s) * mult


@given(st.integers(min_value=5, max_value=11), st.data())
def test_remainder_partitions_properties(K, data):
    candidates = [s for s in range(3, K) if K % s >= 2]
    if not candidates:
        return
    s = data.draw(st.sampled_from(candidates))
    q, r = divmod(K, s)
    cfg = SystemConfig(K, K, Frac(K, 2), alpha_max=q + 1)
    shape = round_shapes(K, q + 1)[s - 2]
    assert shape[1:3] == (q, r)
    (partitions, _), parts = _round_plan(cfg, allocation_plan(cfg), shape)
    reg = equal_partition_count(K - s, s, q - 1)
    rem = equal_partition_count(K - r, s, q)
    assert parts["u1"][0] == (s - 1) * reg
    assert parts["u2"][0] == (r - 1) * math.comb(s - 1, r - 1) * rem
    # double count: partitions * groups-per-partition = groups * multiplicity
    assert len(partitions) * q == math.comb(K, s) * reg
    assert len(partitions) == math.comb(K, r) * rem
