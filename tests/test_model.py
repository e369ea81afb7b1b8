"""System model: configs, demand validation, group-partition combinatorics.

The enumeration functions are checked against brute-force oracles built
from raw itertools output, and the closed-form counts against the
enumerations themselves.
"""

import itertools
import math
from fractions import Fraction as Frac

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coopcache import (
    GroupPartition,
    SystemConfig,
    as_frac,
    enumerate_equal_partitions,
    enumerate_remainder_partitions,
    enumerate_subsets,
    equal_partition_count,
    f_ks,
    group_multiplicity,
    remainder_group_multiplicity,
    remainder_partition_count,
    validate_demands,
)


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


@pytest.mark.parametrize("K,s", [(5, 3), (7, 4), (8, 3), (8, 5), (11, 3)])
def test_remainder_partitions_cover_everyone(K, s):
    q, r = divmod(K, s)
    parts = enumerate_remainder_partitions(K, s)
    assert len(parts) == remainder_partition_count(K, s)
    for part in parts:
        assert len(part) == q + 1
        assert sorted(len(g) for g in part) == sorted([s] * q + [r])
        assert len(part[-1]) == r  # remainder listed last
        assert sorted(u for g in part for u in g) == list(range(1, K + 1))


def test_remainder_partitions_reject_small_remainder():
    with pytest.raises(ValueError):
        enumerate_remainder_partitions(6, 3)  # K mod s = 0
    with pytest.raises(ValueError):
        enumerate_remainder_partitions(7, 3)  # K mod s = 1


@pytest.mark.parametrize("K,s,alpha_d", [(6, 2, 2), (6, 2, 3), (6, 3, 2), (8, 3, 2)])
def test_group_multiplicity_equal_partitions(K, s, alpha_d):
    parts = enumerate_equal_partitions(K, s, alpha_d)
    for probe in itertools.combinations(range(1, K + 1), s):
        hits = sum(probe in part for part in parts)
        assert hits == group_multiplicity(K, s, alpha_d)


@pytest.mark.parametrize("K,s", [(5, 3), (7, 4), (8, 3), (8, 5)])
def test_group_multiplicity_remainder_partitions(K, s):
    q, r = divmod(K, s)
    parts = enumerate_remainder_partitions(K, s)
    reg = group_multiplicity(K, s, q + 1)
    rem = remainder_group_multiplicity(K, s)
    for probe in itertools.combinations(range(1, K + 1), s):
        assert sum(probe in part for part in parts) == reg
    for probe in itertools.combinations(range(1, K + 1), r):
        assert sum(part[-1] == probe for part in parts) == rem


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
    mult = group_multiplicity(K, s, alpha_d)
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
    parts = enumerate_remainder_partitions(K, s)
    total_reg = len(parts) * q
    assert total_reg == math.comb(K, s) * group_multiplicity(K, s, q + 1)
    assert len(parts) == math.comb(K, r) * remainder_group_multiplicity(K, s)
