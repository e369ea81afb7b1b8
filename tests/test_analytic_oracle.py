"""The integer analytic path against its Fraction oracle, and the converse
on the shipped grids.

``analytic_oracle`` keeps the Fraction-arithmetic cut-set bound, memory
threshold test, decentralized rate components and centralized rates.  The
integer path must equal them exactly on every point of both shipped gap
grids, on every point of the three benchmark sweep grids, and on a
hypothesis sample.  The shipped-grid values also carry a converse check: no
achievable delay falls below the cut-set bound.
"""

from fractions import Fraction as Frac

import pytest
from hypothesis import given
from hypothesis import strategies as st

import analytic_oracle as oracle
from coopcache import (
    SystemConfig,
    centralized_gap_grid,
    centralized_rates,
    decentralized_gap_grid,
    decentralized_rates,
    gap_ratio,
    lower_bound,
    make_split_plan,
    p_at_least_threshold,
    rate_components,
)


@pytest.fixture(scope="module")
def shipped():
    """(config, converse, rates) at every point of both shipped grids."""
    cen = [(c, lower_bound(c), centralized_rates(c)) for c in centralized_gap_grid()]
    dec = [
        (c, lower_bound(c), decentralized_rates(c)) for c in decentralized_gap_grid()
    ]
    return cen, dec


def test_integer_path_matches_oracle_on_shipped_grids(shipped):
    cen, dec = shipped
    assert (len(cen), len(dec)) == (9148, 6237)
    for cfg, bound, rates in cen:
        assert bound == oracle.lower_bound(cfg), cfg
        assert rates == oracle.centralized_rates(cfg), cfg
    for cfg, bound, rates in dec:
        assert bound == oracle.lower_bound(cfg), cfg
        assert rates.components == oracle.rate_components(cfg), cfg
        assert p_at_least_threshold(cfg.K, cfg.p) == oracle.p_at_least_threshold(
            cfg.K, cfg.p
        ), cfg


# the grids of the benchmark's three sweeps: N=20, K=10, alpha_max=5, with
# M in 0:20:1/2 (centralized and bounds) and p in 1/100:99/100:1/100
SWEEP_M = [SystemConfig(20, 10, Frac(i, 2), alpha_max=5) for i in range(41)]
SWEEP_P = [SystemConfig(20, 10, Frac(i, 5), alpha_max=5) for i in range(1, 100)]


def test_integer_path_matches_oracle_on_the_sweep_grids():
    for cfg in SWEEP_M:
        assert lower_bound(cfg) == oracle.lower_bound(cfg), cfg
        assert centralized_rates(cfg) == oracle.centralized_rates(cfg), cfg
    for cfg in SWEEP_P:
        assert lower_bound(cfg) == oracle.lower_bound(cfg), cfg
        assert rate_components(cfg) == oracle.rate_components(cfg), cfg


def _outcome(f, *args, **kwargs):
    """f's result, or the message of the ValueError it raised."""
    try:
        return f(*args, **kwargs)
    except ValueError as e:
        return f"ValueError: {e}"


@st.composite
def _shapes(draw):
    K = draw(st.integers(min_value=2, max_value=16))
    N = draw(st.integers(min_value=K, max_value=3 * K))
    M = draw(st.fractions(min_value=0, max_value=N, max_denominator=100))
    return N, K, M


@given(
    _shapes(),
    st.integers(min_value=0, max_value=9),
    st.fractions(min_value=Frac(-1, 2), max_value=Frac(3, 2), max_denominator=100),
)
def test_integer_path_matches_oracle_on_a_sample(shape, alpha, share):
    # every alpha_max at the drawn shape; an explicit alpha and server share,
    # in range or not, must give the oracle's rates or its error
    N, K, M = shape
    for amax in range(1, max(1, K // 2) + 1):
        cfg = SystemConfig(N, K, M, alpha_max=amax)
        assert lower_bound(cfg) == oracle.lower_bound(cfg)
        assert p_at_least_threshold(K, cfg.p) == oracle.p_at_least_threshold(K, cfg.p)
        assert rate_components(cfg) == oracle.rate_components(cfg)
        assert centralized_rates(cfg) == oracle.centralized_rates(cfg)
        assert _outcome(centralized_rates, cfg, alpha, share) == _outcome(
            oracle.centralized_rates, cfg, alpha, share
        )
        if cfg.t.denominator == 1:
            assert make_split_plan(cfg) == oracle.make_split_plan(cfg)
            assert _outcome(make_split_plan, cfg, alpha, share) == _outcome(
                oracle.make_split_plan, cfg, alpha, share
            )


def test_achievable_never_beats_the_converse_on_shipped_grids(shipped):
    # the smallest ratios, recorded before the integer path: exactly 1 for
    # the centralized scheme (where M = N) and 970299/970000 for the
    # decentralized one
    cen, dec = shipped
    ratios = [gap_ratio(rates.T, bound.T_lower) for _, bound, rates in cen]
    assert min(ratios) == 1
    ratio, where = min(
        ((gap_ratio(rates.T, bound.T_lower), cfg) for cfg, bound, rates in dec),
        key=lambda pair: pair[0],
    )
    assert ratio == Frac(970299, 970000)
    assert where == SystemConfig(3, 3, Frac(3, 100), alpha_max=1)
