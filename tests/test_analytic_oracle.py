"""The integer analytic path against its Fraction oracle, and the converse
on the shipped grids.

``analytic_oracle`` keeps the Fraction-arithmetic cut-set bound, memory
threshold test, decentralized rate components, centralized rates, R_u
closed-form bounds and the three grid certifications.  The integer path
must equal them exactly on every point of both shipped gap grids, on every
point of the three benchmark sweep grids, and on a hypothesis sample; the
certification reports must compare equal on the shipped grids, on sampled
grid specs, on hand grids and with violations forced.  The shipped-grid
values also carry a converse check: no achievable delay falls below the
cut-set bound.
"""

from fractions import Fraction as Frac

import pytest
from hypothesis import given
from hypothesis import strategies as st

import analytic_oracle as oracle
from coopcache import (
    CentralizedGapReport,
    SystemConfig,
    bounds,
    centralized_gap_grid,
    centralized_rates,
    corollary_bounds,
    decentralized_delay,
    decentralized_gap_grid,
    decentralized_rates,
    gap_ratio,
    load_grid_spec,
    lower_bound,
    make_split_plan,
    p_at_least_threshold,
    rate_components,
    verify_gap_centralized,
    verify_gap_decentralized,
    verify_user_rate_bounds,
)
from coopcache.closed_forms import _rate_numerators


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
        assert _rate_numerators(cfg) == oracle.rate_numerators(cfg), cfg
        assert decentralized_delay(cfg) == rates.T, cfg
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
        assert _rate_numerators(cfg) == oracle.rate_numerators(cfg)
        assert decentralized_delay(cfg) == decentralized_rates(cfg).T
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


# ---------------------------------------------------------------------------
# the integer certifications against the Fraction ones
# ---------------------------------------------------------------------------


def _assert_reports_agree(grid):
    grid = list(grid)
    assert verify_gap_centralized(grid) == oracle.verify_gap_centralized(grid)
    assert verify_gap_decentralized(grid) == oracle.verify_gap_decentralized(grid)


def test_certifications_match_oracle_on_shipped_grids():
    cen = list(centralized_gap_grid())
    dec = list(decentralized_gap_grid())
    central = verify_gap_centralized(cen)
    assert central == oracle.verify_gap_centralized(cen)
    assert central.passed and central.points == 9148
    decentral = verify_gap_decentralized(dec)
    assert decentral == oracle.verify_gap_decentralized(dec)
    assert decentral.passed and decentral.points == 6237
    assert verify_user_rate_bounds() == oracle.verify_user_rate_bounds() == (None, True)


@st.composite
def _grid_specs(draw):
    K_lo = draw(st.integers(min_value=2, max_value=6))
    K = [K_lo, K_lo + draw(st.integers(min_value=0, max_value=2))]
    return {
        "centralized_gap": {
            "K": K,
            "N_max_multiple": draw(st.integers(min_value=1, max_value=3)),
            "alpha_max_choices": draw(
                st.lists(st.sampled_from([1, 2, 3, "half"]), min_size=1, max_size=3)
            ),
        },
        "decentralized_gap": {
            "K": K,
            "p_grid_denominator": draw(st.integers(min_value=2, max_value=12)),
        },
    }


@given(_grid_specs())
def test_certifications_match_oracle_on_sampled_grid_specs(spec):
    _assert_reports_agree(centralized_gap_grid(spec))
    _assert_reports_agree(decentralized_gap_grid(spec))


def test_certifications_match_oracle_on_a_hand_grid():
    # non-integer t (memory sharing), empty caches (M = 0) and full caches
    # (M = N, where delay and converse are both 0), in both certifications
    grid = [
        SystemConfig(N, K, M, alpha_max=amax)
        for N, K in ((4, 4), (5, 4), (7, 5), (9, 6))
        for M in (0, Frac(1, 3), Frac(N, K) * Frac(3, 2), Frac(N, 2), N - Frac(1, 7), N)
        for amax in range(1, K // 2 + 1)
    ]
    assert any(cfg.t.denominator != 1 for cfg in grid)
    _assert_reports_agree(grid)


def test_forced_violations_match_oracle(monkeypatch):
    spec = load_grid_spec()
    spec["centralized_gap"]["K"] = [2, 9]
    spec["decentralized_gap"]["K"] = [3, 9]
    # centralized: bounds low enough that both lists of violations fill
    monkeypatch.setattr(CentralizedGapReport, "BOUND", Frac(5, 2))
    monkeypatch.setattr(CentralizedGapReport, "HIGH_T_BOUND", Frac(6, 5))
    cen = list(centralized_gap_grid(spec))
    report = verify_gap_centralized(cen)
    assert report == oracle.verify_gap_centralized(cen)
    ratios = [(v.ratio, v.config.t >= v.config.K - 1) for v in report.violations]
    assert any(high for _, high in ratios) and any(r <= Frac(5, 2) for r, _ in ratios)
    assert any(not high for _, high in ratios)

    # decentralized: a shared-link bound of 3, and elsewhere a min form of 2
    real = bounds.decentralized_gap_bound

    def tight(config):
        bound, branch, min_form = real(config)
        if branch.startswith("shared"):
            return Frac(3), branch, None
        return bound, branch, Frac(2)

    monkeypatch.setattr(bounds, "decentralized_gap_bound", tight)
    monkeypatch.setattr(oracle, "decentralized_gap_bound", tight)
    dec = list(decentralized_gap_grid(spec))
    report = verify_gap_decentralized(dec)
    assert report == oracle.verify_gap_decentralized(dec)
    assert report.violations and report.min_form_exceedances
    assert not report.passed


def test_a_tie_keeps_the_first_point():
    # equal ratios at distinct configs: 2 at t = 1 and 4/3 at t = K-1, and
    # in the decentralized certification 1 at M = 0 and at M = N (both 0)
    central = [SystemConfig(3, 3, 1), SystemConfig(4, 4, 1)]
    high_t = [SystemConfig(2, 2, 1), SystemConfig(3, 2, Frac(3, 2))]
    for grid in (central, high_t, central[::-1], high_t[::-1]):
        report = verify_gap_centralized(grid)
        assert report == oracle.verify_gap_centralized(grid)
        assert report.worst.config == grid[0]
        assert report.worst.ratio == gap_ratio(centralized_rates(grid[1]).T,
                                               lower_bound(grid[1]).T_lower)
    assert verify_gap_centralized(high_t).worst_high_t.config == high_t[0]
    for grid in (
        [SystemConfig(4, 4, 0), SystemConfig(5, 5, 0)],
        [SystemConfig(4, 4, 4), SystemConfig(5, 5, 5)],
    ):
        for order in (grid, grid[::-1]):
            report = verify_gap_decentralized(order)
            assert report == oracle.verify_gap_decentralized(order)
            [point] = report.worst_by_branch.values()
            assert (point.config, point.ratio) == (order[0], 1)


def test_corollary_bounds_match_oracle_on_the_verify_points():
    for K in range(4, 13):
        for amax in sorted({1, 2, K // 2}):
            for i in range(1, 100):
                cfg = SystemConfig(K, K, Frac(i * K, 100), alpha_max=amax)
                assert corollary_bounds(cfg) == oracle.corollary_bounds(cfg), cfg


@given(
    st.integers(min_value=2, max_value=16),
    st.data(),
    st.one_of(
        st.fractions(min_value=0, max_value=1, max_denominator=100),
        st.sampled_from([Frac(0), Frac(1)]),
    ),
)
def test_corollary_bounds_match_oracle_on_a_sample(K, data, p):
    amax = data.draw(st.integers(min_value=1, max_value=max(1, K // 2)))
    cfg = SystemConfig(K, K, p * K, alpha_max=amax)
    assert corollary_bounds(cfg) == oracle.corollary_bounds(cfg)
