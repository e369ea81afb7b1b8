"""Converse bound, baselines, gain formulas, and gap verification.

The cut-set terms are recomputed here with an independent loop; threshold
and gain values at reference points are frozen as exact rationals.
"""

import dataclasses
import json
import math
import os
import tempfile
from fractions import Fraction as Frac

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import analytic_oracle
import coopcache.bounds as bounds_module
import coopcache.closed_forms as closed_forms
from coopcache import (
    SystemConfig,
    baselines,
    centralized_delay,
    centralized_gains,
    centralized_gap_grid,
    choose_alpha,
    corollary_bounds,
    decentralized_delay,
    decentralized_gap_bound,
    decentralized_gap_grid,
    gap_ratio,
    gap_regime,
    load_grid_spec,
    lower_bound,
    p_at_least_threshold,
    p_threshold,
    verify_gap_centralized,
    verify_gap_decentralized,
)
from coopcache.cli import main
from retired_helpers import p_star, piecewise_alpha, piecewise_gains


# ---------------------------------------------------------------------------
# lower bound
# ---------------------------------------------------------------------------


def _oracle_terms(N, K, M, amax):
    half = Frac(N - M, 2 * N)
    server = max(Frac(s) - Frac(K * M, N // s) for s in range(1, K + 1))
    coop = max(
        Frac(s * (1 - Frac(M, N // s)), 1 + amax) for s in range(1, K + 1)
    )
    return half, server, coop


def test_lower_bound_empty_cache_reference():
    rep = lower_bound(SystemConfig(20, 10, 0, alpha_max=5))
    assert rep.T_lower == Frac(10)
    assert rep.cutset_terms == (Frac(1, 2), Frac(10), Frac(10, 6))


@pytest.mark.parametrize(
    "N,K,M,amax",
    [(20, 10, 0, 5), (20, 10, 4, 5), (6, 6, 4, 2), (12, 8, 3, 4), (9, 5, 7, 2)],
)
def test_lower_bound_matches_oracle(N, K, M, amax):
    rep = lower_bound(SystemConfig(N, K, M, alpha_max=amax))
    half, server, coop = _oracle_terms(N, K, M, amax)
    assert rep.cutset_terms == (half, server, coop)
    assert rep.T_lower == max(half, server, coop)


@st.composite
def _configs(draw):
    K = draw(st.integers(min_value=2, max_value=12))
    N = draw(st.integers(min_value=K, max_value=3 * K))
    M = draw(st.fractions(min_value=0, max_value=N, max_denominator=12))
    amax = draw(st.integers(min_value=1, max_value=max(1, K // 2)))
    return SystemConfig(N, K, M, alpha_max=amax)


@given(_configs())
def test_achievable_delays_never_beat_the_converse(cfg):
    T_lower = lower_bound(cfg).T_lower
    assert centralized_delay(cfg) >= T_lower
    assert decentralized_delay(cfg) >= T_lower


@given(_configs(), st.data())
def test_converse_never_grows_with_cache_or_parallelism(cfg, data):
    # every cut family, not only their max: the cooperative cut, the one
    # alpha_max enters, is seldom the largest
    before = lower_bound(cfg)
    M = data.draw(st.fractions(min_value=cfg.M, max_value=cfg.N, max_denominator=12))
    amax = data.draw(
        st.integers(min_value=cfg.alpha_max, max_value=max(1, cfg.K // 2))
    )
    for bigger in ({"M": M}, {"alpha_max": amax}):
        after = lower_bound(dataclasses.replace(cfg, **bigger))
        assert all(a <= b for a, b in zip(after.cutset_terms, before.cutset_terms))
        assert after.T_lower <= before.T_lower


def test_lower_bound_worked_example_and_gap():
    cfg = SystemConfig(6, 6, 4, alpha_max=2)
    rep = lower_bound(cfg)
    assert rep.T_lower == Frac(1, 6)
    ratio = gap_ratio(centralized_delay(cfg), rep.T_lower)
    assert ratio == centralized_delay(cfg) / Frac(1, 6) == Frac(4, 3)


def test_lower_bound_full_cache_degenerate():
    cfg = SystemConfig(4, 4, 4, alpha_max=2)
    rep = lower_bound(cfg)
    assert rep.T_lower == 0
    assert gap_ratio(centralized_delay(cfg), rep.T_lower) == 1


def test_bound_report_carries_regime_and_threshold():
    rep = lower_bound(SystemConfig(20, 10, 4, alpha_max=5))
    assert rep.regime.startswith("flexible/")
    assert 0 < rep.p_th < 1


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def test_baselines_reference_values():
    base = baselines(SystemConfig(20, 10, 2, alpha_max=5))
    assert base.server_only == Frac(9, 2)  # K(1-M/N)/(1+t) at t=1
    assert base.d2d_only == Frac(9)  # (N/M)(1-M/N)
    with pytest.raises(ValueError):
        baselines(SystemConfig(20, 10, 0, alpha_max=5))


def test_cooperation_beats_both_baselines_on_dense_grid():
    for M in range(2, 20, 2):
        cfg = SystemConfig(20, 10, M, alpha_max=5)
        base = baselines(cfg)
        T = centralized_delay(cfg)
        assert T <= base.server_only
        assert T <= base.d2d_only


# ---------------------------------------------------------------------------
# gains
# ---------------------------------------------------------------------------


def test_centralized_gains_frozen_values():
    assert centralized_gains(SystemConfig(20, 10, 4, alpha_max=5)) == (
        Frac(1, 3),
        Frac(2, 9),
    )
    assert centralized_gains(SystemConfig(20, 10, 2, alpha_max=5)) == (
        Frac(2, 7),
        Frac(1, 7),
    )


def test_centralized_gains_edges():
    with pytest.raises(ValueError):
        centralized_gains(SystemConfig(20, 10, 3, alpha_max=5))  # fractional t
    with pytest.raises(ValueError):
        centralized_gains(SystemConfig(20, 10, 0, alpha_max=5))  # t = 0
    with pytest.raises(ValueError):
        centralized_gains(SystemConfig(20, 10, 4, alpha_max=5), alpha=7)


def test_piecewise_gains_branches():
    g_c, g_p, branch = piecewise_gains(SystemConfig(6, 6, 5, alpha_max=3))
    assert (g_c, g_p, branch) == (Frac(6, 11), Frac(5, 11), "high-t")

    g_c, g_p, branch = piecewise_gains(SystemConfig(10, 10, 2, alpha_max=2))
    assert branch == "low-t"
    assert (g_c, g_p) == (Frac(3, 7), Frac(2, 7))
    # the generic formula at alpha = alpha_max agrees
    assert centralized_gains(SystemConfig(10, 10, 2, alpha_max=2), alpha=2) == (
        g_c,
        g_p,
    )

    g_c, g_p, branch = piecewise_gains(SystemConfig(10, 10, 2, alpha_max=5))
    assert branch == "interior"
    star = piecewise_alpha(SystemConfig(10, 10, 2, alpha_max=5))
    assert star == Frac(10, 3)
    assert centralized_gains(SystemConfig(10, 10, 2, alpha_max=5), alpha=star) == (
        g_c,
        g_p,
    )


@given(
    st.integers(min_value=4, max_value=16).flatmap(
        lambda K: st.tuples(
            st.just(K),
            st.integers(min_value=1, max_value=K - 1),
            st.integers(min_value=1, max_value=K // 2),
        )
    )
)
def test_piecewise_matches_generic_formula(shape):
    K, t, amax = shape
    cfg = SystemConfig(K, K, t, alpha_max=amax)
    g_c, g_p, branch = piecewise_gains(cfg)
    if branch == "high-t":
        alpha_star = Frac(1)
    elif branch == "low-t":
        alpha_star = Frac(amax)
    else:
        alpha_star = Frac(K, t + 1)
    assert centralized_gains(cfg, alpha=alpha_star) == (g_c, g_p)


# ---------------------------------------------------------------------------
# memory threshold
# ---------------------------------------------------------------------------


def test_threshold_interval_brackets_the_root():
    lo, hi = p_threshold(10)
    assert hi - lo <= Frac(1, 10**9)
    assert not p_at_least_threshold(10, lo)
    assert p_at_least_threshold(10, hi)
    assert 0.2338 < float(lo) <= float(hi) < 0.2340


def test_threshold_exact_side_test():
    # (K+1)(1-p)^(K-1) <= 1 exactly at p >= threshold
    for K in (3, 8, 12):
        lo, hi = p_threshold(K)
        for p in (lo, hi, Frac(1, 100), Frac(99, 100)):
            assert p_at_least_threshold(K, p) == ((K + 1) * (1 - p) ** (K - 1) <= 1)


def test_threshold_decreases_with_more_users():
    values = [p_threshold(K)[1] for K in range(3, 20)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_p_star():
    assert p_star(10) == Frac(1, 21)


def test_gap_regime_labels():
    assert gap_regime(SystemConfig(10, 10, 1, alpha_max=5)) == "flexible/p<p_th"
    assert gap_regime(SystemConfig(10, 10, 9, alpha_max=5)) == "flexible/p>=p_th"
    assert gap_regime(SystemConfig(10, 10, 1, alpha_max=1)) == "shared/p<p_th"
    assert gap_regime(SystemConfig(10, 10, 1, alpha_max=3)) == "middle/p<p_th"
    assert gap_regime(SystemConfig(3, 3, 1, alpha_max=1)).startswith("flexible")


# ---------------------------------------------------------------------------
# gap bounds and grid verification
# ---------------------------------------------------------------------------


def test_decentralized_gap_bound_branches():
    bound, branch, min_form = decentralized_gap_bound(
        SystemConfig(10, 10, 1, alpha_max=1)
    )
    assert (bound, branch, min_form) == (Frac(24), "shared/p<p_th", None)

    bound, branch, _ = decentralized_gap_bound(SystemConfig(10, 10, 9, alpha_max=5))
    assert (bound, branch) == (Frac(6), "flexible/p>=p_th")

    growth = 2 * 10 * Frac(20, 21) ** 9
    bound, branch, _ = decentralized_gap_bound(SystemConfig(10, 10, 1, alpha_max=5))
    assert branch == "flexible/p<p_th"
    assert bound == max(Frac(6), growth)

    bound, branch, min_form = decentralized_gap_bound(
        SystemConfig(10, 10, 1, alpha_max=3)
    )
    assert branch == "middle/p<p_th"
    assert bound == max(Frac(77), min(Frac(12) * 4, growth))
    assert min_form == min(Frac(12) * 4, growth)

    bound, branch, _ = decentralized_gap_bound(SystemConfig(10, 10, 9, alpha_max=3))
    assert (bound, branch) == (Frac(77), "middle/p>=p_th")


def test_verify_gap_centralized_small_grid():
    grid = [
        SystemConfig(K, K, t, alpha_max=a)
        for K in range(2, 7)
        for t in range(0, K + 1)
        for a in {1, max(1, K // 2)}
    ]
    report = verify_gap_centralized(grid)
    assert report.passed
    assert report.points == len(grid)
    assert not report.violations
    assert report.worst.ratio <= 31
    assert report.worst_high_t.ratio <= 2


def test_alpha_tables_match_the_oracle_choice():
    # every K <= 24, t in thirds (integer t among them) and alpha_max: the
    # running argmax's entry is the exhaustive search's first minimiser
    for K in range(2, 25):
        for t in (Frac(j, 3) for j in range(3 * K + 1)):
            best = closed_forms._alpha_table(K, t.numerator, t.denominator)
            assert len(best) == K // 2 + 1
            for amax in range(1, K // 2 + 1):
                cfg = SystemConfig(K, K, t, alpha_max=amax)
                want = analytic_oracle.choose_alpha(cfg)
                assert best[amax] == choose_alpha(cfg) == want, cfg


def test_certify_centralized_searches_alpha_once_per_k_and_t(monkeypatch):
    # the shipped grid's 9,148 points hold 209 distinct (K, t); a search is
    # a call of ``_alpha_table`` or of ``_best_alpha``, the per-point search
    # it replaced, whichever the certification imports
    points = list(bounds_module._central_points())
    distinct = {(K, K * a // (N * b)) for N, K, a, b, _ in points}
    assert (len(points), len(distinct)) == (9148, 209)
    searches = []
    for name in ("_alpha_table", "_best_alpha"):
        if hasattr(bounds_module, name):
            search = getattr(bounds_module, name)
            monkeypatch.setattr(
                bounds_module,
                name,
                lambda *args, search=search: searches.append(args) or search(*args),
            )
    report = bounds_module.certify_centralized()
    assert report.passed and report.points == 9148
    assert len(searches) <= 209


def test_verify_gap_decentralized_small_grid():
    grid = [
        SystemConfig(K, K, Frac(i * K, 10), alpha_max=a)
        for K in range(3, 7)
        for i in range(1, 10)
        for a in {1, max(1, K // 2)}
    ]
    report = verify_gap_decentralized(grid)
    assert report.passed
    assert report.points == len(grid)
    for branch, point in report.worst_by_branch.items():
        assert point.ratio <= decentralized_gap_bound(point.config)[0]


def test_shipped_grid_spec_loads():
    spec = load_grid_spec()
    assert set(spec) == {"centralized_gap", "decentralized_gap"}
    assert spec["centralized_gap"]["K"] == [2, 20]
    assert spec["decentralized_gap"]["K"] == [3, 16]


def test_grid_generators_respect_custom_spec():
    spec = {
        "centralized_gap": {
            "K": [4, 4],
            "N_max_multiple": 1,
            "alpha_max_choices": [1, 2, "half"],
        },
        "decentralized_gap": {"K": [4, 4], "p_grid_denominator": 4},
    }
    central = list(centralized_gap_grid(spec))
    # K=4, N=4 only, t in 1..4, alpha_max in {1, 2} ("half" collapses to 2)
    assert len(central) == 4 * 2
    assert {c.alpha_max for c in central} == {1, 2}
    decentral = list(decentralized_gap_grid(spec))
    assert {c.p for c in decentral} == {Frac(1, 4), Frac(1, 2), Frac(3, 4)}


@given(
    st.integers(min_value=-1, max_value=8),
    st.integers(min_value=-2, max_value=4),
    st.integers(min_value=-1, max_value=3),
    st.lists(st.sampled_from([-1, 0, 1, 2, 3, 4, "half"]), max_size=4),
    st.integers(min_value=-1, max_value=6),
)
def test_grid_sizes_count_the_enumerated_points(K_lo, span, n_mult, choices, den):
    spec = {
        "centralized_gap": {"K": [K_lo, K_lo + span], "N_max_multiple": n_mult,
                            "alpha_max_choices": choices},
        "decentralized_gap": {"K": [K_lo, K_lo + span], "p_grid_denominator": den},
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        if K_lo < 2:  # no config has fewer than two users
            with pytest.raises(ValueError, match=r"centralized_gap\.K must start at 2"):
                load_grid_spec(path)
            return
        assert load_grid_spec(path) == spec
    assert bounds_module.gap_grid_sizes(spec) == (
        len(list(centralized_gap_grid(spec))),
        len(list(decentralized_gap_grid(spec))),
    )


# ---------------------------------------------------------------------------
# the integer grid walkers
# ---------------------------------------------------------------------------


def _reference_central_grid(spec):
    """The centralized gap grid as configs, in the order K, N, t, alpha_max."""
    spec = spec["centralized_gap"]
    for K in range(spec["K"][0], spec["K"][1] + 1):
        choices = set()
        for c in spec["alpha_max_choices"]:
            v = K // 2 if c == "half" else c
            if 1 <= v <= max(1, K // 2):
                choices.add(v)
        for N in range(K, spec["N_max_multiple"] * K + 1):
            for t in range(1, K + 1):
                for amax in sorted(choices):
                    yield SystemConfig(N, K, Frac(t * N, K), alpha_max=amax)


def _reference_decentral_grid(spec):
    """The decentralized gap grid as configs, in the order K, alpha_max, i."""
    spec = spec["decentralized_gap"]
    den = spec["p_grid_denominator"]
    for K in range(spec["K"][0], spec["K"][1] + 1):
        for amax in range(1, max(1, K // 2) + 1):
            for i in range(1, den):
                yield SystemConfig(K, K, Frac(i * K, den), alpha_max=amax)


def _assert_walkers_follow_the_grids(spec):
    def as_points(grid):
        return [(c.N, c.K, c.M.numerator, c.M.denominator, c.alpha_max) for c in grid]

    central = list(bounds_module._central_points(spec))
    assert central == as_points(centralized_gap_grid(spec))
    assert central == as_points(_reference_central_grid(spec))
    decentral = list(bounds_module._decentral_points(spec))
    assert decentral == as_points(decentralized_gap_grid(spec))
    assert decentral == as_points(_reference_decentral_grid(spec))
    assert bounds_module.gap_grid_sizes(spec) == (len(central), len(decentral))


def test_walkers_follow_the_shipped_grids():
    _assert_walkers_follow_the_grids(load_grid_spec())


@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.lists(st.sampled_from([1, 2, 3, 4, "half"]), min_size=1, max_size=4),
    st.integers(min_value=2, max_value=12),
)
# "half" is 2 at K = 4, 5, and is listed once
@example(4, 1, 1, ["half", 2], 2)
@example(2, 2, 1, [1, "half"], 2)
def test_walkers_follow_sampled_grids(K_lo, span, n_mult, choices, den):
    _assert_walkers_follow_the_grids({
        "centralized_gap": {"K": [K_lo, K_lo + span], "N_max_multiple": n_mult,
                            "alpha_max_choices": choices},
        "decentralized_gap": {"K": [K_lo, K_lo + span], "p_grid_denominator": den},
    })


def test_min_form_exceedance_is_noted_not_failed(monkeypatch):
    cfg = SystemConfig(6, 6, Frac(3, 5), alpha_max=2)  # middle, below p_th
    bound, branch, min_form = decentralized_gap_bound(cfg)
    assert branch == "middle/p<p_th"
    assert min_form < bound == 77
    T_lower = lower_bound(cfg).T_lower
    monkeypatch.setattr(
        bounds_module,
        "_delay_ints",
        lambda K, amax, a, b: ((min_form + 1) * T_lower).as_integer_ratio(),
    )
    report = verify_gap_decentralized([cfg])
    assert report.passed
    assert [p.config for p in report.min_form_exceedances] == [cfg]


# ---------------------------------------------------------------------------
# one parallelism classifier, and a converse without achievable delays
# ---------------------------------------------------------------------------

# At K = 2 and K = 3 the only width, alpha_max = 1, is also floor(K/2).  The
# gap labels call it flexible; corollary_bounds calls it shared at K = 2
# only, where the flexible closed form would divide by K - 2 = 0.  Values
# recorded before the three regime classifiers became one.
@pytest.mark.parametrize(
    "K,p,label,ru_regime,ru_bound",
    [
        (2, Frac(1, 4), "flexible/p<p_th", "shared", Frac(3, 8)),
        (2, Frac(3, 4), "flexible/p>=p_th", "shared", Frac(3, 8)),
        (3, Frac(1, 4), "flexible/p<p_th", "flexible", Frac(243, 128)),
        (3, Frac(3, 4), "flexible/p>=p_th", "flexible", Frac(153, 128)),
    ],
)
def test_small_k_regimes_pinned(K, p, label, ru_regime, ru_bound):
    cfg = SystemConfig(K, K, p * K, alpha_max=1)
    assert gap_regime(cfg) == label
    assert decentralized_gap_bound(cfg) == (Frac(6), label, None)
    assert corollary_bounds(cfg) == (ru_regime, ru_bound)


K2_BOUNDS_SWEEP = """\
M,M_float,T_lower,T_lower_float,cut_half,cut_half_float,cut_server,cut_server_float,cut_coop,cut_coop_float,regime,p_th
0,0,2,2,1/2,0.5,2,2,1,1,flexible/p<p_th,0.666666666511
1/2,0.5,1,1,3/8,0.375,1,1,1/2,0.5,flexible/p<p_th,0.666666666511
1,1,1/4,0.25,1/4,0.25,0,0,1/4,0.25,flexible/p<p_th,0.666666666511
3/2,1.5,1/8,0.125,1/8,0.125,-1/2,-0.5,1/8,0.125,flexible/p>=p_th,0.666666666511
2,2,0,0,0,0,-1,-1,0,0,flexible/p>=p_th,0.666666666511
"""


def test_k2_bounds_sweep_pinned(capsys):
    argv = ["sweep", "--scheme", "bounds", "--N", "2", "--K", "2",
            "--alpha-max", "1", "--grid", "0:2:1/2"]
    assert main(argv) == 0
    assert capsys.readouterr().out == K2_BOUNDS_SWEEP


def test_converse_paths_evaluate_no_centralized_delay(monkeypatch, capsys):
    def refuse(config):
        raise AssertionError(f"centralized delay evaluated at {config}")

    monkeypatch.setattr(bounds_module, "centralized_delay", refuse)
    assert lower_bound(SystemConfig(6, 6, 4, alpha_max=2)).T_lower == Frac(1, 6)
    grid = [
        SystemConfig(K, K, Frac(i * K, 8), alpha_max=a)
        for K in (3, 4, 5)
        for i in range(1, 8)
        for a in {1, K // 2}
    ]
    assert verify_gap_decentralized(grid).passed
    for scheme, values in (("bounds", "0:20:4"), ("decentralized", "1/4:3/4:1/4")):
        argv = ["sweep", "--scheme", scheme, "--N", "20", "--K", "10",
                "--alpha-max", "5", "--grid", values]
        assert main(argv) == 0
    # a header plus one row per grid point: M = 0, 4, ..., 20 and p = 1/4, 1/2, 3/4
    assert capsys.readouterr().out.count("\n") == (1 + 6) + (1 + 3)
