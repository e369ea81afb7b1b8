"""Acceptance suite: the ten headline guarantees, one test per criterion.

Each test covers one numbered criterion at its stated grid and tolerance
(exact rational equality unless a tolerance is given) and prints a single
summary line; run with ``pytest tests/test_acceptance.py -v`` to see one
pass/fail line per criterion.  The whole suite is sized to finish in about
a minute.
"""

import itertools
import math
import time
from fractions import Fraction as Frac

from coopcache import (
    SystemConfig,
    TransmissionLog,
    baselines,
    brute_force_decode_check,
    centralized_delay,
    centralized_gains,
    centralized_gap_grid,
    corollary_bounds,
    decentralized_delay,
    decentralized_gap_grid,
    p_threshold,
    rate_components,
    run_centralized,
    run_decentralized,
    verify_gap_centralized,
    verify_gap_decentralized,
)


def _report(n: int, detail: str) -> None:
    print(f"[criterion {n:02d}] PASS — {detail}")


def test_criterion_01_worked_example():
    start = time.monotonic()
    cfg = SystemConfig(6, 6, 4, alpha_max=3, F=4500)
    fluid = run_centralized(cfg, alpha=2, server_share=Frac(1, 3))
    assert (fluid.rates.R1, fluid.rates.R2, fluid.rates.T) == (
        Frac(2, 15),
        Frac(1, 3),
        Frac(1, 3),
    )
    assert fluid.plan.L1 == 2
    assert fluid.decode_ok

    bits = run_centralized(cfg, alpha=2, server_share=Frac(1, 3), mode="bits")
    assert bits.decode_ok
    assert (bits.rates.R1, bits.rates.R2) == (Frac(2, 15), Frac(1, 3))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, f"R1=2/15 R2=1/3 T=1/3 exact, bit decode ok in {elapsed:.2f}s")


def test_criterion_02_single_group_delay():
    for K in range(3, 13):
        cfg = SystemConfig(K, K, K - 1, alpha_max=1)
        T = centralized_delay(cfg)
        assert T == Frac(1, 2 * K - 1)
        base = baselines(cfg)
        assert base.server_only == Frac(1, K)
        assert base.d2d_only == Frac(1, K - 1)
        assert T < base.server_only < base.d2d_only
    _report(2, "T = 1/(2K-1) for K in 3..12, strictly below both baselines")


def test_criterion_03_centralized_rate_identity():
    start = time.monotonic()
    checked = 0
    for K in range(2, 9):
        for t in range(1, K):
            for alpha in range(1, max(1, K // 2) + 1):
                cfg = SystemConfig(K, K, t, alpha_max=max(1, K // 2))
                res = run_centralized(cfg, alpha=alpha)
                assert res.rates.matches_closed, (K, t, alpha)
                assert res.rates.R1 == res.rates.R2, (K, t, alpha)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _report(3, f"{checked} (K,t,alpha) configs, measured = closed and R1 = R2, "
               f"{elapsed:.1f}s")


def test_criterion_04_exhaustive_decodability():
    decoded = mutations = 0
    for K in range(2, 6):
        amax = max(1, K // 2)
        for t in range(0, K + 1):
            cfg = SystemConfig(K, K, t, alpha_max=amax)
            for demands in itertools.permutations(range(1, K + 1)):
                res = run_centralized(cfg, demands=demands)
                assert brute_force_decode_check(res.log, res.placement, demands), (
                    K, t, demands,
                )
                decoded += 1
            # deletion mutations at the identity demand vector
            identity = tuple(range(1, K + 1))
            res = run_centralized(cfg, demands=identity)
            for i in range(len(res.log.entries)):
                mutated = TransmissionLog(cfg, "fluid", resolver=res.log.resolver)
                mutated.entries = res.log.entries[:i] + res.log.entries[i + 1 :]
                assert not brute_force_decode_check(
                    mutated, res.placement, identity
                ), (K, t, i)
                mutations += 1
    _report(4, f"{decoded} demand vectors decode; all {mutations} single-symbol "
               "deletions break decode")


def test_criterion_05_decentralized_fluid_identity():
    checked = 0
    for K in range(4, 9):
        for amax in sorted({1, 2, K // 2}):
            for i in range(1, 8):
                cfg = SystemConfig(K, K, Frac(i * K, 8), alpha_max=amax)
                rc = rate_components(cfg)
                res = run_decentralized(cfg)
                lam = res.plan.server_share
                assert res.log.server_load() == rc.R_empty + lam * rc.R_s, (K, amax, i)
                assert res.log.user_load() == (1 - lam) * rc.R_u, (K, amax, i)
                want_T = (
                    rc.R_empty
                    if rc.R_u < rc.R_empty
                    else rc.R_s * rc.R_u / (rc.R_s + rc.R_u - rc.R_empty)
                )
                assert res.rates.closed_T == want_T, (K, amax, i)
                checked += 1
    _report(5, f"{checked} (K, alpha_max, p) configs: measured loads and headline "
               "delay match the closed forms exactly")


def test_criterion_06_monte_carlo_convergence():
    cfg1 = SystemConfig(5, 5, 2, F=10**5)
    cfg2 = SystemConfig(5, 5, 2, F=10**6)
    closed = run_decentralized(cfg1)  # fluid reference
    fluid_R1, fluid_R2 = closed.rates.closed_R1, closed.rates.closed_R2

    def rel_errors(cfg):
        errs = []
        for seed in range(20):
            res = run_decentralized(cfg, seed=seed, mode="bits")
            errs.append(abs(float(res.rates.R1 / fluid_R1) - 1.0))
            errs.append(abs(float(res.rates.R2 / fluid_R2) - 1.0))
        return errs

    errs_small = rel_errors(cfg1)
    assert max(errs_small) < 0.05
    errs_big = rel_errors(cfg2)
    mean_small = sum(errs_small) / len(errs_small)
    mean_big = sum(errs_big) / len(errs_big)
    assert mean_big < mean_small
    _report(6, f"20 seeds at F=1e5: worst {max(errs_small):.3%} < 5%; "
               f"mean error {mean_small:.3%} -> {mean_big:.3%} at F=1e6")


def test_criterion_07_cooperation_load_bounds():
    checked = 0
    regimes = set()
    for K in range(4, 13):
        for amax in sorted({1, 2, K // 2}):
            for i in range(1, 100):
                cfg = SystemConfig(K, K, Frac(i * K, 100), alpha_max=amax)
                regime, bound = corollary_bounds(cfg)
                regimes.add(regime)
                assert bound >= rate_components(cfg).R_u, (K, amax, i, regime)
                checked += 1
        for i in range(1, 100):
            cfg = SystemConfig(K, K, Frac(i * K, 100), alpha_max=1)
            _, bound = corollary_bounds(cfg)
            assert bound < 4 * rate_components(cfg).R_s, (K, i)
    assert regimes == {"shared", "flexible", "middle"}
    _report(7, f"{checked} points: every regime's bound dominates R_u; "
               "shared bound < 4*R_s pointwise")


def test_criterion_08_centralized_gap():
    report = verify_gap_centralized(centralized_gap_grid())
    assert report.passed
    assert not report.violations
    assert report.worst.ratio <= 31
    assert report.worst_high_t.ratio <= 2
    _report(8, f"{report.points} grid points: worst ratio "
               f"{float(report.worst.ratio):.3f} <= 31, dense-cache worst "
               f"{float(report.worst_high_t.ratio):.3f} <= 2")


def test_criterion_09_decentralized_gap_and_threshold():
    report = verify_gap_decentralized(decentralized_gap_grid())
    assert report.passed
    assert not report.violations

    prev = None
    for K in range(3, 65):
        lo, hi = p_threshold(K)
        assert hi - lo <= Frac(1, 10**6)
        if prev is not None:
            assert hi < prev, K  # strictly decreasing
        if K >= 10:
            assert hi < Frac(1, 4)
        prev = lo
    lo10, hi10 = p_threshold(10)
    assert Frac(2338, 10000) < lo10 <= hi10 < Frac(2340, 10000)
    worst = max(float(p.ratio) for p in report.worst_by_branch.values())
    _report(9, f"{report.points} grid points within branch bounds (worst "
               f"{worst:.3f}); p_th strictly decreasing on 3..64, "
               f"p_th(10) in (0.2338, 0.2340)")


def test_criterion_10_reference_topology_shapes():
    N, K = 20, 10
    M_grid = [Frac(M) for M in range(0, 21, 2)]

    delays = [centralized_delay(SystemConfig(N, K, M, alpha_max=5)) for M in M_grid]
    assert all(a >= b for a, b in zip(delays, delays[1:]))
    for M, T in zip(M_grid, delays):
        if M == 0:
            continue
        base = baselines(SystemConfig(N, K, M, alpha_max=5))
        assert T <= base.server_only
        assert T <= base.d2d_only

    gains = [Frac(1)] + [  # t = 0: no caching, cooperation changes nothing
        centralized_gains(SystemConfig(N, K, Frac(t * N, K), alpha_max=5))[0]
        for t in range(1, K + 1)
    ]
    k_min = gains.index(min(gains))
    assert 0 < k_min < len(gains) - 1
    assert gains[0] > gains[k_min] < gains[-1]

    for M in M_grid:
        T1 = decentralized_delay(SystemConfig(N, K, M, alpha_max=1))
        T3 = decentralized_delay(SystemConfig(N, K, M, alpha_max=3))
        T5 = decentralized_delay(SystemConfig(N, K, M, alpha_max=5))
        assert T1 >= T3 >= T5
    _report(10, "delay non-increasing in M and below both baselines; G_c has an "
                "interior minimum; delay pointwise non-increasing in alpha_max")
