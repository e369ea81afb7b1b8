"""Execution, logging, rate measurement, and decode verification.

The peeling decoder is the oracle here: schedules must decode from caches
plus received symbols alone, and deleting any single load-bearing symbol
must break decodability.  Bit mode must converge to the fluid rates.
"""

import dataclasses
import gc
import random
import hashlib
from fractions import Fraction as Frac

import numpy as np
import pytest

import coopcache.centralized as centralized
import coopcache.decode as decode
import coopcache.simulator as simulator
import load_oracle
from coopcache import (
    BitLibrary,
    Constituent,
    FragmentId,
    LogEntry,
    SchedulingError,
    SystemConfig,
    TransmissionLog,
    XorSymbol,
    brute_force_decode_check,
    decentralized_rates,
    lower_bound,
    make_split_plan,
    required_central_F,
    run_centralized,
    run_decentralized,
)
from coopcache.cli import main
from coopcache.model import SymbolTable, partition_table

WORKED = SystemConfig(6, 6, 4, alpha_max=3, F=4500)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def test_bit_library_shape_and_determinism():
    a = BitLibrary.build(3, 64, seed=2)
    b = BitLibrary.build(3, 64, seed=2)
    c = BitLibrary.build(3, 64, seed=3)
    assert set(a.files) == {1, 2, 3}
    for n in (1, 2, 3):
        assert a.files[n].dtype == np.uint8
        assert a.files[n].shape == (64,)
        assert set(np.unique(a.files[n])) <= {0, 1}
        assert np.array_equal(a.files[n], b.files[n])
    assert any(not np.array_equal(a.files[n], c.files[n]) for n in (1, 2, 3))


def _toy_log(entries):
    cfg = SystemConfig(4, 4, 2, alpha_max=2)
    log = TransmissionLog(cfg, "fluid")
    log.entries = entries
    return log


def _entry(slot, round_index, sender, group, bits):
    sym = XorSymbol(sender, group, (), Frac(bits))
    return LogEntry(slot, round_index, sender, group, sym.receivers(), Frac(bits), sym)


def test_load_accounting_takes_busiest_lane_per_round():
    log = _toy_log(
        [
            _entry(0, -1, 0, (1, 2, 3, 4), 5),
            _entry(0, 0, 1, (1, 2), 2),
            _entry(0, 0, 3, (3, 4), 3),
            _entry(1, 1, 2, (2, 3), 1),
        ]
    )
    assert log.server_load() == Frac(5)
    assert log.user_load() == Frac(3 + 1)
    assert log.delay() == Frac(5)


def test_slot_discipline_violations_raise():
    with pytest.raises(ValueError, match="two server symbols"):
        _toy_log(
            [_entry(0, -1, 0, (1, 2, 3, 4), 1), _entry(0, -1, 0, (1, 2, 3, 4), 1)]
        ).verify_slot_discipline()
    with pytest.raises(ValueError, match="user senders"):
        _toy_log(
            [
                _entry(0, 0, 1, (1, 2), 1),
                _entry(0, 0, 3, (3,), 1),
                _entry(0, 0, 4, (4,), 1),
            ]
        ).verify_slot_discipline()
    with pytest.raises(ValueError, match="overlapping"):
        _toy_log(
            [_entry(0, 0, 1, (1, 2), 1), _entry(0, 0, 2, (2, 3), 1)]
        ).verify_slot_discipline()


def test_export_format():
    log = _toy_log([_entry(0, -1, 0, (1, 2, 3, 4), Frac(1, 45)),
                    _entry(0, 0, 1, (1, 2), Frac(2, 45))])
    lines = log.export_lines()
    assert lines[0] == "slot,sender,receivers,bits"
    assert lines[1] == "0,0,1|2|3|4,1/45"
    assert lines[2] == "0,1,2,2/45"  # sender hears itself out of the list


# ---------------------------------------------------------------------------
# centralized runs
# ---------------------------------------------------------------------------


def test_required_bit_granularity():
    plan = make_split_plan(WORKED, alpha=2, server_share=Frac(1, 3))
    assert required_central_F(WORKED, plan) == 45
    bad = SystemConfig(6, 6, 4, alpha_max=3, F=100)
    with pytest.raises(ValueError, match="45"):
        run_centralized(bad, alpha=2, server_share=Frac(1, 3), mode="bits")


def test_worked_example_fluid_run():
    res = run_centralized(WORKED, alpha=2, server_share=Frac(1, 3))
    assert res.decode_ok
    assert (res.rates.R1, res.rates.R2) == (Frac(2, 15), Frac(1, 3))
    assert res.rates.T == Frac(1, 3)
    assert res.rates.matches_closed
    # log totals agree with the report
    assert res.log.server_load() == Frac(2, 15)
    assert res.log.user_load() == Frac(1, 3)


def test_worked_example_balanced_default():
    res = run_centralized(SystemConfig(6, 6, 4, alpha_max=3))
    assert res.rates.T == Frac(2, 9)
    assert res.rates.R1 == res.rates.R2 == Frac(2, 9)
    assert res.rates.matches_closed and res.decode_ok


def test_worked_example_bits_run():
    res = run_centralized(WORKED, alpha=2, server_share=Frac(1, 3), mode="bits")
    assert res.decode_ok
    # bit counts are exact at this granularity, so rates match the formulas
    assert (res.rates.R1, res.rates.R2) == (Frac(2, 15), Frac(1, 3))


def test_centralized_decodes_under_permuted_demands():
    cfg = SystemConfig(5, 5, 2, alpha_max=2, F=600)
    for demands in [(2, 1, 4, 5, 3), (5, 4, 3, 2, 1)]:
        assert run_centralized(cfg, demands=demands).decode_ok
        assert run_centralized(cfg, demands=demands, mode="bits").decode_ok


def test_centralized_rate_identity_on_alpha_sweep():
    for K, t, alpha in [(4, 2, 2), (6, 2, 3), (6, 3, 2), (8, 4, 3)]:
        cfg = SystemConfig(K, K, t, alpha_max=max(1, K // 2))
        res = run_centralized(cfg, alpha=alpha)
        assert res.rates.matches_closed, (K, t, alpha)


# ---------------------------------------------------------------------------
# decentralized runs
# ---------------------------------------------------------------------------


def test_decentralized_fluid_identities():
    cfg = SystemConfig(3, 3, Frac(3, 2), alpha_max=1)
    res = run_decentralized(cfg)
    assert res.decode_ok
    closed = decentralized_rates(cfg)
    assert res.rates.R1 == closed.R1 == Frac(75, 116)
    assert res.rates.R2 == closed.R2 == Frac(75, 116)
    assert res.rates.matches_closed
    assert res.rates.closed_T == Frac(105, 184)
    assert res.plan.R_empty == Frac(3, 8)
    assert res.plan.R_s == Frac(7, 8)
    assert res.plan.R_u == Frac(15, 16)


def test_decentralized_reports_intra_round_splits():
    cfg = SystemConfig(5, 5, Frac(5, 2), alpha_max=2)
    res = run_decentralized(cfg)
    assert set(res.plan.lambda2_by_round) == {3}
    assert res.rates.matches_closed


def test_decentralized_bits_decode_across_seeds():
    cfg = SystemConfig(4, 4, 2, alpha_max=2, F=400)
    for seed in (0, 1, 2):
        res = run_decentralized(cfg, seed=seed, mode="bits")
        assert res.decode_ok


def test_decentralized_bits_converge_to_fluid_rates():
    cfg = SystemConfig(4, 4, 2, alpha_max=2, F=20000)
    closed = decentralized_rates(cfg)
    for seed in (0, 1):
        res = run_decentralized(cfg, seed=seed, mode="bits")
        for got, want in [(res.rates.R1, closed.R1), (res.rates.R2, closed.R2)]:
            assert abs(float(got) - float(want)) / float(want) < 0.1


# ---------------------------------------------------------------------------
# decode checks are earned, not assumed
# ---------------------------------------------------------------------------


def test_deleting_any_centralized_symbol_breaks_decode():
    cfg = SystemConfig(4, 4, 2, alpha_max=2)
    res = run_centralized(cfg)
    demands = tuple(range(1, 5))
    assert brute_force_decode_check(res.log, res.placement, demands)
    for i in range(len(res.log.entries)):
        mutated = TransmissionLog(cfg, "fluid", resolver=res.log.resolver)
        mutated.entries = res.log.entries[:i] + res.log.entries[i + 1 :]
        assert not brute_force_decode_check(mutated, res.placement, demands), i


def test_deleting_decentralized_symbols_breaks_decode_unless_redundant():
    cfg = SystemConfig(3, 3, Frac(3, 2), alpha_max=1)
    res = run_decentralized(cfg)
    demands = (1, 2, 3)
    flipped = 0
    for i, entry in enumerate(res.log.entries):
        mutated = TransmissionLog(cfg, "fluid", resolver=res.log.resolver)
        mutated.entries = res.log.entries[:i] + res.log.entries[i + 1 :]
        ok = brute_force_decode_check(mutated, res.placement, demands)
        if entry.symbol.redundant:
            assert ok, f"entry {i} is redundant, deleting it must be harmless"
        else:
            assert not ok, f"entry {i} claimed load-bearing but decode survived"
            flipped += 1
    assert flipped > 0


def test_decode_failure_is_reported_not_swallowed():
    cfg = SystemConfig(3, 3, Frac(3, 2), alpha_max=1)
    res = run_decentralized(cfg)
    # drop every cooperation symbol: uncached fragments can no longer arrive
    starved = TransmissionLog(cfg, "fluid", resolver=res.log.resolver)
    starved.entries = [e for e in res.log.entries if e.sender == 0]
    assert not brute_force_decode_check(starved, res.placement, (1, 2, 3))


# bit mode: the worklist also drives the XOR path that rebuilds payloads
BIT_RUNS = {
    "centralized": lambda: run_centralized(
        SystemConfig(4, 4, 2, alpha_max=2, F=120), mode="bits"
    ),
    "decentralized": lambda: run_decentralized(
        SystemConfig(3, 3, Frac(3, 2), alpha_max=1, F=600), mode="bits"
    ),
}


@pytest.mark.parametrize("scheme", sorted(BIT_RUNS))
def test_bit_mode_deleting_a_symbol_breaks_decode_unless_redundant(scheme):
    res = BIT_RUNS[scheme]()
    log, demands = res.log, tuple(res.log.config.users())
    assert brute_force_decode_check(log, res.placement, demands, res.library)
    for i, entry in enumerate(log.entries):
        mutated = TransmissionLog(
            log.config, "bits", log.entries[:i] + log.entries[i + 1 :], log.resolver
        )
        ok = brute_force_decode_check(mutated, res.placement, demands, res.library)
        assert ok == entry.symbol.redundant, i


@pytest.mark.parametrize("scheme", sorted(BIT_RUNS))
def test_bit_mode_flipping_one_payload_bit_breaks_decode(scheme):
    res = BIT_RUNS[scheme]()
    log, demands = res.log, tuple(res.log.config.users())
    for i, entry in enumerate(log.entries):
        # the last bit lies in the symbol's longest constituent; bit 0 of a
        # raw W_{n,()} would lie in its server share, which the redundant
        # singleton symbol delivers again and which then overwrites it
        payload = np.array(entry.symbol.payload, copy=True)
        payload[-1] ^= 1
        flipped = dataclasses.replace(
            entry, symbol=dataclasses.replace(entry.symbol, payload=payload)
        )
        mutated = TransmissionLog(
            log.config, "bits", log.entries[:i] + [flipped] + log.entries[i + 1 :],
            log.resolver,
        )
        assert not brute_force_decode_check(
            mutated, res.placement, demands, res.library
        ), i


@pytest.mark.parametrize("mode", ["fluid", "bits"])
def test_decentralized_decode_failure_names_user_file_and_subfile(mode, monkeypatch):
    # both schemes report a failed decode the same way, without raising
    execute = simulator.execute_schedule

    def starved(*args, **kwargs):
        log = execute(*args, **kwargs)
        log.entries = [e for e in log.entries if e.sender == 0]
        return log

    monkeypatch.setattr(simulator, "execute_schedule", starved)
    runs = [
        (run_centralized, SystemConfig(4, 4, 2, alpha_max=2, F=120), (2, 3)),
        (run_decentralized, SystemConfig(3, 3, Frac(3, 2), alpha_max=1, F=600), (2,)),
    ]
    for run, cfg, subfile in runs:
        res = run(cfg, mode=mode)
        assert res.decode_ok is False
        assert res.decode_failure == (1, 1, subfile)


def test_centralized_mode_is_checked_before_any_work(monkeypatch):
    def stop(*args, **kwargs):
        raise AssertionError("delivery built before the mode check")

    monkeypatch.setattr(simulator, "_delivery", stop)
    with pytest.raises(ValueError, match="unknown mode 'bitz'"):
        run_centralized(SystemConfig(4, 4, 2, alpha_max=2), mode="bitz")


def test_bit_mode_without_F_is_refused_before_any_work(monkeypatch):
    def stop(*args, **kwargs):
        raise AssertionError("built before the file size check")

    monkeypatch.setattr(simulator, "_delivery", stop)
    monkeypatch.setattr(simulator, "build_decentral_placement", stop)
    cfg = SystemConfig(4, 4, 2, alpha_max=2)
    for run in (run_centralized, run_decentralized):
        with pytest.raises(ValueError, match="^bit mode needs a file size F$"):
            run(cfg, mode="bits")


def test_a_negative_seed_is_refused_before_any_work(monkeypatch):
    def stop(*args, **kwargs):
        raise AssertionError("built before the seed check")

    monkeypatch.setattr(simulator, "make_split_plan", stop)
    monkeypatch.setattr(simulator, "check_run_size", stop)
    cfg = SystemConfig(4, 4, 2, alpha_max=2, F=600)
    for run in (run_centralized, run_decentralized):
        for mode in ("fluid", "bits"):
            with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
                run(cfg, seed=-1, mode=mode)


def test_an_unsplittable_F_is_refused_before_any_work(monkeypatch):
    def stop(*args):
        raise AssertionError("user schedule built before the file size check")

    monkeypatch.setattr(centralized, "_user_schedule", stop)
    cfg = SystemConfig(4, 4, 2, alpha_max=2, F=7)
    with pytest.raises(ValueError, match="^F=7 cannot be split exactly; use a multiple of 30$"):
        run_centralized(cfg, mode="bits")


def test_a_user_share_at_t_0_is_refused_before_any_work(monkeypatch):
    # no user caches anything to send: the closed forms would read R2 = 0
    # for a schedule that cannot decode
    def stop(*args):
        raise AssertionError("delivery built before the split check")

    monkeypatch.setattr(simulator, "_delivery", stop)
    with pytest.raises(ValueError, match="^server share 1/2 at t=0: "):
        run_centralized(SystemConfig(4, 4, 0, alpha_max=2), server_share=Frac(1, 2))


# ---------------------------------------------------------------------------
# the cyclic collector, which a run leaves alone
# ---------------------------------------------------------------------------

# both schemes in both modes, as (N, K, M, alpha_max, F); (6, 6, 3) at
# alpha_max 2 has m = 2 < t = 3, so its user schedule comes from the
# max-flow, not the quota check
ACYCLIC_RUNS = {
    "centralized-fluid-6-6-2": (run_centralized, (6, 6, 2, 3, None), "fluid"),
    "centralized-fluid-6-6-3": (run_centralized, (6, 6, 3, 2, None), "fluid"),
    "centralized-bits-4-4-2": (run_centralized, (4, 4, 2, 2, 120), "bits"),
    "decentralized-fluid-6-6-2": (run_decentralized, (6, 6, 2, 3, None), "fluid"),
    "decentralized-bits-6-6-2": (run_decentralized, (6, 6, 2, 3, 64), "bits"),
}


@pytest.mark.parametrize(
    "run,shape,mode", list(ACYCLIC_RUNS.values()), ids=list(ACYCLIC_RUNS)
)
def test_a_run_leaves_no_cyclic_garbage(run, shape, mode):
    # a run builds no cyclic data: reference counting alone frees
    # everything it built
    N, K, M, amax, F = shape
    cfg = SystemConfig(N, K, M, alpha_max=amax, F=F)
    run(cfg, mode=mode)  # first-use caches fill outside the count
    gc.collect()
    gc.disable()
    try:
        res = run(cfg, mode=mode)
        assert res.decode_ok
        del res
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_disjoint_group_choices_leave_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        groups, idle = partition_table(9, 3, 3)
        assert len(groups) == len(idle) == 280
        del groups, idle
        assert gc.collect() == 0
    finally:
        gc.enable()


def _record_collector_state(monkeypatch, seen):
    place = centralized.build_central_placement

    def recording(config):
        seen.append(gc.isenabled())
        return place(config)

    monkeypatch.setattr(centralized, "build_central_placement", recording)


def test_a_failed_run_restores_the_collector(monkeypatch):
    seen = []

    def infeasible(*args, **kwargs):
        seen.append(gc.isenabled())
        raise SchedulingError("user delivery infeasible")

    monkeypatch.setattr(simulator, "_delivery", infeasible)
    with pytest.raises(SchedulingError):
        run_centralized(SystemConfig(4, 4, 2, alpha_max=2))
    assert seen == [True] and gc.isenabled()


def test_a_run_keeps_a_collector_its_caller_paused(monkeypatch):
    seen = []
    _record_collector_state(monkeypatch, seen)
    gc.disable()
    try:
        assert run_centralized(SystemConfig(4, 4, 2, alpha_max=2)).decode_ok
        assert seen == [False] and not gc.isenabled()
    finally:
        gc.enable()


def test_a_run_keeps_its_callers_frozen_objects_frozen():
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        assert run_centralized(SystemConfig(4, 4, 2, alpha_max=2)).decode_ok
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


def test_a_run_leaves_the_collector_as_its_caller_left_it(monkeypatch):
    # switched on or off, with nothing frozen, and with an object made just
    # before the run still in the youngest generation: after a run, and
    # after a run that raises
    cfg = SystemConfig(4, 4, 2, alpha_max=2)
    run_centralized(cfg)  # first-use caches fill outside the check

    def infeasible(*args, **kwargs):
        raise SchedulingError("user delivery infeasible")

    def failed_run():
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "_delivery", infeasible)
            with pytest.raises(SchedulingError):
                run_centralized(cfg)

    for run in (lambda: run_centralized(cfg), failed_run):
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            try:
                gc.collect()
                young = []
                run()
                assert gc.isenabled() == enabled
                assert gc.get_freeze_count() == 0
                assert any(obj is young for obj in gc.get_objects(0))
            finally:
                gc.enable()


@pytest.mark.parametrize(
    "run,cfg",
    [
        (run_centralized, SystemConfig(8, 8, 2, alpha_max=4)),
        (run_decentralized, SystemConfig(6, 6, 2, alpha_max=3)),
    ],
    ids=["centralized", "decentralized"],
)
def test_a_run_makes_no_collection(run, cfg):
    # a run builds too few tracked objects to start a young collection,
    # which would scan the caller's objects and the run's result
    run(cfg)  # first-use caches fill outside the count
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        assert run(cfg).decode_ok
    finally:
        gc.callbacks.remove(record)
    assert started == []


def test_a_centralized_run_builds_its_placement_once(monkeypatch):
    # for the user schedule, whose placement the fragment resolver reuses;
    # the server schedule needs only t
    import coopcache.centralized as centralized

    built = []
    place = centralized.build_central_placement

    def counting(config):
        built.append(config)
        return place(config)

    monkeypatch.setattr(centralized, "build_central_placement", counting)
    monkeypatch.setattr(simulator, "build_central_placement", counting)
    assert run_centralized(SystemConfig(6, 6, 4, alpha_max=3)).decode_ok
    assert len(built) == 1


def test_bit_mode_flipping_bit_0_of_a_twice_learned_subfile_breaks_decode():
    # the three raw server symbols carry W_{n,()} whole; the redundant
    # singleton symbols deliver its server share again, over the same bits
    res = BIT_RUNS["decentralized"]()
    log = res.log
    for i, entry in enumerate(log.entries):
        payload = np.array(entry.symbol.payload, copy=True)
        payload[0] ^= 1
        flipped = dataclasses.replace(
            entry, symbol=dataclasses.replace(entry.symbol, payload=payload)
        )
        mutated = TransmissionLog(
            log.config, "bits", log.entries[:i] + [flipped] + log.entries[i + 1 :],
            log.resolver,
        )
        failure = simulator._first_decode_failure(mutated, (1, 2, 3), res.library)
        assert failure is not None, i
        if i < 3:
            assert failure == (i + 1, i + 1, ()), i


class _OneSubfile(simulator.FragmentResolver):
    """The layout rule over one subfile, T = (), of ``n`` bits."""

    def __init__(self, n):
        super().__init__(Frac(0), 1, {})
        self.subfile_masks, self.n = np.zeros((1, 1), np.int64), n  # T = ()'s mask row

    def subfile_lengths(self, files, subs):
        return np.full(len(subs), self.n, np.int64)


@pytest.mark.parametrize("n", list(range(0, 13)) + [97, 1000])
def test_near_equal_part_matches_array_split(n):
    # the fragments of a "full" part cut their subfile near-equally
    items = np.arange(n)
    resolver = _OneSubfile(n)
    for parts in range(1, 9):
        pieces = np.array_split(items, parts)
        frags = [Constituent(1, FragmentId(1, (), "full", i, parts)) for i in range(parts)]
        t = SymbolTable.from_symbols([XorSymbol(0, (1,), tuple(frags), Frac(1))])
        _, lo, hi = resolver.frag_spans(t.parts, t.file, t.subset, t.part, t.index, t.count)
        for i in range(parts):
            assert np.array_equal(items[lo[i] : hi[i]], pieces[i])


# (N, K, M, alpha_max, F) -> SHA-256 of `simulate` stdout and of the
# exported log of a decentralized bit-mode run at seed 0, recorded from the
# searchsorted placement: the README's decentralized example and a `bits`
# benchmark op
PINNED_DECENTRAL_BIT_RUNS = {
    ("7", "7", "4", "1", "70000"): (
        "bd727adb762fe5809d9dfb131700ff5be05aced959b6ae0f07f93f8bbb6b65da",
        "23b1d95defe53ee1a189e6bed07a2f6b6e29f45bc151dfd59e6991dafd1e4570",
    ),
    ("6", "6", "2", "3", "1000000"): (
        "5570426d9ed16adc48fba0a673a224c6ad2dc0073944b4faf2270112363f25ec",
        "663b8fdb1e720f8ce8d173384fbc02aa7417742fb28f19b3c33f80f1b6e8625a",
    ),
}


@pytest.mark.parametrize("run", sorted(PINNED_DECENTRAL_BIT_RUNS), ids=str)
def test_decentralized_bit_run_output_is_unchanged(run, tmp_path, monkeypatch, capsys):
    N, K, M, amax, F = run
    stdout_sha, export_sha = PINNED_DECENTRAL_BIT_RUNS[run]
    monkeypatch.chdir(tmp_path)  # stdout names the log path
    argv = ["simulate", "--scheme", "decentralized", "--N", N, "--K", K, "--M", M,
            "--alpha-max", amax, "--mode", "bits", "--F", F, "--export-log", "log.csv"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256((tmp_path / "log.csv").read_bytes()).hexdigest() == export_sha


# (scheme, (N, K, M, alpha_max), F, mode, centralized overrides) -> SHA-256
# over every distinct scheduled fragment, in first-use order, of
# repr((fragment, frag_size)) and, in bit mode, its positions' bytes;
# recorded from the per-scheme resolvers: the README worked example (L1=2),
# the `bits` benchmark's centralized ops, a flow-rung fluid run, and
# decentralized runs covering parts full/s/u and the case-3 u1/u2 split
PINNED_LAYOUTS = {
    ("centralized", (6, 6, 4, 3), 4500, "bits", (2, "1/3")):
        "c9aa998033af356fa59edda8774fec5f262f680c12e488c0051a11d1803055d7",
    ("centralized", (8, 8, 2, 4), 980000, "bits", None):
        "df12ab346163d71caccdc6daa73ba4cebb0c88dc49723fda1da30e18995171c4",
    ("centralized", (9, 9, 3, 3), 1008000, "bits", None):
        "dbb5401292dd29812e5f9af30d445f4e17c08d98d7e4b49124001bab5703fbbe",
    ("centralized", (8, 8, 4, 2), 1001000, "bits", None):
        "8e89ec345c62a1f9d98da7c46e775da57376989ff513293740c06aa622ba0caf",
    ("centralized", (12, 12, 6, 3), None, "fluid", None):
        "2ba9aaa8a44ca514fadbcc4d019b18e553492c94389dfcb53d779b23e8f08efb",
    ("decentralized", (7, 7, 4, 1), 70000, "bits", None):
        "7687ff21ba7858d71384c95db1f2bf19a23b5819bd0e430ae0f36325d65a46b6",
    ("decentralized", (6, 6, 2, 3), 100000, "bits", None):
        "2ca21a76f87efee7a1be1d15be386a145f4c360b38180df44f5a040e996d174f",
    ("decentralized", (7, 7, 4, 3), 100000, "bits", None):
        "c9d39d8c02941aca5c0c341fe2af64fbea0822c55ec4471a6f53970e8bf60066",
    ("decentralized", (5, 5, 2, 2), 100000, "bits", None):
        "232cb53dd4eeb0531713e0b0e6ff422c210bb717bc732cc872de36be919c0755",
    ("decentralized", (8, 8, "8/3", 4), 100000, "bits", None):
        "c6a5a2085cb4ffd9ca9c70bb3f3eb79550081332b1642b1942c749009f0fb588",
}


@pytest.mark.parametrize("run", list(PINNED_LAYOUTS), ids=str)
def test_fragment_layout_is_unchanged(run):
    scheme, (N, K, M, amax), F, mode, override = run
    cfg = SystemConfig(N, K, Frac(M), alpha_max=amax, F=F)
    if scheme == "centralized":
        alpha, share = override or (None, None)
        res = run_centralized(
            cfg, mode=mode, alpha=alpha, server_share=Frac(share) if share else None
        )
    else:
        res = run_decentralized(cfg, mode=mode)
    symbols = res.schedule.server_symbols + [
        sym for _, syms in res.schedule.user_rounds for sym in syms
    ]
    frags = dict.fromkeys(c.fragment for sym in symbols for c in sym.constituents)
    resolver = res.log.resolver
    digest = hashlib.sha256()
    for frag in frags:
        digest.update(repr((frag, resolver.frag_size(frag))).encode())
        if mode == "bits":
            digest.update(resolver.frag_positions(frag).tobytes())
    assert digest.hexdigest() == PINNED_LAYOUTS[run]


@pytest.mark.parametrize(
    "shape", [(5, 5, 2, 2, 3000), (6, 6, 2, 3, 3000)], ids=str
)
@pytest.mark.parametrize("deleted", [False, True], ids=["clean", "deleted-entry"])
def test_decentralized_resolver_views_agree(shape, deleted):
    # the decoder reads a fragment's bits through the compact placement
    # order (span_bits); the public int64 positions must pick the same bits
    N, K, M, amax, F = shape
    res = run_decentralized(SystemConfig(N, K, M, alpha_max=amax, F=F), mode="bits")
    log, resolver, files = res.log, res.log.resolver, res.library.files
    if deleted:
        drop = random.Random(F).randrange(len(log.entries))
        entries = log.entries[:drop] + log.entries[drop + 1 :]
        log = TransmissionLog(log.config, log.mode, entries, resolver)
    tables = decode._intern_log(log)
    assert len(tables.frags) > 0
    for frag, span in zip(tables.frags, tables.spans.tolist()):
        got = resolver.span_bits(res.library, *span)
        positions = resolver.frag_positions(frag)
        assert positions.dtype == np.int64
        assert np.array_equal(got, files[frag.file][positions]), frag


def test_both_resolvers_share_one_part_vocabulary():
    central = run_centralized(WORKED, alpha=2, server_share=Frac(1, 3), mode="bits")
    decentral = run_decentralized(
        SystemConfig(5, 5, 2, alpha_max=1, F=2000), mode="bits"
    )
    for res in (central, decentral):
        resolver = res.log.resolver
        T = (1, 2, 3, 4)
        whole = FragmentId(5, T, "full", 0, 1)
        assert resolver.frag_size(whole) == resolver.subfile_size(T)
        assert np.array_equal(
            resolver.frag_positions(whole), resolver.subfile_positions(5, T)
        )
        # no round of either run splits its user share by lambda2
        for part in ("u1", "x"):
            bad = FragmentId(5, T, part, 0, 1)
            with pytest.raises(ValueError, match=repr(part)):
                resolver.frag_size(bad)
            with pytest.raises(ValueError, match=repr(part)):
                resolver.frag_positions(bad)


# ---------------------------------------------------------------------------
# file relabelling (metamorphic): no schedule may depend on the ids of the
# files demanded
# ---------------------------------------------------------------------------

RELABEL_RUNS = [
    ("centralized", SystemConfig(9, 6, 6, alpha_max=3, F=135 * 4), (1, 2, 3, 4, 5, 6)),
    ("centralized", SystemConfig(8, 6, Frac(8, 3), alpha_max=3, F=105 * 3), (2, 5, 7, 1, 8, 3)),
    ("decentralized", SystemConfig(7, 5, Frac(14, 5), alpha_max=2, F=3000), (1, 2, 3, 4, 5)),
    ("decentralized", SystemConfig(6, 4, 3, alpha_max=2, F=2000), (6, 1, 4, 3)),
]


@pytest.mark.parametrize("run", RELABEL_RUNS, ids=lambda r: f"{r[0]}-{r[2]}")
def test_relabelling_files_changes_nothing_but_the_ids(run):
    scheme, cfg, demands = run
    simulate = run_centralized if scheme == "centralized" else run_decentralized
    base = simulate(cfg, demands)
    assert base.decode_ok
    for seed in (1, 2):
        relabel = list(range(1, cfg.N + 1))
        random.Random(seed).shuffle(relabel)
        mapped = tuple(relabel[d - 1] for d in demands)
        res = simulate(cfg, mapped)
        assert (res.rates.R1, res.rates.R2) == (base.rates.R1, base.rates.R2)
        assert res.decode_ok
        assert res.log.export_lines() == base.log.export_lines(), (seed, mapped)
        assert simulate(cfg, mapped, seed=seed, mode="bits").decode_ok


# ---------------------------------------------------------------------------
# achievable >= converse: no executed schedule beats the cut-set bound
# ---------------------------------------------------------------------------


def _small_runs(mode="fluid"):
    """Every run with K <= 6, at N = K and N = 2K: centralized at every
    integer t and every alpha (run at alpha_max = alpha, where the converse
    is largest), decentralized at every alpha_max and M = iN/8.  Bit mode
    takes the smallest F that splits every centralized fragment exactly, and
    F = 64 decentralized."""
    for K in range(2, 7):
        for N in (K, 2 * K):
            for alpha in range(1, K // 2 + 1):
                for t in range(K + 1):
                    cfg = SystemConfig(N, K, Frac(t * N, K), alpha_max=alpha)
                    if mode == "bits":
                        plan = make_split_plan(cfg, alpha=alpha)
                        F = required_central_F(cfg, plan)
                        cfg = dataclasses.replace(cfg, F=F * -(-64 // F))
                    yield cfg, run_centralized(cfg, alpha=alpha, mode=mode)
                for i in range(9):
                    F = 64 if mode == "bits" else None
                    cfg = SystemConfig(N, K, Frac(i * N, 8), alpha_max=alpha, F=F)
                    yield cfg, run_decentralized(cfg, mode=mode)


def test_executed_delay_is_never_below_the_converse():
    runs = 0
    for cfg, res in _small_runs():
        assert res.rates.T >= lower_bound(cfg).T_lower, cfg
        runs += 1
    assert runs == 2 * (50 + 9 * 9)


@pytest.mark.parametrize("mode", ["fluid", "bits"])
def test_loads_match_the_fraction_oracle(mode):
    for cfg, res in _small_runs(mode):
        log = res.log
        assert log.server_load() == load_oracle.server_load(log), cfg
        assert log.user_load() == load_oracle.user_load(log), cfg


def test_loads_match_the_fraction_oracle_on_hand_made_logs():
    # mixed denominators, int sizes, an empty round and rounds of one lane
    def whole(entry):
        return dataclasses.replace(entry, bits=int(entry.bits))

    fluid = _toy_log(
        [
            _entry(0, -1, 0, (1, 2, 3, 4), Frac(1, 3)),
            whole(_entry(1, -1, 0, (1, 2, 3, 4), 2)),
            _entry(2, -1, 0, (1, 2, 3, 4), Frac(5, 12)),
            _entry(0, 0, 1, (1, 2), Frac(1, 6)),
            _entry(1, 0, 2, (1, 2), Frac(1, 4)),
            _entry(0, 0, 3, (3, 4), Frac(3, 7)),
            whole(_entry(2, 1, 4, (3, 4), 1)),
            _entry(3, 1, 1, (1, 2), Frac(2, 9)),
            whole(_entry(4, 2, 2, (2, 3), 0)),
        ]
    )
    ints = [whole(_entry(0, -1, 0, (1, 2, 3, 4), 3)), whole(_entry(0, 0, 1, (1, 2), 2))]
    bits = TransmissionLog(SystemConfig(4, 4, 2, alpha_max=2, F=90), "bits", ints)
    for log in (fluid, _toy_log(ints), bits, _toy_log([])):
        assert log.server_load() == load_oracle.server_load(log)
        assert log.user_load() == load_oracle.user_load(log)
    assert (fluid.server_load(), fluid.user_load()) == (Frac(11, 4), Frac(3, 7) + 1)
    assert (bits.server_load(), bits.user_load()) == (Frac(1, 30), Frac(1, 45))
