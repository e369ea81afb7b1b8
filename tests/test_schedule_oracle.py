"""The columnar schedules and transmission log against the object ones
they replaced.

``schedule_oracle`` keeps the object ``parallel_user_delivery``, both
schemes' object server schedules and ``execute_schedule``.  The package
now holds them as int columns and shows ``schedule.user_rounds``,
``schedule.server_symbols`` and ``log.entries`` through read-only views;
every item of a view must equal the oracle's, with the same ``repr``, on
the benchmark's decentralized shapes in both modes and on every shape with
K <= 8 at p = 1/3 and 1/2, and the server views on their own grids.  A
fluid decentralized run must build no value object, and the column audit
must raise the oracle's messages.
"""

import dataclasses
import random
from collections import Counter
from fractions import Fraction as Frac

import numpy as np
import pytest

import schedule_oracle as oracle
import worklist_oracle
from coopcache import (
    Constituent,
    DecentralFragmentResolver,
    DeliverySchedule,
    FragmentId,
    GroupPartition,
    LogEntry,
    SchedulingError,
    SystemConfig,
    TransmissionLog,
    XorSymbol,
    allocation_plan,
    build_decentral_placement,
    build_server_schedule,
    execute_schedule,
    make_split_plan,
    parallel_user_delivery,
    run_decentralized,
    server_delivery_decentralized,
)
from coopcache import decentralized
from coopcache.cli import main
from coopcache.model import ListView, Symbols
from coopcache.simulator import BitLibrary, _first_decode_failure

# (N, K, M, alpha_max) of the benchmark's decentral_fluid ops and of its
# decentralized bit-mode ops (run here at F = 20000, not 10^6)
DECENTRAL_FLUID = [
    (6, 6, 2, 3), (7, 7, "7/3", 3), (8, 8, "8/3", 4), (8, 8, 4, 2),
    (9, 9, 3, 1), (9, 9, 3, 4),
]
DECENTRAL_BITS = [(5, 5, 2, 1), (5, 5, 2, 2), (6, 6, 2, 3)]
# every other shape with K <= 8 at p = 1/3 and 1/2 (the two K = 8
# benchmark shapes are among them)
SMALL = [
    (K, K, p * K, amax)
    for K in range(2, 9)
    for amax in range(1, K // 2 + 1)
    for p in (Frac(1, 3), Frac(1, 2))
    if (K, K, p * K, amax) not in [(8, 8, Frac(8, 3), 4), (8, 8, 4, 2)]
]


def _ids(shapes):
    return [",".join(map(str, s)) for s in shapes]


def _both(shape, seed=0, mode="fluid", F=None):
    """(config, demands, view log, oracle log, view schedule, oracle
    schedule) of one decentralized shape, both executed over one placement,
    resolver and library, with distinct demands drawn from ``seed``."""
    N, K, M, amax = shape
    cfg = SystemConfig(N, K, Frac(M), alpha_max=amax, F=F)
    demands = tuple(random.Random(seed).sample(range(1, N + 1), K))
    placement = build_decentral_placement(cfg, seed=seed, mode=mode)
    plan = allocation_plan(cfg)
    resolver = DecentralFragmentResolver(placement, plan)
    library = BitLibrary.build(N, F, seed) if mode == "bits" else None
    server = server_delivery_decentralized(cfg, placement, demands, plan)
    scheds = []
    for build in (parallel_user_delivery, oracle.parallel_user_delivery):
        sched = build(cfg, placement, demands, plan)
        sched.server_symbols = server
        scheds.append(sched)
    got = execute_schedule(cfg, scheds[0], resolver, mode, library)
    want = oracle.execute_schedule(cfg, scheds[1], resolver, mode, library)
    return cfg, demands, got, want, *scheds


def _entry_fields(e):
    return e.slot, e.round_index, e.sender, e.group, e.receivers, e.bits


def _assert_same_items(view, items):
    """``view`` against the oracle's list, item by item: ``==`` and
    ``repr``, and in bit mode each payload's bits (the arrays themselves
    never compare with ``==``).  A log entry's ``repr`` is checked on its
    fields but its symbol: the symbols' reprs are the rounds'."""
    assert isinstance(view, ListView) and len(view) == len(items)
    for got, want in zip(view, items):
        if not isinstance(got, LogEntry):
            assert repr(got) == repr(want)
        elif got.symbol.payload is None:
            assert repr(_entry_fields(got)) == repr(_entry_fields(want))
        else:
            assert repr(_entry_fields(got)) == repr(_entry_fields(want))
            assert np.array_equal(got.symbol.payload, want.symbol.payload)
            got, want = (
                dataclasses.replace(e, symbol=dataclasses.replace(e.symbol, payload=None))
                for e in (got, want)
            )
        assert got == want


@pytest.mark.parametrize("shape", DECENTRAL_FLUID, ids=_ids(DECENTRAL_FLUID))
def test_views_match_the_oracle_on_the_benchmark_shapes(shape):
    cfg, demands, got, want, sched, ref = _both(shape, seed=5)
    _assert_same_items(sched.user_rounds, ref.user_rounds)
    assert sched.user_symbol_count() == ref.user_symbol_count()
    _assert_same_items(got.entries, want.entries)
    assert got.export_lines() == want.export_lines()
    assert _first_decode_failure(got, demands) is None


@pytest.mark.parametrize("shape", DECENTRAL_BITS, ids=_ids(DECENTRAL_BITS))
def test_views_match_the_oracle_on_the_benchmark_bit_shapes(shape):
    cfg, demands, got, want, sched, ref = _both(shape, seed=5, mode="bits", F=20000)
    _assert_same_items(sched.user_rounds, ref.user_rounds)
    _assert_same_items(got.entries, want.entries)
    assert got.export_lines() == want.export_lines()


@pytest.mark.parametrize("shape", SMALL, ids=_ids(SMALL))
def test_views_match_the_oracle_for_k_up_to_8(shape):
    cfg, demands, got, want, sched, ref = _both(shape, seed=shape[1])
    _assert_same_items(sched.user_rounds, ref.user_rounds)
    _assert_same_items(got.entries, want.entries)


@pytest.mark.parametrize("shape", DECENTRAL_FLUID[:2], ids=_ids(DECENTRAL_FLUID[:2]))
def test_seeded_single_deletions_fail_as_the_worklist_oracle(shape):
    cfg, demands, got, want, sched, ref = _both(shape, seed=6)
    entries = got.entries
    failures = []
    for i in random.Random(repr(shape)).sample(range(len(entries)), 4):
        log = TransmissionLog(cfg, "fluid", entries[:i] + entries[i + 1 :], got.resolver)
        failure = _first_decode_failure(log, demands)
        assert failure == worklist_oracle.decode(log, demands)[1], i
        failures.append(failure)
    assert any(failures)


def test_execution_orders_each_slot_by_first_appearance_of_its_lane():
    # round 0's lanes interleave A, B, B, A: slot 1 must still send A's
    # symbol first, as the lane that appeared first; round 1 repeats a
    # group of round 0, which must not continue its lane
    cfg = SystemConfig(4, 4, 2, alpha_max=2)
    res = run_decentralized(cfg)
    (p0, syms0), (p1, syms1) = res.schedule.user_rounds[:2]
    A, B = p0.groups[0], p0.groups[1]
    a = [sym for sym in syms0 if sym.group == A][:2]
    b = [sym for sym in syms0 if sym.group == B][:2]
    sched = DeliverySchedule([(p0, [a[0], b[0], b[1], a[1]]), (p1, [a[1], b[0]])])
    got = execute_schedule(cfg, sched, res.log.resolver, "fluid")
    want = oracle.execute_schedule(cfg, sched, res.log.resolver, "fluid")
    _assert_same_items(got.entries, want.entries)
    assert [e.slot for e in want.entries] == [0, 0, 1, 1, 2, 2]
    assert [e.symbol for e in want.entries][2:4] == [a[1], b[1]]


def _slot_verdict(check, log):
    try:
        check(log)
    except ValueError as exc:
        return str(exc)
    return None


def test_slot_discipline_gives_the_oracle_verdict_on_moved_entries():
    # an entry moved to another slot may crowd it, overlap a group there,
    # or share a server slot; the columns must name the same first fault
    cfg, demands, got, want, sched, ref = _both((5, 5, 2, 2), seed=7)
    entries, rng = list(got.entries), random.Random(7)
    verdicts = set()
    for _ in range(100):
        moved = list(entries)
        for _ in range(rng.randrange(1, 4)):
            i = rng.randrange(len(moved))
            moved[i] = dataclasses.replace(moved[i], slot=rng.choice(moved).slot)
        log = TransmissionLog(cfg, "fluid", moved, got.resolver)
        verdict = _slot_verdict(oracle.verify_slot_discipline, log)
        assert _slot_verdict(TransmissionLog.verify_slot_discipline, log) == verdict
        verdicts.add(verdict.split(" ")[0] + verdict.split(" ")[-1] if verdict else None)
    assert len(verdicts) >= 3


VALUE_CLASSES = (FragmentId, Constituent, XorSymbol, LogEntry, GroupPartition)


def _count_value_objects(monkeypatch, classes=VALUE_CLASSES):
    """A list that grows by one per object of ``classes`` (by default a
    FragmentId, Constituent, XorSymbol, LogEntry or GroupPartition) built."""
    built = []
    for cls in classes:
        init = cls.__init__

        def counting(self, *args, _init=init, **kwargs):
            built.append(type(self))
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_a_fluid_decentralized_run_builds_no_object_per_user_symbol(monkeypatch):
    cfg = SystemConfig(8, 8, Frac(8, 3), alpha_max=4)
    built = _count_value_objects(monkeypatch)
    res = run_decentralized(cfg)
    assert res.decode_ok and res.schedule.user_symbol_count() > 9000
    assert built == []
    assert len(res.log.entries) == len(res.schedule.server_symbols) + 9192
    assert len(res.schedule.user_rounds) == 513
    assert res.schedule.user_symbol_count() == 9192
    assert res.log.export_lines()[1:] and built == []
    # a first read of a view builds each of its items exactly once
    entries, rounds = res.log.entries, res.schedule.user_rounds
    first = entries[0]
    assert Counter(built)[LogEntry] == Counter(built)[XorSymbol] == len(entries)
    built.clear()
    rounds[0]
    assert Counter(built)[GroupPartition] == len(rounds)
    assert Counter(built)[XorSymbol] == res.schedule.user_symbol_count()
    # and a second read builds none
    built.clear()
    assert entries[0] is first and list(entries)[-1] == entries[-1]
    assert list(rounds)[-1] == rounds[-1] and built == []


def test_simulate_reads_the_columns(monkeypatch, tmp_path, capsys):
    # header counts, --detail-round and --export-log build no value object
    built = _count_value_objects(monkeypatch)
    argv = ["simulate", "--scheme", "decentralized", "--N", "7", "--K", "7",
            "--M", "7/3", "--alpha-max", "3", "--detail-round", "3",
            "--export-log", str(tmp_path / "log.csv")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "user symbols: 2184" in out and "partitions with group size 3" in out
    assert (tmp_path / "log.csv").read_text().count("\n") == 2184 + 134 + 1
    assert built == []


REAL_ROUND_PLAN = decentralized._round_plan


def _off_by(delta, part):
    """``_round_plan`` with ``part``'s fragment count moved by ``delta``."""

    def planned(config, plan, shape):
        out = REAL_ROUND_PLAN(config, plan, shape)
        if out is None:
            return None
        partitions, parts = out
        return partitions, {
            p: (n + delta * (p == part), size) for p, (n, size) in parts.items()
        }

    return planned


def _both_raise(cfg, planned, monkeypatch):
    """The messages the column audit and the oracle raise under ``planned``."""
    placement = build_decentral_placement(cfg)
    plan = allocation_plan(cfg)
    demands = tuple(reversed(cfg.users()))
    monkeypatch.setattr(decentralized, "_round_plan", planned)
    monkeypatch.setattr(oracle, "_round_plan", planned)
    errors = []
    for build in (parallel_user_delivery, oracle.parallel_user_delivery):
        with pytest.raises(SchedulingError) as exc:
            build(cfg, placement, demands, plan)
        errors.append(str(exc.value))
    return errors


@pytest.mark.parametrize("delta,message", [(-1, "fragment exhaustion for "),
                                           (1, "mini-file ")])
@pytest.mark.parametrize("shape,part", [((6, 6, 2, 3), "u"), ((7, 7, 4, 3), "u1"),
                                        ((7, 7, 4, 3), "u2")])
def test_the_column_audit_raises_the_oracle_messages(
    shape, part, delta, message, monkeypatch
):
    N, K, M, amax = shape
    cfg = SystemConfig(N, K, M, alpha_max=amax)
    errors = _both_raise(cfg, _off_by(delta, part), monkeypatch)
    assert errors[0] == errors[1]
    assert errors[0].startswith(message) and f"'{part}')" in errors[0]


def _off_in(deltas):
    """``_round_plan`` with every fragment count of round s moved by
    ``deltas[s]``, other rounds as planned."""

    def planned(config, plan, shape):
        out = REAL_ROUND_PLAN(config, plan, shape)
        if out is None:
            return None
        partitions, parts = out
        delta = deltas.get(shape[0], 0)
        return partitions, {p: (n + delta, size) for p, (n, size) in parts.items()}

    return planned


def _named_round(message):
    """The round s of the mini-file a message names: its T has s - 1 users."""
    T = message.split(", (", 1)[1].split(")", 1)[0]
    return len([u for u in T.split(",") if u.strip()]) + 1


@pytest.mark.parametrize("delta,message", [(-1, "fragment exhaustion for "),
                                           (1, "mini-file ")])
@pytest.mark.parametrize("shape,s", [((6, 6, 2, 3), 3), ((6, 6, 2, 3), 6),
                                     ((7, 7, 4, 3), 4), ((7, 7, 4, 3), 7)])
def test_an_off_count_in_one_later_round_only_raises_the_oracle_message(
    shape, s, delta, message, monkeypatch
):
    N, K, M, amax = shape
    errors = _both_raise(SystemConfig(N, K, M, alpha_max=amax), _off_in({s: delta}), monkeypatch)
    assert errors[0] == errors[1]
    assert errors[0].startswith(message) and _named_round(errors[0]) == s


@pytest.mark.parametrize("deltas,first", [({2: 1, 4: -1}, (2, "mini-file ")),
                                          ({3: -1, 5: 1}, (3, "fragment exhaustion")),
                                          ({3: 1, 4: -1}, (3, "mini-file ")),
                                          ({4: -1, 6: -1}, (4, "fragment exhaustion")),
                                          ({5: 1, 6: 1}, (5, "mini-file "))])
def test_of_two_failing_rounds_the_earlier_is_named(deltas, first, monkeypatch):
    errors = _both_raise(SystemConfig(7, 7, Frac(7, 3), alpha_max=3), _off_in(deltas), monkeypatch)
    assert errors[0] == errors[1]
    s, message = first
    assert errors[0].startswith(message) and _named_round(errors[0]) == s


def test_views_behave_as_read_only_lists():
    res = run_decentralized(SystemConfig(4, 4, 2, alpha_max=2))
    for view in (res.log.entries, res.schedule.user_rounds, res.schedule.server_symbols):
        items = list(view)
        assert view == items and items == view and not view != items
        assert view != items[:-1] and view != tuple(items)
        assert repr(view) == repr(items) and len(view) == len(items)
        assert view[-1] == items[-1] and view[1:3] == items[1:3]
        assert view[::2] == items[::2] and view[5:2] == []
        assert view + items[:2] == items + items[:2] and view + view == items + items
        with pytest.raises(IndexError):
            view[len(items)]
        with pytest.raises(TypeError):
            hash(view)
        with pytest.raises(TypeError):
            view + tuple(items)


def _assert_same_symbols(view, symbols):
    assert isinstance(view, Symbols)
    assert view == symbols and repr(view) == repr(symbols)
    assert [sym.redundant for sym in view] == [sym.redundant for sym in symbols]


def _demand_vectors(N, K):
    return [tuple(range(1, K + 1)), tuple(random.Random(N * K).sample(range(1, N + 1), K))]


@pytest.mark.parametrize("K", [4, 6])
def test_centralized_server_symbols_match_the_oracle(K):
    N = K + 2
    for t in range(K + 1):
        cfg = SystemConfig(N, K, Frac(t * N, K), alpha_max=K // 2)
        for alpha in range(1, K // 2):
            for share in (None, Frac(0), Frac(1)):
                plan = make_split_plan(cfg, alpha=alpha, server_share=share)
                for demands in _demand_vectors(N, K):
                    want = oracle.build_server_schedule(cfg, plan, demands)
                    _assert_same_symbols(build_server_schedule(cfg, plan, demands), want)
                    assert (t < K and share != 0) == bool(want)


DECENTRAL_SERVER = [
    (K + 2, K, p * (K + 2), amax)
    for K in range(2, 10)
    for p in (Frac(0), Frac(1, 4), Frac(1, 2), Frac(1))
    for amax in sorted({1, K // 2})
] + [(5, 5, Frac(1, 4), 1)]


@pytest.mark.parametrize("shape", DECENTRAL_SERVER, ids=_ids(DECENTRAL_SERVER))
def test_decentralized_server_symbols_match_the_oracle(shape):
    N, K, M, amax = shape
    cfg = SystemConfig(N, K, M, alpha_max=amax)
    placement = build_decentral_placement(cfg)
    plan = allocation_plan(cfg)
    for demands in _demand_vectors(N, K):
        want = oracle.server_delivery_decentralized(cfg, placement, demands, plan)
        got = server_delivery_decentralized(cfg, placement, demands, plan)
        _assert_same_symbols(got, want)
