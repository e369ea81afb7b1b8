"""The centralized user schedule held as int columns.

The rung the ladder chooses is laid out as a ``SymbolTable`` and shown as a
``UserRounds`` view, and the audit reads the columns.  A fluid centralized
run must build no value object, and when a schedule breaks
in more than one place the column audit must name the failure the
reference audit (``assembly_oracle``) names: the first one.
"""

import dataclasses
import re
from collections import Counter

import pytest

from coopcache import (
    Constituent,
    FragmentId,
    GroupPartition,
    SystemConfig,
    XorSymbol,
    run_centralized,
)
from coopcache.cli import main
from test_assembly_oracle import _verdicts, _worked_schedule
from test_centralized import AUDIT_BREAKS, _outsider, _with_constituent
from test_schedule_oracle import _count_value_objects

# (20, 10, 4, 5), a central_fluid benchmark shape: 8400 rounds of three
# groups of three, 25200 user symbols and 120 server symbols
SHAPE = SystemConfig(20, 10, 4, alpha_max=5)


def test_a_fluid_centralized_run_builds_no_object_per_user_symbol(monkeypatch):
    built = _count_value_objects(monkeypatch)
    res = run_centralized(SHAPE)
    assert res.decode_ok and built == []
    rounds = res.schedule.user_rounds
    assert (len(rounds), res.schedule.user_symbol_count()) == (8400, 25200)
    assert len(res.log.entries) == 25200 + 120
    assert res.log.export_lines()[1:] and built == []
    # a first read builds each round, and each object in it, exactly once
    part, symbols = rounds[0]
    n = len(rounds)
    assert Counter(built) == {
        GroupPartition: n, XorSymbol: 3 * n, Constituent: 6 * n, FragmentId: 6 * n
    }
    assert part.groups == ((1, 2, 3), (4, 5, 6), (7, 8, 9)) and len(symbols) == 3
    # and a second read builds none
    built.clear()
    assert rounds[0][0] is part and rounds[-1] == list(rounds)[-1]
    assert built == []


def test_simulate_centralized_reads_the_columns(monkeypatch, tmp_path, capsys):
    # header counts, --detail-round and --export-log build no value object
    built = _count_value_objects(monkeypatch)
    argv = ["simulate", "--scheme", "centralized", "--N", "20", "--K", "10",
            "--M", "4", "--alpha-max", "5", "--detail-round", "3",
            "--export-log", str(tmp_path / "log.csv")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "user symbols: 25200" in out
    assert "  round 0: {1,2,3} {4,5,6} {7,8,9} (3 symbols)\n" in out
    assert "  8400 partitions with group size 3\n" in out
    assert (tmp_path / "log.csv").read_text().count("\n") == 25200 + 120 + 1
    assert built == []


def _break_symbols(sched, changes):
    """A copy of ``sched`` whose symbol i, counted across rounds, is
    replaced by ``changes[i](symbol)``, or removed when that is None."""
    rounds, i = [], 0
    for part, symbols in sched.user_rounds:
        kept = []
        for sym in symbols:
            sym = changes[i](sym) if i in changes else sym
            i += 1
            if sym is not None:
                kept.append(sym)
        rounds.append((part, kept))
    return dataclasses.replace(sched, user_rounds=rounds)


def _both_verdicts(changes):
    """The (column, reference) audit verdicts of the worked schedule with
    ``changes`` applied."""
    cfg, placement, demands, sched, args = _worked_schedule()
    return _verdicts(cfg, placement, demands, _break_symbols(sched, changes), args)


@pytest.mark.parametrize("first", sorted(AUDIT_BREAKS))
def test_the_first_of_two_broken_symbols_is_named(first):
    for second in sorted(set(AUDIT_BREAKS) - {first}):
        fast, ref = _both_verdicts({1: AUDIT_BREAKS[first][0], 6: AUDIT_BREAKS[second][0]})
        assert fast == ref, (first, second)
        # a missing symbol shows only in the delivery count, after every
        # symbol's own checks
        named = second if first == "pico-missing" else first
        assert re.fullmatch(AUDIT_BREAKS[named][1], fast), (first, second)


def test_a_strip_break_is_named_before_a_receiver_break_after_it():
    strip = AUDIT_BREAKS["cannot-strip"][0]
    fast, ref = _both_verdicts(
        {0: lambda s: _with_constituent(strip(s), 1, receiver=_outsider(s))}
    )
    assert fast == ref and "cannot strip" in fast


def test_a_pico_moved_to_another_layer_is_named():
    # as many deliveries as picos, but one pico twice and one never: only
    # the distinct-key test sees it
    def moved(sym):
        frag = sym.constituents[0].fragment
        index = (frag.index + 1) % frag.count
        return _with_constituent(
            sym, 0, fragment=dataclasses.replace(frag, index=index)
        )

    fast, ref = _both_verdicts({0: moved})
    assert fast == ref and re.fullmatch(r"pico .* delivered [02] times", fast)


OUTSIDE_USERS = {
    "sender-0": lambda s: dataclasses.replace(s, sender=0),
    "sender-7": lambda s: dataclasses.replace(s, sender=7),
    "receiver-0": lambda s: _with_constituent(s, 0, receiver=0),
    "receiver-7": lambda s: _with_constituent(s, 1, receiver=7),
    "group-with-7": lambda s: dataclasses.replace(s, group=(*s.group, 7)),
    "receiver-7-in-group": lambda s: _with_constituent(
        dataclasses.replace(s, group=(*s.group, 7)), 0, receiver=7
    ),
}


@pytest.mark.parametrize("name", sorted(OUTSIDE_USERS))
def test_users_outside_1_to_K_are_in_no_mask(name):
    # K = 6: users 0 and 7 belong to no group and cache nothing
    fast, ref = _both_verdicts({3: OUTSIDE_USERS[name]})
    assert fast == ref
    assert (fast is None) == (name == "group-with-7")
