"""The decoder of ``coopcache.decode`` against the rescanning oracle.

``decode_oracle`` keeps the decoder the simulator shipped before: it
rescans every received symbol until nothing changes.  On every log here the
fast decoder must reach the same verdict and learn the same fragments per
user: in bit mode in the same order and with the same payloads; in fluid
mode, where the decoder computes each user's peeling closure at once, the
same set.

In bit mode the check decides a log whose payloads all agree with the
library by peeling closure and bit coverage, and any other log by in-order
sweeps; on every bit-mode log here its verdict must be the sweeps' own.
"""

import dataclasses
from fractions import Fraction as Frac

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import decode_oracle as oracle
import worklist_oracle
from coopcache import (
    Constituent,
    FragmentId,
    LogEntry,
    SystemConfig,
    TransmissionLog,
    XorSymbol,
    run_centralized,
    run_decentralized,
)
from coopcache import decode
from coopcache.centralized import make_split_plan
from coopcache.decode import (
    _first_decode_failure,
    _fluid_closure,
    _intern_log,
    _misassembled_subfile,
    _peel_known_fragments,
)
from coopcache.model import offsets, ranges, user_sets
from coopcache.simulator import LogEntries, required_central_F


def _learned(log, user, library, tables):
    """The fast decoder's learned fragments, keyed by fragment, not by id:
    payloads in learning order (bit mode), or the closure's set (fluid)."""
    if log.mode == "fluid":
        closure = _fluid_closure(tables, user)
        return {tables.frags[f] for f in np.flatnonzero(closure).tolist()}
    known = _peel_known_fragments(log, user, library, tables)
    return {tables.frags[f]: payload for f, payload in known.items()}


def _sweep_failure(log, demands, library):
    """The first failure by in-order sweeps alone (bit mode)."""
    tables = _intern_log(log)
    for k in log.config.users():
        known = _peel_known_fragments(log, k, library, tables)
        T = _misassembled_subfile(log, tables, k, demands[k - 1], known, library)
        if T is not None:
            return k, demands[k - 1], T
    return None


def _assert_agree(log, demands, library=None):
    tables = _intern_log(log)
    for k in log.config.users():
        fast = _learned(log, k, library, tables)
        slow = oracle._peel_known_fragments(log, k, library)
        if library is None:
            assert fast == set(slow), k
        else:
            assert list(fast) == list(slow), k
            assert all(np.array_equal(fast[f], slow[f]) for f in fast), k
    failure = _first_decode_failure(log, demands, library)
    assert (failure is None) == oracle.decode_check(log, demands, library)
    if log.mode == "fluid":
        assert failure == oracle.first_uncovered(log, demands)
        assert failure == worklist_oracle.decode(log, demands)[1]
    else:
        assert failure == _sweep_failure(log, demands, library)


def _without(log, i):
    return TransmissionLog(
        log.config, log.mode, log.entries[:i] + log.entries[i + 1 :], log.resolver
    )


def _flipped(log, i):
    """The log with the last bit of entry i's payload flipped."""
    entry = log.entries[i]
    payload = np.array(entry.symbol.payload, copy=True)
    payload[-1] ^= 1
    entry = dataclasses.replace(
        entry, symbol=dataclasses.replace(entry.symbol, payload=payload)
    )
    return TransmissionLog(
        log.config, log.mode, log.entries[:i] + [entry] + log.entries[i + 1 :],
        log.resolver,
    )


def _resized(log, i, payload):
    """The log with entry i's payload replaced by ``payload``, its bit
    count set to the new length."""
    entry = log.entries[i]
    entry = dataclasses.replace(
        entry, bits=len(payload),
        symbol=dataclasses.replace(entry.symbol, payload=payload),
    )
    return TransmissionLog(
        log.config, log.mode, log.entries[:i] + [entry] + log.entries[i + 1 :],
        log.resolver,
    )


WORKED_RUNS = {
    "centralized-fluid": lambda: run_centralized(
        SystemConfig(6, 6, 4, alpha_max=3), alpha=2, server_share=Frac(1, 3)
    ),
    "centralized-bits": lambda: run_centralized(
        SystemConfig(6, 6, 4, alpha_max=3, F=4500),
        alpha=2, server_share=Frac(1, 3), mode="bits",
    ),
    "decentralized-fluid": lambda: run_decentralized(
        SystemConfig(3, 3, Frac(3, 2), alpha_max=1)
    ),
    "decentralized-bits": lambda: run_decentralized(
        SystemConfig(3, 3, Frac(3, 2), alpha_max=1, F=600), mode="bits"
    ),
}


@pytest.mark.parametrize("run", sorted(WORKED_RUNS))
def test_worked_examples_agree(run):
    res = WORKED_RUNS[run]()
    assert res.decode_ok
    _assert_agree(res.log, tuple(res.log.config.users()), res.library)


@pytest.mark.parametrize("run", ["centralized", "decentralized"])
def test_every_single_deletion_agrees(run):
    if run == "centralized":
        res = run_centralized(SystemConfig(4, 4, 2, alpha_max=2))
    else:
        res = run_decentralized(SystemConfig(3, 3, Frac(3, 2), alpha_max=1))
    demands = tuple(res.log.config.users())
    for i in range(len(res.log.entries)):
        _assert_agree(_without(res.log, i), demands)


def _bit_mutation_run(run):
    if run == "centralized":
        return run_centralized(SystemConfig(4, 4, 2, alpha_max=2, F=120), mode="bits")
    return run_decentralized(
        SystemConfig(3, 3, Frac(3, 2), alpha_max=1, F=600), mode="bits"
    )


@pytest.mark.parametrize("run", ["centralized", "decentralized"])
def test_every_bit_mode_mutation_agrees(run):
    res = _bit_mutation_run(run)
    demands = tuple(res.log.config.users())
    for i in range(len(res.log.entries)):
        _assert_agree(_without(res.log, i), demands, res.library)
        _assert_agree(_flipped(res.log, i), demands, res.library)


@pytest.mark.parametrize("run", ["centralized", "decentralized"])
def test_a_truncated_payload_teaches_nothing(run):
    # a payload shorter or longer than its longest constituent is no XOR of
    # them, even one padded with a 0 bit: the check names the failure the
    # log without that entry has, raises nothing, and agrees with the oracle
    res = _bit_mutation_run(run)
    demands = tuple(res.log.config.users())
    for i in range(len(res.log.entries)):
        payload = res.log.entries[i].symbol.payload
        without = _first_decode_failure(_without(res.log, i), demands, res.library)
        for resized in (
            payload[:-1], np.append(payload, np.uint8(0)), np.append(payload, np.uint8(1))
        ):
            log = _resized(res.log, i, resized)
            assert _first_decode_failure(log, demands, res.library) == without, i
            _assert_agree(log, demands, res.library)


def _refuse(*args):
    raise AssertionError("the in-order sweeps ran")


@pytest.mark.parametrize("run", ["centralized-bits", "decentralized-bits"])
def test_intact_bit_logs_never_enter_the_worklist(run, monkeypatch):
    res = WORKED_RUNS[run]()
    demands = tuple(res.log.config.users())
    monkeypatch.setattr(decode, "_peel_known_fragments", _refuse)
    assert _first_decode_failure(res.log, demands, res.library) is None
    # a log missing an entry fails, still without the sweeps
    assert _first_decode_failure(_without(res.log, 0), demands, res.library)


def test_a_flipped_payload_enters_the_worklist(monkeypatch):
    res = WORKED_RUNS["decentralized-bits"]()
    demands = tuple(res.log.config.users())
    log = _flipped(res.log, len(res.log.entries) - 1)
    monkeypatch.setattr(decode, "_peel_known_fragments", _refuse)
    with pytest.raises(AssertionError, match="in-order sweeps"):
        _first_decode_failure(log, demands, res.library)


@given(st.data())
def test_small_configs_agree(data):
    K = data.draw(st.integers(2, 5), label="K")
    t = data.draw(st.integers(0, K), label="t")
    amax = max(1, K // 2)
    demands = tuple(data.draw(st.permutations(range(1, K + 1)), label="demands"))
    if data.draw(st.booleans(), label="centralized"):
        alpha = data.draw(st.integers(1, amax), label="alpha")
        res = run_centralized(
            SystemConfig(K, K, t, alpha_max=amax), demands=demands, alpha=alpha
        )
    else:
        res = run_decentralized(SystemConfig(K, K, t, alpha_max=amax), demands=demands)
    log = res.log
    drop = data.draw(st.integers(-1, len(log.entries) - 1), label="drop")
    _assert_agree(log if drop < 0 else _without(log, drop), demands)


@given(st.data())
def test_small_bit_mode_configs_agree(data):
    K = data.draw(st.integers(2, 4), label="K")
    t = data.draw(st.integers(0, K), label="t")
    amax = max(1, K // 2)
    demands = tuple(data.draw(st.permutations(range(1, K + 1)), label="demands"))
    if data.draw(st.booleans(), label="centralized"):
        alpha = data.draw(st.integers(1, amax), label="alpha")
        cfg = SystemConfig(K, K, t, alpha_max=amax)
        F = required_central_F(cfg, make_split_plan(cfg, alpha))
        res = run_centralized(
            SystemConfig(K, K, t, alpha_max=amax, F=F), demands=demands,
            alpha=alpha, mode="bits"
        )
    else:
        F = data.draw(st.integers(20, 200), label="F")
        res = run_decentralized(
            SystemConfig(K, K, t, alpha_max=amax, F=F), demands=demands,
            mode="bits"
        )
    log = res.log
    i = data.draw(st.integers(-1, len(log.entries) - 1), label="entry")
    if i >= 0 and len(log.entries[i].symbol.payload):
        log = data.draw(st.sampled_from([_without, _flipped]), label="how")(log, i)
    _assert_agree(log, demands, res.library)


def _renumbered(log, rng):
    """The log over its symbol tables renumbered: in each table the
    ``parts`` and ``sizes`` rows permuted, each with a duplicate, every
    constituent's part row and every symbol's size row drawn from its
    value's two rows; and the symbol rows permuted, their constituent
    blocks moved with them, ``cstart`` and the rows the log reads of the
    table remapped."""
    c = log.columns()

    def doubled(values, rows):
        # row j of values + values goes to row new[j]
        new = rng.permutation(2 * len(values))
        table = [None] * len(new)
        for j, row in enumerate(new.tolist()):
            table[row] = values[j % len(values)]
        return table, new[rows + len(values) * rng.integers(0, 2, len(rows))]

    symbols = []
    for t, read in c.symbols:
        parts, part = doubled(t.parts, t.part)
        sizes, size = doubled(t.sizes, t.size)
        order = rng.permutation(len(t))  # new symbol row i is old row order[i]
        at = ranges(t.cstart[order], t.cstart[order + 1])
        table = dataclasses.replace(
            t, sender=t.sender[order], group=t.group[order], size=size[order],
            redundant=t.redundant[order], cstart=offsets(np.diff(t.cstart)[order]),
            receiver=t.receiver[at], file=t.file[at], subset=t.subset[at], part=part[at],
            index=t.index[at], count=t.count[at], sizes=sizes, parts=parts,
        )
        row = np.empty(len(t), np.int64)
        row[order] = np.arange(len(t))
        symbols.append((table, row[read]))
    columns = dataclasses.replace(c, symbols=symbols)
    return TransmissionLog(log.config, log.mode, LogEntries(columns), log.resolver)


@given(st.data())
def test_the_verdict_is_blind_to_table_numbering(data):
    # the decoder keys fragments by value: renumbering the symbol table's
    # rows, with duplicate part and size rows, changes no verdict and no
    # named failure, on a clean log, one with an entry deleted and one with
    # an entry sent twice (whose copy may name its parts by other rows)
    K = data.draw(st.integers(2, 5), label="K")
    t = data.draw(st.integers(0, K), label="t")
    amax = max(1, K // 2)
    demands = tuple(data.draw(st.permutations(range(1, K + 1)), label="demands"))
    mode = data.draw(st.sampled_from(["fluid", "bits"]), label="mode")
    if data.draw(st.booleans(), label="centralized"):
        alpha = data.draw(st.integers(1, amax), label="alpha")
        cfg = SystemConfig(K, K, t, alpha_max=amax)
        F = required_central_F(cfg, make_split_plan(cfg, alpha)) if mode == "bits" else None
        res = run_centralized(
            SystemConfig(K, K, t, alpha_max=amax, F=F), demands=demands, alpha=alpha,
            mode=mode,
        )
    else:
        F = data.draw(st.integers(20, 200), label="F") if mode == "bits" else None
        res = run_decentralized(
            SystemConfig(K, K, t, alpha_max=amax, F=F), demands=demands, mode=mode
        )
    log = res.log
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    logs = [log]
    if len(log.entries):
        i = data.draw(st.integers(0, len(log.entries) - 1), label="entry")
        twice = log.entries + [log.entries[i]]
        logs += [_without(log, i), TransmissionLog(log.config, mode, twice, log.resolver)]
    for changed in logs:
        failure = _first_decode_failure(changed, demands, res.library)
        assert _first_decode_failure(_renumbered(changed, rng), demands, res.library) == failure


@pytest.mark.parametrize(
    "fragments, failure",
    [(((2, 0), (4, 0), (4, 1)), (1, 1, (2,))), (((2, 0), (4, 2), (4, 3)), None)],
    ids=["overlapping", "tiling"],
)
def test_a_part_learned_at_two_counts_covers_the_union_of_its_spans(fragments, failure):
    # user 1 hears the u part of W_{1,(2)} as fragments 0, 1 and 2 of 3.
    # Made fragment 0 of 2 and fragments 0 and 1 of 4, their sizes still add
    # up to the part, but [1/2, 1) of it is in no symbol; made fragment 0 of
    # 2 and fragments 2 and 3 of 4, they tile it
    res = run_decentralized(SystemConfig(6, 6, 2, alpha_max=3), seed=3)
    demands = tuple(res.log.config.users())
    c = res.log.columns()
    server, (t, read) = c.symbols  # the user rounds' table
    rows = np.flatnonzero(
        (t.receiver == 1) & (t.file == 1) & (t.count == 3)
        & (np.array(t.parts)[t.part] == "u")
        & np.array([T == (2,) for T in user_sets(t.subset)])
    )
    assert len(rows) == 3
    count, index = t.count.copy(), t.index.copy()
    count[rows], index[rows] = zip(*fragments)
    columns = dataclasses.replace(
        c, symbols=[server, (dataclasses.replace(t, count=count, index=index), read)]
    )
    log = TransmissionLog(res.log.config, "fluid", LogEntries(columns), res.log.resolver)
    assert _first_decode_failure(res.log, demands) is None
    assert _first_decode_failure(log, demands) == failure
    assert oracle.decode_check(log, demands) == (failure is None)
    assert oracle.first_uncovered(log, demands) == failure
    assert worklist_oracle.decode(log, demands)[1] == failure


# hand-made logs: shapes no scheduler emits, where a careless peel would
# part ways with the oracle

G = FragmentId(1, (2, 3), "s", 0, 1)
F = FragmentId(1, (2, 4), "s", 0, 1)


def _hand_log(symbols):
    """Bit-mode server broadcasts to user 1 (wanting file 1) of (4,4,2),
    each given as (fragments, payload); also returns the run's library."""
    res = run_centralized(SystemConfig(4, 4, 2, alpha_max=2, F=120), mode="bits")
    users = tuple(res.log.config.users())

    def bits(frag):
        return res.library.files[frag.file][res.log.resolver.frag_positions(frag)]

    entries = []
    for slot, (frags, payload) in enumerate(symbols(bits)):
        cons = tuple(Constituent(1, f) for f in frags)
        sym = XorSymbol(0, users, cons, Frac(0), payload)
        entries.append(LogEntry(slot, -1, 0, users, users, len(payload), sym))
    return TransmissionLog(res.log.config, "bits", entries, res.log.resolver), res


@pytest.mark.parametrize("pair_first", [False, True])
def test_fragments_resolve_in_sweep_order(pair_first):
    # the G entry readies the (G, F) entry; the last entry is a corrupt copy
    # of F.  A sweep reaches the (G, F) entry first when it comes after the
    # G entry, and only on the next sweep, after the corrupt copy, if before
    def symbols(bits):
        bad = bits(F).copy()
        bad[-1] ^= 1
        pair, single = ((G, F), bits(G) ^ bits(F)), ((G,), bits(G))
        return ([pair, single] if pair_first else [single, pair]) + [((F,), bad)]

    log, res = _hand_log(symbols)
    known = _learned(log, 1, res.library, _intern_log(log))
    good = res.library.files[1][log.resolver.frag_positions(F)]
    assert np.array_equal(known[F], good) != pair_first
    _assert_agree(log, (1, 2, 3, 4), res.library)


def test_a_fragment_held_twice_is_not_learned():
    # F ^ F cancels, so neither symbol holding F twice says anything about F,
    # not even once G, the other unknown of the second, is learned
    def symbols(bits):
        return [((F, F), bits(F) ^ bits(F)), ((F, F, G), bits(G)), ((G,), bits(G))]

    log, res = _hand_log(symbols)
    known = _learned(log, 1, res.library, _intern_log(log))
    assert G in known and F not in known
    _assert_agree(log, (1, 2, 3, 4), res.library)


def test_a_chain_in_reverse_log_order_takes_a_sweep_per_link():
    # each link of W_{1,(2,3)} -> W_{1,(2,4)} -> W_{1,(3,4)} sits before the
    # one that readies it, so each sweep learns one link.  The first entry
    # is a corrupt copy of the last link: the third sweep reaches it before
    # the good copy, so W_{1,(3,4)} is learned with its bit flipped
    A, B, C = (FragmentId(1, T, "full", 0, 1) for T in [(2, 3), (2, 4), (3, 4)])

    def symbols(bits):
        bad = bits(B) ^ bits(C)
        bad[0] ^= 1
        return [((B, C), bad), ((B, C), bits(B) ^ bits(C)), ((A, B), bits(A) ^ bits(B)),
                ((A,), bits(A))]

    log, res = _hand_log(symbols)
    known = _learned(log, 1, res.library, _intern_log(log))
    assert list(known) == [A, B, C]
    good = res.library.files[1][log.resolver.frag_positions(C)]
    assert np.flatnonzero(known[C] != good).tolist() == [0]
    assert _first_decode_failure(log, (1, 2, 3, 4), res.library) == (1, 1, (3, 4))
    _assert_agree(log, (1, 2, 3, 4), res.library)


def _xor(*parts):
    """The XOR of bit arrays, as long as the longest of them."""
    out = np.zeros(max(map(len, parts)), np.uint8)
    for p in parts:
        out[: len(p)] ^= p
    return out


def test_coverage_needs_the_closure_and_the_union_of_spans():
    # user 1 learns G and W_{1,(2,3)} in the first round of peeling, and
    # W_{1,(2,4)} only in the second, from the pair; G is the server share
    # of W_{1,(2,3)}, so the bits of (2,3) are covered twice over and a sum
    # of lengths would overshoot.  (3, 4) is never sent.
    whole = {T: FragmentId(1, T, "full", 0, 1) for T in [(2, 3), (2, 4)]}

    def symbols(bits):
        pair = (G, whole[(2, 4)])
        return [
            (pair, _xor(*map(bits, pair))),
            ((G,), bits(G)),
            ((whole[(2, 3)],), bits(whole[(2, 3)])),
        ]

    log, res = _hand_log(symbols)
    users = (1, 2, 3, 4)
    assert _first_decode_failure(log, users, res.library) == (1, 1, (3, 4))
    _assert_agree(log, users, res.library)
    for i in range(len(log.entries)):
        _assert_agree(_flipped(log, i), users, res.library)
