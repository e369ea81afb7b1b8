"""The simulator's decoder against the rescanning oracle.

``decode_oracle`` keeps the decoder the simulator shipped before: it
rescans every received symbol until nothing changes.  On every log here the
fast decoder must reach the same verdict and learn the same fragments per
user: in bit mode in the same order and with the same payloads; in fluid
mode, where the decoder computes each user's peeling closure at once, the
same set.
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
from coopcache.simulator import (
    _first_decode_failure,
    _fluid_closure,
    _intern_log,
    _peel_known_fragments,
)


def _learned(log, user, library, tables):
    """The fast decoder's learned fragments, keyed by fragment, not by id:
    payloads in learning order (bit mode), or the closure's set (fluid)."""
    if log.mode == "fluid":
        closure = _fluid_closure(tables, user)
        return {tables.frags[f] for f in np.flatnonzero(closure).tolist()}
    known = _peel_known_fragments(log, user, library, tables)
    return {tables.frags[f]: payload for f, payload in known.items()}


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


@pytest.mark.parametrize("run", ["centralized", "decentralized"])
def test_every_bit_mode_mutation_agrees(run):
    if run == "centralized":
        res = run_centralized(SystemConfig(4, 4, 2, alpha_max=2, F=120), mode="bits")
    else:
        res = run_decentralized(
            SystemConfig(3, 3, Frac(3, 2), alpha_max=1, F=600), mode="bits"
        )
    demands = tuple(res.log.config.users())
    for i in range(len(res.log.entries)):
        _assert_agree(_without(res.log, i), demands, res.library)
        _assert_agree(_flipped(res.log, i), demands, res.library)


@given(st.data())
def test_small_configs_agree(data):
    K = data.draw(st.integers(2, 5), label="K")
    t = data.draw(st.integers(0, K), label="t")
    amax = max(1, K // 2)
    demands = tuple(data.draw(st.permutations(range(1, K + 1)), label="demands"))
    if data.draw(st.booleans(), label="centralized"):
        alpha = data.draw(st.integers(1, amax), label="alpha")
        res = run_centralized(
            SystemConfig(K, K, t, alpha_max=amax), demands=demands, alpha=alpha,
            check_decode=False,
        )
    else:
        res = run_decentralized(
            SystemConfig(K, K, t, alpha_max=amax), demands=demands, check_decode=False
        )
    log = res.log
    drop = data.draw(st.integers(-1, len(log.entries) - 1), label="drop")
    _assert_agree(log if drop < 0 else _without(log, drop), demands)


# hand-made logs: shapes no scheduler emits, where a careless worklist would
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
