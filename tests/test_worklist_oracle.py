"""The fluid decode check against the worklist decoder it replaced.

``worklist_oracle`` keeps the simulator's former fluid decoder, which peels
each user from a worklist in sweep order.  It is linear in the log per user,
so unlike the rescanning ``decode_oracle`` it can check full-size logs: every
fluid shape of the benchmark, users beyond bit 62 and size numerators beyond
2^63, intact and with single deletions.  Both must learn the same fragment
set per user and name the same first failing (user, file, subfile).
Hand-made logs cover shapes no scheduler emits; those small logs are also
checked against the rescanning oracle.
"""

import random
from fractions import Fraction as Frac

import numpy as np
import pytest

import decode_oracle
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
from coopcache.decode import _first_decode_failure, _fluid_closure, _intern_log


def _assert_agree(log, demands, rescan=False):
    """Check the closure and the verdict against the worklist decoder (and
    the rescanning one if ``rescan``); return the failure triple."""
    tables = _intern_log(log)
    slow, slow_failure = worklist_oracle.decode(log, demands)
    for k in log.config.users():
        closure = np.flatnonzero(_fluid_closure(tables, k)).tolist()
        assert {tables.frags[f] for f in closure} == slow[k], k
    failure = _first_decode_failure(log, demands)
    assert failure == slow_failure
    if rescan:
        assert failure == decode_oracle.first_uncovered(log, demands)
    return failure


def _without(log, i):
    return TransmissionLog(
        log.config, log.mode, log.entries[:i] + log.entries[i + 1 :], log.resolver
    )


# (N, K, M, alpha_max) of the benchmark's central_fluid and decentral_fluid ops
CENTRAL = [
    (6, 6, 4, 3), (8, 8, 2, 4), (16, 8, 4, 4), (18, 9, 4, 3),
    (10, 10, 3, 5), (20, 10, 4, 5), (12, 12, 6, 3),
]
DECENTRAL = [
    (6, 6, 2, 3), (7, 7, "7/3", 3), (8, 8, "8/3", 4), (8, 8, 4, 2),
    (9, 9, 3, 1), (9, 9, 3, 4),
]
SHAPES = [("centralized", s) for s in CENTRAL] + [
    ("decentralized", s) for s in DECENTRAL
]
# the shapes whose logs hold fewer than 3,000 entries
SMALL = [
    ("centralized", (6, 6, 4, 3)), ("centralized", (8, 8, 2, 4)),
    ("centralized", (18, 9, 4, 3)), ("decentralized", (6, 6, 2, 3)),
    ("decentralized", (7, 7, "7/3", 3)), ("decentralized", (9, 9, 3, 1)),
]


def _run(scheme, shape, seed):
    """A fluid run with distinct demands drawn from ``seed``, undecoded."""
    N, K, M, amax = shape
    demands = tuple(random.Random(seed).sample(range(1, N + 1), K))
    run = run_centralized if scheme == "centralized" else run_decentralized
    res = run(SystemConfig(N, K, Frac(M), alpha_max=amax), demands)
    return res.log, demands


def _ids(shapes):
    return [f"{scheme}-{','.join(map(str, s))}" for scheme, s in shapes]


@pytest.mark.parametrize("scheme,shape", SHAPES, ids=_ids(SHAPES))
def test_benchmark_shapes_agree_intact(scheme, shape):
    log, demands = _run(scheme, shape, seed=5)
    assert _assert_agree(log, demands) is None


@pytest.mark.parametrize("scheme,shape", SMALL, ids=_ids(SMALL))
def test_seeded_single_deletions_agree(scheme, shape):
    log, demands = _run(scheme, shape, seed=6)
    drops = random.Random(repr(shape)).sample(range(len(log.entries)), 4)
    failures = [_assert_agree(_without(log, i), demands) for i in drops]
    assert any(failures)


def test_users_beyond_bit_62_agree():
    log, demands = _run("centralized", (64, 64, 1, 1), seed=5)
    assert _assert_agree(log, demands) is None
    # a symbol meant only for users 63 and 64: losing it must fail one of them
    i = next(
        i
        for i, e in enumerate(log.entries)
        if all(c.receiver >= 63 for c in e.symbol.constituents)
    )
    assert _assert_agree(_without(log, i), demands)[0] >= 63


def test_size_numerators_beyond_2_63_agree():
    log, demands = _run("decentralized", (97, 8, 50, 1), seed=5)
    assert max(_intern_log(log).group_size).bit_length() > 63
    assert _assert_agree(log, demands) is None
    drops = random.Random(97).sample(range(len(log.entries)), 3)
    assert any(_assert_agree(_without(log, i), demands) for i in drops)


# hand-made fluid logs: server broadcasts in a (4, 4, 2) centralized layout
# (server share 3/5 in one "s" fragment, the rest in two "u" fragments);
# user 1 wants file 1 and needs subfiles (2, 3), (2, 4) and (3, 4)

USERS = (1, 2, 3, 4)


def _frag(T, part, index=0, count=1):
    return FragmentId(1, T, part, index, count)


S23, U23, V23 = _frag((2, 3), "s"), _frag((2, 3), "u", 0, 2), _frag((2, 3), "u", 1, 2)
FULL23, FULL24, FULL34 = (_frag(T, "full") for T in ((2, 3), (2, 4), (3, 4)))


def _hand_log(symbols, server_share=None):
    """A fluid log of server symbols, each given as (fragments, receivers),
    over the resolver of a (4, 4, 2) centralized run."""
    res = run_centralized(SystemConfig(4, 4, 2, alpha_max=2), server_share=server_share)
    entries = []
    for slot, (frags, receivers) in enumerate(symbols):
        cons = tuple(Constituent(1, f) for f in frags)
        sym = XorSymbol(0, USERS, cons, Frac(0))
        entries.append(LogEntry(slot, -1, 0, USERS, receivers, Frac(0), sym))
    return TransmissionLog(res.log.config, "fluid", entries, res.log.resolver)


def _heard_by_all(*symbols):
    return [(frags, USERS) for frags in symbols]


HAND_LOGS = {
    # user 1 decodes file 1, so user 2 is the first to fail
    "complete": (
        _heard_by_all((S23,), (U23,), (V23,), (FULL24,), (FULL34,)),
        (2, 2, (1, 3)),
    ),
    # learning U23 twice covers as much as V23, but V23 is not learned
    "sent-twice-sibling-missing": (
        _heard_by_all((S23,), (U23,), (U23,), (FULL24,), (FULL34,)),
        (1, 1, (2, 3)),
    ),
    # V23 xor V23 cancels, so it never yields V23
    "held-twice": (
        _heard_by_all((S23,), (U23,), (V23, V23), (FULL24,), (FULL34,)),
        (1, 1, (2, 3)),
    ),
    # each of the pairs waits on the symbol after it: three rounds of
    # peeling, from U23 to V23 to FULL34
    "chain": (
        _heard_by_all((S23,), (FULL34, V23), (V23, U23), (U23,), (FULL24,)),
        (2, 2, (1, 3)),
    ),
    "no-constituents": (
        _heard_by_all((), (FULL23,), (), (FULL24,), (FULL34,)),
        (2, 2, (1, 3)),
    ),
    "only-no-constituents": (_heard_by_all(()), (1, 1, (2, 3))),
    # users 0, 5 and 6 do not exist; user 1 hears only the first two
    "receivers-outside-1-to-K": (
        [((FULL23,), (0, 1, 5)), ((FULL24,), (1,)), ((FULL34,), (5, 6))],
        (1, 1, (3, 4)),
    ),
}


@pytest.mark.parametrize("name", sorted(HAND_LOGS))
def test_hand_made_logs_agree(name):
    symbols, expected = HAND_LOGS[name]
    assert _assert_agree(_hand_log(symbols), USERS, rescan=True) == expected


def test_zero_size_fragments_are_known_to_everyone():
    # with no server share every "s" fragment is empty: it drops out of its
    # symbol, which then yields its other fragment; a symbol of empty
    # fragments alone teaches nothing and blocks nothing
    symbols = _heard_by_all(
        (S23, U23), (V23, _frag((2, 4), "s")), (_frag((3, 4), "s"),),
        (FULL24,), (FULL34,),
    )
    log = _hand_log(symbols, server_share=Frac(0))
    assert log.resolver.frag_size(S23) == 0
    assert _assert_agree(log, USERS, rescan=True) == (2, 2, (1, 3))
    del symbols[1]
    log = _hand_log(symbols, server_share=Frac(0))
    assert _assert_agree(log, USERS, rescan=True) == (1, 1, (2, 3))
