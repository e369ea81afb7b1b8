"""The worklist peeling decoder's fluid path, kept as the reference for the
closure the simulator now computes on arrays.

``_live_fragments``, ``_peel_known_fragments`` and ``_uncovered_subfile``
are the fluid-mode decode check the simulator shipped before: it interns the
log into Python tables (caching users as int bitmasks, entry rows as tuples),
peels each user from a worklist in sweep order, and sums coverage per
subfile.  Unlike the rescanning ``decode_oracle`` it is linear in the log
per user, so it can check the benchmark's full-size logs.  One rule was
added since: the fragments of one part cover the union of their spans,
not the sum of their sizes.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from coopcache import FragmentId, TransmissionLog
from coopcache.model import validate_demands


@dataclass
class _LogTables:
    """What the decoder reads off one log, interned by :func:`_live_fragments`.

    Each distinct fragment gets an int id, in first-use order.  Per id: the
    fragment itself (its file, subset and part), the users caching its
    subfile as a bitmask (user k is bit k), and its size, an integer
    numerator over one common denominator.  Per log entry, ``live`` holds
    the ids of its constituents of nonzero size, in order and with repeats.
    Per user, ``ready`` and ``blocked`` hold the indices of the entries it
    hears, in log order, that carry exactly one and more than one live
    fragment it does not cache (counted with repeats); an entry whose every
    fragment it caches teaches it nothing.  ``subfiles`` lists every subfile
    key T with its bitmask and its size as a numerator over the same
    denominator.
    """

    frags: list[FragmentId]
    masks: list[int]
    sizes: list[int]
    live: list[tuple[int, ...]]
    ready: dict[int, list[int]]
    blocked: dict[int, list[int]]
    subfiles: list[tuple[tuple[int, ...], int, int]]


def _user_mask(users: Sequence[int]) -> int:
    return sum(1 << u for u in users)


def _live_fragments(log: TransmissionLog) -> _LogTables:
    """Intern the log from its entries, with sizes read from its resolver,
    and nothing else.  Nothing is kept on the log.

    An empty fragment is known to every user, so it is dropped from every
    entry and no symbol waits on it.  Emptiness does not depend on the
    user, so it is decided once per log.  Which receivers miss one or more
    of an entry's fragments is worked out once per entry, for all of them
    at once, with two bitmasks: users missing at least one fragment, and
    users missing at least two.
    """
    resolver = log.resolver
    ids: dict[FragmentId, int] = {}
    intern = ids.setdefault
    live = [
        tuple([intern(c.fragment, len(ids)) for c in e.symbol.constituents])
        for e in log.entries
    ]
    frags = list(ids)  # in id order
    del ids
    masks_of: dict[tuple[int, ...], int] = {}
    for frag in frags:
        if frag.subset not in masks_of:
            masks_of[frag.subset] = _user_mask(frag.subset)
    masks = [masks_of[frag.subset] for frag in frags]
    keys = resolver.subfile_keys()
    # the resolver hands out one Fraction object per fragment shape, so
    # each distinct object is scaled once
    frag_size = resolver.frag_size
    shares = [frag_size(frag) for frag in frags]
    whole = [resolver.subfile_size(T) for T in keys]
    distinct = {id(x): x for x in shares + whole}
    den = math.lcm(*{x.denominator for x in distinct.values()})
    scaled = {
        key: x.numerator * (den // x.denominator) for key, x in distinct.items()
    }
    sizes = [scaled[id(x)] for x in shares]
    subfiles = [(T, _user_mask(T), scaled[id(x)]) for T, x in zip(keys, whole)]
    if 0 in sizes:
        live = [tuple(f for f in row if sizes[f]) for row in live]

    users = log.config.users()
    ready: dict[int, list[int]] = {k: [] for k in users}
    blocked: dict[int, list[int]] = {k: [] for k in users}
    for i, (e, row) in enumerate(zip(log.entries, live)):
        once = twice = 0
        for f in row:
            missed = ~masks[f]
            twice |= once & missed
            once |= missed
        if not once:
            continue
        for u in e.receivers:
            if twice >> u & 1:
                if u in blocked:
                    blocked[u].append(i)
            elif once >> u & 1:
                if u in ready:
                    ready[u].append(i)
    return _LogTables(frags, masks, sizes, live, ready, blocked, subfiles)


def _peel_known_fragments(
    log: TransmissionLog, user: int, live: _LogTables
) -> dict[int, None]:
    """Ids of the fragments ``user`` learns by peeling its received
    symbols, in the order it learns them.  ``live`` is
    :func:`_live_fragments` of the log.

    A symbol resolves its one unknown constituent once every other one is
    known: cached, empty, or learned.  A received symbol with one unknown
    joins the worklist at once.  One with more keeps a count of them, with
    multiplicity (a symbol holding the same unknown fragment twice never
    resolves), and an index maps each unknown fragment to the symbols
    waiting on it.  Learning a fragment decrements their counts; a symbol
    whose count reaches 1 joins the worklist.  A symbol whose unknown was
    learned from another symbol before its turn is passed over.

    The worklist is keyed ``sweep * n + i``, i the entry's index in the log
    of n entries: symbols resolve in the order repeated in-order sweeps
    over the received symbols would meet them.
    """
    masks, rows = live.masks, live.live
    bit = 1 << user
    n = len(rows)
    ready = list(live.ready.get(user, ()))  # sweep 0, in order: a heap
    missing: dict[int, int] = {}
    waiting: dict[int, list[int]] = {}
    for i in live.blocked.get(user, ()):
        unknown = [f for f in rows[i] if not masks[f] & bit]
        missing[i] = len(unknown)
        for f in unknown:
            waiting.setdefault(f, []).append(i)

    known: dict[int, None] = {}
    while ready:
        sweep, i = divmod(heapq.heappop(ready), n)
        ids = rows[i]
        for target in ids:
            if not masks[target] & bit and target not in known:
                break
        else:  # another symbol yielded it first
            continue
        known[target] = None
        for w in waiting.pop(target, ()):
            missing[w] -= 1
            if missing[w] == 1:
                heapq.heappush(ready, (sweep if w > i else sweep + 1) * n + w)
    return known


def _uncovered_subfile(
    live: _LogTables, user: int, want: int, known: dict[int, None]
) -> Optional[tuple[int, ...]]:
    """First needed subfile of ``want`` that ``known`` does not fully cover
    (exact size bookkeeping, parts partition their subfile).  Sizes are
    integer numerators; the fragments of one part cover the union of their
    spans, fragment i of a count spanning [i, i + 1) times its size, so
    fragments of two counts that overlap are not counted twice.  A "full"
    part covers its subfile whole."""
    frags, masks, sizes = live.frags, live.masks, live.sizes
    whole: set[int] = set()
    spans: dict[tuple[int, str], list[tuple[int, int]]] = {}
    for f in known:
        frag = frags[f]
        if frag.file != want:
            continue
        if frag.part == "full":
            whole.add(masks[f])
        else:
            span = frag.index * sizes[f], (frag.index + 1) * sizes[f]
            spans.setdefault((masks[f], frag.part), []).append(span)
    covered: dict[int, int] = {}
    for (mask, _), part in spans.items():
        reach = 0
        for lo, hi in sorted(part):
            covered[mask] = covered.get(mask, 0) + max(hi - max(lo, reach), 0)
            reach = max(reach, hi)
    bit = 1 << user
    for T, mask, size in live.subfiles:
        if mask & bit or mask in whole:
            continue
        if covered.get(mask, 0) != size:
            return T
    return None


def decode(
    log: TransmissionLog, demands: Sequence[int]
) -> tuple[dict[int, set[FragmentId]], Optional[tuple[int, int, tuple[int, ...]]]]:
    """Per user, the set of fragments the worklist decoder learns; and the
    (user, file, subfile) of the first user, in user order, whose demanded
    file it leaves uncovered, or None."""
    demands = validate_demands(log.config, demands)
    live = _live_fragments(log)
    learned: dict[int, set[FragmentId]] = {}
    failure = None
    for k in log.config.users():
        want = demands[k - 1]
        known = _peel_known_fragments(log, k, live)
        learned[k] = {live.frags[f] for f in known}
        T = _uncovered_subfile(live, k, want, known)
        if T is not None and failure is None:
            failure = k, want, T
    return learned, failure
