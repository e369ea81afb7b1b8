"""The decode check: whether every user rebuilds its demanded file from its
cache plus the logged symbols it hears.

:func:`brute_force_decode_check` re-derives what every user can decode by
peeling: starting from its cache, a user resolves any received symbol with
exactly one unknown constituent, until no symbol resolves anything more.
It reads a log's columns (``simulator.TransmissionLog``), the demands, the
``BitLibrary`` and the public methods of the log's fragment resolver, and
nothing else: this module imports no scheduler and no part of the
simulator, so scheduler bugs cannot vouch for themselves.  Each check
interns the log once (:func:`_intern_log`), keying fragments by value, so
no id or row numbering the scheduler chose is read; the tables live for
that one call, and nothing is cached on the log.  On failure it names the
first user, file and subfile that cannot be recovered.

A user's peeling closure, what it ends up knowing, is the same whatever
order symbols resolve in.  So each user's closure is computed on numpy
columns, every ready symbol at once (the peeling decoder of Luby's LT codes
run in rounds), over the rows that user must learn.  In fluid mode
coverage then sums, per needed subfile, each group's learned count times
its size, in Python ints, except where two counts of one part overlap.

In bit mode each entry's payload is first checked once against the XOR of
its constituents' library bits, at the length of the longest.  If every
entry agrees, every fragment a user learns carries its library bits, so
the verdict is the closure plus bit coverage: per needed subfile, the union
of the learned fragments' spans.  Otherwise which payload a user learns can
depend on the order (a corrupted log may carry two versions of a
fragment), so each user peels its received symbols in repeated in-order
sweeps, and the file is reassembled bit for bit; an entry whose payload is
not as long as its longest constituent teaches nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import (
    RUN,
    FragmentId,
    ListView,
    distinct,
    fragment_ids,
    has,
    offsets,
    ranges,
    runs,
    stable_order,
    table_rows,
    user_sets,
    validate_demands,
    widen,
)


@dataclass
class _LogTables:
    """What the decoder reads off one log, interned by :func:`_intern_log`.

    Each distinct fragment gets an int id, in the sorted order of its key
    (file, subset, part, count, index); ``frags`` builds the ``FragmentId``
    of an id on demand, ``fsub`` holds its subset's mask row and ``group``
    its group.  Fragments that share (file, subset, part, count) form a
    group, with columns ``group_file``, ``group_subfile`` (its subset's
    row in ``subfiles``, -1 if none), ``group_part`` (its part's key, -1
    for "full") and, in fluid mode, ``group_size``, an integer numerator
    over one common denominator.  In bit mode ``spans`` holds, per id, its
    file, its subfile's row in ``subfiles`` and its [lo, hi) in that
    subfile's position run (``frag_spans``), so its bit count is hi - lo.

    The log's live constituents (those of nonzero size, repeats kept) are
    flattened, entry after entry, into rows: ``cons`` the fragment id and
    ``entry`` its entry's index in the log, both int32, and ``unknown`` the mask row of
    the users who hear its entry and do not cache its subset, so whether
    user k must learn it is one bit.  Entries left with no live
    constituent are dropped; ``starts`` and ``lengths`` give each kept
    entry's slice of rows.  ``subfiles`` holds the mask rows of the
    resolver's subfiles, and ``subfile_size``, in fluid mode, each one's
    size over the same denominator; user k needs those without bit k.  In
    bit mode ``payloads`` holds each entry's payload, and ``fits`` marks
    the kept entries whose payload is as long as their longest row.
    """

    frags: Sequence[FragmentId]
    group: np.ndarray
    fsub: np.ndarray
    group_file: np.ndarray
    group_subfile: np.ndarray
    group_part: np.ndarray
    group_size: Optional[np.ndarray]
    spans: Optional[np.ndarray]
    cons: np.ndarray
    unknown: np.ndarray
    entry: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    subfiles: np.ndarray
    subfile_size: Optional[np.ndarray]
    payloads: Optional[list]
    fits: Optional[np.ndarray]


class _Fragments(ListView):
    """The ``FragmentId`` of each fragment id, built from its key columns
    (``model.fragment_ids``) at the first read of any."""

    def __init__(self, parts: list[str], *columns: np.ndarray) -> None:
        self.parts, self.columns = parts, columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def _items(self) -> list:
        return fragment_ids(self.parts, *self.columns)


def _narrow(columns: Sequence[np.ndarray]) -> np.dtype:
    """The smallest int dtype that holds every value of the columns."""
    ends = [x for column in columns if len(column) for x in (column.min(), column.max())]
    return np.result_type(np.uint8, *map(np.min_scalar_type, ends))


def _key_columns(c: LogColumns) -> tuple[list[str], list[np.ndarray], np.ndarray]:
    """The key columns (file, subset, part, index, count) of the log's
    constituents, entry after entry, gathered from each run of its symbols
    straight into one array per column, each int column in the smallest
    dtype that holds its tables' values; ``subset`` holds mask rows at the
    widest table's width, and ``part`` rows of the parts returned, the
    tables' parts merged by value.  Also each entry's constituent count."""
    lo = [table.cstart[rows] for table, rows in c.symbols]
    hi = [table.cstart[rows + 1] for table, rows in c.symbols]
    arity = np.concatenate([np.zeros(0, np.int64), *(b - a for a, b in zip(lo, hi))])
    cuts = offsets(arity)[offsets(len(rows) for _, rows in c.symbols)].tolist()
    n, W = cuts[-1], max((t.subset.shape[1] for t, _ in c.symbols), default=1)
    merged: dict = {}
    part_rows = [table_rows(t.parts, merged) for t, _ in c.symbols]
    file, index, count = (
        np.empty(n, _narrow([getattr(t, name) for t, _ in c.symbols]))
        for name in ("file", "index", "count")
    )
    part = np.empty(n, _narrow([np.array([0, len(merged)])]))
    subset = np.zeros((n, W), np.int64)
    for (t, _), rows, a, x, y in zip(c.symbols, part_rows, cuts, lo, hi):
        # a block of entries at a time, of about RUN constituents
        step = max(1, RUN // max(1, int((y - x).max(initial=0))))
        for e in range(0, len(x), step):
            at = ranges(x[e : e + step], y[e : e + step])
            b = a + len(at)
            file[a:b], index[a:b], count[a:b] = t.file[at], t.index[at], t.count[at]
            part[a:b] = rows[t.part[at]]
            subset[a:b, : t.subset.shape[1]] = t.subset[at]
            a = b
    return list(merged), [file, subset, part, index, count], arity


def _intern_log(log: TransmissionLog) -> _LogTables:
    """Intern the log from its columns, with sizes read from its resolver,
    and nothing else.  Nothing is kept on the log.

    Fragment ids come from one sort of the constituents' key columns
    (:func:`_key_columns`: file, subset mask, part, count, index), their
    parts merged by value: an id depends on the key's values alone, and no
    id or row numbering the scheduler chose is read.  Once sorted, each key
    column is cut to one row per id, freeing the constituents' rows, so a
    constituent keeps only its int32 id and entry and its mask row of
    unknowns.  The same sort lays each group's fragments out as one run of
    ids, so the groups take no sort of their own, and subfile rows and
    sizes are worked out once per group.  An empty fragment is known to
    every user, so it is dropped from every entry and no symbol waits on
    it.
    """
    c = log.columns()
    resolver = log.resolver
    parts, (file, subset, part, index, count), arity = _key_columns(c)
    cons, first = distinct(index, count, part, *subset.T, file)
    fsub = subset[first]
    del subset
    file, part, index, count = file[first], part[first], index[first], count[first]
    del first
    key = file, fsub, part, index, count
    # ids follow (file, subset, part, count, index), so the fragments of a
    # group hold consecutive ids
    group, rep = runs(count, part, *fsub.T, file)  # rep: one id of each group
    subfiles = resolver.subfile_masks
    spans = group_size = subfile_size = fits = None
    if log.mode == "bits":
        sub, flo, fhi = resolver.frag_spans(parts, *key)
        spans = np.stack([file, sub, flo, fhi], axis=1)
        nonempty = fhi > flo
    else:
        # a size depends on (part, count, |T|) only, so it is asked once per
        # such shape
        size = np.bitwise_count(fsub[rep]).sum(axis=1, dtype=np.int64)
        shape, shapes = distinct(count[rep], part[rep], size)
        shares = [
            resolver.fragment_size(parts[p], n, T)
            for p, n, T in zip(
                part[rep][shapes].tolist(),
                count[rep][shapes].tolist(),
                user_sets(fsub[rep][shapes]),
            )
        ]
        # and a subfile's size on |T| only, so it is asked once per |T|
        sized, firsts = distinct(np.bitwise_count(subfiles).sum(axis=1, dtype=np.int64))
        whole = [resolver.subfile_size(T) for T in user_sets(subfiles[firsts])]
        den = math.lcm(*{x.denominator for x in shares + whole})
        nums = np.array([x.numerator * (den // x.denominator) for x in shares], object)
        group_size = nums[shape]
        subfile_size = np.array(
            [x.numerator * (den // x.denominator) for x in whole], object
        )[sized]
        nonempty = (nums != 0)[shape][group]

    entry = np.repeat(np.arange(len(arity), dtype=np.int32), arity)
    if not nonempty.all():
        live = nonempty[cons]
        cons, entry = cons[live], entry[live]
    # entries are in log order, so each kept one is a run of ``entry``
    lengths = np.bincount(entry, minlength=len(arity))
    lengths = lengths[lengths > 0]
    starts = offsets(lengths)[:-1]
    if log.mode == "bits":
        longest = np.maximum.reduceat(spans[cons, 3] - spans[cons, 2], starts)
        fits = longest == [len(c.payloads[i]) for i in entry[starts].tolist()]
    heard, cached = widen(c.receivers, fsub)
    unknown = cached[cons]
    np.invert(unknown, out=unknown)
    for lo in range(0, len(entry), RUN):  # heard rows a block at a time
        unknown[lo : lo + RUN] &= heard[entry[lo : lo + RUN]]
    return _LogTables(
        _Fragments(parts, *key),
        group,
        fsub,
        file[rep],
        resolver.subfile_rows(fsub[rep]),
        np.where(np.array([p == "full" for p in parts])[part[rep]], -1, part[rep].astype(int)),
        group_size,
        spans,
        cons,
        unknown,
        entry,
        starts,
        lengths,
        subfiles,
        subfile_size,
        c.payloads,
        fits,
    )


def _fluid_closure(tables: _LogTables, user: int) -> np.ndarray:
    """Which fragment ids ``user`` learns by peeling, as a boolean per id
    (fluid mode, and bit mode once every payload has checked out), from its
    own rows: the constituents it hears and does not cache.  Every entry
    left with exactly one of them yields it, all at once; then the rows of
    learned fragments and of spent entries are dropped, until no entry
    yields anything.  Learning only ever lowers a count, so this reaches
    the closure of peeling one symbol at a time, in any order (Luby's LT
    peeling decoder); a symbol holding one unknown twice never resolves it.
    """
    learned = np.zeros(len(tables.frags), dtype=bool)
    unknown = tables.unknown  # tested a block of rows at a time
    mine = np.flatnonzero(np.concatenate([
        has(unknown[lo : lo + RUN], user) for lo in range(0, len(unknown) or 1, RUN)
    ]))
    cons, entry = tables.cons[mine], tables.entry[mine]
    while True:
        # an entry's rows are one run of ``entry``
        starts = np.flatnonzero(np.diff(entry, prepend=-1))
        counts = np.diff(starts, append=len(entry))
        ready = counts == 1
        if not ready.any():
            return learned
        learned[cons[starts[ready]]] = True
        keep = np.repeat(~ready, counts) & ~learned[cons]
        cons, entry = cons[keep], entry[keep]


def _coverage_gap(
    tables: _LogTables, user: int, want: int, learned: np.ndarray
) -> Optional[tuple[int, ...]]:
    """First needed subfile of ``want`` that the ``learned`` fragments do
    not fully cover (fluid mode; exact size bookkeeping, parts partition
    their subfile).  Each group adds its learned count times its size to
    its subfile, in Python ints; a "full" part covers its subfile whole.

    Where a part is learned at two counts, their fragments may overlap, so
    it adds the union of its learned fragments' spans instead, fragment i
    of a group spanning [i, i + 1) times the group's size (a rare path)."""
    counts = np.bincount(tables.group[learned], minlength=len(tables.group_file))
    sub, part = tables.group_subfile, tables.group_part
    mine = (counts > 0) & (tables.group_file == want) & (sub >= 0)
    some = np.flatnonzero(mine & (part >= 0))
    # groups run in (subset, part, count) order, so those of a part are a run
    key, first = runs(part[some], sub[some])
    mixed = np.diff(first, append=len(some))[key] > 1
    covered = np.zeros(len(tables.subfiles), object)
    one = some[~mixed]
    np.add.at(covered, sub[one], counts[one] * tables.group_size[one])
    for k in set(key[mixed].tolist()):
        groups = some[key == k]
        ids = np.flatnonzero(learned & np.isin(tables.group, groups))
        index = np.array([tables.frags[i].index for i in ids.tolist()], object)
        size = tables.group_size[tables.group[ids]]
        reach = 0
        for lo, hi in sorted(zip((index * size).tolist(), ((index + 1) * size).tolist())):
            covered[sub[groups[0]]] += max(hi - max(lo, reach), 0)
            reach = max(reach, hi)
    whole = sub[mine & (part < 0)]
    covered[whole] = tables.subfile_size[whole]
    gaps = np.flatnonzero(~has(tables.subfiles, user) & (covered != tables.subfile_size))
    return user_sets(tables.subfiles[gaps[:1]])[0] if len(gaps) else None


def _bit_coverage_gap(
    log: TransmissionLog,
    tables: _LogTables,
    user: int,
    want: int,
    learned: np.ndarray,
) -> Optional[tuple[int, ...]]:
    """First needed subfile of ``want`` whose bits the ``learned``
    fragments do not cover whole (bit mode, once every payload has checked
    out).

    A subfile is covered when the union of its learned fragments' [lo, hi)
    spans is all of its position run.  The union, not the sum of their
    lengths: a subfile and its own server share may both be learned.  The
    spans are sorted by (subfile, lo) and shifted by subfile * (F + 1), so
    one running maximum of hi, which never crosses into the next subfile,
    says how far each subfile is covered before each span starts."""
    spans = tables.spans[learned]
    _, sub, lo, hi = spans[spans[:, 0] == want].T
    order = stable_order(lo, sub)
    sub = sub[order]
    base = sub * (log.config.F + 1)
    lo, hi = base + lo[order], base + hi[order]
    reach = np.maximum.accumulate(hi)
    before = np.maximum(np.concatenate([[0], reach[:-1]]), base)
    last = np.flatnonzero(np.diff(sub, append=-1))  # one row per subfile
    n = len(tables.subfiles)
    lengths = log.resolver.subfile_lengths(np.full(n, want, np.int64), np.arange(n))
    covered = lengths == 0
    covered[sub[last]] = reach[last] == base[last] + lengths[sub[last]]
    covered[sub[lo > before]] = False
    gaps = np.flatnonzero(~has(tables.subfiles, user) & ~covered)
    return user_sets(tables.subfiles[gaps[:1]])[0] if len(gaps) else None


def _payloads_agree(
    log: TransmissionLog, tables: _LogTables, library: BitLibrary
) -> bool:
    """Whether every kept entry's payload is the XOR of its live
    constituents' library bits, taken as long as the longest of them (bit
    mode): one XOR per entry, read through the fragments' spans."""
    if not tables.fits.all():
        return False
    read = log.resolver.span_bits
    spans = tables.spans.tolist()
    cons = tables.cons.tolist()
    for i, lo, n in zip(
        tables.entry[tables.starts].tolist(),
        tables.starts.tolist(),
        tables.lengths.tolist(),
    ):
        acc = np.array(tables.payloads[i], copy=True)
        for f in cons[lo : lo + n]:
            part = read(library, *spans[f])
            acc[: len(part)] ^= part
        if acc.any():
            return False
    return True


def _peel_known_fragments(
    log: TransmissionLog,
    user: int,
    library: BitLibrary,
    tables: _LogTables,
) -> dict[int, np.ndarray]:
    """Ids of the fragments ``user`` learns by peeling its received
    symbols, in the order it learns them, with their payloads (bit mode).
    ``tables`` is :func:`_intern_log` of the log.

    The received entries are swept in log order, again and again, until a
    sweep learns nothing.  An entry with exactly one unknown constituent,
    counted with multiplicity (a symbol holding the same unknown fragment
    twice never resolves it), yields it: its payload XOR the other
    constituents' bits, each learned before or read off the library.  So
    where two symbols could yield the same fragment with different payloads
    (a corrupted log), the one the sweep reaches first wins.  An entry
    whose payload is not exactly as long as its longest live constituent
    teaches nothing.
    """
    read = log.resolver.span_bits
    spans = tables.spans.tolist()
    cached = has(tables.fsub, user).tolist()
    counts = np.add.reduceat(has(tables.unknown, user), tables.starts)
    cons = tables.cons.tolist()
    teaching = np.flatnonzero((counts > 0) & tables.fits)
    rows = [
        (i, cons[lo : lo + length])
        for i, lo, length in zip(
            tables.entry[tables.starts[teaching]].tolist(),
            tables.starts[teaching].tolist(),
            tables.lengths[teaching].tolist(),
        )
    ]
    known: dict[int, np.ndarray] = {}
    learning = True
    while learning:
        learning = False
        for i, ids in rows:
            unknown = [f for f in ids if not cached[f] and f not in known]
            if len(unknown) != 1:
                continue
            (target,) = unknown
            acc = np.array(tables.payloads[i], copy=True)
            for f in ids:
                if f != target:
                    part = known[f] if f in known else read(library, *spans[f])
                    acc[: len(part)] ^= part
            _, _, lo, hi = spans[target]
            known[target] = acc[: hi - lo]
            learning = True
    return known


def _misassembled_subfile(
    log: TransmissionLog,
    tables: _LogTables,
    user: int,
    want: int,
    known: dict[int, np.ndarray],
    library: BitLibrary,
) -> Optional[tuple[int, ...]]:
    """First needed subfile of ``want`` whose bits, reassembled from the
    learned payloads, differ from the library (bit mode).  The subfiles
    partition the file, so no mismatch means the file is rebuilt exactly.
    Where two learned payloads cover the same bits and disagree, the later
    one's subfile is named at once."""
    index = log.resolver.span_index
    original = library.files[want]
    rebuilt = np.full(log.config.F, 2, dtype=np.uint8)
    spans = tables.spans.tolist()
    for f, payload in known.items():
        file, sub, lo, hi = spans[f]
        if file == want:
            pos = index(want, sub, lo, hi)
            # a fragment learned twice (a subfile and its own server share)
            # must agree with what is already in place
            before = rebuilt[pos]
            if np.any((before != 2) & (before != payload)):
                return user_sets(tables.subfiles[[sub]])[0]
            rebuilt[pos] = payload
    needed = np.flatnonzero(~has(tables.subfiles, user))
    lengths = log.resolver.subfile_lengths(np.full(len(needed), want), needed)
    for i, n in zip(needed.tolist(), lengths.tolist()):
        pos = index(want, i, 0, n)
        if not np.array_equal(rebuilt[pos], original[pos]):
            return user_sets(tables.subfiles[[i]])[0]
    return None


def _first_decode_failure(
    log: TransmissionLog,
    demands: Sequence[int],
    library: Optional[BitLibrary] = None,
) -> Optional[tuple[int, int, tuple[int, ...]]]:
    """The first user, in user order, that cannot recover its demanded file,
    as (user, file, subfile), or None when every user recovers it.  Fluid
    mode checks exact size coverage of every needed subfile, from each
    user's peeling closure.

    Bit mode first checks each payload once (:func:`_payloads_agree`).  If
    every entry agrees with its constituents' library bits, then by
    induction over the peeling steps every fragment a user learns carries
    its library bits, whatever the order: the payload XOR its other
    constituents' bits, each cached (library bits) or learned before, is
    the target's bits padded with zeros, cut to the target's length.  So a
    user learns its peeling closure, each fragment with its library bits,
    exactly as in-order sweeps would; two learned fragments never
    disagree on a bit; and a needed subfile is rebuilt exactly when its
    learned fragments' positions cover it.  Subfiles partition their file
    and a fragment's positions are the [lo, hi) slice of its subfile's
    run, so that is the union coverage of :func:`_bit_coverage_gap`, which
    names the same first subfile as :func:`_misassembled_subfile`.  If any
    entry disagrees, which payload a user learns can depend on the order,
    so each user peels by in-order sweeps (:func:`_peel_known_fragments`),
    and the file is reassembled bit for bit and compared against the
    library.
    """
    config = log.config
    if log.resolver is None:
        raise ValueError("log carries no fragment resolver")
    if log.mode == "bits" and library is None:
        raise ValueError("bit-mode decode check needs the library")
    demands = validate_demands(config, demands)

    tables = _intern_log(log)
    closure = log.mode == "bits" and _payloads_agree(log, tables, library)
    for k in config.users():
        want = demands[k - 1]
        if log.mode == "fluid":
            T = _coverage_gap(tables, k, want, _fluid_closure(tables, k))
        elif closure:
            learned = _fluid_closure(tables, k)
            T = _bit_coverage_gap(log, tables, k, want, learned)
        else:
            known = _peel_known_fragments(log, k, library, tables)
            T = _misassembled_subfile(log, tables, k, want, known, library)
        if T is not None:
            return k, want, T
    return None


def brute_force_decode_check(
    log: TransmissionLog,
    placement,
    demands: Sequence[int],
    library: Optional[BitLibrary] = None,
) -> bool:
    """True iff every user can reconstruct its demanded file from its cache
    plus the logged transmissions (:func:`_first_decode_failure`);
    ``placement`` is accepted and ignored."""
    return _first_decode_failure(log, demands, library) is None

