"""The per-user decode check, kept as the reference for the block check.

``_fluid_closure`` and ``_coverage_gap`` are what ``coopcache.decode`` ran
for one user at a time before it peeled and checked coverage for a block
of users at once: each user's rows found by a pass over the log, its
closure peeled on them, and its coverage summed over every subfile.
``first_failure`` is the check that called them user by user, on the
package's interned tables, bit-mode payload check, bit coverage and
in-order sweeps.  ``block_closures`` reads the package's block closure
back as one set of fragment ids per user.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from coopcache.decode import (
    RUN,
    _bit_coverage_gap,
    _block_closure,
    _intern_log,
    _LogTables,
    _misassembled_subfile,
    _payloads_agree,
    _peel_known_fragments,
    _user_blocks,
)
from coopcache.model import has, runs, user_sets, validate_demands


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


def first_failure(log, demands, library=None):
    """The first user, in user order, that cannot recover its demanded
    file, as (user, file, subfile), or None: each user's closure and
    coverage on its own."""
    demands = validate_demands(log.config, demands)
    tables = _intern_log(log)
    closure = log.mode == "bits" and _payloads_agree(log, tables, library)
    for k in log.config.users():
        want = demands[k - 1]
        if log.mode == "fluid":
            T = _coverage_gap(tables, k, want, _fluid_closure(tables, k))
        elif closure:
            T = _bit_coverage_gap(log, tables, k, want, _fluid_closure(tables, k))
        else:
            known = _peel_known_fragments(log, k, library, tables)
            T = _misassembled_subfile(log, tables, k, want, known, library)
        if T is not None:
            return k, want, T
    return None


def block_closures(tables: _LogTables, K: int) -> dict[int, set[int]]:
    """The fragment ids each user 1..K learns, as the package's block
    closure gives them: user k's are row k of its block."""
    out = {}
    width = max(len(tables.frags), len(tables.subfiles))
    for users, starts, rows in _user_blocks(tables.unknown, K, width):
        starts, ids = _block_closure(tables, starts, rows)
        for k, lo, hi in zip(users, starts.tolist(), starts[1:].tolist()):
            out[k] = set(ids[lo:hi].tolist())
    return out
