"""Core system model for coded caching with user cooperation.

A server holds N files of F bits each and serves K cache-equipped users
(K <= N) over a shared broadcast link.  Each user has a cache of M*F bits
(0 <= M <= N).  During delivery the users additionally cooperate over a
device-to-device network in which up to ``alpha_max`` pairwise-disjoint
groups of users may transmit in parallel; within a sending group, one user
at a time broadcasts to the rest of the group.  Both links run at the same
rate, so the delivery delay is ``T = max(R1, R2)`` where R1 is the total
server airtime and R2 the per-link user airtime (parallel groups overlap).

Everything rate-like is exact: quantities are ``fractions.Fraction``
("Frac") throughout, and floats appear only at the formatting edge.

Conventions used across the package:

* users are labelled 1..K, the server is sender 0;
* ``t = K*M/N`` is the cache replication factor, ``p = M/N`` the per-bit
  cache probability;
* a set of users is carried as a mask row: W int64 words, user u at bit
  u % 63 of word u // 63, so no word is ever negative; subsets are
  enumerated in lexicographic order, and the public views show each set as
  an ascending tuple (:func:`user_sets`);
* a group partition is an unordered collection of pairwise disjoint user
  groups, canonicalised by sorting groups by their smallest member.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from operator import attrgetter
from dataclasses import dataclass, field
from fractions import Fraction as Frac
from typing import Iterable, Iterator, Optional

import numpy as np

from .config import SystemConfig


class SchedulingError(RuntimeError):
    """A delivery schedule could not be constructed (or failed its own audit)."""


def validate_demands(config: SystemConfig, demands: Sequence[int]) -> tuple[int, ...]:
    """Check a demand vector: one distinct file id in 1..N per user."""
    d = tuple(demands)
    if len(d) != config.K:
        raise ValueError(f"need {config.K} demands, got {len(d)}")
    if any(not (1 <= x <= config.N) for x in d):
        raise ValueError(f"demands {d} outside file range 1..{config.N}")
    if len(set(d)) != len(d):
        raise ValueError(f"demands must be distinct (worst case), got {d}")
    return d


# ---------------------------------------------------------------------------
# subsets and group partitions
# ---------------------------------------------------------------------------


def enumerate_subsets(K: int, size: int) -> list[tuple[int, ...]]:
    """All ``size``-subsets of users 1..K as ascending tuples, in lex order."""
    if size < 0 or size > K:
        return []
    return list(itertools.combinations(range(1, K + 1), size))


@dataclass(frozen=True, slots=True)
class GroupPartition:
    """Pairwise-disjoint user groups transmitting in parallel.

    ``groups`` is canonical: each group ascending, groups sorted by smallest
    member.  Not all users need be covered (left-over users stay idle).
    ``round_index`` tags the delivery round the partition is used in.
    """

    groups: tuple[tuple[int, ...], ...]
    round_index: int = -1

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for g in self.groups:
            if tuple(sorted(g)) != g:
                raise ValueError(f"group {g} not ascending")
            if not seen.isdisjoint(g):
                raise ValueError(f"groups overlap in partition {self.groups}")
            seen.update(g)
        firsts = [g[0] for g in self.groups]
        if firsts != sorted(firsts):
            raise ValueError(f"groups not sorted by smallest member: {self.groups}")


def _binomials(K: int, k: int) -> np.ndarray:
    """C(n, i) at [n, i] for 1 <= i <= k and n <= K - k - 1 + i, and 0
    elsewhere in a (K + 1, k + 2) int64 table: the terms of the lex ranks
    of k-subsets of 1..K.  As the r-th smallest member u_r is at least r,
    each term C(K - u_r, k + 1 - r) is in the table; each is a term of some
    rank's sum, so at most C(K, k) - 1, and the table stays int64 wherever
    C(K, k) does."""
    binom = np.zeros((K + 1, k + 2), np.int64)
    for i in range(1, k + 1):
        binom[: K - k + i, i] = [math.comb(n, i) for n in range(K - k + i)]
    return binom


def subset_ranks(sets: np.ndarray, K: int) -> np.ndarray:
    """The row in ``enumerate_subsets(K, k)`` of each ascending k-subset of
    1..K along the last axis of ``sets``: its lexicographic rank,
    C(K, k) - 1 less the sum of C(K - u_r, k + 1 - r) over its r-th
    smallest member u_r (:func:`_binomials`)."""
    k = sets.shape[-1]
    binom = _binomials(K, k)
    return math.comb(K, k) - 1 - binom[K - sets, np.arange(k, 0, -1)].sum(axis=-1)


@functools.lru_cache(maxsize=4)
def _byte_terms(K: int, k: int) -> tuple[tuple[int, int, int, np.ndarray], ...]:
    """Per byte of users 1..K, as (word, shift, bits, table): the sum of the
    rank terms C(K - u_r, k + 1 - r) of the byte's members, at
    ``table[below, byte]`` when ``below`` members lie under the byte
    (capped at k + 1)."""
    binom = _binomials(K, k)
    out = []
    for word in range(K // WORD + 1):
        for shift in range(0, WORD, 8):
            u = word * WORD + shift + np.arange(min(8, WORD - shift))
            if u[0] > K:
                break
            bits = np.arange(1 << len(u))[:, None] >> np.arange(len(u)) & 1
            # the member's place from the bottom, for each count below
            r = np.arange(k + 2)[:, None, None] + np.cumsum(bits, axis=1)
            term = binom[np.clip(K - u, 0, K), np.clip(k + 1 - r, 0, k + 1)]
            table = (term * (bits * ((u >= 1) & (u <= K)))).sum(axis=2)
            out.append((word, shift, len(u), table))
    return tuple(out)


def mask_ranks(rows: np.ndarray, K: int, k: int) -> np.ndarray:
    """:func:`subset_ranks` of mask rows: the row in ``enumerate_subsets(K,
    k)`` of each row that holds k users, all in 1..K, and -1 for any other.
    A member's term depends only on the member and on how many members lie
    below it, so the rows are read a byte of users at a time, each byte's
    terms summed in a table by the byte and the count below it
    (:func:`_byte_terms`)."""
    rank = np.zeros(len(rows), np.int64)
    below = np.zeros(len(rows), np.int64)
    for word, shift, bits, table in _byte_terms(K, k):
        byte = rows[:, word] >> shift & (1 << bits) - 1
        rank += table[np.minimum(below, k + 1), byte]
        below += np.bitwise_count(byte)
    inside = below == k
    for w, users in enumerate(masks(np.arange(1, K + 1), rows.shape[1])):
        inside &= rows[:, w] & ~users == 0  # no user 0, none past K
    return np.where(inside, math.comb(K, k) - 1 - rank, -1)


def partition_table(K: int, s: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Every unordered choice of ``count`` disjoint s-subsets of 1..K, as
    (groups, idle) int tables: ``groups[i]`` holds choice i's groups, one
    ascending row each, rows sorted by smallest member, and ``idle[i]`` the
    users it leaves idle, ascending; choices in lexicographic order of the
    flattened groups.

    Built a group at a time: a choice's next group is an s-subset of its
    idle users whose smallest member exceeds its last group's, so, in
    combination order of the idle users' positions, its candidates are a
    suffix of that order."""
    groups = np.zeros((1, 0, s), np.int64)
    idle = np.arange(1, K + 1)[None, :]
    for _ in range(count):
        n, free = idle.shape
        picks = np.array(list(itertools.combinations(range(free), s)), np.intp)
        left = np.ones((len(picks), free), bool)
        left[np.arange(len(picks))[:, None], picks] = False
        rest = np.nonzero(left)[1].reshape(len(picks), free - s)
        last = groups[:, -1, 0] if groups.shape[1] else np.zeros(n, np.int64)
        first = np.searchsorted(picks[:, 0], (idle <= last[:, None]).sum(axis=1))
        row = np.repeat(np.arange(n), len(picks) - first)
        pick = ranges(first, np.full(n, len(picks)))
        new = idle[row[:, None], picks[pick]]
        groups = np.concatenate([groups[row], new[:, None]], axis=1)
        idle = idle[row[:, None], rest[pick]]
    return groups, idle


def equal_partition_count(K: int, s: int, alpha_d: int) -> int:
    """Closed-form count of the unordered choices of ``alpha_d`` disjoint
    s-subsets of 1..K (the rows of :func:`partition_table`): the product of
    C(K - i*s, s) over i < alpha_d, divided by alpha_d!."""
    num = 1
    for i in range(alpha_d):
        num *= math.comb(K - i * s, s)
    return num // math.factorial(alpha_d)


# ---------------------------------------------------------------------------
# delivery vocabulary shared by both schemes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FragmentId:
    """Identity of one delivered piece of a subfile.

    ``subset`` is the set of users caching the parent subfile W_{file,subset}.
    ``part`` distinguishes the server share ("s"), the user share ("u", or
    "u1"/"u2" when a round splits it), and "full" for a subfile sent whole.
    ``index``/``count`` locate the fragment among the equal fragments its
    part was split into.
    """

    file: int
    subset: tuple[int, ...]
    part: str
    index: int
    count: int

    def __post_init__(self) -> None:
        if not (0 <= self.index < self.count):
            raise ValueError(f"fragment index {self.index} outside 0..{self.count - 1}")


@dataclass(frozen=True, slots=True)
class Constituent:
    """One fragment inside an XOR symbol, tagged with its intended receiver."""

    receiver: int
    fragment: FragmentId


@dataclass(frozen=True, slots=True)
class XorSymbol:
    """One broadcast: XOR of fragments, sent by ``sender`` to ``group``.

    ``sender`` 0 is the server (heard by everyone); a user sender is heard by
    the rest of its group.  ``size`` is the symbol length as an exact
    fraction of F.  ``payload`` optionally carries real bits (uint8 0/1
    array) in bit-level simulation.  ``redundant`` marks symbols whose
    content is already delivered elsewhere (kept for exact rate accounting).
    """

    sender: int
    group: tuple[int, ...]
    constituents: tuple[Constituent, ...]
    size: Frac
    payload: object = None
    redundant: bool = False

    def receivers(self) -> tuple[int, ...]:
        """Who hears the symbol: the group without its sender."""
        return tuple(u for u in self.group if u != self.sender)


# ---------------------------------------------------------------------------
# sets of users as mask rows
# ---------------------------------------------------------------------------

WORD = 63  # bits per mask word, so that an int64 word is never negative

# Rows per block where a temporary per constituent is built a block at a
# time: the centralized assembly's blocks, its audit's runs and the decode
# check's gathers and scans.
RUN = 1 << 16


def words(top: int) -> int:
    """The mask width W that holds users 0..``top``."""
    return int(top) // WORD + 1


def masks(users: np.ndarray, W: int) -> np.ndarray:
    """The sets of users along the last axis of ``users`` as mask rows of
    W words, on a new last axis in place of that one.  A negative user, or
    one past the last word, is in no set."""
    word, bit = np.divmod(np.asarray(users, np.int64), WORD)
    one = np.left_shift(1, bit, dtype=np.int64)
    return np.stack(
        [np.bitwise_or.reduce(np.where(word == w, one, 0), axis=-1) for w in range(W)], -1
    )


def pack(*lists: Sequence[Sequence[int]]) -> list[np.ndarray]:
    """Lists of sets given as strictly ascending sequences of users 0 and
    up, as mask rows of one width, enough for their largest user: the
    adapters' way in.  Any other sequence is refused with a ValueError."""
    width = max((len(s) for sets in lists for s in sets), default=0)
    out = []
    for sets in lists:
        rows = np.array([[-1, *s] + [-1] * (width - len(s)) for s in sets], np.int64)
        rows = rows.reshape(len(sets), width + 1)
        held = np.arange(width) < np.array([len(s) for s in sets], np.int64)[:, None]
        bad = np.flatnonzero((held & (np.diff(rows) <= 0)).any(axis=1))
        if len(bad):
            raise ValueError(f"users {tuple(sets[bad[0]])} are not ascending from 0")
        out.append(rows[:, 1:])
    W = words(max((int(r.max(initial=0)) for r in out), default=0))
    return [masks(r, W) for r in out]


def widen(*rows: np.ndarray) -> list[np.ndarray]:
    """Mask rows padded with empty words to the width of the widest."""
    W = max(r.shape[1] for r in rows)
    return [
        np.hstack([r, np.zeros((len(r), W - r.shape[1]), np.int64)]) if r.shape[1] < W else r
        for r in rows
    ]


def has(rows: np.ndarray, users) -> np.ndarray:
    """Whether each mask row holds its user, ``users`` broadcast against
    the rows (every axis of ``rows`` but the last): a shift and an AND of
    the user's word.  A negative user, or one past the last word, is in no
    row.  One user, as the decoder asks user by user, reads its word alone,
    which about halves this function's time in a K = 100 (W = 2) run."""
    word, bit = np.divmod(np.asarray(users, np.int64), WORD)
    if word.ndim:
        got = sum(np.where(word == w, rows[..., w], 0) for w in range(rows.shape[-1]))
    else:
        got = rows[..., word] if 0 <= word < rows.shape[-1] else np.zeros(rows.shape[:-1], int)
    return got >> bit & 1 == 1


def user_sets(rows: np.ndarray) -> list[tuple[int, ...]]:
    """Each mask row's users as an ascending tuple: the one way from masks
    back to the tuples the views show."""
    row, word, bit = np.nonzero(rows[:, :, None] >> np.arange(WORD) & 1)
    users = (word * WORD + bit).tolist()
    cuts = np.searchsorted(row, np.arange(len(rows) + 1)).tolist()
    return [tuple(users[a:b]) for a, b in zip(cuts, cuts[1:])]


def mask_rows(keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each of ``rows``' position among the distinct mask rows ``keys``, or
    -1 where no key equals it: one :func:`distinct` over both."""
    ids, first = distinct(*np.concatenate(widen(keys, rows)).T)
    at = np.full(len(first), -1, np.int64)
    at[ids[: len(keys)]] = np.arange(len(keys))
    return at[ids[len(keys) :]]


# ---------------------------------------------------------------------------
# symbols as int columns, and read-only views that build the value objects
# ---------------------------------------------------------------------------


def ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The index runs ``lo[i]:hi[i]``, concatenated in order."""
    n = hi - lo
    ends = np.cumsum(n)
    return np.repeat(lo - ends + n, n) + np.arange(ends[-1] if len(n) else 0)


def offsets(lengths: Iterable[int]) -> np.ndarray:
    """0 followed by the running sums of ``lengths``: run i is
    ``out[i]:out[i + 1]``; an ndarray is summed as it is, not walked."""
    if isinstance(lengths, np.ndarray):
        runs = lengths.astype(np.int64, copy=False)
    else:
        runs = np.fromiter(lengths, np.int64)
    out = np.zeros(len(runs) + 1, np.int64)
    np.cumsum(runs, out=out[1:])
    return out


def _keys(columns: Sequence[np.ndarray]) -> tuple[list[np.ndarray], list[int]]:
    """The columns as sort keys, the primary one first, and their bit
    widths.  A column holding a negative value is shifted to start at 0,
    unless its values span more than 63 bits, when it stays a key of its
    own (width 64); nonnegative columns are packed side by side, the last
    column highest, into int64 keys of at most 63 bits, so comparing the
    keys in turn compares the columns lexicographically."""
    keys: list[np.ndarray] = []
    widths: list[int] = []
    for column in reversed(columns):
        column = np.asarray(column)
        lo, hi = int(column.min()), int(column.max())
        if lo < 0 and (hi - lo).bit_length() > 63:
            keys.append(column.astype(np.int64, copy=False))
            widths.append(64)
            continue
        if lo < 0:
            column, hi = column.astype(np.int64) - lo, hi - lo
        width = hi.bit_length()
        if keys and widths[-1] + width <= 63:
            keys[-1] = keys[-1].astype(np.int64, copy=False) << width | column
            widths[-1] += width
        else:
            keys.append(column)
            widths.append(width)
    return keys, widths


def _sort(columns: Sequence[np.ndarray]) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """:func:`stable_order` of the columns, and their keys (:func:`_keys`)
    in that order, read off the sort where it gives them and gathered, as
    they are asked for, where it does not."""
    n = len(columns[0])
    if not n:
        return np.zeros(0, np.intp), iter(())
    keys, widths = _keys(columns)
    if len(keys) == 1:
        key, width, bits = keys[0], widths[0], (n - 1).bit_length()
        if width <= 16:  # numpy radix-sorts 8- and 16-bit keys
            key = key.astype(np.uint8 if width <= 8 else np.uint16, copy=False)
            order = np.argsort(key, kind="stable")
            return order, (k[order] for k in [key])
        if width + bits <= 63:  # the row under the key makes every key distinct
            packed = key.astype(np.int64, copy=False) << bits
            del key, keys  # a packed key is freed before the sort's arrays
            packed |= np.arange(n)
            packed.sort()
            order = packed & ((1 << bits) - 1)
            packed >>= bits
            return order, iter([packed])
    order = np.lexsort(keys[::-1])
    return order, (k[order] for k in keys)


def stable_order(*columns: np.ndarray) -> np.ndarray:
    """The rows in the stable order of the int columns, the last one
    primary: exactly the permutation ``np.lexsort(columns)`` gives, or for
    one column ``np.argsort(column, kind="stable")``.  The package's one
    stable sort.  The columns are packed into keys (:func:`_keys`); one key
    of at most 16 bits is radix-sorted as uint8 or uint16, one whose width
    leaves room for the row numbers below it is sorted with them as one
    int64 (the low bits of the sorted values are the order), and anything
    else is lexsorted key by key."""
    return _sort(columns)[0]


def _starts(keys: Iterable[np.ndarray], n: int) -> np.ndarray:
    """Where each run of equal rows starts, for ``n`` rows sorted by
    ``keys``."""
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
        del key  # a sorted key is freed once read
    return new


def _id_dtype(n: int) -> type:
    """The dtype of ids and counts below ``n``: int32 below 2^31."""
    return np.int32 if n < 1 << 31 else np.int64


def runs(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For rows already in the sorted order of the columns, what
    :func:`distinct` gives with no sort: (each row's id, the first row of
    each id)."""
    n = len(columns[0])
    new = _starts(columns, n)
    run = np.cumsum(new, dtype=_id_dtype(n))
    run -= 1
    return run, np.flatnonzero(new)


def _ids(columns: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's id, the sort's order, and where each run of equal rows
    starts in it: one :func:`stable_order`."""
    n = len(columns[0])
    order, ordered = _sort(columns)
    new = _starts(ordered, n)
    run = np.cumsum(new, dtype=_id_dtype(n))
    run -= 1
    ids = np.empty(n, run.dtype)
    ids[order] = run
    return ids, order, new


def distinct(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows equal in every column share one id: (each row's id, the first
    row of each id).  Ids follow the sorted order of the columns, the last
    one primary, are read off one :func:`stable_order`, and are int32 below
    2^31 rows."""
    ids, order, new = _ids(columns)
    return ids, order[new]


def occurrences(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`distinct`, and each row's occurrence: how many earlier rows
    share its id, read off the same sort."""
    ids, order, new = _ids(columns)
    occurrence = np.empty(len(order), np.int64)
    # in sorted order, a row's place less where its run starts
    occurrence[order] = np.arange(len(order)) - np.flatnonzero(new)[ids[order]]
    return ids, order[new], occurrence


def others(n: int) -> np.ndarray:
    """n x (n - 1) positions: row a lists 0..n-1 without a."""
    return np.array(
        [[b for b in range(n) if b != a] for a in range(n)], dtype=np.intp
    ).reshape(n, n - 1)


def table_rows(values: list, table: dict) -> np.ndarray:
    """Each value's row in ``table``, a dict of value -> row that new
    values join in order of first use."""
    for v in dict.fromkeys(values):
        table.setdefault(v, len(table))
    return np.fromiter(map(table.__getitem__, values), np.int32, len(values))


def int_column(objects: Sequence, name: str, dtype: type = np.int32) -> np.ndarray:
    """Attribute ``name`` of each object, as an int column."""
    return np.fromiter(map(attrgetter(name), objects), dtype, len(objects))


def fragment_ids(
    parts: Sequence[str],
    file: np.ndarray,
    subset: np.ndarray,
    part: np.ndarray,
    index: np.ndarray,
    count: np.ndarray,
) -> list[FragmentId]:
    """Fragment columns as value objects: ``subset`` mask rows, ``part``
    rows of ``parts``."""
    return list(
        map(
            FragmentId,
            file.tolist(),
            user_sets(subset),
            [parts[i] for i in part.tolist()],
            index.tolist(),
            count.tolist(),
        )
    )


@dataclass(eq=False)
class SymbolTable:
    """XOR symbols as int columns.

    Per symbol: ``sender``, ``group`` (the group's mask row), ``size`` (a
    row of ``sizes``) and ``redundant``.  Symbol i's constituents are rows
    ``cstart[i]:cstart[i + 1]`` of the constituent columns ``receiver``,
    ``file``, ``subset`` (the caching set's mask row), ``part`` (a row of
    ``parts``), ``index`` and ``count``.  ``group`` and ``subset`` are
    (rows, W) int64 arrays of one width W, enough for the largest user the
    table holds; a mask is its set's canonical value.  The two tables hold
    distinct values, so two rows are equal exactly when their values are,
    and sizes stay exact ``Fraction``s.  Both schedulers and
    :func:`server_multicast` write their tables directly;
    :meth:`from_symbols` is the adapter for symbols given as a list.  Every
    int column but ``file`` and ``cstart`` counts users, rows or fragments,
    so the adapter keeps it in int32.  :meth:`symbols` builds the value
    objects of any rows on demand.  A table is never joined to another or
    copied: a log reads the server's table and the user rounds' table side
    by side, each entry a row of one of them.
    """

    sender: np.ndarray
    group: np.ndarray
    size: np.ndarray
    redundant: np.ndarray
    cstart: np.ndarray
    receiver: np.ndarray
    file: np.ndarray
    subset: np.ndarray
    part: np.ndarray
    index: np.ndarray
    count: np.ndarray
    sizes: list[Frac]
    parts: list[str]

    def __len__(self) -> int:
        return len(self.sender)

    @classmethod
    def from_symbols(cls, symbols: Sequence[XorSymbol]) -> "SymbolTable":
        """The one adapter from value objects to columns.  Payloads are not
        kept: a log holds them per entry."""
        per_symbol = list(map(attrgetter("constituents"), symbols))
        cons = list(itertools.chain.from_iterable(per_symbol))
        frags = list(map(attrgetter("fragment"), cons))
        group, subset = pack(
            list(map(attrgetter("group"), symbols)), list(map(attrgetter("subset"), frags))
        )
        sizes: dict = {}
        parts: dict = {}
        return cls(
            int_column(symbols, "sender"),
            group,
            table_rows(list(map(attrgetter("size"), symbols)), sizes),
            np.fromiter(map(attrgetter("redundant"), symbols), bool, len(symbols)),
            offsets(map(len, per_symbol)),
            int_column(cons, "receiver"),
            int_column(frags, "file", np.int64),  # file ids are not bounded
            subset,
            table_rows(list(map(attrgetter("part"), frags)), parts),
            int_column(frags, "index"),
            int_column(frags, "count"),
            list(sizes), list(parts),
        )

    def fragments(self, at: np.ndarray) -> list[FragmentId]:
        """The fragments of constituent rows ``at``, as value objects."""
        return fragment_ids(
            self.parts, self.file[at], self.subset[at], self.part[at],
            self.index[at], self.count[at],
        )

    def symbols(
        self, rows: np.ndarray, payloads: Optional[Sequence] = None
    ) -> list[XorSymbol]:
        """The symbols of ``rows`` as value objects, carrying ``payloads``
        (one per row) if given."""
        lo, hi = self.cstart[rows], self.cstart[rows + 1]
        at = ranges(lo, hi)
        cons = list(map(Constituent, self.receiver[at].tolist(), self.fragments(at)))
        sizes = self.sizes
        out = []
        start = 0
        for sender, group, z, redundant, end, payload in zip(
            self.sender[rows].tolist(),
            user_sets(self.group[rows]),
            self.size[rows].tolist(),
            self.redundant[rows].tolist(),
            np.cumsum(hi - lo).tolist(),
            payloads if payloads is not None else itertools.repeat(None),
        ):
            out.append(
                XorSymbol(
                    sender, group, tuple(cons[start:end]), sizes[z], payload, redundant
                )
            )
            start = end
        return out


class ListView(Sequence):
    """A read-only list whose items a subclass builds in ``_items()``: every
    item at the first read of any item, then kept, so a later read costs
    what a list's does.  ``len`` is the subclass's own, O(1); a slice is a
    list, and ``==`` and ``repr`` are those of the list of every item."""

    __hash__ = None  # type: ignore[assignment]
    _built: Optional[list] = None

    def _items(self) -> list:
        raise NotImplementedError

    def _list(self) -> list:
        if self._built is None:
            self._built = self._items()
        return self._built

    def __getitem__(self, i):
        return self._list()[i]

    def __iter__(self):
        return iter(self._list())

    def __eq__(self, other):
        if isinstance(other, ListView):
            other = other._list()
        return self._list() == other if isinstance(other, list) else NotImplemented

    def __add__(self, other):
        if isinstance(other, ListView):
            other = other._list()
        return self._list() + other if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return repr(self._list())


class Symbols(ListView):
    """The rows of a :class:`SymbolTable` as a read-only list: item i is the
    ``XorSymbol`` of row i."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table

    def __len__(self) -> int:
        return len(self.table)

    def _items(self) -> list:
        return self.table.symbols(np.arange(len(self)))


def server_multicast(
    K: int, demands: Sequence[int], runs: Sequence[tuple[int, str, Frac, bool]]
) -> Symbols:
    """The server's symbols in both schemes, the classic multicast of
    Maddah-Ali and Niesen, written straight into a table.

    Each run (s, part, size, redundant), in order, sends for every s-subset
    S of users 1..K, in lex order, one symbol of ``size`` (flagged
    ``redundant``) from the server to everyone, which XORs for each k in S
    the fragment (d_k, S\\{k}, part, 0, 1) with receiver k: a constituent's
    subset is S's mask with its receiver's bit cleared."""
    W = words(K)
    sizes: dict = {}
    parts: dict = {}
    sets = [np.array(enumerate_subsets(K, s), np.int64).reshape(-1, s) for s, *_ in runs]
    n = np.array([len(S) for S in sets], np.int64)
    arity = np.array([s for s, *_ in runs], np.int64)
    receiver = np.concatenate([np.zeros(0, np.int64)] + [S.ravel() for S in sets])
    rest = np.concatenate(
        [np.zeros((0, W), np.int64)]
        + [(masks(S, W)[:, None] ^ masks(S[:, :, None], W)).reshape(-1, W) for S in sets]
    )
    table = SymbolTable(
        np.zeros(n.sum(), np.int32),
        np.repeat(masks(np.arange(1, K + 1), W)[None], n.sum(), axis=0),
        np.repeat(table_rows([size for _, _, size, _ in runs], sizes), n),
        np.repeat(np.array([redundant for *_, redundant in runs], bool), n),
        offsets(np.repeat(arity, n)),
        receiver.astype(np.int32),
        np.array((0, *demands), np.int64)[receiver],
        rest,
        np.repeat(table_rows([part for _, part, _, _ in runs], parts), n * arity),
        np.zeros(len(receiver), np.int32),
        np.ones(len(receiver), np.int32),
        list(sizes), list(parts),
    )
    return Symbols(table)


class UserRounds(ListView):
    """User rounds held as columns: round i, labelled ``labels[i]``, holds
    the symbols of rows ``starts[i]:starts[i + 1]`` of ``table``.  Its
    partition is not stored: it is the distinct groups of those symbols,
    ordered by smallest member, built for every round when any round or
    :meth:`outline` is read.  Every group of a round the schedulers
    build sends, so that is the partition the round ran."""

    def __init__(self, labels: list[int], starts: np.ndarray, table: SymbolTable) -> None:
        self.labels, self.starts, self.table = labels, starts, table

    def __len__(self) -> int:
        return len(self.labels)

    def _partitions(self) -> list[tuple]:
        """The groups of every round, one tuple of groups per round."""
        starts, n = self.starts, len(self)
        group, first = distinct(*self.table.group[starts[0] : starts[-1]].T)
        groups = user_sets(self.table.group[starts[0] + first])
        smallest = np.array([g[0] if g else 0 for g in groups], np.int64)
        rnd = np.repeat(np.arange(n), np.diff(starts))
        # each round's distinct groups, by smallest member
        _, first = distinct(group, smallest[group], rnd)
        rows = group[first].tolist()
        cuts = np.searchsorted(rnd[first], np.arange(n + 1)).tolist()
        return [tuple(groups[g] for g in rows[a:b]) for a, b in zip(cuts, cuts[1:])]

    def _items(self) -> list:
        starts = self.starts.tolist()
        base = starts[0]
        symbols = self.table.symbols(np.arange(base, starts[-1]))
        return [
            (GroupPartition(groups, label), symbols[a - base : b - base])
            for groups, label, a, b in zip(self._partitions(), self.labels, starts, starts[1:])
        ]

    def outline(self) -> list[tuple[tuple, int, int]]:
        """Each round's groups, label and symbol count, building no object."""
        return list(zip(self._partitions(), self.labels, np.diff(self.starts).tolist()))

    @classmethod
    def of(cls, rounds: Sequence) -> "UserRounds":
        """``rounds``, a view or a list of (GroupPartition, symbols) pairs,
        as a view: a view is returned as it is, its table not copied; a
        list's symbols pass through the adapter into a table of their own."""
        if isinstance(rounds, UserRounds):
            return rounds
        return cls(
            [part.round_index for part, _ in rounds],
            offsets(len(syms) for _, syms in rounds),
            SymbolTable.from_symbols([sym for _, syms in rounds for sym in syms]),
        )


@dataclass
class DeliverySchedule:
    """Complete delivery plan: parallel user rounds plus server symbols.

    Each user round is a (GroupPartition, symbols) pair; all symbols in the
    round are sent by members of the partition's groups, one active sender
    per group at a time.  ``user_rounds`` is a list of those pairs, or a
    :class:`UserRounds` view of rounds held as columns, which builds them
    all at the first read and compares equal to the list;
    ``server_symbols`` is a list, or the :class:`Symbols` view
    :func:`server_multicast` returns.
    """

    user_rounds: Sequence[tuple[GroupPartition, list[XorSymbol]]] = field(
        default_factory=list
    )
    server_symbols: Sequence[XorSymbol] = field(default_factory=list)

    def user_symbol_count(self) -> int:
        return len(UserRounds.of(self.user_rounds).table)

    def round_outline(self) -> list[tuple[tuple, int, int]]:
        """Each user round's groups, round index and symbol count, read off
        the rounds' columns."""
        return UserRounds.of(self.user_rounds).outline()
