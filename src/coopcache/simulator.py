"""End-to-end schedule execution, load measurement, and decode verification.

Two link classes run in parallel: the server's broadcast link and the user
cooperation links.  A schedule is executed into a :class:`TransmissionLog`
whose slots are per-link ordering indices — the server timeline and the user
timeline both start at slot 0 and overlap in wall-clock time, which is what
makes the delay max{R1, R2} rather than a sum.

Two payload modes:

* fluid — symbols carry exact rational sizes (fractions of F); measured
  loads must equal the closed-form rates exactly, no tolerance;
* bits — a concrete :class:`BitLibrary` is materialised, fragments map to
  real bit positions, symbols carry XOR payloads, and decoding is checked
  bit-for-bit.

Loads: R1 is the total on the server link; R2 sums, round by round, the
busiest cooperation lane (groups inside one round transmit in parallel, so
the round lasts as long as its most loaded group).  Both are summed as
integer numerators over the lcm of the log's size denominators (bit counts
over F in bit mode), in Python ints so that none overflows, and become one
Fraction at the end.

Both schemes lay out a needed subfile of n bits by one rule: part "full" is
all of it, "s" the server's first floor(lambda*n) bits, and "u" the rest,
cut into L1 equal slices (1 decentralized) of count/L1 near-equal fragments;
"u1"/"u2" split the rest at floor(lambda2 * its length), lambda2 being the
split of the round serving |T|, then cut near-equally.  A fragment's fluid
size is its part's share over its count, times its subfile's size.

Schedules and logs are held as int columns (``model.SymbolTable``), each
set of users (a group, a caching set, the receivers) as a mask row of int64
words (``model.masks``).  Both schedulers build their user rounds as
columns and their server symbols through one builder,
``model.server_multicast``, and :func:`execute_schedule` writes each log
entry as a row of :class:`LogColumns`, its receivers its group's mask
without the sender's bit, with each round's lanes slotted by one stable
sort; its symbol is a row of the server's table or of the user rounds'
table, each read where the schedule holds it.
Only symbols given as value objects, user rounds or server symbols
assigned as a list, come in through one adapter
(``SymbolTable.from_symbols``), and so does a log given as a list of
entries.  ``schedule.user_rounds``, ``schedule.server_symbols`` and
``log.entries`` are read-only views (``model.UserRounds``,
``model.Symbols``, :class:`LogEntries`): every ``LogEntry``, ``XorSymbol``
and fragment of a view is built at the first read of any of its items,
then kept, and a view compares equal to the list it stands for and
prints as it.  Loads, the slot discipline, the export and the decode
check read the columns, so a run builds no value object unless one is
read.

Both schemes run through one path.  ``run_centralized`` and
``run_decentralized`` each supply only their scheme's front half: placement,
delivery schedule, fragment resolver and closed-form rates.  The shared
back half checks the mode (bit mode needs ``config.F``) and the demands
before any of that is built, then builds the library, executes the
schedule, measures R1 and R2 against the closed forms, and runs the decode
check of :mod:`coopcache.decode`, which imports nothing from here.

A run leaves the cyclic garbage collector alone and builds no cyclic
data: no per-row Python object, so reference counting frees it all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as Frac
from functools import cached_property
from itertools import islice
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .centralized import (
    CentralPlacement,
    _delivery,
    build_central_placement,
    check_schedule_size,
)
from .closed_forms import (
    AllocationPlan,
    SplitPlan,
    centralized_rates,
    decentralized_rates,
    make_split_plan,
)
from .config import MAX_BIT_BYTES, SystemConfig
from .decentralized import (
    DecentralPlacement,
    build_decentral_delivery,
    build_decentral_placement,
    caching_sets,
    check_run_size,
)
from .decode import _first_decode_failure
from .model import (
    DeliverySchedule,
    FragmentId,
    ListView,
    SymbolTable,
    Symbols,
    UserRounds,
    XorSymbol,
    distinct,
    int_column,
    mask_rows,
    masks,
    occurrences,
    offsets,
    pack,
    ranges,
    stable_order,
    table_rows,
    user_sets,
    validate_demands,
    widen,
)

# ---------------------------------------------------------------------------
# library and log
# ---------------------------------------------------------------------------


@dataclass
class BitLibrary:
    """N independent F-bit files, deterministically regenerable from seed."""

    N: int
    F: int
    seed: int
    files: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, N: int, F: int, seed: int = 0) -> "BitLibrary":
        lib = cls(N, F, seed)
        for n in range(1, N + 1):
            rng = np.random.default_rng((seed, n))
            lib.files[n] = rng.integers(0, 2, size=F, dtype=np.uint8)
        return lib


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One transmitted symbol: where it sat in its link's timeline and who
    heard it.  ``bits`` is an int (bit mode) or a fraction of F (fluid)."""

    slot: int
    round_index: int  # -1 for the server link
    sender: int  # 0 = server
    group: tuple[int, ...]
    receivers: tuple[int, ...]
    bits: Union[int, Frac]
    symbol: XorSymbol


@dataclass
class LogColumns:
    """A log's entries as int columns.

    Per entry: ``slot``, ``round`` (the round index), ``sender``, ``group``
    and ``receivers`` (mask rows, of one width), ``size`` (a row of
    ``sizes``: the entry's ``bits``); in bit mode ``payloads`` holds each
    entry's payload.  ``sizes`` holds distinct values.  ``symbols`` holds
    the entries' symbols as runs of (table, rows) pairs, the entries in
    order: each run's entries are the symbols at ``rows`` of ``table``.  A
    table is read as the schedule holds it, never copied.
    """

    slot: np.ndarray
    round: np.ndarray
    sender: np.ndarray
    group: np.ndarray
    receivers: np.ndarray
    size: np.ndarray
    sizes: list[Union[int, Frac]]
    symbols: list[tuple[SymbolTable, np.ndarray]]
    payloads: Optional[list] = None

    @classmethod
    def from_entries(cls, entries: Sequence[LogEntry]) -> "LogColumns":
        """The adapter for a log given as a list of entries."""
        sizes: dict = {}
        symbols = [e.symbol for e in entries]
        group, receivers = pack([e.group for e in entries], [e.receivers for e in entries])
        return cls(
            int_column(entries, "slot", np.int64),
            int_column(entries, "round_index", np.int64),
            int_column(entries, "sender", np.int64),
            group,
            receivers,
            table_rows([e.bits for e in entries], sizes),
            list(sizes),
            [(SymbolTable.from_symbols(symbols), np.arange(len(entries)))],
            [sym.payload for sym in symbols],
        )


class LogEntries(ListView):
    """A log's entries as a read-only view of its :class:`LogColumns`:
    ``len`` reads a column, and every ``LogEntry`` is built at the first
    read of any."""

    def __init__(self, columns: LogColumns) -> None:
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns.slot)

    def _items(self) -> list:
        c = self.columns
        payloads = c.payloads if c.payloads is not None else [None] * len(c.slot)
        cuts = offsets(len(rows) for _, rows in c.symbols).tolist()
        symbols = [
            sym
            for (table, rows), a, b in zip(c.symbols, cuts, cuts[1:])
            for sym in table.symbols(rows, payloads[a:b])
        ]
        return list(
            map(
                LogEntry,
                c.slot.tolist(),
                c.round.tolist(),
                c.sender.tolist(),
                user_sets(c.group),
                user_sets(c.receivers),
                [c.sizes[i] for i in c.size.tolist()],
                symbols,
            )
        )


@dataclass
class TransmissionLog:
    """Ordered record of an executed schedule, with load accounting.

    ``entries`` is a list of ``LogEntry``, or the :class:`LogEntries` view
    that :func:`execute_schedule` makes.  Loads, the slot discipline, the
    export and the decode check all read the entries' columns: a view's
    own, or those the adapter makes from a list.
    """

    config: SystemConfig
    mode: str  # "fluid" | "bits"
    entries: Sequence[LogEntry] = field(default_factory=list)
    resolver: Optional["FragmentResolver"] = None

    def columns(self) -> LogColumns:
        if isinstance(self.entries, LogEntries):
            return self.entries.columns
        return LogColumns.from_entries(self.entries)

    def _numerators(self, c: LogColumns) -> tuple[list[int], int]:
        """Each size's integer numerator over one denominator, and that
        denominator as a fraction of F: the lcm of the sizes' denominators
        (an int size has 1), times F in bit mode."""
        ratios = [x.as_integer_ratio() for x in c.sizes]
        den = math.lcm(*{d for _, d in ratios})
        unit = self.config.F if self.mode == "bits" else 1
        return [n * (den // d) for n, d in ratios], den * unit

    def server_load(self) -> Frac:
        """Total traffic on the server link, as a fraction of F."""
        c = self.columns()
        nums, den = self._numerators(c)
        counts = np.bincount(c.size[c.sender == 0], minlength=len(nums)).tolist()
        return Frac(sum(n * k for n, k in zip(nums, counts)), den)

    def user_load(self) -> Frac:
        """Cooperation-link delay: per round, the busiest lane; summed.
        The sums are taken over Python ints, so no numerator overflows."""
        c = self.columns()
        nums, den = self._numerators(c)
        user = c.sender != 0
        if not user.any():
            return Frac(0)
        lanes, first = distinct(*c.group[user].T, c.round[user])
        loads = np.zeros(len(first), dtype=object)
        np.add.at(loads, lanes, np.array(nums, dtype=object)[c.size[user]])
        rnd = c.round[user][first]  # lanes come round by round
        rounds = np.flatnonzero(np.diff(rnd, prepend=rnd[0] - 1))
        return Frac(sum(np.maximum.reduceat(loads, rounds).tolist()), den)

    def delay(self) -> Frac:
        return max(self.server_load(), self.user_load())

    def verify_slot_discipline(self) -> None:
        """Each slot: at most one server symbol; user senders bounded by
        alpha_max and their groups pairwise disjoint.  User slots are
        checked in the order they first appear, each for its sender count
        before its groups."""
        c = self.columns()
        server = c.sender == 0
        slots = c.slot[server]
        _, first = distinct(slots)
        if len(first) < len(slots):
            repeat = np.ones(len(slots), dtype=bool)
            repeat[first] = False
            raise ValueError(f"two server symbols in slot {slots[repeat][0]}")
        slots, group = c.slot[~server], c.group[~server]
        if not len(slots):
            return
        ids, first = distinct(slots)
        senders = np.bincount(ids)
        # a slot's groups are pairwise disjoint iff, word by word, their
        # member counts add up to the member count of their union
        group = group[stable_order(ids)]
        starts = offsets(senders)[:-1]
        union = np.bitwise_or.reduceat(group, starts, axis=0)
        counted = np.add.reduceat(np.bitwise_count(group), starts, axis=0, dtype=np.int64)
        overlap = (counted != np.bitwise_count(union)).any(axis=1)
        crowded = senders > self.config.alpha_max
        bad = np.flatnonzero(crowded | overlap)
        if not len(bad):
            return
        worst = bad[np.argmin(first[bad])]
        slot = slots[first[worst]]
        if crowded[worst]:
            raise ValueError(
                f"slot {slot} has {senders[worst]} user senders "
                f"(alpha_max={self.config.alpha_max})"
            )
        raise ValueError(f"slot {slot} has overlapping groups")

    def export_lines(self) -> list[str]:
        """Stable text export, one record per symbol.

        Format: header ``slot,sender,receivers,bits`` then one line per
        entry; receivers are '|'-joined user ids; bits is an integer in bit
        mode and an exact fraction of F (like ``1/45``) in fluid mode.
        """
        c = self.columns()
        row, first = distinct(*c.receivers.T)
        receivers = ["|".join(map(str, users)) for users in user_sets(c.receivers[first])]
        bits = [str(x) for x in c.sizes]
        return ["slot,sender,receivers,bits"] + [
            f"{slot},{sender},{receivers[r]},{bits[z]}"
            for slot, sender, r, z in zip(
                c.slot.tolist(), c.sender.tolist(), row.tolist(), c.size.tolist()
            )
        ]


# ---------------------------------------------------------------------------
# fragment resolution: fragment id -> exact size / concrete bit positions
# ---------------------------------------------------------------------------


class FragmentResolver:
    """Maps fragment ids to exact sizes (fluid) or bit positions (bits).

    This is protocol knowledge — placement layout plus the public split
    plan — available to every decoder, as opposed to the scheduler's private
    bookkeeping of who decodes what when.  It holds the layout rule of the
    module docstring, in one array rule (:meth:`_spans`); a subclass
    supplies its subfile table (``subfile_masks``, each subfile's mask row,
    in row order; ``subfile_size`` of |T| only, ``subfile_positions``,
    ``subfile_lengths``) and ``span_index``, what indexes a file's bits at
    a span of :meth:`frag_spans`.  :meth:`subfile_rows` maps masks to
    subfile rows.
    """

    def __init__(
        self, server_share: Frac, slices: int, lambda2_by_round: dict[int, Frac]
    ) -> None:
        self._lam = server_share
        self._slices = slices
        self._lam2 = lambda2_by_round

    def _cuts(self, part: str, size: int) -> tuple[tuple[Frac, bool], ...]:
        """The part as cuts from the whole subfile of a |T| = ``size``
        subset: each (share, keep_rest) cuts the current range at ``share``
        of its length and keeps the head, or with keep_rest the tail."""
        if part == "full":
            return ()
        if part in ("s", "u"):
            return ((self._lam, part == "u"),)
        if part in ("u1", "u2"):
            lam2 = self._lam2.get(size + 1)  # round s serves |T| = s - 1
            if lam2 is None:
                raise ValueError(f"part {part!r}: no lambda2 split for |T|={size}")
            return ((self._lam, True), (lam2, part == "u2"))
        raise ValueError(f"unknown fragment part {part!r}")

    def subfile_keys(self) -> list[tuple[int, ...]]:
        """Each subfile's caching set T, in row order."""
        return user_sets(self.subfile_masks)

    def subfile_rows(self, rows: np.ndarray) -> np.ndarray:
        """The subfile row of each mask row in ``rows``, -1 where none."""
        return mask_rows(self.subfile_masks, rows)

    def frag_size(self, frag: FragmentId) -> Frac:
        return self.fragment_size(frag.part, frag.count, frag.subset)

    def fragment_size(self, part: str, count: int, subset: tuple[int, ...]) -> Frac:
        """Size of each of the ``count`` equal fragments of ``part`` of a
        subfile W_{n,subset}, for any n, as a fraction of F."""
        share = Frac(1)
        for cut, keep_rest in self._cuts(part, len(subset)):
            share *= 1 - cut if keep_rest else cut
        return share / count * self.subfile_size(subset)

    def _part_bounds(self, part: str, size: int, n: int) -> tuple[int, int, int]:
        """[lo, hi) of ``part`` inside a subfile of ``n`` bits of a |T| =
        ``size`` subset, and the number of slices it is cut into."""
        lo, hi = 0, n
        for cut, keep_rest in self._cuts(part, size):
            mid = lo + math.floor(cut * (hi - lo))
            lo, hi = (mid, hi) if keep_rest else (lo, mid)
        return lo, hi, self._slices if part == "u" else 1

    def _spans(
        self,
        parts: Sequence[str],
        part: np.ndarray,
        size: np.ndarray,
        n: np.ndarray,
        count: np.ndarray,
        index: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """[lo, hi) of each fragment inside its subfile of ``n`` bits, in
        one array pass: fragment ``index`` of ``count`` of part ``parts[part]``
        of a |T| = ``size`` subfile.  Part bounds are worked out once per
        (part, |T|, length); the slices of a part are cut near-equally, the
        longer ones first, as ``np.array_split`` cuts."""
        shape, first = distinct(n, size, part)
        bounds = np.array(
            [
                self._part_bounds(parts[p], z, m)
                for p, z, m in zip(
                    part[first].tolist(), size[first].tolist(), n[first].tolist()
                )
            ],
            np.int64,
        ).reshape(-1, 3)
        lo, hi, slices = bounds[shape].T
        bad = np.flatnonzero(count % slices)
        if len(bad):
            raise ValueError(
                f"fragment count {count[bad[0]]} does not refine {slices[bad[0]]} slices"
            )
        per_slice = count // slices
        width = (hi - lo) // slices
        i = index % per_slice
        q, r = np.divmod(width, per_slice)
        start = lo + index // per_slice * width + i * q + np.minimum(i, r)
        return start, start + q + (i < r)

    def frag_spans(
        self,
        parts: Sequence[str],
        file: np.ndarray,
        subset: np.ndarray,
        part: np.ndarray,
        index: np.ndarray,
        count: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`_spans` of fragments given as columns, ``subset`` mask
        rows and ``part`` rows of ``parts``: each one's subfile, as a row of
        ``subfile_keys()``, and its [lo, hi) inside that subfile's position
        run."""
        sub = self.subfile_rows(subset)
        if (sub < 0).any():
            raise KeyError(user_sets(subset[sub < 0])[0])
        size = np.bitwise_count(subset).sum(axis=1, dtype=np.int64)
        return sub, *self._spans(
            parts, part, size, self.subfile_lengths(file, sub), count, index
        )

    def frag_positions(self, frag: FragmentId) -> np.ndarray:
        """The fragment's bit positions in its file (:meth:`_spans`)."""
        pos = self.subfile_positions(frag.file, frag.subset)
        one = (np.array([x]) for x in (0, len(frag.subset), len(pos), frag.count, frag.index))
        (lo,), (hi,) = self._spans([frag.part], *one)
        return pos[lo:hi]

    def span_bits(
        self, library: BitLibrary, file: int, sub: int, lo: int, hi: int
    ) -> np.ndarray:
        """The file's bits at a span of :meth:`frag_spans`."""
        return library.files[file][self.span_index(file, sub, lo, hi)]


def required_central_F(config: SystemConfig, plan: SplitPlan) -> int:
    """Smallest F for which every centralized fragment is a whole number of
    bits: the subfile, its server share, and each of the L1 user slices."""
    t = int(config.t)
    C = math.comb(config.K, t)
    dens = [
        Frac(1, C).denominator,
        (plan.server_share / C).denominator,
        ((1 - plan.server_share) / (C * plan.L1)).denominator,
    ]
    return math.lcm(*dens)


def check_central_F(F: int, config: SystemConfig, plan: SplitPlan) -> None:
    """Refuse a file size F that leaves some centralized fragment a
    fractional number of bits (:func:`required_central_F`)."""
    need = required_central_F(config, plan)
    if F % need:
        raise ValueError(f"F={F} cannot be split exactly; use a multiple of {need}")


class CentralFragmentResolver(FragmentResolver):
    """Contiguous centralized layout: file bits split into C(K,t) equal
    subfiles in lexicographic subset order, each with L1 user slices that a
    schedule may refine into rho fragments (count = L1*rho).  Layout is
    file-independent."""

    def __init__(
        self,
        placement: CentralPlacement,
        plan: SplitPlan,
        F: Optional[int] = None,
    ) -> None:
        super().__init__(plan.server_share, plan.L1, {})
        self.subfile_masks = placement.subset_masks
        self._subfile_size = Frac(1, len(self.subfile_masks))
        if F is not None:
            check_central_F(F, placement.config, plan)
            self.sub_len = F // len(self.subfile_masks)

    def subfile_size(self, T: tuple[int, ...]) -> Frac:
        return self._subfile_size

    def subfile_positions(self, file: int, T: tuple[int, ...]) -> np.ndarray:
        (row,) = self.subfile_rows(pack([T])[0])
        if row < 0:
            raise KeyError(T)
        start = row * self.sub_len
        return np.arange(start, start + self.sub_len)

    def subfile_lengths(self, files: np.ndarray, subs: np.ndarray) -> np.ndarray:
        return np.full(len(subs), self.sub_len, np.int64)

    def span_index(self, file: int, sub: int, lo: int, hi: int) -> slice:
        """A slice of the file: the subfile is one contiguous run."""
        start = sub * self.sub_len
        return slice(start + lo, start + hi)


class DecentralFragmentResolver(FragmentResolver):
    """Random-placement layout: subfile positions from the placement, each
    subfile laid out by the shared rule with one user slice.  In bit mode
    a span is read straight off the run of the file's compact placement
    order that holds its subfile."""

    def __init__(self, placement: DecentralPlacement, plan: AllocationPlan) -> None:
        super().__init__(plan.server_share, 1, plan.lambda2_by_round)
        self.placement = placement
        self.subfile_masks = caching_sets(placement.config.K)

    def subfile_size(self, T: tuple[int, ...]) -> Frac:
        return self.placement.subfile_size(T)

    def subfile_positions(self, file: int, T: tuple[int, ...]) -> np.ndarray:
        return self.placement.subfile_positions[(file, T)]

    @cached_property
    def _runs(self) -> tuple[np.ndarray, np.ndarray]:
        """[lo, hi) of each subfile's run of its file's compact order, as
        (file - 1, subfile row) tables (bit mode)."""
        bounds, code = self.placement.bounds, self.subfile_masks[:, 0] >> 1
        return bounds[:, code], bounds[:, code + 1]

    def subfile_lengths(self, files: np.ndarray, subs: np.ndarray) -> np.ndarray:
        lo, hi = self._runs
        return hi[files - 1, subs] - lo[files - 1, subs]

    def span_index(self, file: int, sub: int, lo: int, hi: int) -> np.ndarray:
        """A view of the file's compact placement order at the span."""
        start = self._runs[0][file - 1, sub]
        return self.placement.orders[file - 1, start + lo : start + hi]


# ---------------------------------------------------------------------------
# schedule execution
# ---------------------------------------------------------------------------


def _payloads(
    table: SymbolTable, rows: np.ndarray, resolver: FragmentResolver, library: BitLibrary
) -> list[np.ndarray]:
    """Per symbol row, the XOR of its constituents' library bits, as long
    as the longest of them (bit mode), read through their spans."""
    lo, hi = table.cstart[rows], table.cstart[rows + 1]
    at = ranges(lo, hi)
    file = table.file[at]
    sub, start, stop = resolver.frag_spans(
        table.parts, file, table.subset[at], table.part[at], table.index[at], table.count[at]
    )
    spans = zip(file.tolist(), sub.tolist(), start.tolist(), stop.tolist())
    out = []
    for n in (hi - lo).tolist():
        parts = [resolver.span_bits(library, *span) for span in islice(spans, n)]
        payload = np.zeros(max(map(len, parts), default=0), dtype=np.uint8)
        for p in parts:
            payload[: len(p)] ^= p
        out.append(payload)
    return out


def _slots(rnd: np.ndarray, lane: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entry order and slots of the user symbols, given each one's round
    (nondecreasing) and lane (its group's mask row).

    Each round packs its lanes in parallel: a lane's j-th symbol sits in the
    round's relative slot j, the symbols of one slot go in the order their
    lanes first appear in the round, and the round lasts as long as its
    longest lane.  Returns the symbols in entry order and, in that order,
    their slots."""
    lanes, first, pos = occurrences(*lane.T, rnd)
    depth = np.zeros(rnd[-1] + 1 if len(rnd) else 0, np.int64)
    np.maximum.at(depth, rnd, pos + 1)
    order = stable_order(first[lanes], pos, rnd)
    return order, (offsets(depth)[rnd] + pos)[order]


def execute_schedule(
    config: SystemConfig,
    schedule: DeliverySchedule,
    resolver: FragmentResolver,
    mode: str,
    library: Optional[BitLibrary] = None,
) -> TransmissionLog:
    """Run a built schedule into a transmission log held as columns.

    Server symbols occupy their own link's slots 0..; each user round packs
    its lanes in parallel (:func:`_slots`).  Bit mode attaches XOR payloads
    and counts real lengths; fluid mode carries the symbols' rational sizes.
    Symbols given as a list, of user rounds or server symbols, come in
    through the adapter; a ``UserRounds`` or ``model.Symbols`` view's
    table is read as it is.  The log's entries are rows of the server's
    table, then rows of the user rounds' table (``LogColumns.symbols``):
    neither table is copied or joined to the other.
    """
    if mode == "bits" and library is None:
        raise ValueError("bit mode needs a BitLibrary")
    server = schedule.server_symbols
    server = server.table if isinstance(server, Symbols) else SymbolTable.from_symbols(server)
    rounds = UserRounds.of(schedule.user_rounds)
    base, end = rounds.starts[0], rounds.starts[-1]
    user = rounds.table
    rnd = np.repeat(np.arange(len(rounds)), np.diff(rounds.starts))
    order, slot = _slots(rnd, user.group[base:end])
    rows = order + base
    symbols = [(server, np.arange(len(server))), (user, rows)]
    sender = np.concatenate([server.sender, user.sender[rows]])
    group = np.concatenate(widen(server.group, user.group[rows]))
    receivers = group & ~masks(sender[:, None], group.shape[1])
    if mode == "fluid":
        merged: dict = {}  # the tables' sizes, merged by value
        size = np.concatenate([table_rows(t.sizes, merged)[t.size[r]] for t, r in symbols])
        sizes, payloads = list(merged), None
    else:
        payloads = [p for t, r in symbols for p in _payloads(t, r, resolver, library)]
        lengths = np.fromiter(map(len, payloads), np.int64, len(payloads))
        bit_counts, size = np.unique(lengths, return_inverse=True)
        sizes = bit_counts.tolist()
    labels = np.array(rounds.labels, np.int64)
    columns = LogColumns(
        np.concatenate([np.arange(len(server)), slot]),
        np.concatenate([np.full(len(server), -1), labels[rnd[order]]]),
        sender,
        group,
        receivers,
        size,
        sizes,
        symbols,
        payloads,
    )
    log = TransmissionLog(config, mode, LogEntries(columns), resolver)
    log.verify_slot_discipline()
    return log


# ---------------------------------------------------------------------------
# rate reporting and the end-to-end runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateReport:
    """Measured loads next to their closed-form targets.

    ``R1``/``R2`` are what the log realises (server link, cooperation
    links); ``T`` = max{R1, R2} is the realised delay.  ``closed_T`` is the
    scheme's headline delay formula — for the decentralized scheme that
    formula sits at or below the balanced max{R1, R2}.  The splits and
    component rates behind the targets are on ``SimulationResult.plan``.
    """

    R1: Frac
    R2: Frac
    closed_R1: Frac
    closed_R2: Frac
    closed_T: Frac

    @property
    def T(self) -> Frac:
        return max(self.R1, self.R2)

    @property
    def matches_closed(self) -> bool:
        return self.R1 == self.closed_R1 and self.R2 == self.closed_R2


@dataclass
class SimulationResult:
    """One end-to-end run.  On a failed decode check ``decode_failure``
    holds the first user, file and subfile that cannot be recovered."""

    log: TransmissionLog
    decode_ok: bool
    rates: RateReport
    plan: object
    schedule: DeliverySchedule
    placement: object
    library: Optional[BitLibrary] = None
    decode_failure: Optional[tuple[int, int, tuple[int, ...]]] = None


def check_mode(config: SystemConfig, mode: str, orders: bool = False) -> None:
    """Refuse an unknown payload mode, bit mode without ``config.F``, and a
    bit run whose arrays, counted in closed form before any is allocated,
    take more than ``MAX_BIT_BYTES``: the library's byte per bit of each of
    the N files and, with ``orders`` (decentralized), the placement's
    position order of each file, in the smallest dtype that holds F - 1."""
    if mode not in ("fluid", "bits"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "fluid":
        return
    if config.F is None:
        raise ValueError("bit mode needs a file size F")
    N, F = config.N, config.F
    need = N * F * (1 + (np.min_scalar_type(F - 1).itemsize if orders else 0))
    if need > MAX_BIT_BYTES:
        held = "library and placement orders" if orders else "library"
        raise ValueError(
            f"bit run at N={N}, F={F} needs {need} bytes for its {held}, "
            f"above the limit of {MAX_BIT_BYTES}"
        )


def _run(
    config: SystemConfig,
    demands: Optional[Sequence[int]],
    seed: int,
    mode: str,
    front: Callable[[tuple[int, ...]], tuple],
    orders: bool = False,
) -> SimulationResult:
    """The back half of a run, shared by both schemes (module docstring).
    ``front(demands)`` builds the scheme's (placement, plan, schedule,
    resolver, closed rates) once the mode (:func:`check_mode`, with
    ``orders`` when the placement holds position orders) and demands have
    passed."""
    check_mode(config, mode, orders)
    if seed < 0:  # the bit library's generator takes no negative seed
        raise ValueError(f"seed must be non-negative, got {seed}")
    demands = validate_demands(
        config, demands if demands is not None else list(config.users())
    )
    placement, plan, schedule, resolver, closed = front(demands)
    library = BitLibrary.build(config.N, config.F, seed) if mode == "bits" else None
    log = execute_schedule(config, schedule, resolver, mode, library)
    rates = RateReport(log.server_load(), log.user_load(), closed.R1, closed.R2, closed.T)
    failure = _first_decode_failure(log, demands, library)
    return SimulationResult(
        log, failure is None, rates, plan, schedule, placement, library, failure
    )


def run_centralized(
    config: SystemConfig,
    demands: Optional[Sequence[int]] = None,
    seed: int = 0,
    mode: str = "fluid",
    alpha: Optional[int] = None,
    server_share: Optional[Frac] = None,
) -> SimulationResult:
    """Place, schedule, execute, measure, and decode the centralized scheme.

    Needs integer t.  Bit mode needs config.F divisible by the split
    denominators (the error message names the required multiple); demands
    default to user k wanting file k.
    """

    def front(demands):
        # the schedule's size guard, then the file size, are checked before
        # the placement is enumerated, and the placement the user schedule
        # built is reused
        plan = make_split_plan(config, alpha, server_share)
        check_schedule_size(config, plan)
        if mode == "bits":
            check_central_F(config.F, config, plan)
        schedule, placement = _delivery(config, plan, demands)
        if placement is None:  # users deliver nothing
            placement = build_central_placement(config)
        F = config.F if mode == "bits" else None
        resolver = CentralFragmentResolver(placement, plan, F)
        closed = centralized_rates(
            config, alpha=plan.alpha, server_share=plan.server_share
        )
        return placement, plan, schedule, resolver, closed

    return _run(config, demands, seed, mode, front)


def run_decentralized(
    config: SystemConfig,
    demands: Optional[Sequence[int]] = None,
    seed: int = 0,
    mode: str = "fluid",
) -> SimulationResult:
    """Place, schedule, execute, measure, and decode the decentralized
    scheme.  Fluid mode must reproduce the component rate identities
    exactly; bit mode is the convergence/decode oracle.  A config that
    ``check_run_size`` refuses raises its ValueError before placement."""

    def front(demands):
        check_run_size(config)
        placement = build_decentral_placement(config, seed=seed, mode=mode)
        plan, schedule = build_decentral_delivery(config, placement, demands)
        resolver = DecentralFragmentResolver(placement, plan)
        return placement, plan, schedule, resolver, decentralized_rates(config)

    return _run(config, demands, seed, mode, front, orders=True)
