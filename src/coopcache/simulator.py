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

:func:`brute_force_decode_check` re-derives what every user can decode by
peeling: starting from its cache, a user resolves any received symbol with
exactly one unknown constituent, until no symbol resolves anything more.
Each check first interns the log from its columns and its resolver, and
nothing else, in both modes: fragment ids come from one sort of the
constituents' key columns (file, subset mask, part, count, index), read by
value, so no id the scheduler chose is used; fragments sharing (file,
subset, part, count) form a group, whose subfile and size (a numerator
over one common denominator in fluid mode; in bit mode each fragment's
[lo, hi) span in its subfile, from one array pass of the resolver) are
worked out once; every nonempty constituent becomes one row of columns:
its fragment id and the mask of the users who hear it and do not cache
it, so that whether a user must learn it is one shift and one AND.  The
tables live for that one call, and nothing is cached on the log.

A user's peeling closure, what it ends up knowing, is the same whatever
order symbols resolve in.  So each user's closure is computed on numpy
columns, every ready symbol at once (the peeling decoder of Luby's LT codes
run in rounds): it counts each entry's unknown constituents, learns the one
unknown of every entry with a count of 1, and recounts only the entries
that still hold two or more.  In fluid mode coverage then sums, per needed
subfile, each group's learned count times its size, in Python ints.

In bit mode each entry's payload is first checked once against the XOR of
its constituents' library bits, at the length of the longest.  If every
entry agrees, every fragment a user learns carries its library bits, so
the verdict is the closure plus bit coverage: per needed subfile, the union
of the learned fragments' spans.  Otherwise which payload a user learns can
depend on the order (a corrupted log may carry two versions of a
fragment), so each user peels its received symbols in repeated in-order
sweeps, and the file is reassembled bit for bit; an entry whose payload is
not as long as its longest constituent teaches nothing.  The check never
consults the scheduler's own coverage bookkeeping, so scheduler bugs cannot
vouch for themselves.  On failure it names the first user, file and
subfile that cannot be recovered.

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
without the sender's bit, with each round's lanes slotted by one stable sort.
Only symbols given as value objects, user rounds or server symbols
assigned as a list, come in through one adapter
(``SymbolTable.from_symbols``), and so does a log given as a list of
entries.  ``schedule.user_rounds``, ``schedule.server_symbols`` and
``log.entries`` are read-only views (``model.UserRounds``,
``model.Symbols``, :class:`LogEntries`): each ``LogEntry``, ``XorSymbol``
and fragment is built only when read, then kept, and a view compares
equal to the list it stands for and prints as it.  Loads, the slot
discipline, the export and the decode check read the columns, so a run
builds no value object unless one is read.

Both schemes run through one path.  ``run_centralized`` and
``run_decentralized`` each supply only their scheme's front half: placement,
delivery schedule, fragment resolver and closed-form rates.  The shared
back half checks the mode (bit mode needs ``config.F``) and the demands
before any of that is built, then builds the library, executes the
schedule, measures R1 and R2 against the closed forms, and runs the decode
check.

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
from .model import (
    DeliverySchedule,
    FragmentId,
    ListView,
    SymbolTable,
    UserRounds,
    XorSymbol,
    distinct,
    has,
    int_column,
    mask_rows,
    masks,
    offsets,
    pack,
    ranges,
    runs,
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
    ``sizes``: the entry's ``bits``) and ``symbol``, the row of ``table``
    that holds its symbol; in bit mode ``payloads`` holds each entry's
    payload.  ``sizes`` holds distinct values.
    """

    slot: np.ndarray
    round: np.ndarray
    sender: np.ndarray
    group: np.ndarray
    receivers: np.ndarray
    size: np.ndarray
    symbol: np.ndarray
    sizes: list[Union[int, Frac]]
    table: SymbolTable
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
            np.arange(len(entries)),
            list(sizes),
            SymbolTable.from_symbols(symbols),
            [sym.payload for sym in symbols],
        )


class LogEntries(ListView):
    """A log's entries as a read-only view of its :class:`LogColumns`:
    ``len`` reads a column, and each ``LogEntry`` is built on demand."""

    def __init__(self, columns: LogColumns) -> None:
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns.slot)

    def _items(self, lo: int, hi: int) -> list:
        c = self.columns
        payloads = None if c.payloads is None else c.payloads[lo:hi]
        return list(
            map(
                LogEntry,
                c.slot[lo:hi].tolist(),
                c.round[lo:hi].tolist(),
                c.sender[lo:hi].tolist(),
                user_sets(c.group[lo:hi]),
                user_sets(c.receivers[lo:hi]),
                [c.sizes[i] for i in c.size[lo:hi].tolist()],
                c.table.symbols(c.symbol[lo:hi], payloads),
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
        lanes, first, _ = distinct(*c.group[user].T, c.round[user])
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
        _, first, _ = distinct(slots)
        if len(first) < len(slots):
            repeat = np.ones(len(slots), dtype=bool)
            repeat[first] = False
            raise ValueError(f"two server symbols in slot {slots[repeat][0]}")
        slots, group = c.slot[~server], c.group[~server]
        if not len(slots):
            return
        ids, first, _ = distinct(slots)
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
        row, first, _ = distinct(*c.receivers.T)
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
        shape, first, _ = distinct(n, size, part)
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
        self, table: SymbolTable, at: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`_spans` of the fragments of constituent rows ``at`` of
        ``table``: each one's subfile, as a row of ``subfile_keys()``, and
        its [lo, hi) inside that subfile's position run."""
        subset = table.subset[at]
        sub = self.subfile_rows(subset)
        if (sub < 0).any():
            raise KeyError(user_sets(subset[sub < 0])[0])
        size = np.bitwise_count(subset).sum(axis=1, dtype=np.int64)
        return sub, *self._spans(
            table.parts, table.part[at], size, self.subfile_lengths(table.file[at], sub),
            table.count[at], table.index[at],
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
    sub, start, stop = resolver.frag_spans(table, at)
    spans = zip(table.file[at].tolist(), sub.tolist(), start.tolist(), stop.tolist())
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
    lanes, first, pos = distinct(*lane.T, rnd)
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
    table is read as it is.
    """
    if mode == "bits" and library is None:
        raise ValueError("bit mode needs a BitLibrary")
    n_server = len(schedule.server_symbols)
    rounds = UserRounds.of(schedule.user_rounds, schedule.server_symbols)
    table = rounds.table  # the server symbols, then the user rounds'
    rnd = np.repeat(np.arange(len(rounds)), np.diff(rounds.starts))
    order, slot = _slots(rnd, table.group[n_server:])
    symbol = np.concatenate([np.arange(n_server), order + n_server])
    sender, group = table.sender[symbol], table.group[symbol]
    receivers = group & ~masks(sender[:, None], group.shape[1])
    if mode == "fluid":
        sizes, size, payloads = table.sizes, table.size[symbol], None
    else:
        payloads = _payloads(table, symbol, resolver, library)
        lengths = np.fromiter(map(len, payloads), np.int64, len(payloads))
        bit_counts, size = np.unique(lengths, return_inverse=True)
        sizes = bit_counts.tolist()
    labels = np.array(rounds.labels, np.int64)
    columns = LogColumns(
        np.concatenate([np.arange(n_server), slot]),
        np.concatenate([np.full(n_server, -1), labels[rnd[order]]]),
        sender,
        group,
        receivers,
        size,
        symbol,
        sizes,
        table,
        payloads,
    )
    log = TransmissionLog(config, mode, LogEntries(columns), resolver)
    log.verify_slot_discipline()
    return log


# ---------------------------------------------------------------------------
# decode verification
# ---------------------------------------------------------------------------


@dataclass
class _LogTables:
    """What the decoder reads off one log, interned by :func:`_intern_log`.

    Each distinct fragment gets an int id, in the sorted order of its key
    (file, subset, part, count, index), and ``frags`` builds the
    ``FragmentId`` of an id on demand.  Fragments that share (file, subset,
    part, count) form a group: per group, the columns ``group_file``,
    ``group_subfile`` (its subset's row in ``subfiles``, -1 if none),
    ``group_full`` (whether its part is "full") and ``group_size``, an
    integer numerator over one common denominator in fluid mode (0 in bit
    mode, where each fragment has its own bit count); ``group`` maps each
    fragment id to its group and ``fsub`` to its subset's mask row.  In
    bit mode ``spans`` holds, per fragment id, its file, its subfile's row
    in ``subfiles`` and its [lo, hi) in that subfile's position run
    (``frag_spans``), so its bit count is hi - lo.

    The log's live constituents (those of nonzero size, repeats kept) are
    flattened, entry after entry, into columns: ``cons`` the fragment id
    and ``unknown`` the mask row of the users who hear its entry and do not
    cache its subset, its entry's receivers less its subset, so whether
    user k must learn it is one bit.  Entries left with no live
    constituent are dropped; ``entry``, ``starts`` and ``lengths`` give
    each kept entry's index in the log and its slice of those columns.
    ``subfiles`` holds the mask rows of the resolver's subfiles, and
    ``subfile_size``, in fluid mode, each one's size as a numerator over
    the same denominator; user k needs those without bit k.  In bit mode
    ``payloads`` holds each entry's payload, and ``fits`` marks the kept
    entries whose payload is exactly as long as their longest live
    constituent.
    """

    frags: Sequence[FragmentId]
    group: np.ndarray
    fsub: np.ndarray
    group_file: np.ndarray
    group_subfile: np.ndarray
    group_full: np.ndarray
    group_size: np.ndarray
    spans: np.ndarray
    cons: np.ndarray
    unknown: np.ndarray
    entry: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    subfiles: np.ndarray
    subfile_size: np.ndarray
    payloads: Optional[list]
    fits: Optional[np.ndarray]


class _Fragments(ListView):
    """The ``FragmentId`` of each fragment id, built on demand from one of
    its constituent rows of a symbol table."""

    def __init__(self, table: SymbolTable, rows: np.ndarray) -> None:
        self.table, self.rows = table, rows

    def __len__(self) -> int:
        return len(self.rows)

    def _items(self, lo: int, hi: int) -> list:
        return self.table.fragments(self.rows[lo:hi])


def _first_equal(values: Sequence) -> np.ndarray:
    """Per row of a table, the first row holding an equal value."""
    first: dict = {}
    return np.array([first.setdefault(v, i) for i, v in enumerate(values)], np.int32)


def _intern_log(log: TransmissionLog) -> _LogTables:
    """Intern the log from its columns, with sizes read from its resolver,
    and nothing else.  Nothing is kept on the log.

    Fragment ids come from one sort of the constituents' key columns
    (file, subset mask, part, count, index), whose part rows are first
    mapped to the first row of an equal value: an id depends on the key's
    values alone, and no id or row numbering the scheduler chose is read.
    The same sort lays each group's fragments out as one run of ids, so
    the groups take no sort of their own, and subfile rows and sizes are
    worked out once per group.  An empty
    fragment is known to every user, so it is dropped from every entry and
    no symbol waits on it.
    """
    c = log.columns()
    t, resolver = c.table, log.resolver
    lo, hi = t.cstart[c.symbol], t.cstart[c.symbol + 1]
    at = ranges(lo, hi)  # the constituents, entry after entry
    file, index, count = t.file[at], t.index[at], t.count[at]
    subset = t.subset[at]
    part = _first_equal(t.parts)[t.part[at]]
    cons, first, _ = distinct(index, count, part, *subset.T, file)
    fsub = subset[first]
    # ids follow (file, subset, part, count, index), so the fragments of a
    # group hold consecutive ids
    group, members = runs(count[first], part[first], *fsub.T, file[first])
    rep = first[members]  # one constituent of each group
    subfiles = resolver.subfile_masks
    frags = _Fragments(t, at[first])
    if log.mode == "bits":
        sub, flo, fhi = resolver.frag_spans(t, at[first])
        spans = np.stack([file[first], sub, flo, fhi], axis=1)
        nonempty = fhi > flo
        group_size = np.zeros(len(rep), np.int64)
        subfile_size = np.zeros(len(subfiles), np.int64)
    else:
        spans = np.zeros((0, 4), np.int64)
        # a size depends on (part, count, |T|) only, so it is asked once per
        # such shape
        size = np.bitwise_count(subset[rep]).sum(axis=1, dtype=np.int64)
        shape, shapes, _ = distinct(count[rep], part[rep], size)
        shares = [
            resolver.fragment_size(t.parts[p], n, T)
            for p, n, T in zip(
                part[rep][shapes].tolist(),
                count[rep][shapes].tolist(),
                user_sets(subset[rep][shapes]),
            )
        ]
        # and a subfile's size on |T| only, so it is asked once per |T|
        sized, firsts, _ = distinct(np.bitwise_count(subfiles).sum(axis=1, dtype=np.int64))
        whole = [resolver.subfile_size(T) for T in user_sets(subfiles[firsts])]
        den = math.lcm(*{x.denominator for x in shares + whole})
        nums = np.array([x.numerator * (den // x.denominator) for x in shares], object)
        group_size = nums[shape]
        subfile_size = np.array(
            [x.numerator * (den // x.denominator) for x in whole], object
        )[sized]
        nonempty = (nums != 0)[shape][group]
    full = np.array([p == "full" for p in t.parts], bool)[part[rep]]

    entry = np.repeat(np.arange(len(c.symbol)), hi - lo)
    if not nonempty.all():
        live = nonempty[cons]
        cons, entry = cons[live], entry[live]
    # entries are in log order, so each kept one is a run of ``entry``
    starts = np.flatnonzero(np.diff(entry, prepend=-1))
    lengths = np.diff(starts, append=len(entry))
    fits = None
    if log.mode == "bits":
        longest = np.maximum.reduceat(spans[cons, 3] - spans[cons, 2], starts)
        payloads = c.payloads
        fits = longest == [len(payloads[i]) for i in entry[starts].tolist()]
    heard, cached = widen(c.receivers, fsub)
    return _LogTables(
        frags,
        group,
        fsub,
        file[rep],
        resolver.subfile_rows(subset[rep]),
        full,
        group_size,
        spans,
        cons,
        heard[entry] & ~cached[cons],
        entry[starts],
        starts,
        lengths,
        subfiles,
        subfile_size,
        c.payloads,
        fits,
    )


def _unknown(tables: _LogTables, user: int) -> tuple[np.ndarray, np.ndarray]:
    """Per live constituent, whether ``user`` hears its entry and does not
    cache its subfile; and per kept entry, how many such constituents it
    holds, repeats counted."""
    unknown = has(tables.unknown, user)
    return unknown, np.add.reduceat(unknown, tables.starts)


def _fluid_closure(tables: _LogTables, user: int) -> np.ndarray:
    """Which fragment ids ``user`` learns by peeling, as a boolean per id
    (fluid mode, and bit mode once every payload has checked out).

    Every entry with exactly one unknown constituent yields it, all at
    once; then only the entries that still hold two or more unknowns are
    recounted, until no entry yields anything.  Learning only ever lowers a
    count, so this reaches the same closure as peeling one symbol at a
    time, in any order (Luby's LT peeling decoder).  A symbol holding the
    same unknown fragment twice never resolves it.
    """
    learned = np.zeros(len(tables.frags), dtype=bool)
    cons, lengths = tables.cons, tables.lengths
    unknown, counts = _unknown(tables, user)
    while True:
        ready = counts == 1
        if not ready.any():
            return learned
        learned[cons[unknown & np.repeat(ready, lengths)]] = True
        waiting = counts > 1
        if not waiting.any():
            return learned
        keep = np.repeat(waiting, lengths)
        cons, lengths = cons[keep], lengths[waiting]
        unknown = unknown[keep] & ~learned[cons]
        counts = np.add.reduceat(unknown, offsets(lengths)[:-1])


def _coverage_gap(
    tables: _LogTables, user: int, want: int, learned: np.ndarray
) -> Optional[tuple[int, ...]]:
    """First needed subfile of ``want`` that the ``learned`` fragments do
    not fully cover (fluid mode; exact size bookkeeping, parts partition
    their subfile).  Each group adds its learned count times its size to
    its subfile, in Python ints; a "full" part covers its subfile whole."""
    counts = np.bincount(tables.group[learned], minlength=len(tables.group_file))
    sub = tables.group_subfile
    mine = (counts > 0) & (tables.group_file == want) & (sub >= 0)
    part = mine & ~tables.group_full
    covered = np.zeros(len(tables.subfiles), object)
    np.add.at(covered, sub[part], counts[part] * tables.group_size[part])
    whole = sub[mine & tables.group_full]
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
        tables.entry.tolist(), tables.starts.tolist(), tables.lengths.tolist()
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
    _, counts = _unknown(tables, user)
    cons = tables.cons.tolist()
    teaching = np.flatnonzero((counts > 0) & tables.fits)
    rows = [
        (i, cons[lo : lo + length])
        for i, lo, length in zip(
            tables.entry[teaching].tolist(),
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
    as (user, file, subfile), or None when every user recovers it.  The log
    is interned once, then each user's knowledge is derived independently
    of the scheduler.

    Fluid mode checks exact size coverage of every needed subfile, from
    each user's peeling closure.

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
    plus the logged transmissions, derived independently of the scheduler
    (:func:`_first_decode_failure`); ``placement`` is accepted and ignored.

    Fluid mode checks exact size coverage of every needed subfile; bit mode
    checks closure and bit coverage, and only when some payload disagrees
    with its constituents' library bits peels by in-order sweeps and
    reassembles the file bit for bit.
    """
    return _first_decode_failure(log, demands, library) is None


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
        if config.t == 0 and plan.server_share != 1:
            # the closed forms put R2 = 0, but no user caches anything to send
            raise ValueError(
                f"server share {plan.server_share} at t=0: users cache nothing to "
                "send, so it must be 1"
            )
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
