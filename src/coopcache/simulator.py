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
the round lasts as long as its most loaded group).

:func:`brute_force_decode_check` re-derives what every user can decode by
peeling: starting from its cache, a user resolves any received symbol with
exactly one unknown constituent, until no symbol resolves anything more.
Peeling runs from a worklist (the peeling decoder of Luby's LT codes): each
symbol counts its unknown constituents, an index maps each fragment to the
symbols waiting on it, and learning a fragment readies exactly the symbols
it completes.  Coverage is summed once per user, grouped by subfile.  So the
check costs time linear in the log, per user.  It never consults the
scheduler's own coverage bookkeeping, so scheduler bugs cannot vouch for
themselves.  On failure it names the first user, file and subfile that
cannot be recovered.

Both schemes lay out a needed subfile of n bits by one rule: part "full" is
all of it, "s" the server's first floor(lambda*n) bits, and "u" the rest,
cut into L1 equal slices (1 decentralized) of count/L1 near-equal fragments;
"u1"/"u2" split the rest at floor(lambda2 * its length), lambda2 being the
split of the round serving |T|, then cut near-equally.  A fragment's fluid
size is its part's share over its count, times its subfile's size.

Both schemes run through one path.  ``run_centralized`` and
``run_decentralized`` each supply only their scheme's front half: placement,
delivery schedule, fragment resolver and closed-form rates.  The shared
back half checks the mode (bit mode needs ``config.F``) and the demands
before any of that is built, then builds the library, executes the
schedule, measures R1 and R2 against the closed forms, and runs the decode
check.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction as Frac
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .centralized import (
    CentralPlacement,
    SplitPlan,
    build_central_placement,
    build_delivery,
    centralized_rates,
)
from .decentralized import (
    AllocationPlan,
    DecentralPlacement,
    allocation_plan,
    build_decentral_delivery,
    build_decentral_placement,
    decentralized_rates,
)
from .model import (
    DeliverySchedule,
    FragmentId,
    SystemConfig,
    XorSymbol,
    enumerate_subsets,
    validate_demands,
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


@dataclass(frozen=True)
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
class TransmissionLog:
    """Ordered record of an executed schedule, with load accounting."""

    config: SystemConfig
    mode: str  # "fluid" | "bits"
    entries: list[LogEntry] = field(default_factory=list)
    resolver: Optional["FragmentResolver"] = None

    def _as_rate(self, bits: Union[int, Frac]) -> Frac:
        if self.mode == "bits":
            return Frac(int(bits), self.config.F)
        return bits if isinstance(bits, Frac) else Frac(bits)

    def server_load(self) -> Frac:
        """Total traffic on the server link, as a fraction of F."""
        return sum(
            (self._as_rate(e.bits) for e in self.entries if e.sender == 0), Frac(0)
        )

    def user_load(self) -> Frac:
        """Cooperation-link delay: per round, the busiest lane; summed."""
        per_round_lane: dict[int, dict[tuple, Frac]] = {}
        for e in self.entries:
            if e.sender == 0:
                continue
            lanes = per_round_lane.setdefault(e.round_index, {})
            lanes[e.group] = lanes.get(e.group, Frac(0)) + self._as_rate(e.bits)
        return sum((max(lanes.values()) for lanes in per_round_lane.values()), Frac(0))

    def delay(self) -> Frac:
        return max(self.server_load(), self.user_load())

    def verify_slot_discipline(self) -> None:
        """Each slot: at most one server symbol; user senders bounded by
        alpha_max and their groups pairwise disjoint."""
        server_slots = set()
        user_slots: dict[int, list[LogEntry]] = {}
        for e in self.entries:
            if e.sender == 0:
                if e.slot in server_slots:
                    raise ValueError(f"two server symbols in slot {e.slot}")
                server_slots.add(e.slot)
            else:
                user_slots.setdefault(e.slot, []).append(e)
        for slot, entries in user_slots.items():
            if len(entries) > self.config.alpha_max:
                raise ValueError(
                    f"slot {slot} has {len(entries)} user senders "
                    f"(alpha_max={self.config.alpha_max})"
                )
            seen: set[int] = set()
            for e in entries:
                if seen & set(e.group):
                    raise ValueError(f"slot {slot} has overlapping groups")
                seen |= set(e.group)

    def export_lines(self) -> list[str]:
        """Stable text export, one record per symbol.

        Format: header ``slot,sender,receivers,bits`` then one line per
        entry; receivers are '|'-joined user ids; bits is an integer in bit
        mode and an exact fraction of F (like ``1/45``) in fluid mode.
        """
        out = ["slot,sender,receivers,bits"]
        for e in self.entries:
            recv = "|".join(str(r) for r in e.receivers)
            out.append(f"{e.slot},{e.sender},{recv},{e.bits}")
        return out


# ---------------------------------------------------------------------------
# fragment resolution: fragment id -> exact size / concrete bit positions
# ---------------------------------------------------------------------------


class FragmentResolver:
    """Maps fragment ids to exact sizes (fluid) or bit positions (bits).

    This is protocol knowledge — placement layout plus the public split
    plan — available to every decoder, as opposed to the scheduler's private
    bookkeeping of who decodes what when.  It holds the layout rule of the
    module docstring; a subclass supplies its subfile table
    (``subfile_keys``, ``subfile_size`` of |T| only, ``subfile_positions``)
    and a ``frag_positions`` mapping :meth:`_frag_range` onto it.
    """

    def __init__(
        self, server_share: Frac, slices: int, lambda2_by_round: dict[int, Frac]
    ) -> None:
        self._lam = server_share
        self._slices = slices
        self._lam2 = lambda2_by_round
        # sizes depend on (part, count, |T|) and part bounds on (part, |T|,
        # n), so keying by shape keeps these memos small
        self._frag_sizes: dict[tuple[str, int, int], Frac] = {}
        self._bounds: dict[tuple[str, int, int], tuple[int, int, int]] = {}

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

    def frag_size(self, frag: FragmentId) -> Frac:
        key = (frag.part, frag.count, len(frag.subset))
        if key not in self._frag_sizes:
            share = Frac(1)
            for cut, keep_rest in self._cuts(frag.part, len(frag.subset)):
                share *= 1 - cut if keep_rest else cut
            self._frag_sizes[key] = share / frag.count * self.subfile_size(frag.subset)
        return self._frag_sizes[key]

    def _frag_range(self, frag: FragmentId, n: int) -> tuple[int, int]:
        """[lo, hi) of the fragment inside its subfile of ``n`` bits."""
        key = (frag.part, len(frag.subset), n)
        if key not in self._bounds:
            lo, hi = 0, n
            for cut, keep_rest in self._cuts(frag.part, len(frag.subset)):
                mid = lo + math.floor(cut * (hi - lo))
                lo, hi = (mid, hi) if keep_rest else (lo, mid)
            slices = self._slices if frag.part == "u" else 1
            self._bounds[key] = lo, hi, slices
        lo, hi, slices = self._bounds[key]
        if frag.count % slices:
            raise ValueError(
                f"fragment count {frag.count} does not refine {slices} slices"
            )
        per_slice = frag.count // slices
        width = (hi - lo) // slices
        first, length = _near_equal_part(width, per_slice, frag.index % per_slice)
        start = lo + (frag.index // per_slice) * width + first
        return start, start + length


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


def _near_equal_part(n: int, parts: int, i: int) -> tuple[int, int]:
    """(start, length) of part ``i`` when ``n`` items are cut into ``parts``
    near-equal runs, the longer ones first, as ``np.array_split`` cuts."""
    q, r = divmod(n, parts)
    return i * q + min(i, r), q + (i < r)


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
        self._index = {T: i for i, T in enumerate(placement.subsets)}
        self._subfile_size = Frac(1, len(self._index))
        if F is not None:
            need = required_central_F(placement.config, plan)
            if F % need:
                raise ValueError(
                    f"F={F} cannot be split exactly; use a multiple of {need}"
                )
            self.sub_len = F // len(self._index)

    def subfile_keys(self) -> list[tuple[int, ...]]:
        return list(self._index)

    def subfile_size(self, T: tuple[int, ...]) -> Frac:
        return self._subfile_size

    def subfile_positions(self, file: int, T: tuple[int, ...]) -> np.ndarray:
        start = self._index[T] * self.sub_len
        return np.arange(start, start + self.sub_len)

    def frag_positions(self, frag: FragmentId) -> np.ndarray:
        lo, hi = self._frag_range(frag, self.sub_len)
        start = self._index[frag.subset] * self.sub_len
        return np.arange(start + lo, start + hi)


class DecentralFragmentResolver(FragmentResolver):
    """Random-placement layout: subfile positions from the placement, each
    subfile laid out by the shared rule with one user slice."""

    def __init__(self, placement: DecentralPlacement, plan: AllocationPlan) -> None:
        super().__init__(plan.server_share, 1, plan.lambda2_by_round)
        self.placement = placement
        K = placement.config.K
        self._keys = [
            T for size in range(K + 1) for T in enumerate_subsets(K, size)
        ]
        self._subfile_sizes: dict[int, Frac] = {}

    def subfile_keys(self) -> list[tuple[int, ...]]:
        return self._keys

    def subfile_size(self, T: tuple[int, ...]) -> Frac:
        if len(T) not in self._subfile_sizes:
            self._subfile_sizes[len(T)] = self.placement.subfile_size(T)
        return self._subfile_sizes[len(T)]

    def subfile_positions(self, file: int, T: tuple[int, ...]) -> np.ndarray:
        return self.placement.subfile_positions[(file, T)]

    def frag_positions(self, frag: FragmentId) -> np.ndarray:
        pos = self.subfile_positions(frag.file, frag.subset)
        lo, hi = self._frag_range(frag, len(pos))
        return pos[lo:hi]


# ---------------------------------------------------------------------------
# schedule execution
# ---------------------------------------------------------------------------


def _symbol_payload(
    sym: XorSymbol, resolver: FragmentResolver, library: BitLibrary
) -> tuple[np.ndarray, int]:
    parts = [
        library.files[c.fragment.file][resolver.frag_positions(c.fragment)]
        for c in sym.constituents
    ]
    length = max((len(p) for p in parts), default=0)
    out = np.zeros(length, dtype=np.uint8)
    for p in parts:
        out[: len(p)] ^= p
    return out, length


def execute_schedule(
    config: SystemConfig,
    schedule: DeliverySchedule,
    resolver: FragmentResolver,
    mode: str,
    library: Optional[BitLibrary] = None,
) -> TransmissionLog:
    """Run a built schedule into a transmission log.

    Server symbols occupy their own link's slots 0..; each user round packs
    its lanes in parallel (lane i's j-th symbol in relative slot j).  Bit
    mode attaches XOR payloads and counts real lengths; fluid mode carries
    the symbols' rational sizes.
    """
    if mode == "bits" and library is None:
        raise ValueError("bit mode needs a BitLibrary")
    log = TransmissionLog(config, mode, resolver=resolver)

    def bits_of(sym: XorSymbol) -> tuple[Union[int, Frac], XorSymbol]:
        if mode == "fluid":
            return sym.size, sym
        payload, length = _symbol_payload(sym, resolver, library)
        return length, XorSymbol(
            sym.sender, sym.group, sym.constituents, sym.size, payload, sym.redundant
        )

    for slot, sym in enumerate(schedule.server_symbols):
        bits, carried = bits_of(sym)
        log.entries.append(
            LogEntry(slot, -1, 0, sym.group, sym.receivers(), bits, carried)
        )
    base = 0
    for partition, symbols in schedule.user_rounds:
        lanes: dict[tuple, list[XorSymbol]] = {}
        for sym in symbols:
            lanes.setdefault(sym.group, []).append(sym)
        depth = max((len(v) for v in lanes.values()), default=0)
        for j in range(depth):
            for group, lane_syms in lanes.items():
                if j < len(lane_syms):
                    sym = lane_syms[j]
                    bits, carried = bits_of(sym)
                    log.entries.append(
                        LogEntry(
                            base + j,
                            partition.round_index,
                            sym.sender,
                            group,
                            carried.receivers(),
                            bits,
                            carried,
                        )
                    )
        base += depth
    log.verify_slot_discipline()
    return log


# ---------------------------------------------------------------------------
# decode verification
# ---------------------------------------------------------------------------


def _live_fragments(log: TransmissionLog) -> list[tuple[FragmentId, ...]]:
    """Per log entry, its constituent fragments of nonzero size, in order.

    An empty fragment is known to every user, so no symbol waits on it.
    Emptiness does not depend on the user, so it is decided once per log.
    """
    resolver = log.resolver
    bit_mode = log.mode == "bits"

    def empty(frag: FragmentId) -> bool:
        if bit_mode:
            return len(resolver.frag_positions(frag)) == 0
        return resolver.frag_size(frag) == 0

    return [
        tuple(c.fragment for c in e.symbol.constituents if not empty(c.fragment))
        for e in log.entries
    ]


def _peel_known_fragments(
    log: TransmissionLog,
    user: int,
    library: Optional[BitLibrary],
    live: list[tuple[FragmentId, ...]],
) -> dict[FragmentId, Optional[np.ndarray]]:
    """Fragments ``user`` learns by peeling its received symbols, in the
    order it learns them.  Values are payloads in bit mode, None in fluid
    mode.  ``live`` is :func:`_live_fragments` of the log.

    A symbol resolves its one unknown constituent once every other one is
    known: cached, empty, or learned.  A received symbol with one unknown
    joins the worklist at once.  One with more keeps a count of them, with
    multiplicity (a symbol holding the same unknown fragment twice never
    resolves), and an index maps each unknown fragment to the symbols
    waiting on it.  Learning a fragment decrements their counts; a symbol
    whose count reaches 1 joins the worklist.  A symbol whose unknown was
    learned from another symbol before its turn is passed over.  Each
    received constituent is handled a bounded number of times, so the cost
    is linear in what the user receives.

    The worklist is keyed ``sweep * n + position``: symbols resolve in the
    order repeated in-order sweeps over the received symbols would meet
    them.  So where two symbols could yield the same fragment with different
    payloads (a corrupted log), the one a sweeping decoder reaches first
    wins, and the verdict does not depend on the worklist order.
    """
    resolver = log.resolver
    bit_mode = log.mode == "bits"
    received = [i for i, e in enumerate(log.entries) if user in e.receivers]
    n = len(received)
    ready: list[int] = []  # built in order, so already a heap
    missing: dict[int, int] = {}
    waiting: dict[FragmentId, list[int]] = {}
    for r, i in enumerate(received):
        unknown = [f for f in live[i] if user not in f.subset]
        if len(unknown) == 1:
            ready.append(r)
        elif unknown:
            missing[r] = len(unknown)
            for f in unknown:
                waiting.setdefault(f, []).append(r)

    known: dict[FragmentId, Optional[np.ndarray]] = {}
    while ready:
        sweep, r = divmod(heapq.heappop(ready), n)
        frags = live[received[r]]
        target = next(
            (f for f in frags if user not in f.subset and f not in known), None
        )
        if target is None:  # another symbol yielded it first
            continue
        if bit_mode:
            acc = np.array(log.entries[received[r]].symbol.payload, copy=True)
            for f in frags:
                if f == target:
                    continue
                # a cached fragment is read straight off the subfile bits
                part = (
                    known[f]
                    if f in known
                    else library.files[f.file][resolver.frag_positions(f)]
                )
                acc[: len(part)] ^= part
            known[target] = acc[: len(resolver.frag_positions(target))]
        else:
            known[target] = None
        for w in waiting.pop(target, ()):
            missing[w] -= 1
            if missing[w] == 1:
                heapq.heappush(ready, (sweep if w > r else sweep + 1) * n + w)
    return known


def _uncovered_subfile(
    log: TransmissionLog, user: int, want: int, known: dict
) -> Optional[tuple[int, ...]]:
    """First needed subfile of ``want`` that ``known`` does not fully cover
    (fluid mode; exact size bookkeeping, parts partition their subfile).

    The fragments one part of a subfile is split into are equal in size, so
    known fragments are counted once by (subset, part, count), each such
    shape is sized once, and each subfile's sum is compared with its size.
    """
    resolver = log.resolver
    shapes = Counter((f.subset, f.part, f.count) for f in known if f.file == want)
    whole = {T for T, part, _ in shapes if part == "full"}
    covered: dict[tuple[int, ...], Frac] = {}
    for (T, part, count), n in shapes.items():
        if part != "full":
            size = resolver.frag_size(FragmentId(want, T, part, 0, count))
            covered[T] = covered.get(T, 0) + n * size
    for T in resolver.subfile_keys():
        if user in T or T in whole:
            continue
        if covered.get(T, 0) != resolver.subfile_size(T):
            return T
    return None


def _misassembled_subfile(
    log: TransmissionLog, user: int, want: int, known: dict, library: BitLibrary
) -> Optional[tuple[int, ...]]:
    """First needed subfile of ``want`` whose bits, reassembled from the
    learned payloads, differ from the library (bit mode).  The subfiles
    partition the file, so no mismatch means the file is rebuilt exactly.
    Where two learned payloads cover the same bits and disagree, the later
    one's subfile is named at once."""
    resolver = log.resolver
    original = library.files[want]
    rebuilt = np.full(log.config.F, 2, dtype=np.uint8)
    for frag, payload in known.items():
        if frag.file == want:
            pos = resolver.frag_positions(frag)
            # a fragment learned twice (a subfile and its own server share)
            # must agree with what is already in place
            before = rebuilt[pos]
            if np.any((before != 2) & (before != payload)):
                return frag.subset
            rebuilt[pos] = payload
    for T in resolver.subfile_keys():
        if user in T:
            continue
        pos = resolver.subfile_positions(want, T)
        if not np.array_equal(rebuilt[pos], original[pos]):
            return T
    return None


def _first_decode_failure(
    log: TransmissionLog,
    demands: Sequence[int],
    library: Optional[BitLibrary] = None,
) -> Optional[tuple[int, int, tuple[int, ...]]]:
    """The first user, in user order, that cannot recover its demanded file,
    as (user, file, subfile), or None when every user recovers it.  One
    peeling pass per user, derived independently of the scheduler.

    Fluid mode checks exact size coverage of every needed subfile; bit mode
    reassembles the file bit-for-bit and compares against the library.
    """
    config = log.config
    if log.resolver is None:
        raise ValueError("log carries no fragment resolver")
    if log.mode == "bits" and library is None:
        raise ValueError("bit-mode decode check needs the library")
    demands = validate_demands(config, demands)

    live = _live_fragments(log)
    for k in config.users():
        want = demands[k - 1]
        known = _peel_known_fragments(log, k, library, live)
        if log.mode == "fluid":
            T = _uncovered_subfile(log, k, want, known)
        else:
            T = _misassembled_subfile(log, k, want, known, library)
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
    plus the logged transmissions, derived independently of the scheduler.

    Fluid mode checks exact size coverage of every needed subfile; bit mode
    reassembles the file bit-for-bit and compares against the library.
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
    """One end-to-end run.  ``decode_ok`` is None when the decode check was
    skipped; on a failed check ``decode_failure`` holds the first user,
    file and subfile that cannot be recovered."""

    log: TransmissionLog
    decode_ok: Optional[bool]
    rates: RateReport
    plan: object
    schedule: DeliverySchedule
    placement: object
    library: Optional[BitLibrary] = None
    decode_failure: Optional[tuple[int, int, tuple[int, ...]]] = None


def _run(
    config: SystemConfig,
    demands: Optional[Sequence[int]],
    seed: int,
    mode: str,
    check_decode: bool,
    front: Callable[[tuple[int, ...]], tuple],
) -> SimulationResult:
    """The back half of a run, shared by both schemes (module docstring).
    ``front(demands)`` builds the scheme's (placement, plan, schedule,
    resolver, closed rates) once the mode and demands have passed."""
    if mode not in ("fluid", "bits"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "bits" and config.F is None:
        raise ValueError("bit mode needs a file size F")
    demands = validate_demands(
        config, demands if demands is not None else list(config.users())
    )
    placement, plan, schedule, resolver, closed = front(demands)
    library = BitLibrary.build(config.N, config.F, seed) if mode == "bits" else None
    log = execute_schedule(config, schedule, resolver, mode, library)
    rates = RateReport(
        log.server_load(), log.user_load(), closed.R1, closed.R2, closed.T
    )
    failure = _first_decode_failure(log, demands, library) if check_decode else None
    decode_ok = failure is None if check_decode else None
    return SimulationResult(
        log, decode_ok, rates, plan, schedule, placement, library, failure
    )


def run_centralized(
    config: SystemConfig,
    demands: Optional[Sequence[int]] = None,
    seed: int = 0,
    mode: str = "fluid",
    alpha: Optional[int] = None,
    server_share: Optional[Frac] = None,
    check_decode: bool = True,
) -> SimulationResult:
    """Place, schedule, execute, measure, and decode the centralized scheme.

    Needs integer t.  Bit mode needs config.F divisible by the split
    denominators (the error message names the required multiple); demands
    default to user k wanting file k.
    """

    def front(demands):
        placement = build_central_placement(config)
        plan, schedule = build_delivery(
            config, demands, alpha=alpha, server_share=server_share
        )
        F = config.F if mode == "bits" else None
        resolver = CentralFragmentResolver(placement, plan, F)
        closed = centralized_rates(
            config, alpha=plan.alpha, server_share=plan.server_share
        )
        return placement, plan, schedule, resolver, closed

    return _run(config, demands, seed, mode, check_decode, front)


def run_decentralized(
    config: SystemConfig,
    demands: Optional[Sequence[int]] = None,
    seed: int = 0,
    mode: str = "fluid",
    check_decode: bool = True,
) -> SimulationResult:
    """Place, schedule, execute, measure, and decode the decentralized
    scheme.  Fluid mode must reproduce the component rate identities
    exactly; bit mode is the convergence/decode oracle."""

    def front(demands):
        placement = build_decentral_placement(config, seed=seed, mode=mode)
        plan, schedule = build_decentral_delivery(config, placement, demands)
        resolver = DecentralFragmentResolver(placement, plan)
        return placement, plan, schedule, resolver, decentralized_rates(config)

    return _run(config, demands, seed, mode, check_decode, front)
