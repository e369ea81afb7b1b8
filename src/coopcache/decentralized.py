"""Decentralized cooperative coded caching: random placement, exact delivery.

Placement: each user independently caches a fraction p = M/N of every file
(bit mode: exactly floor(M*F/N) uniformly chosen bits per file).  The bits
of file n cached by exactly the user set T form subfile W_{n,T}; in the
large-file fluid limit |W_{n,T}|/F = p^|T| (1-p)^(K-|T|).

Delivery splits every cached subfile (T nonempty) into a server share
(fraction ``lambda``) and a user share.  The server sends the uncached
W_{d_k,empty} raw plus the classic multicast XOR of the server shares for
every nonempty S (rate R_empty + lambda*R_s); the users deliver the user
shares in K-1 parallel rounds, round s = 2..K serving the subfiles cached
at s-1 others (per-link rate (1-lambda)*R_u).

Round s groups users into sending groups of size s; inside a group each
member in turn broadcasts an XOR of fragments, one per other member, of
mini-files W^u_{d_j, S\\{j}} cached by the whole rest of the group.  One
rule, ``round_shapes``, fixes each round's shape: it runs
regular = min(floor(K/s), alpha_max) disjoint s-groups at a time, and when
a lane is still free (floor(K/s) < alpha_max) and the r = K mod s users
left over number at least two, they form a remainder group, which serves
its members' mini-files through every s-superset S of itself.  A partition
then codes D = (s-1)*regular + max(r-1, 0) fragments.  The paper's three
cases are the outcomes of this rule:

* case 1 (ceil(K/s) > alpha_max): the cap binds, regular = alpha_max;
* case 2 (otherwise, K mod s < 2): regular = floor(K/s) and no remainder;
* case 3 (otherwise): a remainder group joins the floor(K/s) s-groups, and
  the user share is further split u1/u2 between regular and remainder
  service with lambda2 = (s-1)*regular/D, which equalises lane loads.

The resulting per-round per-lane loads are equal by construction, which is
what makes the closed-form R_u of the delay theorem exact for the scheduler.

Each round is worked out once, as a round plan: its partitions, each a list
of (group, part) pairs with any remainder group last, and for each part
("u", or "u1"/"u2" with a remainder group) the number and size of the
equal fragments its mini-files are cut into.  The user schedule lays the
plans out round by round as int columns (``model.SymbolTable``, shown as
``model.UserRounds``), groups and subsets as mask rows, and audits itself:
a constituent's fragment index is the number of constituents before it on
the same (receiver, subset, part), read off one sort of those keys over
all rounds at once (round s serves the subsets of size s-1, so no key
spans two rounds).  SchedulingError names the first failure of the first
round that fails: the first index, in schedule order, at or past its
part's fragment count, or else the first needed part (in part, subset,
receiver order) not used exactly its count times.

A faithful wart, kept deliberately: with this scheme's lambda (from the
"Choice of lambda" rule), the balanced server/user loads R_empty+lambda*R_s
= (1-lambda)*R_u sit above the headline delay formula
T = R_s*R_u/(R_s+R_u-R_empty) whenever R_u > R_empty > 0.  On the shipped
decentralized grid that holds at 5,311 of its 6,237 points, by at most
13.64%, at (K, alpha_max, p) = (3, 1, 27/50).  ``T`` here is the
closed-form target and max(R1, R2) is what the schedule realises.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from fractions import Fraction as Frac
from typing import Optional, Sequence

import numpy as np

from .closed_forms import AllocationPlan, allocation_plan, round_shapes
from .config import MAX_USER_SYMBOLS, SystemConfig
from .model import (
    DeliverySchedule,
    SchedulingError,
    SymbolTable,
    Symbols,
    UserRounds,
    enumerate_subsets,
    equal_partition_count,
    has,
    mask_rows,
    masks,
    occurrences,
    offsets,
    others,
    partition_table,
    server_multicast,
    stable_order,
    table_rows,
    user_sets,
    validate_demands,
    words,
)

# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------


@dataclass
class DecentralPlacement:
    """Random-caching state.  Fluid mode carries only exact subfile sizes;
    bit mode additionally stores the positions of every subfile W_{n,T}.
    User k's cache of file n is the union of the W_{n,T} with k in T."""

    config: SystemConfig
    mode: str  # "fluid" | "bits"
    seed: int = 0
    # bit mode only: row n - 1 of ``orders`` holds file n's bit positions
    # grouped by the code c of their caching set T, its mask word shifted
    # right once (user k at bit k - 1, as no user 0 caches), each group in
    # position order, in the smallest unsigned dtype that holds F - 1;
    # W_{n,T} is the run orders[n - 1, bounds[n - 1, c]:bounds[n - 1, c + 1]]
    orders: Optional[np.ndarray] = field(default=None, repr=False)
    bounds: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def subfile_positions(self) -> "SubfilePositions":
        """(file, T) -> the int64 positions of W_{n,T} (bit mode)."""
        return SubfilePositions(self)

    def subfile_size(self, T: tuple[int, ...]) -> Frac:
        """Fluid size of W_{n,T} as a fraction of F (any n)."""
        p = self.config.p
        return p ** len(T) * (1 - p) ** (self.config.K - len(T))


class SubfilePositions(Mapping):
    """A bit placement's subfiles as a read-only mapping (file, T) -> int64
    positions of W_{n,T}, keyed file by file, subsets by size then lex.
    Each value is a fresh int64 copy of the subfile's run of the compact
    order; nothing but the placement itself is held."""

    def __init__(self, placement: DecentralPlacement) -> None:
        self._pl = placement
        self._files = 0 if placement.orders is None else len(placement.orders)

    def __getitem__(self, key: tuple[int, tuple[int, ...]]) -> np.ndarray:
        n, T = key
        pl, K = self._pl, self._pl.config.K
        if n not in range(1, self._files + 1) or T != tuple(sorted({*T} & {*range(1, K + 1)})):
            raise KeyError(key)
        code = int(masks(np.array(T, np.int64), 1)[0]) >> 1
        lo, hi = pl.bounds[n - 1, code : code + 2].tolist()
        return pl.orders[n - 1, lo:hi].astype(np.int64)

    def __iter__(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        K = self._pl.config.K
        for n in range(1, self._files + 1):
            for size in range(K + 1):
                for T in enumerate_subsets(K, size):
                    yield n, T

    def __len__(self) -> int:
        return self._files << self._pl.config.K


def user_symbol_count(config: SystemConfig) -> int:
    """User symbols of the config's schedule, counted in closed form before
    anything is built.  Round s of shape (s, regular, r, D) has
    ``equal_partition_count(K, s, regular)`` partitions, and each sends s
    symbols per s-group plus r*C(K-r, s-r) for a remainder group of r (one
    rotation per s-superset).  At p = 0 or 1 every round is empty."""
    K, p = config.K, config.p
    if p == 0 or p == 1:
        return 0
    total = 0
    for s, regular, r, _ in round_shapes(K, config.alpha_max):
        sent = s * regular + (r * math.comb(K - r, s - r) if r else 0)
        total += equal_partition_count(K, s, regular) * sent
    return total


def _check_placement_size(config: SystemConfig) -> None:
    """Refuse a config with more than ``MAX_USER_SYMBOLS`` (file, subset)
    entries, N*2^K, which the placement and the fragment resolver
    enumerate; as N >= K, this also keeps K <= 15, so a bit's caching-set
    code fits 16 bits.  Reads only N and K."""
    entries = config.N << config.K
    if entries > MAX_USER_SYMBOLS:
        raise ValueError(
            f"decentralized placement needs N*2^K = {entries} (file, subset) "
            f"entries, above the limit of {MAX_USER_SYMBOLS}"
        )


def check_run_size(config: SystemConfig) -> None:
    """Refuse, with a ValueError naming the count, a config whose run would
    exceed ``MAX_USER_SYMBOLS`` placement entries or, counted by
    :func:`user_symbol_count`, user symbols.  Nothing is enumerated."""
    _check_placement_size(config)
    symbols = user_symbol_count(config)
    if symbols > MAX_USER_SYMBOLS:
        raise ValueError(
            f"decentralized user schedule for K={config.K}, "
            f"alpha_max={config.alpha_max} needs {symbols} user symbols, "
            f"above the limit of {MAX_USER_SYMBOLS}"
        )


def build_decentral_placement(
    config: SystemConfig, seed: int = 0, mode: str = "fluid"
) -> DecentralPlacement:
    """Random placement, fluid (sizes only) or bits (positions).

    A config with more than ``MAX_USER_SYMBOLS`` (file, subset) entries is
    refused with a ValueError before anything is built, in both modes
    (:func:`_check_placement_size`).

    In bit mode user k caches the ``rng.choice`` draw seeded (seed, k, n)
    of each file n.  Each bit of a file gets the code of its caching set,
    sum 2^(k-1) over the users caching it (``DecentralPlacement``), held
    in the smallest unsigned dtype that fits K bits, and one stable (radix)
    sort of the codes (``model.stable_order``) groups the bits by caching
    set in position order.  That order is stored as the file's row of
    ``orders``, cast to the smallest unsigned dtype that holds F - 1, and
    the running sums of the code counts as its row of ``bounds``.  Only one
    file's codes and int64 order are live at a time, and no user's draw
    is kept once it is coded.
    """
    _check_placement_size(config)
    if mode == "fluid":
        return DecentralPlacement(config, "fluid", seed)
    if mode != "bits":
        raise ValueError(f"unknown placement mode {mode!r}")
    if config.F is None:
        raise ValueError("bit-mode placement needs config.F")
    K, N, F = config.K, config.N, config.F
    per_file = int(config.M * F / config.N)  # floor(M*F/N)
    code_type = np.min_scalar_type((1 << K) - 1).type
    orders = np.empty((N, F), np.min_scalar_type(F - 1))
    bounds = np.zeros((N, (1 << K) + 1), np.int64)
    for n in range(1, N + 1):
        mask = np.zeros(F, dtype=code_type)
        for k in range(1, K + 1):
            rng = np.random.default_rng((seed, k, n))
            pos = rng.choice(F, size=per_file, replace=False)
            mask[pos] |= code_type(1 << (k - 1))
        orders[n - 1] = stable_order(mask)
        np.cumsum(np.bincount(mask, minlength=1 << K), out=bounds[n - 1, 1:])
    return DecentralPlacement(config, "bits", seed, orders, bounds)


# ---------------------------------------------------------------------------
# delivery
# ---------------------------------------------------------------------------


def _round_plan(
    config: SystemConfig, plan: AllocationPlan, shape: tuple[int, int, int, int]
) -> Optional[tuple[tuple[np.ndarray, np.ndarray], dict[str, tuple[int, Frac]]]]:
    """Round s, of shape (s, regular, r, D) from ``round_shapes``, as
    (partitions, parts), both worked out once for the round; None, before
    any partition is enumerated, when the round's mini-files are empty.

    ``partitions`` is :func:`model.partition_table` of ``regular``
    disjoint s-groups: per partition its groups and its idle users, who
    form a remainder group when r > 0.  ``parts`` maps each part to
    (fragment count, fragment size as a fraction of F): the s-groups work
    on its first part, "u", or "u1" when there is a remainder group, which
    works on "u2".  A part's count is the number of times the round uses
    each of its mini-files: (s-1) rotations per appearance of an s-group,
    (r-1)*C(s-1, r-1) per appearance of the remainder group, times the
    group's multiplicity across the round's partitions.
    """
    s, regular, r, _ = shape
    K, p = config.K, config.p
    w_u = (1 - plan.server_share) * p ** (s - 1) * (1 - p) ** (K - s + 1)
    if w_u == 0:
        return None
    n1 = (s - 1) * equal_partition_count(K - s, s, regular - 1)
    partitions = partition_table(K, s, regular)
    if not r:
        return partitions, {"u": (n1, w_u / n1)}
    lam2 = plan.lambda2_by_round[s]
    n2 = (r - 1) * math.comb(s - 1, r - 1) * equal_partition_count(K - r, s, regular)
    return partitions, {
        "u1": (n1, lam2 * w_u / n1),
        "u2": (n2, (1 - lam2) * w_u / n2),
    }


def _round_columns(
    K: int, shape: tuple[int, int, int, int], partitions: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, ...]:
    """Round s's symbols, partition after partition, as int columns, in the
    order of :func:`parallel_user_delivery`: per symbol its sender, its
    group's mask row, its kind (0 for a regular group, 1 for the remainder
    group) and its constituent count; per constituent its receiver, the
    mask row of its subset and its kind.  Every partition lays out alike:
    its regular groups' symbols, then the remainder group's."""
    s, regular, r, _ = shape
    W = words(K)
    G, idle = partitions
    n = len(G)
    bit = masks(G[..., None], W)
    gmask = bit.sum(axis=2)
    o = others(s)
    senders, groups = [G.reshape(n, -1)], [np.repeat(gmask, s, axis=1)]
    receivers = [G[:, :, o].reshape(n, -1)]
    subsets = [(gmask[:, :, None, None] ^ bit[:, :, o]).reshape(n, -1, W)]
    supersets = 0
    if r:
        ibit = masks(idle[..., None], W)
        imask = ibit.sum(axis=1)
        # the s-supersets of the remainder group, adding s - r of the
        # users outside it, in combination order
        rest = np.sort(G.reshape(n, -1), axis=1)
        extra = np.array(
            list(itertools.combinations(range(K - r), s - r)), np.intp
        ).reshape(-1, s - r)
        smask = imask[:, None] | masks(rest[:, extra], W)
        supersets = len(extra)
        o = others(r)
        senders.append(np.tile(idle, supersets))
        groups.append(np.repeat(imask[:, None], supersets * r, axis=1))
        receivers.append(np.tile(idle[:, o].reshape(n, -1), supersets))
        subsets.append(
            (smask[:, :, None] ^ ibit[:, o].reshape(n, 1, -1, W)).reshape(n, -1, W)
        )
    kind = np.repeat([0, 1], [regular * s, supersets * r])
    ckind = np.repeat([0, 1], [regular * s * (s - 1), supersets * r * (r - 1)])
    return (
        np.concatenate(senders, axis=1).ravel(),
        np.concatenate(groups, axis=1).reshape(-1, W),
        np.tile(kind, n),
        np.tile(np.where(kind == 0, s - 1, r - 1), n),
        np.concatenate(receivers, axis=1).ravel(),
        np.concatenate(subsets, axis=1).reshape(-1, W),
        np.tile(ckind, n),
    )


def caching_sets(K: int) -> np.ndarray:
    """Every subset T of users 1..K as a mask row, by size then lex: the
    order in which the audit and the fragment resolver number the subfiles
    W_{n,T} of a file."""
    return np.concatenate([
        masks(np.array(enumerate_subsets(K, z), np.int64).reshape(math.comb(K, z), z), words(K))
        for z in range(K + 1)
    ])


def _draw_indices(
    K: int,
    names: list[str],
    need: dict[tuple[int, int], int],
    receiver: np.ndarray,
    subset: np.ndarray,
    part: np.ndarray,
    count: np.ndarray,
) -> np.ndarray:
    """Each constituent's fragment index, over all rounds at once, audited
    (module docstring).  A constituent uses part ``names[part]``, cut into
    ``count`` fragments; ``need`` maps (part, |T|) to that count for each
    part the round serving |T| uses.  The index is the number of
    constituents before it, in schedule order, on the same (part,
    receiver, subset): round s serves the subsets of size s - 1, so no key
    spans two rounds.  The error raised is the one a round-by-round audit
    meets first: rounds in order, and in a round an exhausted fragment
    before a mini-file delivered short."""
    key, first, index = occurrences(part, receiver, *subset.T)
    # how often each (part, T, receiver) is used, T ranked among every
    # subset by size then lex; only each key's first row is ranked
    sets = caching_sets(K)
    got = np.zeros((len(names), len(sets), K), np.int64)
    got[part[first], mask_rows(sets, subset[first]), receiver[first] - 1] = np.bincount(key)
    wanted = np.full((len(names), K + 1), -1, np.int64)
    for (p, z), n in need.items():
        wanted[p, z] = n
    size = np.bitwise_count(sets).sum(axis=1, dtype=np.int64)
    want = wanted[:, size, None]
    short = (want >= 0) & ~has(sets[:, None], np.arange(1, K + 1)) & (got != want)
    p, t, j = np.nonzero(short)
    # the audit's order: round, then part, subset and receiver
    late = ((size[t] * len(names) + p) * len(sets) + t) * K + j
    over = np.flatnonzero(index >= count)
    if len(over):
        i = over[0]
        if not len(late) or np.bitwise_count(subset[i]).sum() <= size[t].min():
            name = names[part[i]]
            at = (int(receiver[i]), user_sets(subset[i : i + 1])[0], name)
            raise SchedulingError(
                f"fragment exhaustion for {at}: need index {int(index[i])} of {int(count[i])}"
            )
    if len(late):
        first_short = late.argmin()
        p, t, j = p[first_short], t[first_short], j[first_short]
        at = (int(j) + 1, user_sets(sets[t : t + 1])[0], names[p])
        raise SchedulingError(
            f"mini-file {at} only {int(got[p, t, j])}/{int(wanted[p, size[t]])} "
            "fragments delivered"
        )
    return index


def parallel_user_delivery(
    config: SystemConfig,
    placement: DecentralPlacement,
    demands: Sequence[int],
    plan: AllocationPlan,
) -> DeliverySchedule:
    """All user rounds: s = 2..K, each a walk over its round plan, held as
    int columns (a :class:`UserRounds` view).

    In every (group, part) pair of a partition, each member of the group in
    turn broadcasts the XOR of one fresh fragment per other member j: for a
    regular group, of W^{part}_{d_j, group\\{j}}; for a remainder group,
    that rotation runs once for every s-superset S of the group, over
    W^{u2}_{d_j, S\\{j}}.  Fragment indices are drawn per (receiver,
    subset, part) and audited as the module docstring describes.
    """
    d = validate_demands(config, demands)
    K = config.K
    if plan.server_share == 1:
        return DeliverySchedule()
    files = np.array((0, *d), np.int64)
    per_partition: list[int] = []  # each partition's symbol count
    sizes: dict[Frac, int] = {}
    part_rows: dict[str, int] = {}
    need: dict[tuple[int, int], int] = {}  # (part row, |T|) -> fragment count
    columns: list[list[np.ndarray]] = [[] for _ in range(8)]
    for shape in round_shapes(K, config.alpha_max):
        planned = _round_plan(config, plan, shape)
        if planned is None:
            continue
        partitions, parts = planned
        sender, group, kind, arity, receiver, subset, ckind = _round_columns(
            K, shape, partitions
        )
        size_row = table_rows([size for _, size in parts.values()], sizes)
        part_row = table_rows(list(parts), part_rows)
        count = np.array([count for count, _ in parts.values()], np.int64)
        need.update(((p, shape[0] - 1), n) for p, n in zip(part_row.tolist(), count.tolist()))
        for column, values in zip(
            columns,
            (sender, group, size_row[kind], arity, receiver, subset,
             part_row[ckind], count[ckind]),
        ):
            column.append(values)
        n = len(partitions[0])
        per_partition += [len(sender) // n] * n
    if not per_partition:
        return DeliverySchedule()
    # the rounds' pieces are freed before the draw sorts the whole run
    columns = [np.concatenate(column) for column in columns]
    sender, group, size, arity, receiver, subset, part, count = columns
    index = _draw_indices(K, list(part_rows), need, receiver, subset, part, count)
    table = SymbolTable(
        sender, group, size, np.zeros(len(sender), dtype=bool), offsets(arity),
        receiver, files[receiver], subset, part, index, count,
        list(sizes), list(part_rows),
    )
    return DeliverySchedule(
        UserRounds(list(range(len(per_partition))), offsets(per_partition), table)
    )


def server_delivery_decentralized(
    config: SystemConfig,
    placement: DecentralPlacement,
    demands: Sequence[int],
    plan: AllocationPlan,
) -> Symbols:
    """Server phase (:func:`model.server_multicast`): raw uncached
    subfiles, then the lambda-share multicast.

    For every nonempty S the server XORs the server shares W^s_{d_k,S\\{k}}
    of its members (singleton S symbols repeat material already inside the
    raw W_{d_k,empty} transmissions; they are kept — flagged redundant — so
    the fluid server load is exactly R_empty + lambda*R_s).
    """
    d = validate_demands(config, demands)
    K, p = config.K, config.p
    q = 1 - p
    lam = plan.server_share
    runs = [(1, "full", q**K, False)] if q**K > 0 else []
    if lam > 0:
        for s in range(1, K + 1):
            size = lam * p ** (s - 1) * q ** (K - s + 1)
            if size:
                runs.append((s, "s", size, s == 1))
    return server_multicast(K, d, runs)


def build_decentral_delivery(
    config: SystemConfig,
    placement: DecentralPlacement,
    demands: Sequence[int],
) -> tuple[AllocationPlan, DeliverySchedule]:
    """Full decentralized delivery: user rounds plus server symbols."""
    plan = allocation_plan(config)
    sched = parallel_user_delivery(config, placement, demands, plan)
    sched.server_symbols = server_delivery_decentralized(config, placement, demands, plan)
    return plan, sched
