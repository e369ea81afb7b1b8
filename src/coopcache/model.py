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
* subsets of users are canonical ascending tuples, enumerated in
  lexicographic order;
* a group partition is an unordered collection of pairwise disjoint user
  groups, canonicalised by sorting groups by their smallest member.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction as Frac
from typing import Iterable, Iterator, Optional, Sequence, Union

RationalLike = Union[int, str, Frac]


def as_frac(x: RationalLike) -> Frac:
    """Coerce ints, "p/q" strings and Fractions to an exact Fraction; a
    zero denominator is a ValueError."""
    if isinstance(x, float):
        raise TypeError(
            f"refusing to coerce float {x!r} to an exact rational; "
            "pass a Fraction, int or 'p/q' string"
        )
    try:
        return Frac(x)
    except ZeroDivisionError:
        raise ValueError(f"{x!r} has a zero denominator") from None


class SchedulingError(RuntimeError):
    """A delivery schedule could not be constructed (or failed its own audit)."""


def slot_init(cls: type) -> type:
    """Replace the ``__init__`` of a frozen slotted dataclass by one with the
    same parameters and defaults that stores each field through its slot's
    member descriptor and then calls ``__post_init__``, if the class has one
    (module docstring).  Apply it on top of ``@dataclass(frozen=True,
    slots=True)``; a field without a plain ``init`` value is refused."""
    env: dict[str, object] = {}
    params, body = [], []
    for f in fields(cls):
        if not f.init or f.default_factory is not MISSING:
            raise TypeError(f"{cls.__name__}.{f.name} needs a plain init field")
        env[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body.append(f"    _set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body), env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**cls.__init__.__annotations__}
    cls.__init__ = init
    return cls


# ---------------------------------------------------------------------------
# system configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemConfig:
    """Problem instance: N files, K users, cache size M, cooperation width.

    ``alpha_max`` is the maximum number of user groups that may transmit in
    parallel; it must lie in [1, max(1, K//2)] (a sending group has at least
    two members, so more than K//2 parallel groups can never be realised).
    ``F`` is the file size in bits; it may be None for purely analytical
    work and must be set for bit-level simulation.
    """

    N: int
    K: int
    M: Frac
    alpha_max: int = 1
    F: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "M", as_frac(self.M))
        if self.K < 2:
            raise ValueError(f"need at least two users, got K={self.K}")
        if self.N < self.K:
            raise ValueError(
                f"standing assumption K <= N violated: K={self.K}, N={self.N}"
            )
        if not (0 <= self.M <= self.N):
            raise ValueError(f"cache size M={self.M} outside [0, N={self.N}]")
        amax_cap = max(1, self.K // 2)
        if not (1 <= self.alpha_max <= amax_cap):
            raise ValueError(
                f"alpha_max={self.alpha_max} outside [1, K//2]=[1, {amax_cap}]"
            )
        if self.F is not None and self.F <= 0:
            raise ValueError(f"file size F={self.F} must be positive")

    @property
    def t(self) -> Frac:
        """Cache replication factor K*M/N (number of copies of each bit)."""
        return Frac(self.K) * self.M / self.N

    @property
    def p(self) -> Frac:
        """Per-bit caching probability M/N."""
        return self.M / self.N

    def users(self) -> range:
        return range(1, self.K + 1)


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


@slot_init
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


def _disjoint_group_choices(K: int, s: int, count: int) -> list[tuple]:
    """(groups, idle users) for every unordered choice of ``count`` disjoint
    s-subsets of 1..K: groups sorted by smallest member, choices in
    lexicographic order of the flattened groups.

    A depth-first walk over an explicit stack: ``chosen[i]`` is the group
    taken from ``stack[i]``'s candidates.  It forms no reference cycle, so
    its garbage is freed by reference counting alone (a self-referencing
    recursive closure would leave every call's output to the cyclic
    collector)."""
    out: list[tuple] = []
    chosen: list[tuple[int, ...]] = []
    pool = tuple(range(1, K + 1))
    if count == 0:
        return [((), pool)]
    stack = [(pool, itertools.combinations(pool, s))]
    while stack:
        pool, candidates = stack[-1]
        min_first = chosen[-1][0] if chosen else 0
        g = next((g for g in candidates if g[0] > min_first), None)
        if g is None:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        rest = tuple(x for x in pool if x not in g)
        if len(chosen) + 1 == count:
            out.append(((*chosen, g), rest))
        else:
            chosen.append(g)
            stack.append((rest, itertools.combinations(rest, s)))
    return out


def enumerate_equal_partitions(
    K: int, s: int, alpha_d: int
) -> list[tuple[tuple[int, ...], ...]]:
    """All unordered collections of ``alpha_d`` disjoint s-subsets of 1..K.

    Users not covered by any group are idle.  Canonical form sorts groups by
    smallest member; the output is in lexicographic order of the flattened
    canonical form.  Requires s >= 2 and alpha_d*s <= K.
    """
    if s < 2:
        raise ValueError(f"groups need at least two members, got s={s}")
    if alpha_d < 1 or alpha_d * s > K:
        raise ValueError(f"cannot fit {alpha_d} disjoint {s}-subsets in 1..{K}")
    return [groups for groups, _ in _disjoint_group_choices(K, s, alpha_d)]


def equal_partition_count(K: int, s: int, alpha_d: int) -> int:
    """Closed-form count of ``enumerate_equal_partitions(K, s, alpha_d)``:
    the product of C(K - i*s, s) over i < alpha_d, divided by alpha_d!."""
    num = 1
    for i in range(alpha_d):
        num *= math.comb(K - i * s, s)
    return num // math.factorial(alpha_d)


# ---------------------------------------------------------------------------
# delivery vocabulary shared by both schemes
# ---------------------------------------------------------------------------


@slot_init
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


@slot_init
@dataclass(frozen=True, slots=True)
class Constituent:
    """One fragment inside an XOR symbol, tagged with its intended receiver."""

    receiver: int
    fragment: FragmentId


@slot_init
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
        if self.sender == 0:
            return self.group
        return tuple(u for u in self.group if u != self.sender)


def server_shares(
    demands: Sequence[int], S: tuple[int, ...]
) -> tuple[Constituent, ...]:
    """What the server XORs into its symbol for user set S: each member k's
    server share W^s_{d_k, S\\{k}}."""
    return tuple(
        Constituent(
            k, FragmentId(demands[k - 1], tuple(x for x in S if x != k), "s", 0, 1)
        )
        for k in S
    )


@dataclass
class DeliverySchedule:
    """Complete delivery plan: parallel user rounds plus server symbols.

    Each user round is a (GroupPartition, symbols) pair; all symbols in the
    round are sent by members of the partition's groups, one active sender
    per group at a time.
    """

    user_rounds: list[tuple[GroupPartition, list[XorSymbol]]] = field(
        default_factory=list
    )
    server_symbols: list[XorSymbol] = field(default_factory=list)

    def user_symbol_count(self) -> int:
        return sum(len(syms) for _, syms in self.user_rounds)
