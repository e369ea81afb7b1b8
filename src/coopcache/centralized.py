"""Centralized cooperative coded caching: placement, split plan, schedules.

Placement (integer t = K*M/N): every file is cut into C(K,t) equal subfiles
W_{n,T}, one per t-subset T of users, and user k caches W_{n,T} iff k in T.

Delivery for demands d splits every needed subfile into a server share
(fraction ``lambda``) and a user share (fraction 1-lambda):

* the server sends, for every (t+1)-subset S, the XOR of the server shares
  W^s_{d_k, S\\{k}} over k in S — the classic single-shot multicast;
* the users cut each user share into L equal pico-files and deliver them
  over the cooperation network: alpha disjoint groups of size fp transmit in
  parallel, and an in-group sender's symbol XORs one pico-file for each of
  the fp-1 other members (each of whom caches the rest of the XOR).

The group size is fp = min(K//alpha, t+1): a group member's pico-file must
be cached by the whole rest of the group, which caps useful group size at
t+1; the number of parallel groups caps it at K//alpha.  Every symbol hence
codes m = fp-1 = min(K//alpha - 1, t) pico-files, giving per-link user rate
R2 = (1-lambda) * K(1-M/N) / (alpha*m) against the server's
R1 = lambda * K(1-M/N) / (1+t).  The default lambda equalises the two.

The scheduler here realises those rates *exactly*: it fixes a slot sequence
(alpha disjoint groups per slot, cycling the canonical partition list),
derives per-group symbol quotas from it, routes every pico-file to a hosting
group, and assembles each group's symbols so that a receiver never appears
in its own sender slot.  A refinement factor rho (pico-files sub-split into
rho equal units) is raised through a deterministic ladder until the routing
is feasible; a uniform full-cycle sequence is always feasible, so the ladder
terminates.  Rates are invariant to rho.  A rung's quotas come in closed
form (full cycles plus a tail) from the canonical partitions, held as a
table of group ranks; the slot sequence is never built.  The hosting
classes (receiver, subset) and each one's candidate groups are enumerated
once per run as int arrays (``_hosting_classes``).  With groups of t+1
members (m = t) every pico-file has one possible hosting group, so a rung
is decided by a quota check; otherwise by a small integer max-flow over
int arrays laid out once per run, a rung's dead edges at capacity 0
(``_HostingNetwork``).  Either way the decision is (class, group, units)
int arrays, by class and then by group, the order in which the classes
and their candidates are laid out.  The flow is Dinic's algorithm.  Its
first phase, whose paths all have 4 edges, is a greedy loop over the
classes and their candidates (``_greedy_phase``); the later phases level
the residual network in numpy, on a copy of the capacities updated after
each phase, prune it to the shortest source-sink paths and hand an iterative
search only the level edges, in compact lists; the search resumes after
each augmentation at the first saturated edge.  All of it pushes the
paths the plain recursive search pushes (``_Dinic``).  A flow that fails
leaves the source side of a minimum cut, whose edges the network keeps;
the ladder runs no flow on a rung where one of the last three such cuts
has less capacity than the classes need, which proves the rung
infeasible (Ford and Fulkerson's weak duality).

The chosen rung is laid out as int columns (:func:`_assemble_schedule`,
a ``model.SymbolTable`` shown as a ``model.UserRounds`` view), with no
value object per symbol and no sort of the hosting: each hosting
group's load for a receiver is a run of pico-files, a group's senders
take contiguous blocks of its symbols, so a receiver's pico-file in each
symbol is found by index arithmetic, and the rounds follow the slot
sequence by partition index.
The audit then re-checks the finished schedule on those columns, its
groups and subsets as mask rows, independently of how it was assembled,
in runs of ``RUN`` constituents.

Before anything is enumerated, :func:`check_schedule_size` counts in closed
form the placement's subsets, the server's symbols and the uniform rung's
user symbols, and refuses with a ValueError a plan in which any of them
exceeds ``MAX_USER_SYMBOLS``, or whose symbols hold more than
``MAX_CONSTITUENTS`` constituents in all, weighed by their mask words, the
count that sets a run's memory.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction as Frac
from typing import Optional, Sequence

import numpy as np

from .closed_forms import SplitPlan, _integer_t, check_user_share, make_split_plan
from .config import CONSTITUENT_BYTES, MAX_CONSTITUENTS, MAX_USER_SYMBOLS, SystemConfig
from .model import (
    DeliverySchedule,
    SchedulingError,
    SymbolTable,
    Symbols,
    UserRounds,
    enumerate_subsets,
    equal_partition_count,
    RUN,
    WORD,
    has,
    mask_ranks,
    masks,
    occurrences,
    offsets,
    others,
    partition_table,
    ranges,
    server_multicast,
    stable_order,
    subset_ranks,
    user_sets,
    validate_demands,
    words,
)

# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CentralPlacement:
    """Deterministic subfile placement for integer replication factor t."""

    config: SystemConfig
    t: int
    subsets: tuple[tuple[int, ...], ...]  # all t-subsets, lex order

    @cached_property
    def subset_masks(self) -> np.ndarray:
        """The t-subsets' mask rows, in order."""
        sets = np.array(self.subsets, np.int64).reshape(len(self.subsets), self.t)
        return masks(sets, words(self.config.K))


def build_central_placement(config: SystemConfig) -> CentralPlacement:
    ti = _integer_t(config)
    return CentralPlacement(config, ti, tuple(enumerate_subsets(config.K, ti)))


# ---------------------------------------------------------------------------
# server schedule
# ---------------------------------------------------------------------------


def build_server_schedule(
    config: SystemConfig, plan: SplitPlan, demands: Sequence[int]
) -> Symbols:
    """Server multicast (:func:`model.server_multicast`): for each
    (t+1)-subset S, XOR of server shares W^s_{d_k, S\\{k}} over k in S;
    each symbol is lambda*F/C(K,t) long."""
    d = validate_demands(config, demands)
    t, K = _integer_t(config), config.K
    lam = plan.server_share
    runs = [] if lam == 0 or t >= K else [(t + 1, "s", lam / math.comb(K, t), False)]
    return server_multicast(K, d, runs)


# ---------------------------------------------------------------------------
# user schedule: quota flow + Latin assembly + slot-sequence execution
# ---------------------------------------------------------------------------


class _Dinic:
    """Small deterministic integer max-flow over prebuilt edge arrays.

    Edge e leads from ``head[e ^ 1]`` to ``head[e]`` with residual
    capacity ``cap[e]`` (a list of ints that fit in int32); node u's edges,
    in the order the search takes them, are ``order[start[u]:start[u+1]]``.
    Dinic's algorithm: each phase levels the residual network by BFS from
    the source, then pushes a blocking flow along level-increasing edges by
    a depth-first search that takes each node's edges in that order.
    Four things make a phase cheap without changing its paths:

    * Vectorised levels.  The BFS runs in numpy, one level at a time, over
      the live edges (positive capacity) out of the frontier, gathered from
      ``order``; it stops at the sink's level.  The capacities are copied
      to numpy once per flow (``residual``), and after each phase the copy
      takes what that phase's paths pushed off their edges and onto the
      reverses, so it ends equal to ``cap``.
    * Pruning.  A backward sweep from the sink, also a level at a time,
      keeps the nodes on some shortest source-sink path and gives every
      other node level -1, so the search never enters it.
    * Compact level lists.  The search is handed only the level edges: live,
      both ends on a shortest path, head one level up, in each node's order,
      with their heads and each node's offsets.  It tests only ``cap > 0``.
    * Resuming.  After an augmentation the search resumes at the tail of
      the path's first saturated edge, keeping the path up to it.

    The paths are those of the plain recursive search, which restarts from
    the source after each augmentation and enters every level-increasing
    edge.  Augmenting lowers the capacity of level edges and raises that of
    their reverses, which lead one level down and so are never level edges:
    within a phase the level graph only loses edges, so the compact lists
    meet the edges the full scan would, in the same order.  A node that
    cannot reach the sink at the start of a phase therefore never can
    within it, and entering it is a dead-end round trip that changes no
    capacity, advances only pointers no later path reads, and skips the
    edge that led there, as pruning does.  Restarting from the source
    re-walks the last path, whose edges the pointers still name, up to its
    first saturated edge, and skips that edge; resuming there does the same
    without the walk.  So every phase pushes the same paths, and the
    residual network ends the same, edge for edge.  When the sink is out of
    reach, the last BFS has reached exactly the source side of a minimum
    cut, which the flow keeps as a bool mask over the nodes
    (``source_side``).
    """

    def __init__(
        self, head: np.ndarray, cap: list[int], order: np.ndarray, start: np.ndarray
    ) -> None:
        self.n = len(start) - 1
        self.head, self.cap, self.order, self.start = head, cap, order, start
        self.source_side: Optional[np.ndarray] = None

    def _edges_out(self, nodes: np.ndarray) -> np.ndarray:
        return self.order[ranges(self.start[nodes], self.start[nodes + 1])]

    def _levels(self, s: int, t: int):
        """The level graph of the residual network as (heads, edges,
        starts) lists: node u's level edges are ``edges[starts[u]:starts[u
        + 1]]``, leading to ``heads`` at the same positions.  When the sink
        is out of reach, the nodes the BFS reached instead, as a bool
        array: the source side of a minimum cut."""
        n, head, edges_out = self.n, self.head, self._edges_out
        live = self.residual > 0
        level = np.full(n, -1, np.int32)
        level[s] = 0
        frontier = np.array([s])
        depth = 0
        while level[t] < 0:
            out = edges_out(frontier)
            reached = head[out[live[out]]]
            reached = reached[level[reached] < 0]
            if not len(reached):
                return level >= 0
            depth += 1
            level[reached] = depth
            frontier = np.flatnonzero(level == depth)
        # the backward sweep: a node one level below an on-path node v is
        # on a path too if its edge into v, the reverse of one out of v, is
        # live
        on_path = np.zeros(n, bool)
        on_path[t] = True
        frontier = np.array([t])
        for d in range(depth - 1, -1, -1):
            into = edges_out(frontier)
            into = head[into[live[into ^ 1]]]
            on_path[into[level[into] == d]] = True
            frontier = np.flatnonzero(on_path & (level == d))
        level[~on_path] = -1
        nodes = np.flatnonzero(on_path)
        out = edges_out(nodes)
        tail = np.repeat(nodes, self.start[nodes + 1] - self.start[nodes])
        keep = live[out] & (level[head[out]] == level[tail] + 1)
        edges, tail = out[keep], tail[keep]
        starts = np.searchsorted(tail, np.arange(n + 1))  # tail is sorted
        return head[edges].tolist(), edges.tolist(), starts.tolist()

    def max_flow(self, s: int, t: int) -> int:
        cap = self.cap
        self.residual = np.fromiter(cap, np.int64, len(cap))
        flow = 0
        while True:
            graph = self._levels(s, t)
            if isinstance(graph, np.ndarray):
                self.source_side = graph
                return flow
            to, edge, start = graph
            it = start[:-1]  # each node's next level edge, a position in edge
            # Depth-first search for blocking flow, with an explicit path of
            # edges and their tails instead of recursion.  A node's pointer
            # it[u] advances only past an edge that is saturated or leads to
            # a dead end, never on success.  least[k] is flow plus the
            # bottleneck of path[:k]: an augmentation lowers every edge on
            # the path by what flow gains, so the entries it keeps stay
            # right.
            path: list[int] = []
            tails: list[int] = []
            least = [math.inf]
            # the edges of this phase's paths and what each path pushed
            touched: list[int] = []
            amounts: list[int] = []
            phase_start, u = flow, s
            while True:
                if u == t:
                    pushed = least[-1] - flow
                    if pushed <= 0:
                        raise SchedulingError("max-flow path without capacity")
                    for eid in path:
                        cap[eid] -= pushed
                        cap[eid ^ 1] += pushed
                    touched += path
                    amounts += [pushed] * len(path)
                    flow += pushed
                    cut = least.index(least[-1]) - 1  # first saturated edge
                    u = tails[cut]
                    del path[cut:], tails[cut:], least[cut + 1:]
                    continue
                i, end = it[u], start[u + 1]
                while i < end and not cap[edge[i]]:
                    i += 1
                it[u] = i
                if i < end:
                    eid = edge[i]
                    path.append(eid)
                    tails.append(u)
                    b = flow + cap[eid]
                    least.append(b if b < least[-1] else least[-1])
                    u = to[i]
                elif u == s:
                    break
                else:  # dead end: retreat and skip the edge that led here
                    least.pop()
                    path.pop()
                    u = tails.pop()
                    it[u] += 1
            if flow == phase_start:  # the BFS reached the sink, so a path exists
                raise SchedulingError("max-flow phase pushed no flow")
            # this phase's level lists go before the next phase builds its own
            del graph, to, edge, start, it, path, tails, least
            pushed = np.bincount(touched, amounts, len(cap)).astype(np.int64)
            self.residual -= pushed
            self.residual += pushed.reshape(-1, 2)[:, ::-1].ravel()  # onto e ^ 1


def _hosting_classes(K: int, t: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The hosting classes of (K, t, m) as (receiver, subset, cand) arrays.

    A class is a receiver j and a t-subset T without j, in (j, T) order;
    ``subset`` holds T's row in the lex list of t-subsets.  Its candidate
    hosts are the groups G = {j} + B over the m-subsets B of T, in
    combination order, each held as its row in the lex list of
    (m+1)-subsets (``cand``, one row per class).  Adding j to every B keeps
    their lex order, so each row of ``cand`` is strictly increasing; at
    m = t it holds the one group T + {j}.
    """
    subsets = np.array(enumerate_subsets(K, t), np.int64).reshape(-1, t)
    users = np.arange(1, K + 1)
    j, T = np.nonzero(~has(masks(subsets, words(K)), users[:, None]))
    picks = np.array(list(itertools.combinations(range(t), m)), np.intp)
    hosts = subsets[T][:, picks]
    receiver = np.broadcast_to(j[:, None, None] + 1, (*hosts.shape[:2], 1))
    cand = subset_ranks(np.sort(np.concatenate([hosts, receiver], axis=2)), K)
    return j + 1, T, cand


def _greedy_phase(
    L: int, classes: Sequence[int], pairs: Sequence[int], groups: Sequence[int],
    pair_left: list[int], group_left: list[int],
) -> list[int]:
    """Dinic's first blocking flow on a hosting network, without a search.

    The candidates come class after class, each class's in order, as three
    parallel sequences: each one's class (``classes``), (receiver, group)
    pair (``pairs``) and group (``groups``).  ``pair_left`` and
    ``group_left`` hold the capacities into each group from each pair and
    out of each group to the sink, which the flow uses up.  Every
    source-sink path of the untouched network has its 4 edges
    (source -> class -> pair -> group -> sink), so the first phase's
    search, with pruning and resuming, takes the candidates in that order,
    pushing the least of what the class, the pair and the group have left
    until the class has sent its L units or its candidates run out.  A pair
    or group with nothing left is one the search would find dead.  Returns
    the units pushed through each candidate."""
    flows: list[int] = []
    push = flows.append
    last = -1
    for c, p, g in zip(classes, pairs, groups):
        if c != last:
            last, left = c, L
        f = pair_left[p]
        if group_left[g] < f:
            f = group_left[g]
        if left < f:
            f = left
        push(f)
        if f:
            pair_left[p] -= f
            group_left[g] -= f
            left -= f
    return flows


class _HostingNetwork:
    """The hosting flow of every ladder rung of one (K, m), over the classes
    of :func:`_hosting_classes`, as int arrays built once; a rung only sets
    capacities.

    Nodes, numbered alike on every rung: the source 0, the classes, every
    (receiver, group) pair in sorted order (``pairs``), every
    (m+1)-subset group, the sink.  Edges, in the order the search takes
    each node's: per class, source -> class (L units) then class -> (j, G)
    per candidate (L); then (j, G) -> G per pair (quota(G)); then G -> sink
    per group (m*quota(G)).  The pair layer caps a receiver's hosting
    inside one group at quota(G): a receiver occupies at most one
    constituent per symbol.  Each edge is gated by a group, ``gate``
    (the group count for a source edge, which every rung keeps), and its
    capacity is L where ``scale`` is 0, its gate's quota times ``scale``
    elsewhere, and 0 through a group of quota 0.

    A rung's flow starts from Dinic's first blocking flow, pushed by
    :func:`_greedy_phase` (:meth:`first_phase`).  The network also keeps
    the minimum cuts of the last three failed flows (``cuts``, each the ids of
    the edges leaving its source side): a cut whose capacity at a later
    rung is below the L units of every class proves that rung infeasible
    with no flow (:meth:`certifies`).
    """

    def __init__(self, K: int, m: int, receiver: np.ndarray, cand: np.ndarray) -> None:
        self.m, self.cand = m, cand
        n_class, n_cand = cand.shape
        n_groups = math.comb(K, m + 1)
        keys, pair = np.unique(receiver[:, None] * n_groups + cand, return_inverse=True)
        pair = pair.reshape(n_class, n_cand)
        self.pairs = np.stack([keys // n_groups, keys % n_groups], axis=1)
        pair_node = 1 + n_class + np.arange(len(keys))
        group_node = pair_node[-1] + 1 + np.arange(n_groups)
        sink = group_node[-1] + 1
        # per edge its tail, head and gate, in the order the nodes take them
        block = lambda *columns: np.stack(np.broadcast_arrays(*columns), axis=-1)
        cls = np.arange(1, n_class + 1)[:, None]
        per_class = [block(0, cls, n_groups), block(cls, pair_node[pair], cand)]
        tail, head, self.gate = np.concatenate([
            np.hstack(per_class).reshape(-1, 3),
            block(pair_node, group_node[self.pairs[:, 1]], self.pairs[:, 1]),
            block(group_node, sink, np.arange(n_groups)),
        ]).T
        self.scale = np.repeat([0, 1, m], [n_class * (1 + n_cand), len(keys), n_groups])
        # every half-edge: edge e's head, then its reverse's; each node's
        # half-edges in id order, which is the order they were laid out in
        self.head = np.stack([head, tail], axis=1).ravel()
        tails = np.stack([tail, head], axis=1).ravel()
        self.order = stable_order(tails)
        self.start = np.searchsorted(tails[self.order], np.arange(sink + 2))
        # the reverse half of each class's edge to each candidate
        self.hosting = 2 * np.arange(n_class * (1 + n_cand)).reshape(n_class, -1)[:, 1:] + 1
        # each candidate's class, pair and group, for the greedy first phase
        self.candidates = np.repeat(np.arange(n_class), n_cand), pair.ravel(), cand.ravel()
        self.cuts: deque[np.ndarray] = deque(maxlen=3)

    def capacities(self, quotas: np.ndarray, L: int) -> np.ndarray:
        """Each edge's capacity at a rung, 0 through a group of quota 0."""
        quota = np.append(quotas, 1)[self.gate]
        return np.where(self.scale, quota * self.scale, L * (quota > 0))

    def rung(self, quotas: np.ndarray, L: int, flow: np.ndarray | int = 0) -> _Dinic:
        """A rung's network as laid out, a dead edge (through a group of
        quota 0) at capacity 0, with ``flow`` (one count per edge) pushed.
        The levels keep only live edges, so the search never scans a dead
        one."""
        cap = self.capacities(quotas, L)
        residual = np.stack(np.broadcast_arrays(cap - flow, flow), axis=1).ravel()
        return _Dinic(self.head, residual.tolist(), self.order, self.start)

    def first_phase(self, quotas: np.ndarray, L: int) -> tuple[int, np.ndarray]:
        """The units of Dinic's first blocking flow at a rung
        (:func:`_greedy_phase`), and the flow on each edge."""
        pair_cap = quotas[self.pairs[:, 1]]
        group_cap = self.m * quotas
        pair_left, group_left = pair_cap.tolist(), group_cap.tolist()
        f = _greedy_phase(L, *(c.tolist() for c in self.candidates), pair_left, group_left)
        f = np.fromiter(f, np.int64, len(f)).reshape(self.cand.shape)
        sent = f.sum(axis=1)
        return int(sent.sum()), np.concatenate([
            np.hstack([sent[:, None], f]).ravel(),
            pair_cap - pair_left,
            group_cap - group_left,
        ])

    def certifies(self, quotas: np.ndarray, L: int) -> bool:
        """Whether a kept cut proves a rung infeasible: a cut's capacity
        bounds every flow (weak duality), so one below the L units of every
        class leaves some unrouted."""
        if not self.cuts:
            return False
        cap = self.capacities(quotas, L)
        return any(cap[cut].sum() < L * len(self.cand) for cut in self.cuts)

    def keep_cut(self, source_side: np.ndarray) -> None:
        """Keep a failed flow's minimum cut, given by its source side, as the
        ids of the edges leaving it; the oldest of the kept cuts drops out."""
        tail, head = self.head[1::2], self.head[::2]
        self.cuts.append(np.flatnonzero(source_side[tail] & ~source_side[head]))


def _solve_hosting(
    network: _HostingNetwork, quotas: np.ndarray, L: int
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Route L pico-file units per class (receiver j, subset T) to hosting
    groups, respecting per-(receiver, group) caps of quota(G) (a receiver
    occupies at most one constituent slot per symbol) and per-group totals
    of m*quota(G) (each symbol carries m constituents).  ``quotas`` holds
    one count per group, in lex order.

    Returns (cls, group, units) int arrays, or None if infeasible: one
    entry per group hosting some of a class's units, with the class as its
    row in :func:`_hosting_classes` and the group as its row in the lex
    list of (m+1)-subsets.  They are the nonzero entries of the (class,
    candidate) matrix of flows, read from the reverse residuals, which
    ``np.nonzero`` takes in row-major order: by class, and within a class
    by increasing group, since each class's candidates are.

    A rung that a kept cut certifies infeasible runs no flow.  Otherwise
    the flow is the greedy first phase, then ``_Dinic`` from its residual
    network; a flow that fails leaves its minimum cut to the network.
    """
    if network.certifies(quotas, L):
        return None
    units, flow = network.first_phase(quotas, L)
    net = network.rung(quotas, L, flow)
    if units + net.max_flow(0, net.n - 1) != L * len(network.cand):
        network.keep_cut(net.source_side)
        return None
    used = net.residual[network.hosting]
    cls, host = np.nonzero(used)
    return cls, network.cand[cls, host], used[cls, host]


def _forced_hosting(
    cand: np.ndarray, quotas: np.ndarray, L: int, m: int
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``_solve_hosting`` for groups of t+1 members (m == t), without a flow.

    Class (j, T) can then be hosted only by G = T+{j}, its one candidate, so
    the one flow sends L units from each of G's fp = m+1 members into G.  It
    saturates iff every (t+1)-subset has m*quota(G) >= fp*L, which also
    gives quota(G) >= L, the per-receiver cap.
    """
    if (m * quotas < (m + 1) * L).any():
        return None
    return np.arange(len(cand)), cand[:, 0], np.full(len(cand), L)


def _hosting_decider(K: int, m: int, receiver: np.ndarray, cand: np.ndarray):
    """The hosting decision of one ladder rung over the classes of
    :func:`_hosting_classes`, as a function of the rung's quotas (one per
    (m+1)-subset, in lex order) and unit count L: a quota check when every
    class has a single candidate group (m == t), the max-flow otherwise.
    The flow's network keeps the minimum cuts of the flows that failed, so
    one decider serves one walk of the ladder, whose later rungs they may
    certify infeasible."""
    if cand.shape[1] == 1:
        return lambda quotas, L: _forced_hosting(cand, quotas, L, m)
    network = _HostingNetwork(K, m, receiver, cand)
    return lambda quotas, L: _solve_hosting(network, quotas, L)


def _slot_quotas(
    ranks: np.ndarray, cycle: np.ndarray, slots: int, offset: int
) -> np.ndarray:
    """Per-group appearance counts of the cyclic slot sequence over the
    canonical partitions (``ranks``, each partition's groups as rows of the
    lex group list) that starts at ``offset``: the counts of one full cycle
    (``cycle``) times the full cycles, plus the partial tail.  The
    sequence itself is not built."""
    beta = len(ranks)
    full, tail = divmod(slots, beta)
    tail_groups = ranks[(offset + np.arange(tail)) % beta].ravel()
    return full * cycle + np.bincount(tail_groups, minlength=len(cycle))


def _rho_ladder(slots1: int, beta: int) -> list[tuple[int, int]]:
    """Deterministic (rho, offset) attempts.  slots1 = slot count at rho=1
    (an integer by the minimality of L1).

    Small rhos with a few cyclic offsets are tried first (they keep symbol
    counts minimal, and the canonical worked examples run at rho=1); the
    uniform full-cycle rho — always feasible because the even fractional
    hosting solution respects uniform quotas with slack — terminates the
    ladder.  Multiples of the uniform rho would add nothing: L and every
    quota scale with rho there, so a flow saturates at k*rho iff it does at
    rho.  The uniform rung may repeat an earlier attempt, which, being
    feasible, already ends the walk.
    """
    offsets = range(min(beta, 12))
    attempts = [(rho, off) for rho in (1, 2, 3, 4, 6, 8, 12) for off in offsets]
    attempts.append((beta // math.gcd(slots1, beta), 0))
    return attempts


def _user_slots(
    config: SystemConfig, plan: SplitPlan
) -> Optional[tuple[int, int, int, int]]:
    """(t, fp, slots, partitions): the group size, the slot count at rho = 1
    and the number of canonical alpha-partitions into fp-groups; None when
    users deliver nothing (t = 0, t = K or lambda = 1).  Raises ValueError
    for lambda != 1 at t = 0, and SchedulingError when L1 does not make the
    slot count integral."""
    t, K, alpha = _integer_t(config), config.K, plan.alpha
    check_user_share(t, plan.server_share)
    if t == 0 or t >= K or plan.server_share == 1:
        return None
    fp = min(K // alpha, t + 1)
    m = fp - 1
    P1 = K * math.comb(K - 1, t) * plan.L1
    if P1 % (m * alpha):
        raise SchedulingError(
            f"layer count L1={plan.L1} does not make the slot count integral"
        )
    return t, fp, P1 // (m * alpha), equal_partition_count(K, fp, alpha)


def check_schedule_size(config: SystemConfig, plan: SplitPlan) -> tuple[int, int]:
    """Refuse, with a ValueError naming the count, a plan that would build
    more than ``MAX_USER_SYMBOLS`` of any of: placement subsets, C(K, t);
    server symbols, C(K, t+1) unless the server sends nothing; user symbols
    of the uniform full-cycle rung, the largest the ladder builds
    (lcm(slots, partitions) * alpha).  Then refuse a run that would hold
    more than ``MAX_CONSTITUENTS`` constituents, t + 1 per server symbol
    and m per user symbol of that rung, each weighed by the words of its
    subset mask (``CONSTITUENT_BYTES``).  Counted in closed form; nothing
    is enumerated.  Returns the (symbols, constituents) it counted."""
    t, K = _integer_t(config), config.K
    subsets = math.comb(K, t)
    if subsets > MAX_USER_SYMBOLS:
        raise ValueError(
            f"centralized placement for K={K}, t={t} needs C(K,t) = {subsets} "
            f"subsets, above the limit of {MAX_USER_SYMBOLS}"
        )
    server = math.comb(K, t + 1) if plan.server_share else 0
    if server > MAX_USER_SYMBOLS:
        raise ValueError(
            f"centralized server schedule for K={K}, t={t} needs C(K,t+1) = "
            f"{server} server symbols, above the limit of {MAX_USER_SYMBOLS}"
        )
    constituents, worst = server * (t + 1), 0
    shape = _user_slots(config, plan)
    if shape is not None:
        _, fp, slots1, beta = shape
        worst = math.lcm(slots1, beta) * plan.alpha
        if worst > MAX_USER_SYMBOLS:
            raise ValueError(
                f"user schedule for K={K}, t={t}, alpha={plan.alpha} may "
                f"need {worst} user symbols, above the limit of {MAX_USER_SYMBOLS}"
            )
        constituents += worst * (fp - 1)
    fixed, per_word = CONSTITUENT_BYTES
    W = words(K)
    weighed = constituents * (fixed + per_word * W) // (fixed + per_word)
    if weighed > MAX_CONSTITUENTS:
        held = f"{constituents} constituents"
        if W > 1:
            held += f" of {W}-word masks, as many bytes as {weighed} of one word"
        raise ValueError(
            f"centralized run for K={K}, t={t}, alpha={plan.alpha} may hold "
            f"{held}, above the limit of {MAX_CONSTITUENTS}"
        )
    return server + worst, constituents


def build_user_schedule(
    config: SystemConfig, plan: SplitPlan, demands: Sequence[int]
) -> DeliverySchedule:
    """Cooperative user delivery covering every pico-file exactly once.

    Groups of size fp = min(K//alpha, t+1) transmit in parallel (alpha
    disjoint groups per slot); a symbol from sender u in group G XORs one
    pico-file W^{u,l}_{d_j,T_j} for every other member j (with G\\{j}
    contained in T_j, so everyone else in G caches it and j can strip it).

    Each rung of the refinement ladder is decided on its quotas alone: by a
    quota check when groups have t+1 members (each pico-file then has one
    hosting group), by a max-flow otherwise, unless the minimum cut of an
    earlier rung's failed flow proves it infeasible.  Raises ValueError,
    before any enumeration, when :func:`check_schedule_size` refuses the
    plan.
    Raises SchedulingError if no feasible assignment exists at any rung of
    the ladder (which would indicate an internal inconsistency — the
    uniform full-cycle rung is provably feasible).
    """
    return _user_schedule(config, plan, demands)[0]


def _user_schedule(
    config: SystemConfig, plan: SplitPlan, demands: Sequence[int]
) -> tuple[DeliverySchedule, Optional[CentralPlacement]]:
    """:func:`build_user_schedule`, and the placement it built, which a run
    reuses (None when users deliver nothing, and none is built)."""
    d = validate_demands(config, demands)
    check_schedule_size(config, plan)
    shape = _user_slots(config, plan)
    if shape is None:
        return DeliverySchedule(), None  # nothing for users to deliver
    placement = build_central_placement(config)
    t, fp, slots1, beta = shape
    K, alpha = config.K, plan.alpha
    m = fp - 1

    receiver, subset, cand = _hosting_classes(K, t, m)
    decide = _hosting_decider(K, m, receiver, cand)
    ranks = subset_ranks(partition_table(K, fp, alpha)[0], K)
    cycle = np.bincount(ranks.ravel(), minlength=math.comb(K, fp))

    last_err = "no attempts made"
    for rho, offset in _rho_ladder(slots1, beta):
        L = plan.L1 * rho
        slots = slots1 * rho
        quotas = _slot_quotas(ranks, cycle, slots, offset)
        hosting = decide(quotas, L)
        if hosting is None:
            last_err = f"hosting flow infeasible at rho={rho}, offset={offset}"
            continue
        sched = _assemble_schedule(
            config, placement, plan, d, ranks, offset, slots, quotas,
            (receiver, subset), hosting, L, fp,
        )
        size = (1 - plan.server_share) / Frac(math.comb(K, t) * L)
        _audit_user_schedule(config, placement, d, sched, L, m, size)
        return sched, placement
    raise SchedulingError(
        f"user delivery infeasible for K={K}, t={t}, alpha={alpha}: {last_err}"
    )


def _assemble_schedule(
    config: SystemConfig,
    placement: CentralPlacement,
    plan: SplitPlan,
    demands: tuple[int, ...],
    ranks: np.ndarray,
    offset: int,
    slots: int,
    quotas: np.ndarray,
    classes: tuple[np.ndarray, np.ndarray],
    hosting: tuple[np.ndarray, np.ndarray, np.ndarray],
    L: int,
    fp: int,
) -> DeliverySchedule:
    """The user rounds of a feasible rung as int columns (a
    :class:`UserRounds` view), unaudited.

    * Loads: the (cls, group, units) entries of ``hosting``
      (:func:`_solve_hosting`) as they come, by class in (j, T) order and
      within a class by increasing group, as :func:`_hosting_classes` lays
      the classes and their candidates out, so no sort is needed;
      ``classes`` holds each class's receiver and subset rank.  The class's
      layers count up from 0 across its hosts, and each pico-file joins its
      host's load for receiver j.
    * Symbols (a Latin assembly per group): in group G with quota Q, member
      u sends Q - (u's load) symbols, senders in contiguous blocks in G's
      order, and symbol k codes one pico-file of every other member j: j's
      load at position k less the symbols j sent before k.
    * Rounds: slot i runs partition (offset + i) mod beta, each of its
      groups sending its next symbol.  The canonical partitions are
      distinct, so consecutive slots repeat a partition only when beta = 1:
      then every slot merges into one round, otherwise each slot is a
      round of its own.

    ``ranks`` holds the canonical partitions, each group as its row in the
    lex list of fp-subsets, which also indexes ``quotas``.  Memory: the
    pico-files' subset ranks and layers are int32, each intermediate is
    dropped once used, and the symbols are written into the table's
    columns in blocks of at most ``RUN`` constituents, so past the table
    itself a run holds 8 bytes per pico-file and one block's temporaries.
    """
    m = fp - 1
    K, W = config.K, words(config.K)
    size = (1 - plan.server_share) / Frac(math.comb(K, placement.t) * L)
    sets = enumerate_subsets(K, fp)
    live = np.flatnonzero(quotas)
    members = np.array([sets[G] for G in live.tolist()], np.int64).reshape(len(live), fp)
    Q = quotas[live]
    # each pico-file's lane (host, receiver's position in the host), taking
    # each (class, host) entry's units in turn: every class hosts L units
    # in all, so pico-file k is layer k % L of class k // L
    (j, subset), (cls, group, units) = classes, hosting
    host = np.searchsorted(live, group)
    lane = host * fp + (members[host] < j[cls, None]).sum(axis=1)
    lane = np.repeat(lane.astype(np.int32), units)
    load = np.bincount(lane, minlength=len(live) * fp).reshape(-1, fp)
    # the pico-files lane after lane, lane l's load from loads[l]
    order = stable_order(lane)
    del lane
    layer = np.empty(len(order), np.int32)
    np.remainder(order, L, out=layer, casting="unsafe")
    order //= L
    subset = subset.astype(np.int32)[order]
    del order
    loads = offsets(load.ravel())
    bad = (load.max(axis=1) > Q) | (load.sum(axis=1) != m * Q)
    if bad.any():
        g = np.argmax(bad)
        raise SchedulingError(
            f"group {tuple(members[g].tolist())} workload inconsistent with quota {Q[g]}"
        )
    sent = Q[:, None] - load  # each member's block of symbols, in G's order
    ends = np.cumsum(sent, axis=1)

    beta = len(ranks)
    window = ranks[(offset + np.arange(min(slots, beta))) % beta]
    g = np.searchsorted(live, window)[np.arange(slots) % len(window)]
    g = g.ravel()  # each symbol's group
    k = occurrences(g)[2]  # its position in the group's symbols
    n = len(g)
    sender = np.empty(n, np.int32)
    receiver, index = np.empty(n * m, np.int32), np.empty(n * m, np.int32)
    file, subsets = np.empty(n * m, np.int64), np.empty((n * m, W), np.int64)
    files = np.array((0, *demands), np.int64)
    receivers = others(fp)
    block = max(1, RUN // m)
    for lo in range(0, n, block):
        gb, kb = g[lo : lo + block, None], k[lo : lo + block, None]
        a = (kb >= ends[gb[:, 0]]).sum(axis=1)  # each symbol's sender's position
        b = receivers[a]  # its receivers' positions
        pico = loads[gb * fp + b] + kb - np.clip(kb - ends[gb, b] + sent[gb, b], 0, sent[gb, b])
        users = members[gb, b]
        sender[lo : lo + block] = members[gb[:, 0], a]
        at = slice(lo * m, lo * m + users.size)
        receiver[at], file[at] = users.ravel(), files[users].ravel()
        index[at] = layer[pico].ravel()
        subsets[at] = placement.subset_masks[subset[pico].ravel()]
    table = SymbolTable(
        sender, masks(members, W)[g], np.zeros(n, np.int32),
        np.zeros(n, bool), np.arange(n + 1) * m, receiver, file, subsets,
        np.zeros(n * m, np.int32), index, np.full(n * m, L, np.int32), [size], ["u"],
    )
    runs = 1 if beta == 1 else slots
    return DeliverySchedule(
        UserRounds(list(range(runs)), np.arange(runs + 1) * (n // runs), table)
    )


def _pico_keys(
    subset: np.ndarray, receiver: np.ndarray, index: np.ndarray, K: int, t: int, L: int
) -> np.ndarray:
    """The pico (T, layer, j) of each constituent that names one, a subset
    of t users in 1..K, a receiver in 1..K outside it and a layer in
    0..L-1, as one int in [0, C(K, t) * L * (K - t)): T's row in the lex
    list of t-subsets of 1..K, then its layer, then j's position among the
    K - t users outside T.  A subset's row is read a byte of users at a
    time (``model.mask_ranks``); j's position is j - 1 less the members of
    T below j, counted one word at a time."""
    tid = mask_ranks(subset, K, t)
    j = receiver.astype(np.int64)
    word, bit = np.divmod(j, WORD)
    below = np.zeros(len(j), np.int64)
    for w in range(subset.shape[1]):
        low = np.where(word > w, -1, np.where(word == w, (1 << bit) - 1, 0))
        below += np.bitwise_count(subset[:, w] & low)
    kept = (tid >= 0) & (index >= 0) & (index < L) & (j >= 1) & (j <= K) & ~has(subset, j)
    return ((tid * L + index) * (K - t) + j - 1 - below)[kept]


def _audit_user_schedule(
    config: SystemConfig,
    placement: CentralPlacement,
    demands: tuple[int, ...],
    sched: DeliverySchedule,
    L: int,
    m: int,
    size: Frac,
) -> None:
    """Hard guarantees: every pico-file delivered exactly once, every symbol
    decodable by construction, every constituent cached by its co-members.

    Checked on the schedule's columns (a list of rounds passes through the
    adapter), on their mask rows cut to users 1..K, so that a user outside
    1..K is in no group.  The first failure is named in schedule order:
    per symbol its arity, size and sender, then per constituent its
    receiver and whether the rest of its group caches its subset, that is
    whether group & ~subset & ~bit(receiver) is empty.  Every pico
    (T, layer, j) with j outside T is one int key (:func:`_pico_keys`);
    every pico is delivered exactly once iff there are as many keys as
    picos and each pico is hit.  Only when that fails are the deliveries
    counted, to name the first pico delivered a wrong number of times, in
    (user, subset, layer) order.

    The constituents are checked in runs of at most ``RUN``, each run's
    masks gathered for that run alone, so beyond the table the audit holds
    the symbols' group masks, one bool per pico and one run's temporaries.
    """
    t = UserRounds.of(sched.user_rounds).table
    K, n_T, W = config.K, len(placement.subsets), t.group.shape[1]
    group = t.group & masks(np.arange(1, K + 1), W)  # users 1..K only
    arity = np.diff(t.cstart)
    sized = np.array([z is size or z == size for z in t.sizes], bool)
    bad_symbols = np.flatnonzero((arity != m) | ~sized[t.size] | ~has(group, t.sender))
    i = bad_symbols[0] if len(bad_symbols) else len(t)

    def keys(at: slice) -> np.ndarray:
        return _pico_keys(t.subset[at], t.receiver[at], t.index[at], K, placement.t, L)

    # only the constituents of the symbols before the first bad one can
    # fail first
    picos = n_T * L * (K - placement.t)
    hit, kept = np.zeros(picos, bool), 0
    for lo in range(0, t.cstart[i], RUN):
        at = slice(lo, min(lo + RUN, t.cstart[i]))
        of = np.searchsorted(t.cstart, np.arange(at.start, at.stop), side="right") - 1
        receiver, mine = t.receiver[at], group[of]
        misplaced = ~has(mine, receiver) | (receiver == t.sender[of])
        strip = (mine & ~t.subset[at] & ~masks(receiver[:, None], W)).any(axis=1)
        bad = np.flatnonzero(misplaced | strip)
        if len(bad):
            c = bad[0]
            if misplaced[c]:
                raise SchedulingError("constituent receiver misplaced")
            raise SchedulingError(
                f"group {user_sets(t.group[of[c : c + 1]])[0]} cannot strip "
                f"{t.fragments(np.array([lo + c]))[0]} for user {receiver[c]}"
            )
        run = keys(at)
        hit[run] = True
        kept += len(run)
    if i < len(t):
        if arity[i] != m:
            raise SchedulingError(f"symbol codes {arity[i]} != {m}")
        if not sized[t.size[i]]:
            raise SchedulingError("unequal pico sizes in user schedule")
        raise SchedulingError("sender outside its group")
    # as many keys as picos, and every pico hit: each was hit exactly once
    if kept == picos and hit.all():
        return
    seen = np.zeros(picos, np.int64)
    for lo in range(0, len(t.receiver), RUN):
        np.add.at(seen, keys(slice(lo, lo + RUN)), 1)
    # every pico in (user, subset, layer) order: pico (T, layer, q) goes to
    # T's q-th user outside T
    outside = np.array(
        [[u for u in range(1, K + 1) if u not in T] for T in placement.subsets], np.int64
    ).reshape(n_T, K - placement.t)
    T, layer, q = np.unravel_index(np.flatnonzero(seen != 1), (n_T, L, K - placement.t))
    u = outside[T, q]
    first = stable_order(layer, T, u)[0]
    raise SchedulingError(
        f"pico (user {u[first]}, T={placement.subsets[T[first]]}, layer {layer[first]}) "
        f"delivered {seen.reshape(n_T, L, -1)[T[first], layer[first], q[first]]} times"
    )


def build_delivery(
    config: SystemConfig,
    demands: Sequence[int],
    alpha: Optional[int] = None,
    server_share: Optional[Frac] = None,
) -> tuple[SplitPlan, DeliverySchedule]:
    """Full centralized delivery: server symbols plus user rounds."""
    plan = make_split_plan(config, alpha=alpha, server_share=server_share)
    return plan, _delivery(config, plan, demands)[0]


def _delivery(
    config: SystemConfig, plan: SplitPlan, demands: Sequence[int]
) -> tuple[DeliverySchedule, Optional[CentralPlacement]]:
    """:func:`build_delivery` at ``plan``, and the placement its user
    schedule built (None when users deliver nothing), which a run reuses."""
    sched, placement = _user_schedule(config, plan, demands)
    sched.server_symbols = build_server_schedule(config, plan, demands)
    return sched, placement
