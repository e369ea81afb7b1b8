"""The (rho, offset) ladder walked one rung at a time, kept as the reference
for the walk that decides a rho's rungs together.

``_slot_quotas``, ``_forced_hosting`` and ``_hosting_decider`` are what the
centralized scheduler ran on every rung before each rho's rungs took their
quotas from one matrix and its forced rungs (groups of t+1 members, m == t)
were decided by one comparison.  ``walk`` is the ladder loop that called
them: each rung's quotas counted on their own, in closed form, and each
rung decided alone, a forced one by a quota check, any other by the
package's ``_solve_hosting`` over one network for the whole walk.
``_sorted_hosting_classes`` is the enumeration of the hosting classes that
sorted every (class, candidate) group before ranking it.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np

from coopcache.centralized import _HostingNetwork, _rho_ladder, _solve_hosting
from coopcache.model import enumerate_subsets, has, masks, subset_ranks, words


def _sorted_hosting_classes(K: int, t: int, m: int):
    """The hosting classes of (K, t, m) as (receiver, subset, cand) arrays,
    each candidate group sorted before it is ranked."""
    subsets = np.array(enumerate_subsets(K, t), np.int64).reshape(-1, t)
    users = np.arange(1, K + 1)
    j, T = np.nonzero(~has(masks(subsets, words(K)), users[:, None]))
    picks = np.array(list(itertools.combinations(range(t), m)), np.intp)
    hosts = subsets[T][:, picks]
    receiver = np.broadcast_to(j[:, None, None] + 1, (*hosts.shape[:2], 1))
    cand = subset_ranks(np.sort(np.concatenate([hosts, receiver], axis=2)), K)
    return j + 1, T, cand


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
    """The hosting decision of one ladder rung as a function of the rung's
    quotas and unit count L: a quota check when every class has a single
    candidate group (m == t), the max-flow otherwise, over one network whose
    kept cuts serve one walk of the ladder."""
    if cand.shape[1] == 1:
        return lambda quotas, L: _forced_hosting(cand, quotas, L, m)
    network = _HostingNetwork(K, m, receiver, cand)
    return lambda quotas, L: _solve_hosting(network, quotas, L)


def walk(K, m, receiver, cand, ranks, slots1, L1):
    """The first feasible rung, every rung decided alone, as
    ``centralized._walk_ladder`` returns it: (rho, offset, quotas,
    hosting), or None."""
    decide = _hosting_decider(K, m, receiver, cand)
    cycle = np.bincount(ranks.ravel(), minlength=math.comb(K, m + 1))
    for rho, offset in _rho_ladder(slots1, len(ranks)):
        quotas = _slot_quotas(ranks, cycle, slots1 * rho, offset)
        hosting = decide(quotas, L1 * rho)
        if hosting is not None:
            return rho, offset, quotas, hosting
    return None
