"""The searchsorted bit placement, kept as the reference for the fast one.

``build_bit_placement`` is the bit-mode part of ``build_decentral_placement``
as the simulator shipped it before the split became one counting sort per
file: every file's caching sets are held as a ``uint32`` mask, all masks are
built first, and each of the 2^K subfiles is cut out of the sorted mask by
two ``np.searchsorted`` calls and re-sorted.  The fast placement in
``coopcache.decentralized`` must produce the same positions, dtype and key
order.  Every user's sorted draw is kept as ``cache_positions[(k, n)]``,
which the fast placement does not store, so a test can check each user's
cache against the subfiles that hold it.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from coopcache import enumerate_subsets


def build_bit_placement(config, seed: int = 0) -> SimpleNamespace:
    K, N, F = config.K, config.N, config.F
    per_file = int(config.M * F / config.N)  # floor(M*F/N)
    pl = SimpleNamespace(cache_positions={}, subfile_positions={})
    masks = {}
    for n in range(1, N + 1):
        mask = np.zeros(F, dtype=np.uint32)
        for k in range(1, K + 1):
            rng = np.random.default_rng((seed, k, n))
            pos = rng.choice(F, size=per_file, replace=False)
            pos.sort()
            pl.cache_positions[(k, n)] = pos
            mask[pos] |= np.uint32(1 << (k - 1))
        masks[n] = mask
    for n in range(1, N + 1):
        mask = masks[n]
        order = np.argsort(mask, kind="stable")
        sorted_mask = mask[order]
        for size in range(0, K + 1):
            for T in enumerate_subsets(K, size):
                code = sum(1 << (k - 1) for k in T)
                lo = np.searchsorted(sorted_mask, code, side="left")
                hi = np.searchsorted(sorted_mask, code, side="right")
                pos = order[lo:hi]
                pos.sort()
                pl.subfile_positions[(n, T)] = pos
    return pl
