"""The partition enumerator, kept as the reference for the partition table.

``_disjoint_group_choices`` is what both schemes enumerated their group
partitions with before ``coopcache.model.partition_table`` built them as
int tables: a depth-first walk yielding each choice as a (groups, idle
users) pair of tuples.  The table must list the same choices, in the same
order, with the same idle users.
"""

from __future__ import annotations

import itertools


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
