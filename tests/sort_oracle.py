"""The two sorts the package used before its one sort kernel, kept as the
reference for ``coopcache.model.distinct``.

``distinct`` and ``occurrences`` are ``coopcache.model``'s as they shipped
before every stable order went through ``model.stable_order``: columns
packed into one int64 key when they are nonnegative and their widths sum to
at most 63 bits, sorted by one stable int64 argsort, and ``np.lexsort``
otherwise; ``occurrences`` ran a second stable argsort over the ids.  The
kernel's ``distinct`` must give the same ids and first rows, and its
occurrences must equal ``occurrences`` of those ids.
"""

from __future__ import annotations

import numpy as np


def occurrences(key: np.ndarray) -> np.ndarray:
    """Per row, how many earlier rows hold the same key (one stable
    argsort)."""
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    new = np.ones(len(key), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    out = np.empty(len(key), np.int64)
    out[order] = np.arange(len(key)) - np.flatnonzero(new)[np.cumsum(new) - 1]
    return out


def distinct(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows equal in every column share one id: (each row's id, the first
    row of each id).  Ids follow the sorted order of the columns, the last
    one primary."""
    n = len(columns[0])
    widths = [int(c.max()).bit_length() for c in columns] if n else []
    if n and sum(widths) <= 63 and min(int(c.min()) for c in columns) >= 0:
        key = np.zeros(n, np.int64)
        for column, width in zip(reversed(columns), reversed(widths)):
            key = key << width | column
        order = np.argsort(key, kind="stable")
        columns = (key,)
    else:
        order = np.lexsort(columns)
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for column in columns:
        ordered = column[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    ids = np.empty(n, np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids, order[new]
