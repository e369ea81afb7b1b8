"""The sort kernel (``model.stable_order`` and the ``distinct`` and
``occurrences`` built on it) against the two sorts it replaced
(``tests/sort_oracle.py``) and against ``np.lexsort``; and ``model.runs``,
distinct's ids of rows already sorted.

Each case draws rows from a small pool, so that keys repeat, and puts the
bounds of every column in the pool, so that the widths the kernel
reads are the ones the case names: the radix edges (8/9 and 16/17 bits), a
packed key whose width plus row bits is 62, 63 or 64, negative values, and
values spanning all of int64, next to 0 and 1 rows, all-equal keys and two
mask words per set of users.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sort_oracle
from coopcache.model import WORD, distinct, masks, occurrences, runs, stable_order

INT64 = (-(1 << 63), (1 << 63) - 1)


def _rows(draw, bounds, n):
    """n rows drawn from a pool that holds each column's bounds."""
    columns = [st.integers(lo, hi) for lo, hi in bounds]
    pool = [tuple(hi for _, hi in bounds), tuple(lo for lo, _ in bounds)]
    pool += draw(st.lists(st.tuples(*columns), min_size=0, max_size=8))
    rows = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return [np.array([row[c] for row in rows], np.int64) for c in range(len(bounds))]


def _split(draw, width, parts):
    """``width`` bits cut into ``parts`` column widths, each at least 0."""
    cuts = sorted(draw(st.lists(st.integers(0, width), min_size=parts - 1, max_size=parts - 1)))
    return [b - a for a, b in zip([0, *cuts], [*cuts, width])]


@st.composite
def radix_edges(draw):
    width = draw(st.sampled_from([8, 9, 16, 17]))
    return _rows(draw, [(0, (1 << width) - 1)], draw(st.integers(2, 200)))


@st.composite
def packed_edges(draw):
    n = draw(st.integers(2, 300))
    width = draw(st.sampled_from([62, 63, 64])) - (n - 1).bit_length()
    widths = _split(draw, width, draw(st.integers(1, 3)))
    return _rows(draw, [(0, (1 << w) - 1) for w in widths], n)


@st.composite
def negatives(draw):
    lo = draw(st.sampled_from([-1, -(1 << 20), -(1 << 62), INT64[0]]))
    hi = draw(st.sampled_from([0, 5, 1 << 40, INT64[1]]))
    bounds = [(lo, hi)] + [(0, 255)] * draw(st.integers(0, 2))
    return _rows(draw, draw(st.permutations(bounds)), draw(st.integers(2, 100)))


@st.composite
def mask_words(draw):
    members = st.frozensets(st.integers(0, 2 * WORD - 1), max_size=6)
    pool = draw(st.lists(members, min_size=1, max_size=8))
    pool.append(frozenset({2 * WORD - 1}))
    sets = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=100))
    width = max(map(len, sets))
    users = np.array([sorted(s) + [-1] * (width - len(s)) for s in sets], np.int64)
    extra = _rows(draw, [(0, 7)], len(sets))
    return [*extra, *masks(users.reshape(len(sets), width), 2).T]


@st.composite
def small(draw):
    n = draw(st.sampled_from([0, 1]))
    bounds = st.tuples(st.integers(-3, 0), st.integers(0, 1 << 40))
    return [
        np.array(draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)), np.int64)
        for lo, hi in draw(st.lists(bounds, min_size=1, max_size=3))
    ]


@st.composite
def all_equal(draw):
    n = draw(st.integers(2, 200))
    values = draw(st.lists(st.integers(*INT64), min_size=1, max_size=3))
    return [np.full(n, v, np.int64) for v in values]


def _agree(columns):
    ids, first = distinct(*columns)
    want_ids, want_first = sort_oracle.distinct(*columns)
    assert np.array_equal(ids, want_ids)
    assert np.array_equal(first, want_first)
    ids, first, occurrence = occurrences(*columns)
    assert np.array_equal(ids, want_ids)
    assert np.array_equal(first, want_first)
    assert np.array_equal(occurrence, sort_oracle.occurrences(want_ids))
    assert np.array_equal(stable_order(*columns), np.lexsort(columns))
    if len(columns) == 1:
        assert np.array_equal(stable_order(*columns), np.argsort(columns[0], kind="stable"))
    # rows already sorted: runs gives distinct's ids and first rows, unsorted
    ordered = [column[np.lexsort(columns)] for column in columns]
    for got, want in zip(runs(*ordered), sort_oracle.distinct(*ordered)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "case", [radix_edges, packed_edges, negatives, mask_words, small, all_equal]
)
@given(data=st.data())
def test_the_kernel_gives_the_oracle_ids_first_rows_and_occurrences(case, data):
    _agree(data.draw(case()))


def test_the_kernel_keeps_each_columns_dtype_out_of_the_order():
    # the same values as int32, bool or uint16 give the int64 columns' order
    values = np.array([3, 1, 3, 0, 1, 3], np.int64)
    for dtype in (np.int32, np.uint16, np.uint8):
        _agree([values.astype(dtype), (values % 2).astype(bool)])
    _agree([np.array([True, False, True])])
