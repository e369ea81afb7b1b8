"""The counting-sort bit placement against the searchsorted oracle.

``tests/placement_oracle.py`` holds the bit placement as it was before the
split became one stable argsort plus code counts per file.  The fast one
must give the same ``subfile_positions`` (values, dtype and key order) on
every shape, and each user's cache of each file, the union of the W_{n,T}
with k in T, must equal that user's draw in the oracle.  The shapes include
the edges: one user, empty and full caches, F not divisible by N, F
below 2^K, and F on each side of the 8- and 16-bit boundaries of the
dtype the placement stores its position orders in.
"""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import placement_oracle as oracle
from coopcache import SystemConfig, build_decentral_placement


def _assert_same_placement(config, seed):
    fast = build_decentral_placement(config, seed=seed, mode="bits")
    ref = oracle.build_bit_placement(config, seed=seed)
    got, want = fast.subfile_positions, ref.subfile_positions
    assert list(got) == list(want)
    for key, pos in want.items():
        assert got[key].dtype == pos.dtype, key
        assert np.array_equal(got[key], pos), key
    assert len(ref.cache_positions) == config.K * config.N
    for (k, n), draw in ref.cache_positions.items():
        cache = np.sort(
            np.concatenate([pos for (m, T), pos in got.items() if m == n and k in T])
        )
        assert cache.dtype == draw.dtype, (k, n)
        assert np.array_equal(cache, draw), (k, n)


# (N, K, M, F); M is a cache size in files, so p = M/N
SHAPES = [
    (3, 3, 1, 300),  # p = 1/3, every split non-empty
    (4, 4, 0, 40),  # empty caches: per_file = 0, every bit in W_{n,()}
    (4, 4, 4, 40),  # full caches: every bit in W_{n,{1..4}}
    (3, 3, 2, 100),  # M*F/N = 200/3 is floored
    (5, 5, 2, 7),  # F = 7 < 2^5: most subfiles are empty
    (6, 6, 2, 1001),
    (9, 9, 3, 2000),  # a 16-bit mask code
    # each side of the stored order's dtype boundaries: F - 1 fits uint8,
    # uint16, uint16, uint32
    (3, 3, 1, 256),
    (3, 3, 1, 257),
    (4, 4, 2, 65536),
    (4, 4, 2, 65537),
]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("seed", [0, 1, 4242])
def test_fast_placement_matches_oracle(shape, seed):
    N, K, M, F = shape
    _assert_same_placement(SystemConfig(N, K, M, F=F), seed)


@pytest.mark.parametrize("M", [0, 1, 2])
def test_fast_placement_matches_oracle_with_one_user(M):
    # SystemConfig needs K >= 2; the placement reads only N, K, M and F
    config = SimpleNamespace(N=2, K=1, M=Fraction(M), F=11)
    _assert_same_placement(config, seed=3)


@given(
    K=st.integers(2, 6),
    extra_files=st.integers(0, 2),
    cache_quarters=st.integers(0, 4),
    F=st.integers(1, 150),
    seed=st.integers(0, 10**6),
)
def test_fast_placement_matches_oracle_on_random_shapes(
    K, extra_files, cache_quarters, F, seed
):
    N = K + extra_files
    config = SystemConfig(N, K, Fraction(cache_quarters * N, 4), F=F)
    _assert_same_placement(config, seed)


@pytest.mark.parametrize(
    "N, F, itemsize",
    [(3, 256, 1), (3, 257, 2), (4, 65536, 2), (4, 65537, 4), (6, 70000, 4)],
)
def test_bit_placement_stores_one_compact_order_per_file(N, F, itemsize):
    # one position per bit of the library, in the smallest unsigned dtype
    # that holds F - 1
    placement = build_decentral_placement(SystemConfig(N, N, 2, F=F), mode="bits")
    assert placement.orders.dtype == np.min_scalar_type(F - 1)
    assert placement.orders.itemsize == itemsize
    assert placement.orders.nbytes == N * F * itemsize
