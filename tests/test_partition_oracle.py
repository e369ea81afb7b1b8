"""The partition table against the enumerator it replaced."""

import partition_oracle as oracle
from coopcache.model import partition_table


def test_partition_table_matches_the_oracle_for_k_up_to_12():
    checked = 0
    for K in range(1, 13):
        for s in range(1, K + 1):
            for count in range(K // s + 1):
                groups, idle = partition_table(K, s, count)
                assert groups.shape[1:] == (count, s) and idle.shape[1] == K - count * s
                got = [
                    (tuple(map(tuple, row)), tuple(rest))
                    for row, rest in zip(groups.tolist(), idle.tolist())
                ]
                assert got == oracle._disjoint_group_choices(K, s, count), (K, s, count)
                checked += 1
    assert checked == sum(K // s + 1 for K in range(1, 13) for s in range(1, K + 1))
