"""The package's export list."""

import coopcache


def test_all_has_no_duplicates_and_every_name_resolves():
    names = coopcache.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(coopcache, n)] == []
