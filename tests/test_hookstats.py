from collections import Counter

import pytest

from corehooks.generate import PartFilter, count_t_cores
from corehooks.hookstats import (
    FAILS,
    HOLDS,
    NOT_APPLICABLE,
    bias_table,
    cross_core_bias_table,
    hook_count_table,
    per_partition_compare,
    total_hook_count,
)

from conftest import (
    naive_hook_count,
    naive_hooks,
    naive_is_t_core,
    naive_partitions,
    walk_t_cores,
)

C1 = PartFilter(excluded=frozenset({1}))
C12 = PartFilter(excluded=frozenset({1, 2}))


def naive_total(n, t, k, f=PartFilter()):
    return sum(
        naive_hook_count(parts, k)
        for parts in naive_partitions(n)
        if naive_is_t_core(parts, t) and f.passes(parts)
    )


def test_staircase_odd_hook_fixture():
    # the single 2-core of 6 contributes three 1-hooks
    assert total_hook_count(6, 2, 1) == 3
    assert total_hook_count(6, 2, 3) == 2
    assert total_hook_count(6, 2, 5) == 1


def test_nonmonotone_middle_counts():
    # middle hook counts can sit outside the 1-hook/3-hook bracket
    assert total_hook_count(4, 4, 1) == 1
    assert total_hook_count(4, 4, 2) == 2
    assert total_hook_count(3, 4, 2) == 2
    assert total_hook_count(3, 4, 3) == 3


def test_empty_n_has_no_hooks():
    for t in (2, 5, 7):
        assert total_hook_count(0, t, 1) == 0


def test_restricted_fixtures():
    assert total_hook_count(9, 4, 1, C12) == 2
    assert total_hook_count(5, 4, 1, C12) == 0
    assert total_hook_count(9, 4, 3, C12) == 2


def test_count_query_validation():
    with pytest.raises(ValueError, match="t must be at least 2"):
        total_hook_count(0, 1, 1)
    with pytest.raises(ValueError, match="k must be positive"):
        total_hook_count(0, 2, 0)
    with pytest.raises(ValueError, match="n must be non-negative"):
        total_hook_count(-1, 2, 1)


@pytest.mark.parametrize("t,k", [(2, 1), (3, 2), (4, 3), (5, 6)])
def test_totals_match_naive(t, k):
    for n in range(16):
        assert total_hook_count(n, t, k) == naive_total(n, t, k)
        assert total_hook_count(n, t, k, C1) == naive_total(n, t, k, C1)


def test_table_matches_point_queries():
    tables, core_counts = hook_count_table(4, 20, ks=(1, 2, 3))
    for n in range(21):
        assert core_counts[n] == count_t_cores(n, 4)
        for k in (1, 2, 3):
            assert tables[n][k] == total_hook_count(n, 4, k)


def test_bias_table_fixture_and_verdicts():
    recs = bias_table(3, [1, 2, 4], 4, 4, relations=[">=", ">="])
    assert recs[0].values == {(3, 1): 4, (3, 2): 2, (3, 4): 2}
    assert recs[0].verdict == HOLDS

    recs = bias_table(4, [1, 3], 0, 20, relations=[">="])
    assert [r.n for r in recs] == list(range(21))
    assert all(r.verdict != FAILS for r in recs)

    recs = bias_table(5, [1, 3, 6], 7, 7, relations=[">=", ">="])
    assert recs[0].verdict == HOLDS

    # no 3-core of 3 exists, so the check is vacuous there
    recs = bias_table(3, [1, 2], 3, 3, relations=[">="])
    assert recs[0].verdict == NOT_APPLICABLE


def test_bias_table_validation():
    with pytest.raises(ValueError):
        bias_table(3, [], 0, 5, relations=[])
    with pytest.raises(ValueError):
        bias_table(3, [1, 2], 0, 5, relations=[])
    with pytest.raises(ValueError):
        bias_table(3, [1, 2], 0, 5, relations=["!="])
    with pytest.raises(ValueError):
        bias_table(3, [1, 2], 5, 4, relations=[">="])


def test_per_partition_fixtures():
    r = per_partition_compare(4, 12, 1, 3)
    assert r.verdict == HOLDS and r.witness is None

    r = per_partition_compare(3, 10, 1, 2)
    assert r.verdict == HOLDS

    r = per_partition_compare(2, 6, 1, 3)
    assert r.verdict == HOLDS and r.witness is None

    r = per_partition_compare(2, 5, 1, 3)
    assert r.verdict == NOT_APPLICABLE

    # reversed comparison fails; first violator in stream order is (2,1)
    r = per_partition_compare(4, 3, 3, 1)
    assert r.verdict == FAILS
    assert r.witness is not None and r.witness.parts == (2, 1)
    assert r.values == {(4, 3): 3, (4, 1): 4}


def test_cross_core_table():
    for k in (1, 3):
        recs = cross_core_bias_table([(2, k), (4, k)], 0, 40, ["<="])
        assert all(r.verdict != FAILS for r in recs)
    with pytest.raises(ValueError):
        cross_core_bias_table([], 0, 5, [])


def test_box_conservation_small():
    # every box of every t-core contributes exactly one hook
    for t in range(2, 8):
        tables, core_counts = hook_count_table(t, 25)
        for n in range(26):
            assert sum(tables[n].values()) == n * core_counts[n]


def test_no_hooks_divisible_by_t():
    for t in range(2, 8):
        tables, _ = hook_count_table(t, 25)
        for n in range(26):
            assert all(k % t for k in tables[n])


def test_hook_lengths_must_be_positive():
    for ks in ((1, 0), (-3,)):
        with pytest.raises(ValueError, match="hook lengths must be positive"):
            hook_count_table(5, 10, ks=ks)
        with pytest.raises(ValueError, match="hook lengths must be positive"):
            bias_table(5, [1, *ks], 0, 10, relations=[">="] * len(ks))
    with pytest.raises(ValueError, match="hook lengths must be positive"):
        cross_core_bias_table([(2, 0), (4, 1)], 0, 10, ["<="])


def test_repeated_k_is_counted_once():
    tables, _ = hook_count_table(4, 12, ks=(1, 1, 3))
    single, _ = hook_count_table(4, 12, ks=(1, 3))
    assert tables == single
    recs = bias_table(4, [1, 1], 0, 5, relations=["="])
    assert [r.values[(4, 1)] for r in recs] == [0, 1, 2, 4, 1, 6]


def test_large_t_counts_every_partition():
    # for t > n every partition of n is a t-core, whatever t is
    tables, core_counts = hook_count_table(10**9, 12, ks=(1, 5))
    assert core_counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    assert tables[12][1] == total_hook_count(12, 10**6, 1) == naive_total(12, 13, 1)
    assert tables[12][5] == naive_total(12, 13, 5)


# filters of the differential test below
FILTERS = [
    PartFilter(),
    PartFilter(excluded=frozenset({1})),
    PartFilter(excluded=frozenset({1, 2})),
    PartFilter(excluded=frozenset({2, 5})),
    PartFilter(min_part=3),
]


@pytest.mark.parametrize("t,n_max", [(t, 60) for t in range(2, 8)] + [(50, 22)])
def test_engine_matches_walker_with_diagram_hooks(t, n_max):
    # The package counts hooks on charge vectors, as the bead oracle of
    # conftest does, so the reference here is the other route: the
    # part-by-part walker of conftest with hooks counted box by box on the
    # diagram.  For t = 50 every partition of n <= 22 is a 50-core.
    profiles = [
        (n, parts, Counter(naive_hooks(parts))) for n, parts in walk_t_cores(t, n_max, False)
    ]
    for f in FILTERS:
        want = [Counter() for _ in range(n_max + 1)]
        want_counts = [0] * (n_max + 1)
        for n, parts, hooks in profiles:
            if f.passes(parts):
                want_counts[n] += 1
                want[n].update(hooks)
        assert hook_count_table(t, n_max, f) == (want, want_counts), f
        tables, core_counts = hook_count_table(t, n_max, f, ks=range(1, 9))
        assert core_counts == want_counts
        assert tables == [Counter({k: c for k, c in w.items() if k <= 8}) for w in want]
        for n in range(min(n_max, 40) + 1):
            for k in range(1, 9):
                assert total_hook_count(n, t, k, f) == want[n][k], (f, n, k)
