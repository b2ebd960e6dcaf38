import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from corehooks.generate import (
    EnumStats,
    PartFilter,
    count_t_cores,
    iter_partition_parts,
    partition_text_chunks,
    partitions_of,
    t_cores_of,
    t_cores_up_to,
)
from corehooks.partition import Partition, parts_text

from conftest import naive_is_t_core, naive_partitions, partition_parts

C1 = PartFilter(excluded=frozenset({1}))
C12 = PartFilter(excluded=frozenset({1, 2}))


def test_partitions_of_order_fixture():
    got = [p.parts for p in partitions_of(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_of_zero():
    assert [p.parts for p in partitions_of(0)] == [()]
    assert [p.parts for p in partitions_of(0, C12)] == [()]


def test_partitions_of_excluding_ones():
    assert [p.parts for p in partitions_of(4, C1)] == [(4,), (2, 2)]


def test_partitions_of_matches_naive():
    for n in range(11):
        assert [p.parts for p in partitions_of(n)] == naive_partitions(n)


@given(
    partition_parts(),
    st.frozensets(st.integers(min_value=1, max_value=45), max_size=5),
    st.integers(min_value=1, max_value=45),
)
def test_passes_is_allows_on_every_part(parts, excluded, min_part):
    f = PartFilter(excluded=excluded, min_part=min_part)
    assert f.passes(parts) == all(f.allows(p) for p in parts)
    assert f.passes(())


def test_partitions_of_min_part():
    f = PartFilter(min_part=2)
    assert [p.parts for p in partitions_of(6, f)] == [(6,), (4, 2), (3, 3), (2, 2, 2)]


def test_filter_validation():
    with pytest.raises(ValueError):
        PartFilter(min_part=0)
    with pytest.raises(ValueError):
        PartFilter(excluded=frozenset({0}))


def test_t_core_fixtures():
    assert [p.parts for p in t_cores_of(4, 3)] == [(3, 1), (2, 1, 1)]
    assert [p.parts for p in t_cores_of(3, 4)] == [(3,), (2, 1), (1, 1, 1)]
    assert [p.parts for p in t_cores_of(6, 2)] == [(3, 2, 1)]


def test_count_fixtures():
    assert count_t_cores(5, 2) == 0
    assert count_t_cores(6, 2) == 1
    assert count_t_cores(4, 4) == 1


def test_t_requires_at_least_two():
    with pytest.raises(ValueError):
        list(t_cores_of(4, 1))
    with pytest.raises(ValueError):
        count_t_cores(4, 0)
    with pytest.raises(ValueError):
        list(t_cores_of(-1, 3))


@pytest.mark.parametrize("t", range(2, 8))
@pytest.mark.parametrize("f", [PartFilter(), C1, C12], ids=["all", "no1", "no12"])
def test_pruned_matches_brute_force(t, f):
    # ordered-sequence equality against direct filtering, n <= 26
    for n in range(27):
        expect = [
            parts
            for parts in naive_partitions(n)
            if naive_is_t_core(parts, t) and f.passes(parts)
        ]
        got = [p.parts for p in t_cores_of(n, t, f)]
        assert got == expect, (n, t)


@pytest.mark.parametrize("t", range(2, 8))
def test_sweep_agrees_with_per_n_streams(t):
    per_n = {n: [p.parts for p in t_cores_of(n, t)] for n in range(26)}
    swept: dict[int, list] = {n: [] for n in range(26)}
    for n, p in t_cores_up_to(25, t):
        swept[n].append(p.parts)
    assert swept == per_n


def test_emitted_cores_conjugate_closed():
    for t in range(2, 8):
        for n, p in t_cores_up_to(45, t):
            q = p.conjugate()
            assert q.n == n
            assert q.is_t_core(t)


def test_determinism_byte_for_byte():
    a = "\n".join(str(p) for _, p in t_cores_up_to(40, 5))
    b = "\n".join(str(p) for _, p in t_cores_up_to(40, 5))
    assert a == b
    c = "\n".join(str(p) for p in t_cores_of(30, 3))
    d = "\n".join(str(p) for p in t_cores_of(30, 3))
    assert c == d


def test_series_oracle_small():
    from corehooks.qseries import core_count_series

    for t in range(2, 8):
        series = core_count_series(t, 40)
        for n in range(41):
            assert series[n] == count_t_cores(n, t)


def test_enum_stats():
    stats = EnumStats()
    got = list(t_cores_of(20, 4, stats=stats))
    assert stats.produced == len(got) == count_t_cores(20, 4)
    assert stats.n == 20 and stats.t == 4
    assert stats.pruned_nodes > 0

    sweep_stats = EnumStats()
    swept = list(t_cores_up_to(20, 4, stats=sweep_stats))
    assert sweep_stats.produced == len(swept)


def test_emitted_partitions_are_valid():
    for n, p in t_cores_up_to(25, 6, C12):
        assert isinstance(p, Partition)
        assert p.n == n == sum(p.parts)
        assert all(v not in (1, 2) for v in p.parts)
        Partition(p.parts)  # revalidates monotonicity


def test_iter_partition_parts_rejects_negative():
    with pytest.raises(ValueError):
        list(iter_partition_parts(-1))


def _text_oracle(n, f):
    """The lines of partition_text_chunks from the part tuple stream."""
    return "".join(parts_text(p.parts) + "\n" for p in partitions_of(n, f))


def _chunks_checked(n, f):
    chunks = list(partition_text_chunks(n, f))
    assert all(chunks), "an empty chunk was yielded"
    # about 4096 lines each; a table leaf adds at most p(14) = 135 more
    assert all(c.count("\n") < 4096 + 135 for c in chunks)
    return "".join(chunks)


@pytest.mark.parametrize(
    "f",
    [PartFilter(), C1, C12, PartFilter(excluded=frozenset({2, 5})), PartFilter(min_part=3)],
    ids=["all", "no1", "no12", "no25", "min3"],
)
def test_partition_text_matches_parts_text(f):
    # n = 0..32 crosses the suffix table bound of 14
    for n in range(33):
        assert _chunks_checked(n, f) == _text_oracle(n, f), n


def test_partition_text_with_every_part_excluded():
    for n in range(1, 33):
        f = PartFilter(excluded=frozenset(range(1, n + 1)))
        assert list(partition_text_chunks(n, f)) == [], n
    assert list(partition_text_chunks(0, PartFilter(min_part=3))) == ["[]\n"]


@given(
    st.integers(min_value=0, max_value=28),
    st.frozensets(st.integers(min_value=1, max_value=12)),
    st.integers(min_value=1, max_value=5),
)
def test_partition_text_matches_parts_text_sampled(n, excluded, min_part):
    f = PartFilter(excluded=excluded, min_part=min_part)
    assert _chunks_checked(n, f) == _text_oracle(n, f)


def test_partition_text_walks_long_prefixes_without_recursion():
    # only parts 1 and 3000 are allowed: a run of 2999 ones is one prefix,
    # three times the default recursion limit
    f = PartFilter(excluded=frozenset(range(2, 3000)))
    assert "".join(partition_text_chunks(3000, f)) == "[3000]\n[" + ",".join(["1"] * 3000) + "]\n"


def test_partition_text_skips_dead_prefixes():
    # only even parts: no prefix of an odd n can be completed, so nothing
    # is walked; without that cut the walk would go through p(100) ~ 1.9e8
    # prefixes, so it runs in a child process with a time limit
    odd = ",".join(map(str, range(1, 202, 2)))
    proc = subprocess.run(
        [sys.executable, "-m", "corehooks", "enum", "--n", "201", "--exclude", odd],
        capture_output=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    f = PartFilter(excluded=frozenset(range(1, 202, 2)))
    assert list(partition_text_chunks(6, f)) == ["[6]\n[4,2]\n[2,2,2]\n"]


def test_partition_text_rejects_negative():
    with pytest.raises(ValueError):
        list(partition_text_chunks(-1))
