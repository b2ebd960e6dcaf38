import subprocess
import sys
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from corehooks import _abacus, generate
from corehooks.generate import (
    PartFilter,
    count_t_cores,
    iter_partition_parts,
    partition_text_chunks,
    partitions_of,
    t_cores_of,
    t_cores_up_to,
)
from corehooks.partition import Partition, parts_text

from conftest import (
    _partition_from_vector,
    charge_vector_of,
    class_number,
    core_block,
    five_core_count,
    is_square_free,
    largest_less_length,
    naive_hooks,
    naive_is_t_core,
    naive_partitions,
    partition_parts,
    prefix_runs,
    three_core_count,
    vector_of_positions,
    walk_t_cores,
    walker_cores_of,
)

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
    with pytest.raises(ValueError, match="min_part must be an integer, got 1.5"):
        PartFilter(min_part=1.5)
    with pytest.raises(ValueError, match="min_part must be an integer, got '2'"):
        PartFilter(min_part="2")
    with pytest.raises(ValueError, match="excluded values must be integers, got 1.5"):
        PartFilter(excluded=frozenset({1.5}))
    with pytest.raises(ValueError, match="excluded values must be integers, got '3'"):
        PartFilter(excluded={"3"})
    # the excluded values are kept as a frozenset, so a filter is a value
    assert PartFilter(excluded={1}) == PartFilter(excluded=frozenset({1}))
    assert {PartFilter(excluded=frozenset({1})): "no1"}[PartFilter(excluded={1})] == "no1"
    with pytest.raises(AttributeError):
        PartFilter().min_part = 2
    with pytest.raises(ValueError, match="min_part must be positive"):
        PartFilter()._replace(min_part=0)
    assert PartFilter()._replace(excluded={2}) == PartFilter(excluded=frozenset({2}))


def test_t_core_fixtures():
    assert [p.parts for p in t_cores_of(4, 3)] == [(3, 1), (2, 1, 1)]
    assert [p.parts for p in t_cores_of(3, 4)] == [(3,), (2, 1), (1, 1, 1)]
    assert [p.parts for p in t_cores_of(6, 2)] == [(3, 2, 1)]


def test_count_fixtures():
    assert count_t_cores(5, 2) == 0
    assert count_t_cores(6, 2) == 1
    assert count_t_cores(4, 4) == 1


def test_core_arguments_must_be_integers():
    # a float or a string is rejected by name, never truncated
    with pytest.raises(ValueError, match="t must be an integer, got 4.5"):
        count_t_cores(10, 4.5)
    with pytest.raises(ValueError, match="n must be an integer, got 10.0"):
        count_t_cores(10.0, 4)
    with pytest.raises(ValueError, match="t must be an integer, got '4'"):
        list(t_cores_of(10, "4"))
    with pytest.raises(ValueError, match="n must be an integer, got '10'"):
        list(t_cores_of("10", 4))
    with pytest.raises(ValueError, match="n_max must be an integer, got 10.5"):
        list(t_cores_up_to(10.5, 4))
    with pytest.raises(ValueError, match="n_max must be non-negative, got -1"):
        list(t_cores_up_to(-1, 4))
    with pytest.raises(ValueError, match="t must be an integer, got 3.0"):
        list(t_cores_up_to(10, 3.0))
    # the partition streams read n on their first item
    with pytest.raises(ValueError, match="n must be an integer, got 4.0"):
        list(partitions_of(4.0))
    with pytest.raises(ValueError, match="n must be an integer, got '4'"):
        list(partitions_of("4"))
    with pytest.raises(ValueError, match="n must be an integer, got 4.5"):
        list(iter_partition_parts(4.5))
    with pytest.raises(ValueError, match="n must be an integer, got '4'"):
        list(partition_text_chunks("4"))


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


# with no filter, or one that forbids only 46, above every n of the order
# tests, the walk pairs conjugate cores and the streams add the conjugates
ORDER_FILTERS = [
    PartFilter(),
    PartFilter(excluded=frozenset({46})),
    C1,
    C12,
    PartFilter(excluded=frozenset({2})),
    PartFilter(excluded=frozenset({2, 5})),
    PartFilter(excluded=frozenset({1, 4, 6})),
    PartFilter(min_part=2),
    PartFilter(min_part=3),
]
ORDER_IDS = ["all", "no46", "no1", "no12", "no2", "no25", "no146", "min2", "min3"]


@pytest.mark.parametrize("t", range(2, 10))
@pytest.mark.parametrize("f", ORDER_FILTERS, ids=ORDER_IDS)
def test_streams_match_walker_order(t, f):
    # the part-by-part walker of conftest shares nothing with the abacus;
    # its exact streams are in reverse-lexicographic order
    want = {n: walker_cores_of(n, t, f) for n in range(46)}
    for n in range(46):
        assert [p.parts for p in t_cores_of(n, t, f)] == want[n], n
        assert count_t_cores(n, t, f) == len(want[n]), n
    swept = [(n, p.parts) for n, p in t_cores_up_to(45, t, f)]
    assert swept == [(n, parts) for n in range(46) for parts in want[n]]


@pytest.mark.parametrize("f", ORDER_FILTERS, ids=ORDER_IDS)
def test_streams_with_t_above_n_are_partitions(f):
    # for t > n every partition of n is a t-core, and the partition stream
    # is used
    want = {n: [p for p in naive_partitions(n) if f.passes(p)] for n in range(16)}
    for n in range(16):
        assert [p.parts for p in t_cores_of(n, 40, f)] == want[n] == walker_cores_of(n, 40, f)
        assert count_t_cores(n, 40, f) == len(want[n])
    swept = [(n, p.parts) for n, p in t_cores_up_to(15, 40, f)]
    assert swept == [(n, parts) for n in range(16) for parts in want[n]]


def test_conjugate_pair_of_weight_one_is_streamed_once_each():
    # (5,5,2,2,1) and (5,4,2,2,2) are conjugate 5-cores of 15 with
    # largest part equal to length, so the paired walk yields each with
    # weight 1
    pair = [(5, 5, 2, 2, 1), (5, 4, 2, 2, 2)]
    assert Partition(pair[0]).conjugate().parts == pair[1]
    weights = Counter()
    for _, z, w in _abacus.kept_vectors(5, 15, 15, PartFilter()):
        weights[_abacus.core_parts(z, 5)] += w
    assert [weights[parts] for parts in pair] == [1, 1]
    exact = [p.parts for p in t_cores_of(15, 5)]
    swept = [p.parts for n, p in t_cores_up_to(15, 5) if n == 15]
    for parts in pair:
        assert exact.count(parts) == swept.count(parts) == 1
    assert len(exact) == len(set(exact)) == count_t_cores(15, 5)


def _least_allowed(f):
    return next(v for v in range(1, 100) if f.allows(v))


@pytest.mark.parametrize("t", range(2, 8))
def test_part_test_matches_passes(t):
    # every filter forbidding a value up to 6, on every core of n <= 60;
    # the parts come from the conftest bead conversion, not the package's.
    # part_test leaves the values below the least allowed one, m, to the
    # restricted walk, so it judges the parts above m
    filters = [
        PartFilter(excluded=frozenset(excl), min_part=m)
        for m in (1, 2, 3)
        for excl in ((), (1,), (2,), (1, 2), (3,), (2, 5), (1, 4, 6))
    ]
    least = [_least_allowed(f) for f in filters]
    tests = [(f, m, _abacus.part_test(f, m, t, 60)) for f, m in zip(filters, least)]
    for n, z, _ in _abacus._each_core(_abacus.core_runs(t, 1, 0, 60)):
        parts = _partition_from_vector(vector_of_positions(z, t), t)
        assert sum(parts) == n
        for f, m, keep in tests:
            if keep is None:
                assert all(f.allows(v) for v in range(m, 61)), f
            else:
                assert keep(z) == all(v < m or f.allows(v) for v in parts), (f, parts)


# filters of the restricted-walk test below; {2} leaves part 1 allowed.
# min_part 5 and 9 reach m >= t, and {1, 2, 5} and ({6}, min_part 3) forbid
# a value above the run below the least allowed one
NARROWED = [
    C1,
    C12,
    PartFilter(min_part=3),
    PartFilter(min_part=4),
    PartFilter(min_part=5),
    PartFilter(min_part=9),
    PartFilter(excluded=frozenset({1, 4, 6})),
    PartFilter(excluded=frozenset({2})),
    PartFilter(excluded=frozenset({1, 2, 5})),
    PartFilter(excluded=frozenset({6}), min_part=3),
]


@pytest.mark.parametrize(
    "t,n_max", [(2, 300), (3, 200), (4, 120), (5, 70), (6, 50), (7, 40), (8, 35), (9, 30)]
)
def test_kept_vectors_match_the_filter_on_parts(t, n_max):
    # A filter whose least allowed value m is 2 or more builds the cores
    # with no part below m on N^(t-m) before part_test runs.  The kept
    # cores must be exactly those whose parts pass the filter, over a range,
    # at two exact sizes and over a window, and the walk at m = 2 alone must
    # yield exactly the cores with no part 1.
    every = [
        (n, _abacus.core_parts(z, t))
        for n, z, _ in _abacus._each_core(_abacus.core_runs(t, 1, 0, n_max))
    ]
    for lo, hi in ((0, n_max), (n_max, n_max), (n_max - 1, n_max - 1), (n_max // 2, n_max - 3)):
        sized = [(n, parts) for n, parts in every if lo <= n <= hi]
        for f in NARROWED:
            got = Counter(
                (n, _abacus.core_parts(z, t), m)
                for n, z, m in _abacus.kept_vectors(t, lo, hi, f)
            )
            assert got == Counter((n, parts, 1) for n, parts in sized if f.passes(parts)), f
        got = Counter(
            (n, _abacus.core_parts(z, t), m)
            for n, z, m in _abacus._each_core(_abacus.core_runs(t, 2, lo, hi))
        )
        assert got == Counter((n, parts, 1) for n, parts in sized if 1 not in parts)


# the largest size each t's window walks reach: the range walks of
# test_kept_vectors_match_the_filter_on_parts
_WINDOW_TOP = {2: 300, 3: 200, 4: 120, 5: 70, 6: 50, 7: 40, 8: 35, 9: 30}


def _cores(runs):
    """The (n, z', w) of runs as a Counter, z' frozen as a tuple."""
    return Counter((n, tuple(z), w) for n, z, w in _abacus._each_core(runs))


@lru_cache(maxsize=None)
def _range_cores(t, paired):
    return _cores(_abacus.core_runs(t, 1, 0, _WINDOW_TOP[t], paired))


def _cut(cores, lo, hi):
    return Counter({core: w for core, w in cores.items() if lo <= core[0] <= hi})


@pytest.mark.parametrize("t", range(2, 10))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_window_walk_is_the_range_walk_cut_to_the_window(t, data):
    # core_runs(t, m, lo, hi) solves the last runner on the root interval
    # for hi less the interval where n < lo.  It must yield exactly the
    # cores of the range walk with lo <= n <= hi, with the same weights:
    # every core paired and unpaired, and under every filter the cores
    # that kept_runs keeps over the range up to the same hi.
    hi = data.draw(st.integers(min_value=0, max_value=_WINDOW_TOP[t]), label="hi")
    lo = data.draw(
        st.one_of(st.just(0), st.just(hi), st.integers(min_value=0, max_value=hi)),
        label="lo",
    )
    f = data.draw(st.sampled_from([PartFilter(), *NARROWED]), label="f")
    for paired in (False, True):
        got = _cores(_abacus.core_runs(t, 1, lo, hi, paired))
        assert got == _cut(_range_cores(t, paired), lo, hi), paired
    got = _cores(_abacus.kept_runs(t, lo, hi, f))
    assert got == _cut(_cores(_abacus.kept_runs(t, 0, hi, f)), lo, hi), f


@pytest.mark.parametrize("t", range(2, 10))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_block_walk_matches_the_prefix_walk(t, data):
    # core_runs fixes runners t-1..m+2 and yields a block of rows, one per
    # x'_{m+1}; flattened, it must yield the cores of the conftest walk that
    # solves each prefix of runners t-1..m+1 on its own, with the same
    # weights.  Every m from 1 (paired too) to t + 1, so m = t - 1 (no
    # runner m + 1), m = t - 2 (one block with an empty prefix) and m >= t
    # (the empty core alone), and lo = 0, lo = hi or any, with t > hi too.
    m = data.draw(st.integers(min_value=1, max_value=t + 1), label="m")
    hi = data.draw(
        st.one_of(st.integers(0, t), st.integers(0, _WINDOW_TOP[t])), label="hi"
    )
    lo = data.draw(
        st.one_of(st.just(0), st.just(hi), st.integers(min_value=0, max_value=hi)),
        label="lo",
    )
    for paired in (False, True) if m == 1 else (False,):
        got = _cores(_abacus.core_runs(t, m, lo, hi, paired))
        want = Counter()
        for z, c, cores in prefix_runs(t, m, lo, hi, paired):
            for n, z[c], w in cores:
                want[n, tuple(z), w] += 1
        assert got == want, paired


def test_block_walk_shape_is_pinned():
    # the conj15 table's walk: 148 blocks, the prefixes of runners 4..3
    # with a kept core, 1,430 rows, the prefixes of runners 4..2 with one,
    # and 9,052 cores, one of each conjugate pair with lambda_1 >= ell,
    # each block, row and core yielded once
    runs = _abacus.core_runs(5, 1, 0, 220, paired=True)
    blocks = [[len(cores) for _, cores in rows] for _, _, rows in runs]
    assert len(blocks) == 148
    assert sum(map(len, blocks)) == 1430
    assert sum(map(sum, blocks)) == 9052


@pytest.mark.parametrize("t", range(2, 10))
def test_window_walk_matches_the_walker(t):
    # small windows against the conftest walker, which shares nothing with
    # the abacus: a weight-2 core stands for its conjugate too.  The
    # windows include lo = 0, lo = hi and t > hi.
    windows = [(0, 0), (0, 12), (1, 1), (6, 6), (7, 14), (13, 18), (3, t - 1), (t, t + 3)]
    for f in [PartFilter(), *NARROWED]:
        for lo, hi in windows:
            want = Counter(
                (n, parts)
                for n, parts in walk_t_cores(t, hi, False, f.excluded, f.min_part)
                if n >= lo
            )
            got = Counter()
            for n, z, w in _abacus.kept_vectors(t, lo, hi, f):
                parts = _abacus.core_parts(z, t)
                got[n, parts] += 1
                if w == 2:
                    got[n, Partition(parts).conjugate().parts] += 1
            assert got == want, (f, lo, hi)


def test_restricted_4cores_are_thm16s_family():
    # The 4-cores with no parts 1, 2 are N^1: (3L, ..., 6, 3) at
    # n = 3L(L+1)/2 and nothing else, on the abacus and on the walker.
    want = [
        (3 * L * (L + 1) // 2, tuple(range(3 * L, 0, -3)))
        for L in range(20)
        if 3 * L * (L + 1) // 2 <= 600
    ]
    got = [(n, p.parts) for n, p in t_cores_up_to(600, 4, C12)]
    assert got == want
    assert sorted(walk_t_cores(4, 600, False, frozenset({1, 2}))) == want


@pytest.mark.parametrize("t", range(2, 9))
def test_conjugate_charge_vector_is_the_conjugate_core(t):
    # The premise of the paired hook tables: x -> (-x_{t-1}, ..., -x_0)
    # maps each core to its conjugate, whose hooks are the same multiset.
    # The cores come from the walker, their vectors from their beads.
    for n, parts in walk_t_cores(t, 40, False):
        x = charge_vector_of(parts, t)
        conj = _partition_from_vector(tuple(-v for v in reversed(x)), t)
        assert conj == Partition(parts).conjugate().parts, (t, parts)
        assert Counter(naive_hooks(conj)) == Counter(naive_hooks(parts)), (t, parts)


@pytest.mark.parametrize("t", range(2, 8))
def test_paired_weights_core_by_core(t):
    # paired yields weight 2 for the core of each pair of conjugate cores
    # whose largest part exceeds its length and skips the other.  A core
    # with lambda_1 = ell has weight 1, and so has its conjugate, the same
    # core when it is self-conjugate.  The cores and their conjugates come
    # from the walker.
    weights = Counter()
    for n, z, w in _abacus._each_core(_abacus.core_runs(t, 1, 0, 40, True)):
        parts = _abacus.core_parts(z, t)
        assert sum(parts) == n
        weights[parts] += w
    cores = {parts for _, parts in walk_t_cores(t, 40, False)}
    assert set(weights) <= cores
    for parts in cores:
        conj = Partition(parts).conjugate().parts
        phi = largest_less_length(parts)
        if phi == 0:
            assert weights[parts] == weights[conj] == 1, (t, parts)
        elif phi > 0:
            assert (weights[parts], weights[conj]) == (2, 0), (t, parts)
        else:
            assert (weights[parts], weights[conj]) == (0, 2), (t, parts)


@pytest.mark.parametrize("t", range(2, 10))
def test_paired_cores_are_those_with_largest_part_at_least_length(t):
    # Each paired core, read into parts by the conftest beads and found
    # among the walker's cores, has weight 2 when lambda_1 > ell and 1 when
    # lambda_1 = ell, and no core with lambda_1 < ell appears; every core
    # of the walker with lambda_1 >= ell appears once.
    want = {parts for _, parts in walk_t_cores(t, 40, False) if largest_less_length(parts) >= 0}
    got = Counter()
    for n, z, w in _abacus._each_core(_abacus.core_runs(t, 1, 0, 40, True)):
        parts = _partition_from_vector(vector_of_positions(z, t), t)
        assert sum(parts) == n
        phi = largest_less_length(parts)
        assert phi >= 0, (t, parts)
        assert w == (2 if phi else 1), (t, parts)
        got[parts] += 1
    assert got == Counter(want)


@pytest.mark.parametrize("t", range(2, 10))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_paired_rows_keep_the_cores_with_largest_part_at_least_length(t, data):
    # Row by row, the paired walk keeps exactly the cores of the unpaired
    # walk of the same window whose largest part is at least their
    # length, weight 2 when it is more, with lambda_1 - ell read per core
    # from core_parts: ranges, windows with one or two intervals of x'_1
    # per row, and lo = hi.
    hi = data.draw(st.integers(min_value=0, max_value=_WINDOW_TOP[t]), label="hi")
    lo = data.draw(
        st.one_of(st.just(0), st.just(hi), st.integers(min_value=0, max_value=hi)),
        label="lo",
    )

    def rows(paired):
        out = {}
        for z, c, block in _abacus.core_runs(t, 1, lo, hi, paired):
            d = (c + 1) % t
            for z[d], cores in block:
                key = tuple(v for b, v in enumerate(z) if b != c)
                kept = out[key] = set()
                for n, z[c], w in cores:
                    if not paired:
                        phi = largest_less_length(_abacus.core_parts(z, t))
                        if phi < 0:
                            continue
                        w = 2 if phi else 1
                    kept.add((n, z[c], w))
        return {key: kept for key, kept in out.items() if kept}

    assert rows(True) == rows(False)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=9).flatmap(
    lambda t: st.tuples(
        st.just(t),
        st.lists(st.integers(min_value=-8, max_value=8), min_size=t - 1, max_size=t - 1)
        .filter(lambda xs: abs(sum(xs)) <= 8),
    )
))
def test_core_parts_from_random_charge_vector(drawn):
    # sizes the walker never reaches: up to about 2,900 boxes at t = 9
    t, xs = drawn
    xs = tuple(xs) + (-sum(xs),)
    z = [c + t * x for c, x in enumerate(xs)]
    parts = _abacus.core_parts(z, t)
    assert parts == _partition_from_vector(xs, t)
    n = sum(parts)
    assert 2 * n == t * sum(x * x for x in xs) + 2 * sum(c * x for c, x in enumerate(xs))
    hooks = Counter(naive_hooks(parts))
    # hook_columns takes positions with every runner at level >= 0, as the
    # walk gives them: moving every position by the same multiple of t
    # keeps the core.  Each runner c in turn carries the core as a block of
    # one, with runner c + 1 its row.
    lifted = [zc - t * min(xs) for zc in z]
    for c in range(t):
        block = [core_block(n, list(lifted), c)]
        columns, counts = _abacus.hook_columns(block, t, range(1, 13), n, n)
        assert counts == [1]
        assert {k: v for k, (v,) in zip(range(1, 13), columns)} == {
            k: hooks[k] for k in range(1, 13)
        }
    tables, _ = _abacus.hook_table([core_block(n, z, 0)], t)
    assert tables[n] == hooks


def test_counts_match_arithmetic_oracles():
    # Granville-Ono for 3-cores and Garvan-Kim-Stanton for 5-cores, at
    # sizes no walker or brute force reaches
    for n in range(200):
        assert count_t_cores(n, 3) == three_core_count(n), n
        assert count_t_cores(n, 5) == five_core_count(n), n
    assert count_t_cores(10**6, 3) == three_core_count(10**6) == 4
    for n in (4999, 5000, 5001):
        assert count_t_cores(n, 5) == five_core_count(n), n


def test_class_number_fixtures():
    assert [class_number(d) for d in (-3, -4, -20, -23, -47, -71, -84)] == [1, 1, 2, 3, 5, 7, 4]


def test_4core_counts_match_class_numbers():
    # Ono-Sze: 2 a_4(n) = h(-(32n+20)) for every n with 8n+5 square-free
    ns = [n for n in range(601) if is_square_free(8 * n + 5)]
    assert len(ns) == 487
    for n in ns + [10000, 10001, 10002, 20000]:
        assert is_square_free(8 * n + 5), n
        assert 2 * count_t_cores(n, 4) == class_number(-(32 * n + 20)), n


def test_emitted_partitions_are_valid():
    for n, p in t_cores_up_to(25, 6, C12):
        assert isinstance(p, Partition)
        assert p.n == n == sum(p.parts)
        assert all(v not in (1, 2) for v in p.parts)
        Partition(p.parts)  # revalidates monotonicity


def test_iter_partition_parts_rejects_negative():
    with pytest.raises(ValueError):
        list(iter_partition_parts(-1))


@lru_cache(maxsize=None)
def _naive_filtered(n, allowed):
    return naive_partitions(n, allowed=allowed)


def _naive_of(n, f):
    """The partitions of n that pass f, by the conftest recursion over the
    allowed parts: independent of the suffix walk under test."""
    return _naive_filtered(n, frozenset(v for v in range(1, n + 1) if f.allows(v)))


def _text_oracle(n, f):
    """The lines of partition_text_chunks from the naive partitions."""
    return "".join(parts_text(p) + "\n" for p in _naive_of(n, f))


def _chunks_checked(n, f):
    chunks = list(partition_text_chunks(n, f))
    sizes = [c.count("\n") for c in chunks]
    assert all(sizes), "an empty chunk was yielded"
    # a chunk is cut after the suffix block that brings it to _CHUNK_LINES
    # lines, so each but the last holds at least that many and every one
    # less than that plus the largest block: the partitions of some
    # remainder r <= min(n // 2, _SUFFIX_MAX) into allowed parts up to a cap
    largest = max(len(_naive_of(r, f)) for r in range(min(n // 2, generate._SUFFIX_MAX) + 1))
    assert all(size < generate._CHUNK_LINES + largest for size in sizes)
    assert all(size >= generate._CHUNK_LINES for size in sizes[:-1])
    return "".join(chunks)


@pytest.mark.parametrize(
    "f",
    [
        PartFilter(),
        C1,
        C12,
        PartFilter(excluded=frozenset({2, 5})),
        PartFilter(excluded=frozenset({1, 3})),
        PartFilter(min_part=3),
        PartFilter(min_part=4),
    ],
    ids=["all", "no1", "no12", "no25", "no13", "min3", "min4"],
)
def test_partition_text_matches_parts_text(monkeypatch, f):
    # n = 0..32 has suffix tables of up to n // 2 = 16 rows; at 7 lines to
    # a chunk most n are cut into several
    for chunk_lines in (generate._CHUNK_LINES, 7):
        monkeypatch.setattr(generate, "_CHUNK_LINES", chunk_lines)
        for n in range(33):
            assert _chunks_checked(n, f) == _text_oracle(n, f), (n, chunk_lines)


# filtered walks against the naive recursion, with t > n for the count:
# n // 2 reaches the suffix table's cap of 22 in all but the last two
# rows, and the filters keep the outputs small enough for the oracle
NAIVE_CHECKED = [
    (46, PartFilter(min_part=4)),
    (50, PartFilter(excluded=frozenset({1, 2, 3, 5, 8}))),
    (60, PartFilter(min_part=6)),
    (64, PartFilter(excluded=frozenset({1, 2, 3, 4, 5, 6, 9, 11}))),
    (90, PartFilter(min_part=9)),
    (90, PartFilter(excluded=frozenset({1, 2, 3, 4, 5, 6, 7, 10}))),
    (40, PartFilter(min_part=5)),
    (40, PartFilter(excluded=frozenset({1, 2, 4, 7}))),
]


@pytest.mark.parametrize(
    "n,f", NAIVE_CHECKED, ids=[f"{n}-{i}" for i, (n, _) in enumerate(NAIVE_CHECKED)]
)
def test_filtered_walk_matches_naive(n, f):
    want = _naive_of(n, f)
    assert [p.parts for p in partitions_of(n, f)] == want
    assert "".join(partition_text_chunks(n, f)) == _text_oracle(n, f)
    assert count_t_cores(n, n + 10, f) == len(want)


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
