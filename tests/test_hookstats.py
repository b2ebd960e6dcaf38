from collections import Counter
from functools import lru_cache

import pytest

from corehooks import _abacus
from corehooks.generate import PartFilter, count_t_cores, t_cores_of, t_cores_up_to
from corehooks.hookstats import (
    FAILS,
    HOLDS,
    NOT_APPLICABLE,
    _engine_t,
    _hook_columns,
    bias_table,
    chain_records,
    chain_tables,
    cross_core_bias_table,
    hook_count_table,
    total_hook_count,
)

from conftest import (
    charge_vector_of,
    naive_hook_count,
    naive_hooks,
    naive_is_t_core,
    naive_partitions,
    vector_of_positions,
    walk_t_cores,
)
from test_generate import NARROWED

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
    with pytest.raises(ValueError, match="n must be non-negative, got -1"):
        total_hook_count(-1, 2, 1)
    with pytest.raises(ValueError, match="n_max must be non-negative, got -1"):
        hook_count_table(4, -1)


def test_arguments_must_be_integers():
    # a float or a string is rejected by name, never truncated
    with pytest.raises(ValueError, match="k must be an integer, got 3.7"):
        bias_table(4, [1, 3.7], 5, 6, relations=[">="])
    with pytest.raises(ValueError, match="t must be an integer, got 4.9"):
        cross_core_bias_table([(4.9, 1), (4, "3")], 0, 6, ["<="])
    with pytest.raises(ValueError, match="k must be an integer, got '3'"):
        cross_core_bias_table([(4, 1), (4, "3")], 0, 6, ["<="])
    with pytest.raises(ValueError, match="n_lo must be an integer, got 5.0"):
        bias_table(4, [1, 3], 5.0, 6, relations=[">="])
    with pytest.raises(ValueError, match="n_hi must be an integer, got '6'"):
        bias_table(4, [1, 3], 5, "6", relations=[">="])
    with pytest.raises(ValueError, match="t must be an integer, got 4.0"):
        hook_count_table(4.0, 10)
    with pytest.raises(ValueError, match="n_max must be an integer, got '10'"):
        hook_count_table(4, "10")
    with pytest.raises(ValueError, match="hook lengths must be integers, got 2.0"):
        hook_count_table(4, 10, ks=(1, 2.0))
    with pytest.raises(ValueError, match="k must be an integer, got 1.5"):
        total_hook_count(6, 4, 1.5)
    with pytest.raises(ValueError, match="n must be an integer, got 6.5"):
        total_hook_count(6.5, 4, 1)
    with pytest.raises(ValueError, match="t must be an integer, got '4'"):
        total_hook_count(6, "4", 1)
    with pytest.raises(ValueError, match="k must be an integer, got '1'"):
        _hook_columns(6, 6, 4, ("1",), PartFilter())


@pytest.mark.parametrize("t", [3, 5])
def test_the_filter_alone_decides_pairing(monkeypatch, t):
    # The walk pairs conjugate cores exactly when the filter forbids no
    # value up to n_max, for every reader of it
    seen = []
    real = _abacus.core_runs

    def recorded(t, m, lo, hi, paired=False):
        seen.append(paired)
        return real(t, m, lo, hi, paired)

    monkeypatch.setattr(_abacus, "core_runs", recorded)
    n = 20
    cases = [
        (PartFilter(), True),
        (PartFilter(excluded={n + 1}), True),
        (PartFilter(excluded={2}), False),
        (PartFilter(min_part=2), False),
        (PartFilter(min_part=t), False),
    ]
    for f, paired in cases:
        readers = [
            lambda: list(t_cores_of(n, t, f)),
            lambda: list(t_cores_up_to(n, t, f)),
            lambda: count_t_cores(n, t, f),
            lambda: hook_count_table(t, n, f, ks=(1, 2)),
            lambda: _hook_columns(n, n, t, (1, 2), f),
        ]
        for read in readers:
            seen.clear()
            read()
            assert seen == [paired], f


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


def _one_t_bias_table(t, ks, n_lo, n_hi, relations):
    return bias_table(t, ks, n_lo, n_hi, relations=relations)


def _cross_bias_table(t, ks, n_lo, n_hi, relations):
    return cross_core_bias_table([(t, k) for k in ks], n_lo, n_hi, relations)


@pytest.mark.parametrize(
    "table", [_one_t_bias_table, _cross_bias_table], ids=["bias_table", "cross_core"]
)
@pytest.mark.parametrize(
    "t,ks,n_lo,n_hi,relations",
    [
        (3, [], 0, 5, []),
        (3, [1, 2], 0, 5, []),
        (3, [1, 2], 0, 5, ["!="]),
        (3, [1, 2], 5, 4, [">="]),
        # a negative start would index the tables from their end
        (2, [1], -2, 3, []),
        # names are checked up front, not first on a row that has cores
        (2, [1, 3], 2, 2, [">>"]),
    ],
    ids=[
        "no-ks",
        "too-few-relations",
        "unknown-relation",
        "reversed-range",
        "negative-start",
        "unknown-relation-on-empty-row",
    ],
)
def test_bias_table_validation(table, t, ks, n_lo, n_hi, relations):
    with pytest.raises(ValueError):
        table(t, ks, n_lo, n_hi, relations)


def test_cross_core_table():
    for k in (1, 3):
        recs = cross_core_bias_table([(2, k), (4, k)], 0, 40, ["<="])
        assert all(r.verdict != FAILS for r in recs)
    with pytest.raises(ValueError):
        cross_core_bias_table([], 0, 5, [])


@pytest.mark.parametrize("excluded", [{2}, {1, 2}])
def test_chain_tables_match_the_walker(excluded):
    # thm19's two chains over two t, and a chain at t = 3 whose "<=" fails
    # where a_{3,1} > a_{3,2}, from n_lo > 0 under a restricted filter.
    # Every value, core and verdict comes from the conftest walker with
    # hooks counted on the diagram, which share nothing with the abacus.
    f = PartFilter(excluded=excluded)
    chains = [[(2, 1), (4, 1)], [(2, 3), (4, 3)], [(3, 1), (3, 2)]]
    n_lo, n_hi = 5, 40
    hooks = {t: [Counter() for _ in range(n_hi + 1)] for t in (2, 3, 4)}
    cores = {t: [0] * (n_hi + 1) for t in (2, 3, 4)}
    for t in (2, 3, 4):
        for n, parts in walk_t_cores(t, n_hi, False, f.excluded):
            hooks[t][n].update(naive_hooks(parts))
            cores[t][n] += 1
    tables = chain_tables(chains, n_lo, n_hi, ["<="], f)
    seen = set()
    for pairs, (columns, verdicts) in zip(chains, tables):
        # one value column per pair and one verdict column, over n_lo..n_hi
        assert len(columns) == len(pairs)
        assert {len(verdicts), *map(len, columns)} == {n_hi - n_lo + 1}
        want_rows = []
        for n, row, verdict in zip(range(n_lo, n_hi + 1), zip(*columns), verdicts):
            values = [hooks[t][n][k] for t, k in pairs]
            assert list(row) == values, (pairs, n)
            if not any(cores[t][n] for t, _ in pairs):
                want = NOT_APPLICABLE
            else:
                want = HOLDS if values[0] <= values[1] else FAILS
            assert verdict == want, (pairs, n)
            want_rows.append((n, dict(zip(pairs, values)), want))
            seen.add(verdict)
        # chain_records builds every row, or the rows of one verdict alone
        records = chain_records(pairs, columns, verdicts, n_lo)
        assert [tuple(r) for r in records] == want_rows
        for only in (HOLDS, FAILS, NOT_APPLICABLE):
            kept = chain_records(pairs, columns, verdicts, n_lo, only)
            assert kept == [r for r in records if r.verdict == only], only
    if excluded == {2}:
        assert seen == {HOLDS, FAILS, NOT_APPLICABLE}


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
    # The package counts hooks on the abacus beads, as the bead oracle of
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


@lru_cache(maxsize=None)
def _diagram_hooks(parts):
    return Counter(naive_hooks(parts))


@pytest.mark.parametrize(
    "t,n_max",
    [(2, 120), (3, 90), (4, 60), (5, 50), (6, 40), (7, 36), (8, 32), (9, 30)]
    + [(20, 30), (31, 30), (40, 30)],
)
def test_run_tally_matches_diagram_hooks(t, n_max):
    # hook_columns sums the terms of a run's fixed runners once and adds the
    # two terms of the last runner per core.  Against the walker's cores
    # with hooks counted on the diagram: range and exact n, paired (no
    # filter) and unpaired, ks with multiples of t and k > n_max.
    ks = sorted({1, 2, t - 1, t, t + 1, 2 * t - 1, 2 * t, 2 * t + 1, 3 * t, n_max + 5} - {0})
    cores = list(walk_t_cores(t, n_max, False))
    filters = [
        PartFilter(),
        PartFilter(excluded={1}),
        PartFilter(excluded={2}),
        PartFilter(excluded={1, 2}),
        PartFilter(excluded={1, 4, 6}),
        PartFilter(min_part=3),
        PartFilter(min_part=t + 1),
    ]
    te = _engine_t(t, n_max)
    for f in filters:
        want = [Counter() for _ in range(n_max + 1)]
        counts = [0] * (n_max + 1)
        for n, parts in cores:
            if f.passes(parts):
                counts[n] += 1
                hooks = _diagram_hooks(parts)
                want[n].update({k: hooks[k] for k in ks if hooks[k]})
        tables, core_counts = hook_count_table(t, n_max, f, ks)
        assert (tables, core_counts) == (want, counts), f
        # the public table is still a Counter per n, holding positive counts
        assert all(type(row) is Counter and all(row.values()) for row in tables), f
        sizes = sorted({0, 1, 2, n_max // 2, n_max - 1, n_max})
        for n in sizes:
            columns = _hook_columns(n, n, t, ks, f)
            assert {k: v for k, (v,) in zip(ks, columns) if v} == want[n], (f, n)
        if f != PartFilter():
            continue  # the unpaired reference walks every core, unfiltered
        columns, core_counts = _abacus.hook_columns(
            _abacus.core_runs(te, 1, 0, n_max), te, ks, 0, n_max
        )
        assert [{k: v for k, v in zip(ks, row) if v} for row in zip(*columns)] == want
        assert core_counts == counts
        for n in sizes:
            tn = _engine_t(t, n)
            columns, core_counts = _abacus.hook_columns(
                _abacus.core_runs(tn, 1, n, n), tn, ks, n, n
            )
            # a point query has one row
            assert len(core_counts) == 1 and all(len(column) == 1 for column in columns)
            assert {k: v for k, (v,) in zip(ks, columns) if v} == want[n], n


def test_unfiltered_table_evaluates_one_core_of_each_conjugate_pair(monkeypatch):
    # Hooks are evaluated only for the cores with x_0 + x_4 >= 0; the
    # weights restore the totals of every core.
    seen = []
    real = _abacus.hook_columns

    def counted(runs, t, ks, lo, hi):
        def watched():
            for run in runs:
                seen.extend(run[2])  # the run's cores
                yield run

        return real(watched(), t, ks, lo, hi)

    monkeypatch.setattr(_abacus, "hook_columns", counted)
    tables, core_counts = hook_count_table(5, 120, ks=(1, 3))
    every = [(n, list(z)) for n, z, _ in _abacus._each_core(_abacus.core_runs(5, 1, 0, 120))]
    x = [charge_vector_of(_abacus.core_parts(z, 5), 5) for _, z in every]
    assert len(seen) == sum(1 for v in x if v[0] + v[4] >= 0)
    want, want_counts = real(((z, 1, [(n, z[1], 1)]) for n, z in every), 5, (1, 3), 0, 120)
    assert core_counts == want_counts
    assert tables == [{k: v for k, v in zip((1, 3), row) if v} for row in zip(*want)]


@pytest.mark.parametrize("t", range(2, 8))
def test_restricted_tables_match_the_walker(t):
    # every hook length under each restricted filter, against the conftest
    # walker and diagram hooks, which share nothing with the abacus
    for f in NARROWED:
        want = [Counter() for _ in range(41)]
        counts = [0] * 41
        for n, parts in walk_t_cores(t, 40, False, f.excluded, f.min_part):
            want[n].update(naive_hooks(parts))
            counts[n] += 1
        assert hook_count_table(t, 40, f) == (want, counts), f


def _one_minus_last(x):
    """The closed form of a_{t,1} - a_{t,t-1} on one core with charge
    vector x: #{c != 0 : u_c < 0} - [u_0 >= 1], u_c = x_c - x_{c-1}."""
    u = [x[c] - x[c - 1] for c in range(len(x))]
    return sum(1 for v in u[1:] if v < 0) - (u[0] >= 1)


@pytest.mark.parametrize("t,n_max", [(3, 600), (4, 300), (5, 120), (6, 60), (7, 40)])
def test_one_hooks_minus_last_hooks_closed_form(t, n_max):
    # per core, so a_{t,1}(n) >= a_{t,t-1}(n) for every n
    for n, z, _ in _abacus._each_core(_abacus.core_runs(t, 1, 0, n_max)):
        d = _one_minus_last(vector_of_positions(z, t))
        run = [(z, 1, [(n, z[1], 1)])]
        (ones,), (lasts,) = _abacus.hook_columns(run, t, (1, t - 1), n, n)[0]
        assert ones - lasts == d, (t, z)
        assert 0 <= d <= t - 2


def test_one_hooks_minus_last_hooks_on_walker_cores():
    for t in range(2, 10):
        for n, parts in walk_t_cores(t, 20, False):
            hooks = Counter(naive_hooks(parts))
            d = _one_minus_last(charge_vector_of(parts, t))
            assert hooks[1] - hooks[t - 1] == d, (t, parts)
            assert 0 <= d <= t - 2
