"""Hook-length statistics over t-core partitions.

The central quantity is the total number of k-hooks across all t-core
partitions of n, optionally restricted to partitions avoiding a set of
part values.  Totals come from the one walk of _abacus over the cores
with no part below the least allowed value m, the points of N^(t-m): a
table over the sizes lo..hi is one walk over the cores of those sizes,
every n <= n_max for a range table and n alone for a point query.  The
walk yields the cores of one prefix together, differing only in the last
runner, so for each hook length a prefix costs O(t) and each of its
cores O(1).  When the filter forbids no value in range the hooks of only
one core of each conjugate pair are counted, for both, since conjugation
keeps the size and the hooks.  Every count is an exact integer.

The totals of listed hook lengths are tallied as columns, one list per k
over the sizes and one of core counts: a point query has one row, and
the chain checks compare adjacent value columns elementwise into a
verdict column, so past the walk they cost a few C-level passes over the
range.  chain_records builds a BiasRecord only for the n a caller keeps;
hook_count_table builds its Counter per n from the same columns.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import compress, count, repeat
from operator import and_, eq, ge, le
from typing import Sequence

from . import _abacus
from .generate import EMPTY_FILTER, PartFilter, _check_core_args, _integer

HOLDS = "HOLDS"
FAILS = "FAILS"
NOT_APPLICABLE = "NOT-APPLICABLE"

_RELATIONS = {">=": ge, "<=": le, "=": eq}

# (every relation holds, some core of n passes) -> verdict, else NOT-APPLICABLE
_VERDICTS = {(True, True): HOLDS, (False, True): FAILS}


class BiasRecord(namedtuple("BiasRecord", "n values verdict", defaults=(HOLDS,))):
    """Hook-count values for one n plus an inequality verdict.

    values maps (t, k) pairs to counts in request order.
    """

    __slots__ = ()


def _engine_t(t: int, n_max: int) -> int:
    """The number of abacus runners to use for sizes up to n_max.

    A partition of n <= n_max has no hook longer than n_max, so it is a
    t-core for every t > n_max and its hooks do not depend on t; n_max + 1
    runners (at least 2) then give the same cores and the same counts.
    """
    return min(t, max(2, n_max + 1))


def total_hook_count(
    n: int, t: int, k: int, f: PartFilter = EMPTY_FILTER
) -> int:
    """Total number of k-hooks over all t-core partitions of n whose parts
    pass the filter."""
    ((total,),) = _hook_columns(n, n, t, (k,), f)
    return total


def _walk(lo: int, hi: int, t: int, f: PartFilter, name: str):
    """(hi, te, runs): the size hi checked (name is its argument), the
    runners te to use and the kept runs of the t-cores of size lo..hi
    that pass the filter."""
    hi, t = _check_core_args(hi, t, name)
    te = _engine_t(t, hi)
    return hi, te, _abacus.kept_runs(te, lo, hi, f)


def _hook_lengths(ks: Sequence[int]) -> list[int]:
    """ks as a list of ints, each checked to be a positive integer."""
    ks = [_integer(k, "hook lengths must be integers") for k in ks]
    if any(k < 1 for k in ks):
        raise ValueError(f"hook lengths must be positive, got {ks}")
    return ks


def _hook_columns(lo: int, hi: int, t: int, ks: Sequence[int], f: PartFilter):
    """columns[i][n - lo], the total ks[i]-hooks over the t-core partitions
    of n that pass the filter for lo <= n <= hi, from one walk over the
    cores of those sizes (one row for a point query, lo = hi).  Each k
    must be a positive int; hi is named n in errors."""
    hi, te, runs = _walk(lo, hi, t, f, "n")
    ks = [_integer(k, "k must be an integer") for k in ks]
    for k in ks:
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
    return _abacus.hook_columns(runs, te, ks, lo, hi)[0]


def hook_count_table(
    t: int,
    n_max: int,
    f: PartFilter = EMPTY_FILTER,
    ks: Sequence[int] | None = None,
) -> tuple[list[Counter], list[int]]:
    """Hook counts for every n <= n_max in a single walk over the
    t-cores.

    Returns (tables, core_counts): tables[n] maps hook length to total
    count over the t-cores of n (restricted to ks when given), and
    core_counts[n] is the number of t-cores of n under the filter.
    Only positive counts are stored.
    """
    n_max, te, runs = _walk(0, n_max, t, f, "n_max")
    if ks is None:
        tables, core_counts = _abacus.hook_table(runs, te)
        return (
            [tables.get(n) or Counter() for n in range(n_max + 1)],
            [core_counts[n] for n in range(n_max + 1)],
        )
    ks = sorted(set(_hook_lengths(ks)))
    columns, core_counts = _abacus.hook_columns(runs, te, ks, 0, n_max)
    tables = [Counter() for _ in range(n_max + 1)]
    for k, column in zip(ks, columns):
        for n in compress(range(n_max + 1), column):
            tables[n][k] = column[n]
    return tables, core_counts


def bias_table(
    t: int,
    ks: Sequence[int],
    n_lo: int,
    n_hi: int,
    f: PartFilter = EMPTY_FILTER,
    relations: Sequence[str] = (),
) -> list[BiasRecord]:
    """cross_core_bias_table with one core parameter: the hook counts of
    the t-cores for the listed ks, compared under the adjacent relations."""
    return cross_core_bias_table([(t, k) for k in ks], n_lo, n_hi, relations, f)


def cross_core_bias_table(
    pairs: Sequence[tuple[int, int]],
    n_lo: int,
    n_hi: int,
    relations: Sequence[str],
    f: PartFilter = EMPTY_FILTER,
) -> list[BiasRecord]:
    """chain_tables with one chain: one BiasRecord per n in [n_lo, n_hi]
    comparing the values named by pairs, (t, k) for the total k-hooks over
    the t-cores of n, under the adjacent relations; each value may come
    from a different t."""
    ((values, verdicts),) = chain_tables([pairs], n_lo, n_hi, relations, f)
    return chain_records(pairs, values, verdicts, n_lo)


def chain_records(pairs, values, verdicts, n_lo: int, only: str | None = None) -> list[BiasRecord]:
    """The BiasRecords of one chain of pairs from its chain_tables columns
    (values, verdicts), which start at n_lo: one per n, or one per n whose
    verdict is only."""
    rows = zip(count(n_lo), zip(*values), verdicts)
    if only is not None:
        rows = compress(rows, map(only.__eq__, verdicts))
    return [BiasRecord(n, dict(zip(pairs, row)), v) for n, row, v in rows]


def chain_tables(
    chains: Sequence[Sequence[tuple[int, int]]],
    n_lo: int,
    n_hi: int,
    relations: Sequence[str],
    f: PartFilter = EMPTY_FILTER,
) -> list[tuple[list[list[int]], list[str]]]:
    """For each chain of (t, k) values, (values, verdicts): one column per
    value of the chain, the total k-hooks over the t-cores of n, and one
    column of verdicts comparing them under the adjacent relations (the
    same for every chain), each over n_lo..n_hi.

    The verdict is HOLDS when every adjacent pair of values satisfies its
    relation, FAILS otherwise, and NOT-APPLICABLE when no t-core of n
    passes the filter for any t of the chain (an empty universe,
    distinguished from a checked truth).  Each t is swept once, over the
    sizes n_lo..n_hi alone, for the union of the ks it is paired with in
    any chain.  chain_records turns the columns into BiasRecords.
    """
    chains = [
        [
            (_integer(t, "t must be an integer"), _integer(k, "k must be an integer"))
            for t, k in pairs
        ]
        for pairs in chains
    ]
    if not chains or not all(chains):
        raise ValueError("pairs must not be empty")
    relations = list(relations)
    for pairs in chains:
        if len(relations) != len(pairs) - 1:
            raise ValueError(
                f"need {len(pairs) - 1} relations for {len(pairs)} value columns, "
                f"got {len(relations)}"
            )
    for r in relations:
        if r not in _RELATIONS:
            raise ValueError(f"unknown relation {r!r}; use >=, <= or =")
    ops = [_RELATIONS[r] for r in relations]
    n_lo = _integer(n_lo, "n_lo must be an integer")
    n_hi = _integer(n_hi, "n_hi must be an integer")
    if n_lo < 0 or n_hi < n_lo:
        raise ValueError(f"bad range {n_lo}..{n_hi}")
    ks_of: dict[int, set[int]] = {}
    for pairs in chains:
        for t, k in pairs:
            ks_of.setdefault(t, set()).add(k)
    # the value column of each (t, k) and the core-count column of each t,
    # over n_lo..n_hi
    value_of: dict[tuple[int, int], list[int]] = {}
    counts_of: dict[int, list[int]] = {}
    for t, ks in ks_of.items():
        _, te, runs = _walk(n_lo, n_hi, t, f, "n_hi")
        ks = _hook_lengths(sorted(ks))
        columns, counts_of[t] = _abacus.hook_columns(runs, te, ks, n_lo, n_hi)
        value_of.update(zip([(t, k) for k in ks], columns))
    out = []
    for pairs in chains:
        values = [value_of[p] for p in pairs]
        holds = repeat(True)
        for op, a, b in zip(ops, values, values[1:]):
            holds = map(and_, holds, map(op, a, b))
        # whether some t of the chain has a core of n
        cored = map(any, zip(*[counts_of[t] for t in dict.fromkeys(t for t, _ in pairs)]))
        out.append((values, list(map(_VERDICTS.get, zip(holds, cored), repeat(NOT_APPLICABLE)))))
    return out
