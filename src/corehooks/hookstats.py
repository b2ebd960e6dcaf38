"""Hook-length statistics over t-core partitions.

The central quantity is the total number of k-hooks across all t-core
partitions of n, optionally restricted to partitions avoiding a set of
part values.  Totals come from the one walk of _abacus over the cores
with no part below the least allowed value m, the points of N^(t-m): a
range table is one walk over every core of size at most n_max, a point
query one walk over the cores of size n.  The walk yields the cores of
one prefix together, differing only in the last runner, so for each hook
length a prefix costs O(t) and each of its cores O(1).  With no filter
the hooks of only one core of each conjugate pair are counted, for both,
since conjugation keeps the size and the hooks.  Every count is an exact
integer.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from operator import eq, ge, le
from typing import Sequence

from . import _abacus
from .generate import EMPTY_FILTER, PartFilter, _check_core_args

HOLDS = "HOLDS"
FAILS = "FAILS"
NOT_APPLICABLE = "NOT-APPLICABLE"

_RELATIONS = {">=": ge, "<=": le, "=": eq}


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
    _check_core_args(n_max, t)
    return min(t, max(2, n_max + 1))


def total_hook_count(
    n: int, t: int, k: int, f: PartFilter = EMPTY_FILTER
) -> int:
    """Total number of k-hooks over all t-core partitions of n whose parts
    pass the filter."""
    return _hook_counts_at(n, t, (k,), f)[k]


def _hook_counts_at(n: int, t: int, ks: Sequence[int], f: PartFilter) -> Counter:
    """Total number of k-hooks for each k in ks over the t-core partitions
    of n that pass the filter, in one walk over the cores of size n.  A k
    with no hooks reads 0."""
    te = _engine_t(t, n)
    for k in ks:
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
    runs = _abacus.kept_runs(te, n, True, f, paired=True)
    tables, _ = _abacus.hook_table(runs, te, ks)
    return tables.get(n, Counter())


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
    te = _engine_t(t, n_max)
    if ks is not None:
        ks = list(ks)
        if any(k < 1 for k in ks):
            raise ValueError(f"hook lengths must be positive, got {ks}")
    tables, core_counts = _abacus.hook_table(
        _abacus.kept_runs(te, n_max, False, f, paired=True), te, ks
    )
    return (
        [tables.get(n) or Counter() for n in range(n_max + 1)],
        [core_counts[n] for n in range(n_max + 1)],
    )


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
    return chain_tables([pairs], n_lo, n_hi, relations, f)[0]


def chain_tables(
    chains: Sequence[Sequence[tuple[int, int]]],
    n_lo: int,
    n_hi: int,
    relations: Sequence[str],
    f: PartFilter = EMPTY_FILTER,
) -> list[list[BiasRecord]]:
    """For each chain of (t, k) values, one BiasRecord per n in
    [n_lo, n_hi] comparing the chain's values, the total k-hooks over the
    t-cores of n, under the adjacent relations (the same for every chain).

    The verdict is HOLDS when every adjacent pair of values satisfies its
    relation, FAILS otherwise, and NOT-APPLICABLE when no t-core of n
    passes the filter for any t of the chain (an empty universe,
    distinguished from a checked truth).  Each t is swept once, for the
    union of the ks it is paired with in any chain.
    """
    chains = [[(int(t), int(k)) for t, k in pairs] for pairs in chains]
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
    if n_lo < 0 or n_hi < n_lo:
        raise ValueError(f"bad range {n_lo}..{n_hi}")
    ks_of: dict[int, set[int]] = {}
    for pairs in chains:
        for t, k in pairs:
            ks_of.setdefault(t, set()).add(k)
    swept = {t: hook_count_table(t, n_hi, f, sorted(ks)) for t, ks in ks_of.items()}
    out = []
    for pairs in chains:
        core_counts = [swept[t][1] for t in dict.fromkeys(t for t, _ in pairs)]
        records = []
        for n in range(n_lo, n_hi + 1):
            values = {(t, k): swept[t][0][n][k] for t, k in pairs}
            if all(counts[n] == 0 for counts in core_counts):
                verdict = NOT_APPLICABLE
            else:
                vals = [values[p] for p in pairs]
                ok = all(op(a, b) for op, a, b in zip(ops, vals, vals[1:]))
                verdict = HOLDS if ok else FAILS
            records.append(BiasRecord(n=n, values=values, verdict=verdict))
        out.append(records)
    return out
