"""Hook-length statistics over t-core partitions.

The central quantity is the total number of k-hooks across all t-core
partitions of n, optionally restricted to partitions avoiding a set of
part values.  Totals come from the charge vectors of the cores on the
t-abacus (see _abacus): a range table is one pass over every vector of
size at most n_max, a point query one pass over the vectors of size n,
and each core costs O(t) per hook length.  per_partition_compare, which
reports single partitions, reads them from generate's ordered stream of
the same vectors.  Every count is an exact integer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from . import _abacus
from .generate import EMPTY_FILTER, PartFilter, _check_core_args, t_cores_of
from .partition import Partition, hook_lengths_of

HOLDS = "HOLDS"
FAILS = "FAILS"
NOT_APPLICABLE = "NOT-APPLICABLE"

_RELATIONS = {
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
}


@dataclass
class BiasRecord:
    """Hook-count values for one n plus an inequality verdict.

    values maps (t, k) pairs to counts in request order.  witness is set
    only when a per-partition check fails, and then holds the first
    violating partition in stream order.
    """

    n: int
    values: dict[tuple[int, int], int] = field(default_factory=dict)
    verdict: str = HOLDS
    witness: Partition | None = None


def relation_check(name: str, a: int, b: int) -> bool:
    try:
        return _RELATIONS[name](a, b)
    except KeyError:
        raise ValueError(f"unknown relation {name!r}; use >=, <= or =") from None


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
    of n that pass the filter, in one pass over the charge vectors of size
    n.  A k with no hooks reads 0."""
    te = _engine_t(t, n)
    for k in ks:
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
    tables, _ = _abacus.hook_table(_abacus.kept_vectors(te, n, True, f), te, ks)
    return tables.get(n, Counter())


def hook_count_table(
    t: int,
    n_max: int,
    f: PartFilter = EMPTY_FILTER,
    ks: Sequence[int] | None = None,
) -> tuple[list[Counter], list[int]]:
    """Hook counts for every n <= n_max in a single pass over the charge
    vectors of the t-cores.

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
        _abacus.kept_vectors(te, n_max, False, f), te, ks
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
    """One BiasRecord per n in [n_lo, n_hi] comparing the hook counts for
    the listed ks under the adjacent relations.

    The verdict is HOLDS when every adjacent pair satisfies its relation,
    FAILS otherwise, and NOT-APPLICABLE when no t-core of n passes the
    filter (an empty universe, distinguished from a checked truth).
    """
    ks = list(ks)
    if not ks:
        raise ValueError("ks must not be empty")
    relations = list(relations)
    if len(relations) != len(ks) - 1:
        raise ValueError(
            f"need {len(ks) - 1} relations for {len(ks)} hook lengths, "
            f"got {len(relations)}"
        )
    for r in relations:
        relation_check(r, 0, 0)
    if n_lo < 0 or n_hi < n_lo:
        raise ValueError(f"bad range {n_lo}..{n_hi}")
    tables, core_counts = hook_count_table(t, n_hi, f, ks)
    out = []
    for n in range(n_lo, n_hi + 1):
        values = {(t, k): tables[n][k] for k in ks}
        if core_counts[n] == 0:
            verdict = NOT_APPLICABLE
        else:
            vals = [values[(t, k)] for k in ks]
            ok = all(
                relation_check(rel, vals[i], vals[i + 1])
                for i, rel in enumerate(relations)
            )
            verdict = HOLDS if ok else FAILS
        out.append(BiasRecord(n=n, values=values, verdict=verdict))
    return out


def cross_core_bias_table(
    pairs: Sequence[tuple[int, int]],
    n_lo: int,
    n_hi: int,
    relations: Sequence[str],
    f: PartFilter = EMPTY_FILTER,
) -> list[BiasRecord]:
    """Like bias_table but each compared value may come from a different
    core parameter t; pairs are (t, k).  The universe is considered empty
    only when it is empty for every t involved."""
    pairs = [(int(t), int(k)) for t, k in pairs]
    if not pairs:
        raise ValueError("pairs must not be empty")
    relations = list(relations)
    if len(relations) != len(pairs) - 1:
        raise ValueError(
            f"need {len(pairs) - 1} relations for {len(pairs)} value columns"
        )
    swept: dict[int, tuple[list[Counter], list[int]]] = {}
    for t, _ in pairs:
        if t not in swept:
            ks_for_t = sorted({k for tt, k in pairs if tt == t})
            swept[t] = hook_count_table(t, n_hi, f, ks_for_t)
    out = []
    for n in range(n_lo, n_hi + 1):
        values = {(t, k): swept[t][0][n][k] for t, k in pairs}
        if all(swept[t][1][n] == 0 for t in swept):
            verdict = NOT_APPLICABLE
        else:
            vals = [values[p] for p in pairs]
            ok = all(
                relation_check(rel, vals[i], vals[i + 1])
                for i, rel in enumerate(relations)
            )
            verdict = HOLDS if ok else FAILS
        out.append(BiasRecord(n=n, values=values, verdict=verdict))
    return out


def per_partition_compare(
    t: int,
    n: int,
    k1: int,
    k2: int,
    f: PartFilter = EMPTY_FILTER,
) -> BiasRecord:
    """Check counts[k1] >= counts[k2] for every single t-core of n.

    HOLDS requires the inequality on each partition individually; on
    failure the witness is the first violating partition in stream order.
    NOT-APPLICABLE marks an empty universe.
    """
    total1 = total2 = 0
    seen = False
    witness = None
    for p in t_cores_of(n, t, f):
        seen = True
        flat = hook_lengths_of(p.parts)
        c1 = flat.count(k1)
        c2 = flat.count(k2)
        total1 += c1
        total2 += c2
        if witness is None and c1 < c2:
            witness = p
    if not seen:
        verdict = NOT_APPLICABLE
    elif witness is None:
        verdict = HOLDS
    else:
        verdict = FAILS
    return BiasRecord(
        n=n,
        values={(t, k1): total1, (t, k2): total2},
        verdict=verdict,
        witness=witness,
    )
