"""Hook-length statistics over t-core partitions.

The central quantity is the total number of k-hooks across all t-core
partitions of n, optionally restricted to partitions avoiding a set of
part values.  Range sweeps share one pruned enumeration pass per (t,
filter) pair; per-n results are exact integers throughout.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .generate import EMPTY_FILTER, PartFilter, t_cores_of, t_cores_up_to
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


def total_hook_count(
    n: int, t: int, k: int, f: PartFilter = EMPTY_FILTER
) -> int:
    """Total number of k-hooks over all t-core partitions of n whose parts
    pass the filter."""
    if t < 2:
        raise ValueError(f"t must be at least 2, got {t}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    total = 0
    for p in t_cores_of(n, t, f):
        total += hook_lengths_of(p.parts).count(k)
    return total


def hook_count_table(
    t: int,
    n_max: int,
    f: PartFilter = EMPTY_FILTER,
    ks: Sequence[int] | None = None,
) -> tuple[list[Counter], list[int]]:
    """Hook counts for every n <= n_max in a single pruned sweep.

    Returns (tables, core_counts): tables[n] maps hook length to total
    count over the t-cores of n (restricted to ks when given), and
    core_counts[n] is the number of t-cores of n under the filter.
    """
    tables: list[Counter] = [Counter() for _ in range(n_max + 1)]
    core_counts = [0] * (n_max + 1)
    if ks is None:
        for n, p in t_cores_up_to(n_max, t, f):
            core_counts[n] += 1
            tables[n].update(hook_lengths_of(p.parts))
    else:
        kl = list(ks)
        for n, p in t_cores_up_to(n_max, t, f):
            core_counts[n] += 1
            flat = hook_lengths_of(p.parts)
            tbl = tables[n]
            for k in kl:
                c = flat.count(k)
                if c:
                    tbl[k] += c
    return tables, core_counts


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
