"""Streaming generators for partitions and t-core partitions.

All generators are deterministic and emit partitions of a fixed n in
reverse-lexicographic order on the part sequences, largest parts first:
[4], [3,1], [2,2], [2,1,1], [1,1,1,1].

The t-core generators build partitions part by part (largest part first)
and prune on first-row hook lengths.  Once the next part is bounded by m,
the hook lengths of the first row in columns beyond m are final; those
values are revealed in increasing order, and a prefix survives exactly
when every revealed value v with v >= t has v - t among the already
revealed ones.  A first-row hook set violating that closure forces a hook
of length exactly t somewhere in every completion, so the subtree is cut.
One more structural cut applies: a part repeated t times forces a column
hook of length t, so runs are capped at t - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .partition import Partition


@dataclass(frozen=True)
class PartFilter:
    """Restriction on part values: drop partitions using excluded values
    or values below min_part."""

    excluded: frozenset[int] = frozenset()
    min_part: int = 1

    def __post_init__(self):
        if self.min_part < 1:
            raise ValueError(f"min_part must be positive, got {self.min_part}")
        excl = frozenset(int(v) for v in self.excluded)
        if any(v < 1 for v in excl):
            raise ValueError(f"excluded values must be positive, got {sorted(excl)}")
        object.__setattr__(self, "excluded", excl)

    def allows(self, value: int) -> bool:
        return value >= self.min_part and value not in self.excluded

    def passes(self, parts: tuple[int, ...]) -> bool:
        """True when every part is allowed.  parts is weakly decreasing,
        so its last part is the smallest."""
        return not parts or (
            parts[-1] >= self.min_part and self.excluded.isdisjoint(parts)
        )


EMPTY_FILTER = PartFilter()


@dataclass
class EnumStats:
    """Counters filled in by the t-core generators.

    produced counts emitted partitions; pruned_nodes counts candidate child
    parts rejected by the hook-based cuts (not by sum/filter bookkeeping).
    """

    n: int = 0
    t: int = 0
    produced: int = 0
    pruned_nodes: int = 0


def _next_partition(parts: list[int]) -> bool:
    """Advance parts to the next partition of the same total in
    reverse-lexicographic order; False when parts was the last one."""
    # find the rightmost part larger than 1
    i = len(parts) - 1
    while i >= 0 and parts[i] == 1:
        i -= 1
    if i < 0:
        return False
    rem = len(parts) - i  # the 1s plus one unit borrowed below
    parts[i] -= 1
    cap = parts[i]
    del parts[i + 1 :]
    while rem > 0:
        nxt = cap if cap < rem else rem
        parts.append(nxt)
        rem -= nxt
    return True


def iter_partition_parts(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n as raw part tuples, reverse-lexicographic."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n == 0:
        yield ()
        return
    parts = [n]
    while True:
        yield tuple(parts)
        if not _next_partition(parts):
            return


def partitions_of(n: int, f: PartFilter = EMPTY_FILTER) -> Iterator[Partition]:
    """All partitions of n passing the filter, reverse-lexicographic."""
    for parts in iter_partition_parts(n):
        if f.passes(parts):
            yield Partition._unchecked(parts, n)


# Frame slots for the iterative t-core walker.
_PREV, _SIZE, _RUN, _NEXT, _LO, _CCOL, _ROWS = range(7)


def _walk_t_cores(
    t: int,
    total: int,
    exact: bool,
    f: PartFilter,
    stats: EnumStats | None,
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Depth-first pruned search over t-core partitions.

    Yields (size, parts).  With exact=True only completed partitions of
    `total` are emitted; otherwise every t-core of size <= total is emitted,
    parents before descendants, next parts in decreasing order.
    """
    if t < 2:
        raise ValueError(f"t must be at least 2, got {t}")
    if total < 0:
        raise ValueError(f"n must be non-negative, got {total}")

    if stats is not None:
        stats.n = total
        stats.t = t

    if not exact or total == 0:
        if stats is not None:
            stats.produced += 1
        yield (0, ())
        if total == 0:
            return

    excluded = f.excluded
    min_part = f.min_part
    parts: list[int] = []
    betas: set[int] = set()  # committed (final) first-row hook lengths
    cap_run = t - 1

    # root frame: children are the possible largest parts
    stack = [[0, 0, 0, total, max(1, min_part), 0, 0]]
    while stack:
        fr = stack[-1]
        prev = fr[_PREV]
        lo = fr[_LO]
        m = fr[_NEXT]
        while m >= lo:
            if m in excluded:
                m -= 1
                continue
            if m == prev and fr[_RUN] == cap_run:
                if stats is not None:
                    stats.pruned_nodes += 1
                m -= 1
                continue
            break
        if m < lo:
            # node exhausted: withdraw committed first-row hooks, drop the row
            if prev:
                first = parts[0]
                rows = fr[_ROWS]
                for c in range(fr[_CCOL], prev + 1):
                    betas.remove(first + rows - c)
                parts.pop()
            stack.pop()
            continue
        fr[_NEXT] = m - 1

        if prev:
            # bounding the next part by m finalises first-row hooks in
            # columns m+1..prev; commit any not yet committed
            first = parts[0]
            rows = fr[_ROWS]
            cc = fr[_CCOL]
            while cc > m + 1:
                cc -= 1
                betas.add(first + rows - cc)
            fr[_CCOL] = cc

        # enter the child node obtained by appending part m
        parts.append(m)
        size = fr[_SIZE] + m
        run = fr[_RUN] + 1 if m == prev else 1
        rows = fr[_ROWS] + 1
        first = parts[0]

        # scan this node's own columns m..1; values appear in increasing
        # order, so the closure test is incremental
        c = m
        added = []
        add = betas.add
        while c >= 1:
            b = first + rows - c
            if b >= t and (b - t) not in betas:
                break
            add(b)
            added.append(b)
            c -= 1
        c_star = c
        for b in added:
            betas.remove(b)

        if exact:
            remaining = total - size
            if remaining == 0:
                if c_star == 0:
                    if stats is not None:
                        stats.produced += 1
                    yield (size, tuple(parts))
                parts.pop()
                continue
            hi = m if m < remaining else remaining
        else:
            if c_star == 0:
                if stats is not None:
                    stats.produced += 1
                yield (size, tuple(parts))
            hi = min(m, total - size)

        if stats is not None and c_star > 0:
            hi_cut = min(hi, c_star - 1)
            lo_cut = max(1, min_part)
            if hi_cut >= lo_cut:
                cut = hi_cut - lo_cut + 1
                cut -= sum(1 for v in excluded if lo_cut <= v <= hi_cut)
                stats.pruned_nodes += cut

        lo_child = c_star if c_star > min_part else min_part
        if hi < lo_child:
            parts.pop()
            continue
        stack.append([m, size, run, hi, lo_child, m + 1, rows])


def t_cores_of(
    n: int,
    t: int,
    f: PartFilter = EMPTY_FILTER,
    stats: EnumStats | None = None,
) -> Iterator[Partition]:
    """The t-core partitions of n passing the filter, each exactly once,
    in the same order as partitions_of restricted to t-cores."""
    for size, parts in _walk_t_cores(t, n, True, f, stats):
        yield Partition._unchecked(parts, size)


def t_cores_up_to(
    n_max: int,
    t: int,
    f: PartFilter = EMPTY_FILTER,
    stats: EnumStats | None = None,
) -> Iterator[tuple[int, Partition]]:
    """(n, partition) for every t-core of every n <= n_max, in one pruned
    sweep.  Grouped by n the stream agrees with t_cores_of."""
    for size, parts in _walk_t_cores(t, n_max, False, f, stats):
        yield size, Partition._unchecked(parts, size)


def count_t_cores(n: int, t: int, f: PartFilter = EMPTY_FILTER) -> int:
    """Number of t-core partitions of n passing the filter."""
    count = 0
    for _ in _walk_t_cores(t, n, True, f, None):
        count += 1
    return count
