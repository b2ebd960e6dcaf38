"""Streaming generators for partitions and t-core partitions.

All generators are deterministic and emit partitions of a fixed n in
reverse-lexicographic order on the part sequences, largest parts first:
[4], [3,1], [2,2], [2,1,1], [1,1,1,1].

The t-cores come from the walk of _abacus, the engine that also counts
their hooks: the cores with no part below m, the least allowed value, are
the points of N^(t-m), one bead count per runner; a core with a forbidden
part above m is dropped on its beads alone.  The parts of each core, and
of its conjugate when the walk lets it stand for both, are read off the
beads in O(n) and sorted.  For t > n every partition of n is a t-core,
so there the filtered partition stream is used.
"""

from __future__ import annotations

from array import array
from collections import defaultdict, namedtuple
from functools import partial
from itertools import filterfalse
from operator import index
from typing import Iterable, Iterator

from . import _abacus
from .partition import Partition, conjugate_parts


def _integer(value, what: str) -> int:
    """value as an int; a ValueError saying what must be an integer for a
    float, a string or anything else that is not one."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{what}, got {value!r}") from None


class PartFilter(namedtuple("PartFilter", "excluded min_part")):
    """Restriction on part values: drop partitions using excluded values
    or values below min_part.  excluded is kept as a frozenset of ints."""

    __slots__ = ()

    def __new__(cls, excluded: Iterable[int] = frozenset(), min_part: int = 1):
        min_part = _integer(min_part, "min_part must be an integer")
        if min_part < 1:
            raise ValueError(f"min_part must be positive, got {min_part}")
        excl = frozenset(_integer(v, "excluded values must be integers") for v in excluded)
        if any(v < 1 for v in excl):
            raise ValueError(f"excluded values must be positive, got {sorted(excl)}")
        return super().__new__(cls, excl, min_part)

    # _replace builds through _make, so a replaced filter is checked too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def allows(self, value: int) -> bool:
        return value >= self.min_part and value not in self.excluded

    def passes(self, parts: tuple[int, ...]) -> bool:
        """True when every part is allowed.  parts is weakly decreasing,
        so its last part is the smallest."""
        return not parts or (
            parts[-1] >= self.min_part and self.excluded.isdisjoint(parts)
        )


EMPTY_FILTER = PartFilter()


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


# Remainders up to this size are finished from a table of texts: 3,810
# strings when every part is allowed.
_SUFFIX_MAX = 14

# Lines per chunk of the text streams that enum writes.
_CHUNK_LINES = 4096


def _min_caps(n: int, f: PartFilter) -> list[int]:
    """caps[r], for 0 <= r <= n: the smallest largest part among the
    partitions of r into allowed parts, n + 1 when there is none.  r has
    such a partition with parts <= k exactly when caps[r] <= k."""
    caps = [0] + [n + 1] * n
    m = f.min_part
    excluded = f.excluded
    for r in range(m, n + 1):
        # at most r // m parts of size >= m, so the largest is at least
        # this; with no exclusions it is exactly this
        v = -(-r // (r // m))
        while v <= r and (v in excluded or caps[r - v] > v):
            v += 1
        if v <= r:
            caps[r] = v
    return caps


def partition_text_chunks(n: int, f: PartFilter = EMPTY_FILTER) -> Iterator[str]:
    """The text lines ("[6,3,2,1]\\n") of the partitions of n passing the
    filter, in the order and with the bytes of parts_text over
    partitions_of(n, f).  No chunk is empty.

    Only allowed part values are ever tried, and a part is placed only
    when the remainder still has a partition into allowed parts no larger
    than it (_min_caps), so every prefix walked ends in at least one line
    and a filtered n costs its output, not p(n).  Remainders of at most
    _SUFFIX_MAX are finished from a table of suffix texts ",a,b]\\n" built
    once per call; longer prefixes are walked with an explicit stack, so
    nothing recurses however many parts a partition has.  A prefix and its
    block of suffixes are one join, and a chunk ends with the block that
    brings it to _CHUNK_LINES lines, so it has less than one block more.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n == 0:
        yield "[]\n"  # the empty partition passes every filter
        return
    caps = _min_caps(n, f)
    lo = f.min_part
    excluded = f.excluded
    strs = [str(v) for v in range(n + 1)]

    def allowed_down_from(c: int) -> Iterator[int]:
        values = range(c, lo - 1, -1)
        return filterfalse(excluded.__contains__, values) if excluded else iter(values)

    # suffix[r][k]: the texts ",a,b]\n" of the partitions of r into allowed
    # parts <= k, reverse-lexicographic
    top = min(n, _SUFFIX_MAX)
    suffix = [[["]\n"]]]
    for r in range(1, top + 1):
        row = [[]]
        for k in range(1, r + 1):
            below = row[k - 1]
            if f.allows(k):
                head = "," + strs[k]
                below = [head + s for s in suffix[r - k][min(k, r - k)]] + below
            row.append(below)
        suffix.append(row)

    # Each frame is (head length, remainder, part values to try).  text
    # holds the head of the newest frame, which begins with the head of
    # every frame below it, so one string serves the whole stack.
    text = "["
    stack = [(1, n, allowed_down_from(n))]
    blocks: list[str] = []
    lines = 0
    while stack:
        head_len, r, values = stack[-1]
        for v in values:
            rest = r - v
            if caps[rest] > v:
                continue
            line_head = text[:head_len] + strs[v]
            if rest <= _SUFFIX_MAX:
                block = suffix[rest][min(v, rest)]  # each suffix ends its line
                blocks.append(line_head + line_head.join(block))
                lines += len(block)
                if lines >= _CHUNK_LINES:
                    yield "".join(blocks)
                    blocks = []
                    lines = 0
            else:
                text = line_head + ","
                stack.append((len(text), rest, allowed_down_from(min(v, rest))))
                break
        else:
            stack.pop()
    if blocks:
        yield "".join(blocks)


def _check_core_args(n: int, t: int, name: str) -> tuple[int, int]:
    """(n, t) read as ints and checked: t >= 2, n >= 0.  name is the
    caller's name for the size n, the one its errors give."""
    t = _integer(t, "t must be an integer")
    if t < 2:
        raise ValueError(f"t must be at least 2, got {t}")
    n = _integer(n, f"{name} must be an integer")
    if n < 0:
        raise ValueError(f"{name} must be non-negative, got {n}")
    return n, t


def _ordered(
    n_max: int, t: int, f: PartFilter, exact: bool
) -> Iterator[tuple[int, Partition]]:
    """(n, partition) for the t-cores of size n_max passing the filter, or
    of every size up to it unless exact, n ascending, each n reverse-lex.
    One walk keeps z' and the weight of each walked core, t + 1 ints, in
    an array per size; the parts of a size are built and sorted when it
    is reached."""
    n_max, t = _check_core_args(n_max, t, "n" if exact else "n_max")
    if t > n_max:
        for n in range(n_max if exact else 0, n_max + 1):
            for p in partitions_of(n, f):
                yield n, p
        return
    by_size: defaultdict[int, array] = defaultdict(partial(array, "i"))
    for n, z, w in _abacus.kept_vectors(t, n_max, exact, f):
        by_size[n].extend([*z, w])
    for n in sorted(by_size):
        zs = by_size.pop(n)
        found = []
        for i in range(0, len(zs), t + 1):
            parts = _abacus.core_parts(zs[i : i + t], t)
            found.append(parts)
            if zs[i + t] == 2:  # a weight-2 core stands for its conjugate too
                found.append(conjugate_parts(parts))
        found.sort(reverse=True)
        for parts in found:
            yield n, Partition._unchecked(parts, n)


def t_cores_of(n: int, t: int, f: PartFilter = EMPTY_FILTER) -> Iterator[Partition]:
    """The t-core partitions of n passing the filter, each exactly once,
    in the same order as partitions_of restricted to t-cores.  The parts
    of every core of n are built and sorted before the first is yielded."""
    return (p for _, p in _ordered(n, t, f, True))


def t_cores_up_to(
    n_max: int, t: int, f: PartFilter = EMPTY_FILTER
) -> Iterator[tuple[int, Partition]]:
    """(n, partition) for every t-core of every n <= n_max passing the
    filter, n ascending, each n in the order of t_cores_of, from one walk
    over every size <= n_max."""
    return _ordered(n_max, t, f, False)


def count_t_cores(n: int, t: int, f: PartFilter = EMPTY_FILTER) -> int:
    """Number of t-core partitions of n passing the filter; only the
    cores of N^(t-m) are walked, m the least allowed part, and with no
    filter one core of each conjugate pair is counted with its weight."""
    n, t = _check_core_args(n, t, "n")
    if t > n:
        return sum(map(f.passes, iter_partition_parts(n)))
    return sum(w for _, _, w in _abacus.kept_vectors(t, n, True, f))
