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
from itertools import filterfalse, repeat
from typing import Iterable, Iterator

from . import _abacus
from .partition import Partition, _integer, conjugate_parts


class PartFilter(namedtuple("PartFilter", "excluded min_part")):
    """Restriction on part values: drop partitions using excluded values
    or values below min_part.  excluded is kept as a frozenset of ints."""

    __slots__ = ()

    def __new__(cls, excluded: Iterable[int] = frozenset(), min_part: int = 1):
        min_part = _integer(min_part, "min_part", 1)
        excl = frozenset(_integer(v, "excluded values", kind="integers") for v in excluded)
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


# Remainders up to min(n // 2, _SUFFIX_MAX) are finished from a table
# built per call, at most 4,508 suffixes; n // 2 keeps a small n from
# building rows that cost more than the prefixes they save.
_SUFFIX_MAX = 22

# Lines per chunk of the text streams that enum writes.
_CHUNK_LINES = 4096

# The two forms the walk builds a partition in: (the head of part v, the
# separator between parts, the end of a partition).
_TEXT = (str, ",", "]\n")
_TUPLE = (lambda v: (v,), (), ())


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


def _suffix_blocks(n: int, f: PartFilter, form) -> Iterator[tuple]:
    """(head, block) for the partitions of n passing the filter, in
    reverse-lexicographic order and in the given form (_TEXT or _TUPLE):
    each partition is head + one suffix of block, head joins the heads of
    its leading parts and every suffix begins with a separator.

    Only allowed part values are ever tried, and a part is placed only
    when the remainder still has a partition into allowed parts no larger
    than it (_min_caps), so every prefix walked ends in at least one
    partition.  Remainders r of at most min(n // 2, _SUFFIX_MAX) are
    finished from a table built once per call: row r holds the suffixes
    of the partitions of r, reverse-lexicographic, so those with parts of
    at most k are a tail of it, and each is a separator and a head
    prepended to a suffix of a smaller row.  Longer prefixes are walked
    with an explicit stack, so nothing recurses however many parts a
    partition has.
    """
    n = _integer(n, "n", 0)
    head_of, sep, end = form
    if n == 0:
        # the empty partition passes every filter: an empty head, then end
        yield end[:0], [end]
        return
    heads = list(map(head_of, range(n + 1)))
    caps = _min_caps(n, f)
    lo = f.min_part
    excluded = f.excluded

    def allowed_down_from(c: int) -> Iterator[int]:
        values = range(c, lo - 1, -1)
        return filterfalse(excluded.__contains__, values) if excluded else iter(values)

    # rows[r][starts[r][k]:]: the suffixes of the partitions of r into
    # allowed parts <= k
    top = min(n // 2, _SUFFIX_MAX)
    rows = [[end]]
    starts = [[0]]
    for r in range(1, top + 1):
        row: list = []
        start = [0] * (r + 1)
        for k in range(r, 0, -1):
            start[k] = len(row)
            if k >= lo and k not in excluded:
                q = r - k
                row += map((sep + heads[k]).__add__, rows[q][starts[q][k if k < q else q] :])
        rows.append(row)
        starts.append(start)

    # Each frame is (head length, remainder, part values to try).  text
    # holds the head of the newest frame, which begins with the head of
    # every frame below it, so one sequence serves the whole stack.
    text = end[:0]
    stack = [(0, n, allowed_down_from(n))]
    while stack:
        head_len, r, values = stack[-1]
        for v in values:
            rest = r - v
            if caps[rest] > v:
                continue
            head = text[:head_len] + heads[v]
            cap = v if v < rest else rest
            if rest <= top:
                yield head, rows[rest][starts[rest][cap] :]
            else:
                text = head + sep
                stack.append((len(text), rest, allowed_down_from(cap)))
                break
        else:
            stack.pop()


def _parts(n: int, f: PartFilter) -> Iterator[tuple[int, ...]]:
    """The part tuples of the partitions of n passing the filter."""
    for head, block in _suffix_blocks(n, f, _TUPLE):
        yield from map(head.__add__, block)


def iter_partition_parts(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n as raw part tuples, reverse-lexicographic: the
    walk of partition_text_chunks, each partition built as a tuple."""
    return _parts(n, EMPTY_FILTER)


def partitions_of(n: int, f: PartFilter = EMPTY_FILTER) -> Iterator[Partition]:
    """All partitions of n passing the filter, reverse-lexicographic; like
    partition_text_chunks, a filtered n costs its output, not p(n)."""
    return map(Partition._unchecked, _parts(n, f), repeat(n))


def partition_text_chunks(n: int, f: PartFilter = EMPTY_FILTER) -> Iterator[str]:
    """The text lines ("[6,3,2,1]\\n") of the partitions of n passing the
    filter, in the order and with the bytes of parts_text over
    partitions_of(n, f), from the walk of _suffix_blocks: a filtered n
    costs its output, not p(n).  No chunk is empty.

    A prefix and its block of suffixes are one join, and a chunk ends
    with the block that brings it to _CHUNK_LINES lines, so it has less
    than one block more.
    """
    blocks: list[str] = []
    lines = 0
    for head, block in _suffix_blocks(n, f, _TEXT):
        head = "[" + head  # each suffix ends its line
        blocks.append(head + head.join(block))
        lines += len(block)
        if lines >= _CHUNK_LINES:
            yield "".join(blocks)
            blocks = []
            lines = 0
    if blocks:
        yield "".join(blocks)


def _check_core_args(n: int, t: int, name: str) -> tuple[int, int]:
    """(n, t) read as ints and checked: t >= 2, n >= 0.  name is the
    caller's name for the size n, the one its errors give."""
    t = _integer(t, "t", 2)
    return _integer(n, name, 0), t


def _ordered(
    lo: int, hi: int, t: int, f: PartFilter, name: str
) -> Iterator[tuple[int, Partition]]:
    """(n, partition) for the t-cores of size lo..hi passing the filter,
    n ascending, each n reverse-lex; name is the caller's name for hi.
    One walk keeps z' and the weight of each walked core, t + 1 ints, in
    an array per size; the parts of a size are built and sorted when it
    is reached."""
    hi, t = _check_core_args(hi, t, name)
    if t > hi:
        for n in range(lo, hi + 1):
            for p in partitions_of(n, f):
                yield n, p
        return
    by_size: defaultdict[int, array] = defaultdict(partial(array, "i"))
    for n, z, w in _abacus.kept_vectors(t, lo, hi, f):
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
    return (p for _, p in _ordered(n, n, t, f, "n"))


def t_cores_up_to(
    n_max: int, t: int, f: PartFilter = EMPTY_FILTER
) -> Iterator[tuple[int, Partition]]:
    """(n, partition) for every t-core of every n <= n_max passing the
    filter, n ascending, each n in the order of t_cores_of, from one walk
    over every size <= n_max."""
    return _ordered(0, n_max, t, f, "n_max")


def count_t_cores(n: int, t: int, f: PartFilter = EMPTY_FILTER) -> int:
    """Number of t-core partitions of n passing the filter; only the
    cores of N^(t-m) are walked, m the least allowed part, and with no
    filter one core of each conjugate pair is counted with its weight."""
    n, t = _check_core_args(n, t, "n")
    if t > n:
        return sum(len(block) for _, block in _suffix_blocks(n, f, _TUPLE))
    return sum(w for _, _, w in _abacus.kept_vectors(t, n, n, f))
