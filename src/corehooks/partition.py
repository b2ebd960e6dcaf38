"""Partitions, Young diagrams, and hook lengths.

Diagrams are drawn in English notation: row 1 on top, rows left-justified.
Cells are addressed by 1-based (row, col) pairs.  The hook length of a cell
is 1 plus the number of cells strictly to its right in its row plus the
number strictly below it in its column.  A partition is a t-core when no
hook length is divisible by t.
"""

from __future__ import annotations

from collections import Counter
from itertools import groupby, takewhile
from typing import Iterable, Iterator, NamedTuple


class Cell(NamedTuple):
    """A 1-based (row, col) address of a box in a Young diagram."""

    row: int
    col: int


def conjugate_parts(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Column lengths of the diagram with the given row lengths."""
    if not parts:
        return ()
    width = parts[0]
    out = []
    k = len(parts)
    for v in range(1, width + 1):
        while k > 0 and parts[k - 1] < v:
            k -= 1
        out.append(k)
    return tuple(out)


def hook_lengths_of(parts: tuple[int, ...]) -> list[int]:
    """All hook lengths of the diagram, row by row, left to right.

    Uses the column-length formula: the hook of (i, j) equals
    row_i - j + col_j - i + 1.  Runs in O(number of boxes).
    """
    if not parts:
        return []
    width = parts[0]
    # adj[j-1] = col_len(j) - j, so the hook of cell (i, j) is
    # (row_i - (i-1)) + adj[j-1]
    adj = [0] * width
    k = len(parts)
    for v in range(1, width + 1):
        # parts is weakly decreasing, so rows with length >= v form a prefix
        while k > 0 and parts[k - 1] < v:
            k -= 1
        adj[v - 1] = k - v
    out: list[int] = []
    ext = out.extend
    for i, lam in enumerate(parts):
        base = lam - i
        ext([base + adj[j] for j in range(lam)])
    return out


def parts_text(parts: tuple[int, ...]) -> str:
    """The text form of a part tuple, e.g. "[6,3,2,1]" or "[]"."""
    return "[" + ",".join(map(str, parts)) + "]"


class Partition:
    """A weakly decreasing sequence of positive integer parts.

    Instances are immutable value objects: equal partitions compare and
    hash equally.  The empty partition is the unique partition of 0.
    """

    __slots__ = ("_parts", "_n")

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(int(x) for x in parts)
        prev = None
        for p in ps:
            if p < 1:
                raise ValueError(f"parts must be positive integers, got {p}")
            if prev is not None and p > prev:
                raise ValueError(f"parts must be weakly decreasing, got {list(ps)}")
            prev = p
        self._parts = ps
        self._n = sum(ps)

    @classmethod
    def _unchecked(cls, parts: tuple[int, ...], n: int) -> "Partition":
        # Fast path for generators that produce valid part tuples.
        obj = object.__new__(cls)
        obj._parts = parts
        obj._n = n
        return obj

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse the bracketed text form, e.g. "[6,3,2,1]" or "[]": ASCII
        decimal parts, with optional spaces around each."""
        s = text.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"not a partition text form: {text!r}")
        body = s[1:-1].strip()
        if not body:
            return cls(())
        tokens = [tok.strip() for tok in body.split(",")]
        # int() alone would also take "1_0" and non-ASCII digits
        if not all(tok.isascii() and tok.isdigit() for tok in tokens):
            raise ValueError(f"not a partition text form: {text!r}")
        return cls(map(int, tokens))

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def n(self) -> int:
        """Number of boxes (the integer being partitioned)."""
        return self._n

    def __len__(self) -> int:
        return len(self._parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"Partition({list(self._parts)})"

    def __str__(self) -> str:
        return parts_text(self._parts)

    def is_valid_cell(self, cell: tuple[int, int]) -> bool:
        row, col = cell
        return 1 <= row <= len(self._parts) and 1 <= col <= self._parts[row - 1]

    def cells(self) -> Iterator[Cell]:
        """All cells row by row, left to right."""
        for i, lam in enumerate(self._parts, start=1):
            for j in range(1, lam + 1):
                yield Cell(i, j)

    def conjugate(self) -> "Partition":
        """The transposed diagram; an involution preserving n."""
        conj = conjugate_parts(self._parts)
        return Partition._unchecked(conj, self._n)

    def hook_length(self, cell: tuple[int, int]) -> int:
        """Hook length of one cell; raises ValueError on a cell outside the diagram."""
        if not self.is_valid_cell(cell):
            raise ValueError(f"cell {tuple(cell)} is not a box of {self}")
        row, col = cell
        arm = self._parts[row - 1] - col
        leg = sum(1 for i in range(row, len(self._parts)) if self._parts[i] >= col)
        return arm + leg + 1

    def hook_profile(self) -> Counter:
        """Multiset of hook lengths as a Counter {length: count}.

        The counts sum to n and the map never stores zero counts.
        """
        return Counter(hook_lengths_of(self._parts))

    def is_t_core(self, t: int) -> bool:
        """True when no hook length is divisible by t (requires t >= 2)."""
        if t < 2:
            raise ValueError(f"t must be at least 2, got {t}")
        return all(h % t for h in hook_lengths_of(self._parts))

    def has_exact_hook(self, t: int) -> bool:
        """True when some cell has hook length exactly t (requires t >= 1)."""
        if t < 1:
            raise ValueError(f"hook length must be positive, got {t}")
        return t in hook_lengths_of(self._parts)

    def region(self, cell: tuple[int, int]) -> set[Cell]:
        """Cells weakly below and weakly right of the given cell.

        This is the lower-right quadrant of the diagram anchored at the cell;
        it always contains the cell itself, and re-indexed it is itself a
        Young diagram.
        """
        if not self.is_valid_cell(cell):
            raise ValueError(f"cell {tuple(cell)} is not a box of {self}")
        row, col = cell
        rows = takewhile(col.__le__, self._parts[row - 1 :])
        return {Cell(i, j) for i, lam in enumerate(rows, row) for j in range(col, lam + 1)}

    def multiplicity_view(self) -> list[tuple[int, int]]:
        """The partition as (value, multiplicity) pairs, values strictly decreasing."""
        return [(v, len(list(run))) for v, run in groupby(self._parts)]
