"""The ternary quadratic form x^2 + 2y^2 + 2z^2 and triangular numbers.

By Dickson's representability criterion the form represents every
positive integer not of the shape 4^a*(8b+7).  For h >= 2 the number
(2h+1)^2 + 4 is 5 mod 8, hence representable, and a parity argument
forces a representation with x, y, z all odd; writing x=2m+1, y=2r+1,
z=2s+1 turns it into h(h+1)/2 = m(m+1)/2 + r(r+1) + s(s+1), which
supplies a second 4-core partition of every triangular number beyond 1.

The module gives the exclusion test and a sieve of the represented
integers (which agree), the lexicographically smallest all-odd
representation, and check_triangular_4core_pair, the check of the claim
itself against the triple triangular series and the 4-core counts.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import repeat
from math import gcd, isqrt, prod
from operator import sub

from .generate import count_t_cores
from .partition import _integer
from .qseries import triple_triangular_series


class OddRepresentation(namedtuple("OddRepresentation", "h x y z m r s")):
    """An all-odd representation (2h+1)^2 + 4 = x^2 + 2y^2 + 2z^2 together
    with the triangular-number decomposition it encodes."""

    __slots__ = ()

    def __new__(cls, h: int, x: int, y: int, z: int, m: int, r: int, s: int):
        fields = (h, x, y, z, m, r, s)
        if h < 2:
            raise ValueError(f"h must be at least 2, got {h}")
        target = (2 * h + 1) ** 2 + 4
        if x * x + 2 * y * y + 2 * z * z != target:
            raise ValueError(f"not a representation of {target}: {tuple.__new__(cls, fields)}")
        for name, v in (("x", x), ("y", y), ("z", z)):
            if v < 1 or v % 2 == 0:
                raise ValueError(f"{name} must be a positive odd integer, got {v}")
        if (x, y, z) != (2 * m + 1, 2 * r + 1, 2 * s + 1):
            raise ValueError(f"(m, r, s) do not match (x, y, z): {tuple.__new__(cls, fields)}")
        # implied by the checks above; kept as the statement the record makes
        lhs = h * (h + 1) // 2
        rhs = m * (m + 1) // 2 + r * (r + 1) + s * (s + 1)
        if lhs != rhs:
            raise ValueError(f"triangular identity fails: {lhs} != {rhs}")
        return tuple.__new__(cls, fields)

    # _replace builds through _make, so a replaced record is checked too
    _make = classmethod(lambda cls, fields: cls(*fields))


def is_dickson_excluded(n: int) -> bool:
    """True when n has the shape 4^a*(8b+7), the integers the form
    x^2 + 2y^2 + 2z^2 does not represent."""
    n = _integer(n, "n", 1)
    while n % 4 == 0:
        n //= 4
    return n % 8 == 7


def representable_flags(n_max: int) -> list[bool]:
    """flags[n] for 1 <= n <= n_max: does x^2 + 2y^2 + 2z^2 = n have a
    solution?  One sieve pass over all value triples up to the bound."""
    n_max = _integer(n_max, "n_max", 1)
    flags = bytearray(n_max + 1)
    for x in range(isqrt(n_max) + 1):
        for y in range(isqrt((n_max - x * x) // 2) + 1):
            b = x * x + 2 * y * y
            for z in range(isqrt((n_max - b) // 2) + 1):
                flags[b + 2 * z * z] = 1
    return [bool(v) for v in flags]


# The odd squares 1, 9, 25, ... in ascending order and as a set, shared by
# every odd_representation call.  The table is rebuilt at twice the size a
# target needs, so across calls it holds O(sqrt(target)) ints and is built
# O(log target) times.  It is rebound whole, never changed in place, so a
# reader always sees a list and a set that agree.
_odd_squares: tuple[list[int], frozenset[int]] = ([1], frozenset({1}))


def _odd_squares_upto(limit: int) -> tuple[list[int], frozenset[int]]:
    """The ascending odd squares, at least every one <= limit, and their set."""
    global _odd_squares
    table = _odd_squares
    if table[0][-1] < limit:
        squares = [v * v for v in range(1, isqrt(2 * limit) + 1, 2)]
        table = _odd_squares = (squares, frozenset(squares))
    return table


# The primes p = 3 (mod 4) below _SCREEN_BOUND (the p = 3 (mod 4) with no
# odd divisor from 3 to isqrt(p)), multiplied together.
_SCREEN_BOUND = 500
_PRIMES_3_MOD_4 = prod(
    p for p in range(3, _SCREEN_BOUND, 4) if all(p % d for d in range(3, isqrt(p) + 1, 2))
)


def _not_two_squares(half: int) -> bool:
    """True when some prime p = 3 (mod 4) below 500 (_SCREEN_BOUND)
    divides half exactly once, so that half is not a sum of two squares:
    p | y^2 + z^2 forces p | y and p | z, and then p^2 | half.

    g = gcd(half, the product of those primes) is square-free, so each
    p | g divides half / p exactly when it divides half / g; the rule holds
    when some p | g does not, that is when gcd(half / g, g) < g.
    """
    g = gcd(half, _PRIMES_3_MOD_4)
    return gcd(half // g, g) != g


def odd_representation(h: int) -> OddRepresentation:
    """The lexicographically smallest all-odd (x, y, z) representing
    (2h+1)^2 + 4, packaged with m = (x-1)/2, r = (y-1)/2, s = (z-1)/2.

    For each odd x, with half = ((2h+1)^2 + 4 - x^2)/2, the odd z run down
    from the largest with z^2 <= half, and the first z leaving an odd
    square half - z^2 gives the smallest y.  If (y, z) solves y^2 + z^2 =
    half, so does (z, y), so the smallest y has y <= z and the search for
    z stops at 2z^2 < half.  An odd square is 1 mod 8, so a sum of two is
    2 mod 8; any x whose half is not is skipped without a search, and so
    is any x whose half a prime p = 3 (mod 4) below 500 divides exactly
    once (_not_two_squares), since such a half is no sum of two squares
    at all.
    """
    h = _integer(h, "h", 2)
    target = (2 * h + 1) ** 2 + 4
    # y^2 and z^2 are at most half <= target / 2
    odd_squares, odd_square_set = _odd_squares_upto(target // 2)
    is_odd_square = odd_square_set.__contains__
    for x in range(1, isqrt(target) + 1, 2):
        half = (target - x * x) // 2  # target - x^2 is 4 mod 8, so exact
        if half % 8 != 2 or _not_two_squares(half):
            continue
        # the first odd square z^2 in [half / 2, half], largest first, that
        # leaves an odd square y^2, found in C; (isqrt(v) + 1) // 2 are <= v
        lo, hi = (isqrt((half - 1) // 2) + 1) // 2, (isqrt(half) + 1) // 2
        z_squares = reversed(odd_squares[lo:hi])
        y2 = next(filter(is_odd_square, map(sub, repeat(half), z_squares)), None)
        if y2 is not None:
            y, z = isqrt(y2), isqrt(half - y2)
            return OddRepresentation(
                h=h,
                x=x,
                y=y,
                z=z,
                m=(x - 1) // 2,
                r=(y - 1) // 2,
                s=(z - 1) // 2,
            )
    raise RuntimeError(f"no all-odd representation found for h={h}")


# The largest n whose 4-cores check_triangular_4core_pair counts one by one.
_ENUM_BUDGET = 600


def check_triangular_4core_pair(h_max: int) -> tuple[bool, list[str]]:
    """For every 2 <= h <= h_max and n = h(h+1)/2: the triple triangular
    series coefficient at n is at least 2, and (for n <= _ENUM_BUDGET) so
    is the number of 4-core partitions of n."""
    h_max = _integer(h_max, "h_max", 2)
    n_top = h_max * (h_max + 1) // 2
    series = triple_triangular_series(n_top)
    failures = []
    for h in range(2, h_max + 1):
        n = h * (h + 1) // 2
        if series[n] < 2:
            failures.append(f"series coefficient at n={n} is {series[n]} < 2")
        if n <= _ENUM_BUDGET and count_t_cores(n, 4) < 2:
            failures.append(f"fewer than two 4-cores of n={n}")
    return not failures, failures
