"""Exact truncated formal power series in q, with integer coefficients.

These series provide generating-function oracles that are computed without
ever enumerating a partition: the t-core counting series of the eta-style
product, the triangular-number indicator, and a triple series over shifted
triangular numbers.  The t-core series is its product divided by
Euler's pentagonal series: O(sqrt(n)) additions per coefficient, made a
block of sizes at a time, in exact integers with no division.  The
numerator is a power of the pentagonal series, multiplied out term by
term.  A series is a frozen tuple of Python int coefficients, read by
exponent, so every value is exact at any size.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import isqrt
from operator import add, sub
from typing import Iterable

from .partition import _integer

# sizes per block of core_count_series, chosen by timing lengths 16 to 256
_BLOCK = 32


class TruncatedSeries(tuple):
    """Coefficients c[0..order] of a power series truncated at q^order.

    The series is the tuple of its coefficients: series[n] is c[n],
    iterating it yields c[0], c[1], ..., and it compares equal to the
    plain tuple coeffs.
    """

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[int]):
        return super().__new__(cls, coeffs)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def order(self) -> int:
        return len(self) - 1

    def __repr__(self) -> str:
        return f"TruncatedSeries(coeffs={tuple(self)!r})"


def core_count_series(t: int, order: int) -> TruncatedSeries:
    """Series whose q^n coefficient counts the t-core partitions of n.

    The series is F = product over j >= 1 of (1 - q^(t*j))^t / (1 - q^j).
    Multiplied by Euler's product (q;q) = product of (1 - q^j), the sum
    over all integers k of (-1)^k * q^(k(3k-1)/2), it becomes
    G = (q^t;q^t)^t, so with the pentagonal numbers

        c_n = g_n + sum over k >= 1 of (-1)^(k+1)
                    * (c_(n - k(3k-1)/2) + c_(n - k(3k+1)/2)),

    terms with a negative index left out.  g_n is the q^(n/t) coefficient
    of (q;q)^t when t divides n and 0 otherwise; those come from t sparse
    multiplications by the pentagonal series, through q^(order/t) only
    (_euler_power).

    The sizes are taken _BLOCK at a time.  A pentagonal term e >= _BLOCK
    reads only coefficients before the block, so each such term is one
    slice of the finished coefficients, and the block sums its slices
    element by element in one pass.  The eight terms e < _BLOCK (1, 2,
    12 and 15 added, 5, 7, 22 and 26 subtracted) are one fixed sum per
    n, in increasing n.  _BLOCK zeros before c_0 stand for the negative
    indices, so every read is in range and the fixed sum holds at every
    order: a term beyond n reads a zero.  Nothing is enumerated,
    the integers are exact and nothing is divided: each c_n costs
    O(sqrt(n)) additions, so the series costs O(order^1.5) plus
    O(t * (order / t)^1.5) for g.  For t > order the counts are the
    partition numbers p(n).
    """
    t, order = _integer(t, "t", 2), _integer(order, "order", 0)
    # the pentagonal numbers k(3k-1)/2 and k(3k+1)/2, split by the sign of
    # their term: k odd adds, k even subtracts (in (q;q) itself k odd is -1)
    adds: list[int] = []
    subs: list[int] = []
    k = 1
    while k * (3 * k - 1) // 2 <= order:
        (adds if k % 2 else subs).extend((k * (3 * k - 1) // 2, k * (3 * k + 1) // 2))
        k += 1
    c = [0] * (_BLOCK + order + 1)  # c_n at c[_BLOCK + n]
    c[_BLOCK::t] = _euler_power(t, order // t, adds, subs)
    far_adds, far_subs = adds[bisect_left(adds, _BLOCK) :], subs[bisect_left(subs, _BLOCK) :]
    zeros = [0] * _BLOCK  # the far subs' sums run the block's length even with none
    for lo in range(_BLOCK, len(c), _BLOCK):
        hi = min(lo + _BLOCK, len(c))
        # the far terms that reach the block: e at most its last size
        plus = [c[lo - e : hi - e] for e in far_adds[: bisect_left(far_adds, hi - _BLOCK)]]
        minus = [c[lo - e : hi - e] for e in far_subs[: bisect_left(far_subs, hi - _BLOCK)]]
        c[lo:hi] = map(sub, map(sum, zip(c[lo:hi], *plus)), map(sum, zip(zeros, *minus)))
        # the near terms, the pentagonal numbers below _BLOCK: k = 1..4
        for n in range(lo, hi):
            c[n] += (
                c[n - 1] + c[n - 2] - c[n - 5] - c[n - 7]
                + c[n - 12] + c[n - 15] - c[n - 22] - c[n - 26]
            )
    return TruncatedSeries(c[_BLOCK:])


def _euler_power(t: int, top: int, minus: list[int], plus: list[int]) -> list[int]:
    """The coefficients of q^0..q^top of (q;q)^t, where (q;q) = 1 minus
    q^e for e in minus plus q^e for e in plus (the pentagonal numbers, in
    increasing order): the O(sqrt(top)) terms are multiplied into 1 t
    times, O(t * top^1.5) additions and no division."""
    minus = minus[: bisect_right(minus, top)]
    plus = plus[: bisect_right(plus, top)]
    c = [1] + [0] * top
    if not minus:  # top == 0: (q;q)^t is 1
        return c
    for _ in range(t):
        prod = c[:]
        for e in minus:
            prod[e:] = map(sub, prod[e:], c)
        for e in plus:
            prod[e:] = map(add, prod[e:], c)
        c = prod
    return c


def triangular_indicator_series(order: int) -> TruncatedSeries:
    """Series with coefficient 1 exactly at the triangular numbers
    k*(k+1)/2 (k >= 0) and 0 elsewhere."""
    order = _integer(order, "order", 0)
    c = [0] * (order + 1)
    for a in _triangular_upto(order):
        c[a] = 1
    return TruncatedSeries(tuple(c))


def triple_triangular_series(order: int) -> TruncatedSeries:
    """Coefficient of q^n counts triples (m, r, s) of non-negative integers
    with m*(m+1)/2 + r*(r+1) + s*(s+1) = n."""
    order = _integer(order, "order", 0)
    c = [0] * (order + 1)
    for a in _triangular_upto(order):
        for b in _triangular_upto((order - a) // 2):
            for e in _triangular_upto((order - a - 2 * b) // 2):
                c[a + 2 * b + 2 * e] += 1
    return TruncatedSeries(tuple(c))


def _triangular_upto(top: int) -> list[int]:
    """The triangular numbers k*(k+1)/2 <= top, ascending."""
    return [k * (k + 1) // 2 for k in range((isqrt(8 * top + 1) - 1) // 2 + 1)]


def verify_identity(
    lhs: TruncatedSeries, rhs: TruncatedSeries
) -> tuple[bool, int | None]:
    """Coefficientwise comparison; returns (True, None) on equality or
    (False, n) with the smallest mismatching exponent."""
    if lhs.order != rhs.order:
        raise ValueError(f"order mismatch: {lhs.order} != {rhs.order}")
    for n, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs)):
        if a != b:
            return False, n
    return True, None

