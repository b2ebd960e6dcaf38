"""Exact truncated formal power series in q, with integer coefficients.

These series provide generating-function oracles that are computed without
ever enumerating a partition: the t-core counting series of the eta-style
product, the triangular-number indicator, and a triple series over shifted
triangular numbers.  The t-core series comes from the logarithmic
derivative of its product, a recurrence whose terms are divisor sums and
the coefficients themselves, so every intermediate integer stays of
polynomial size.  Coefficients are Python ints, so arithmetic is exact at
any size.
"""

from __future__ import annotations

from itertools import repeat
from math import isqrt
from operator import add, mul, sub
from typing import Mapping


class TruncatedSeries:
    """Coefficients c[0..order] of a power series truncated at q^order.

    Immutable.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        if order < 0:
            raise ValueError(f"order must be non-negative, got {order}")
        if coeffs is None:
            cs = (0,) * (order + 1)
        else:
            cs = tuple(int(c) for c in coeffs)
            if len(cs) != order + 1:
                raise ValueError(
                    f"need exactly {order + 1} coefficients, got {len(cs)}"
                )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def from_terms(cls, order: int, terms: Mapping[int, int]) -> "TruncatedSeries":
        """Series with the given {exponent: coefficient} terms; exponents
        beyond the order are discarded by truncation."""
        cs = [0] * (order + 1)
        for e, c in terms.items():
            if e < 0:
                raise ValueError(f"exponents must be non-negative, got {e}")
            if e <= order:
                cs[e] += int(c)
        return cls(order, cs)

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 7 else ""
        return f"TruncatedSeries(order={self.order}, [{head}{tail}])"

    def _check_order(self, other: "TruncatedSeries"):
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"expected TruncatedSeries, got {type(other).__name__}")
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} != {other.order}"
            )


def core_count_series(t: int, order: int) -> TruncatedSeries:
    """Series whose q^n coefficient counts the t-core partitions of n.

    The series is F = product over j >= 1 of (1 - q^(t*j))^t / (1 - q^j).
    Its logarithmic derivative q*F'/F is the sum of b_m * q^m with
    b_m = sigma(m) - t^2 * sigma(m/t) * [t divides m], sigma the sum of
    divisors, so the coefficients satisfy

        n * c_n = sum over m = 1..n of b_m * c_(n-m),   c_0 = 1.

    Nothing is enumerated: sigma comes from a divisor sieve, and each
    coefficient is one exact division of a sum of products.
    """
    if t < 2:
        raise ValueError(f"t must be at least 2, got {t}")
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    sigma = [0] * (order + 1)
    for d in range(1, order + 1):
        sigma[d::d] = map(add, sigma[d::d], repeat(d))
    b = sigma[:]
    b[t::t] = map(sub, b[t::t], map(mul, sigma[1 : order // t + 1], repeat(t * t)))
    return TruncatedSeries(order, _from_log_derivative(b))


def _from_log_derivative(b: list[int]) -> list[int]:
    """The coefficients c_0 = 1, c_1, ... of the series whose logarithmic
    derivative q*F'/F has the coefficients b (b[0] is not used), through
    n * c_n = sum over m = 1..n of b_m * c_(n-m).  Raises ArithmeticError
    when a division by n is not exact, so the series has no integer
    coefficients."""
    order = len(b) - 1
    rev = b[::-1]  # rev[order - m] = b_m
    c = [1]
    for n in range(1, order + 1):
        # b_n * c_0 + b_(n-1) * c_1 + ... + b_1 * c_(n-1), summed in C
        q, r = divmod(sum(map(mul, c, rev[order - n :])), n)
        if r:
            raise ArithmeticError(
                f"coefficient {n} is not an integer: remainder {r} mod {n}"
            )
        c.append(q)
    return c


def triangular_indicator_series(order: int) -> TruncatedSeries:
    """Series with coefficient 1 exactly at the triangular numbers
    k*(k+1)/2 (k >= 0) and 0 elsewhere."""
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    c = [0] * (order + 1)
    k = 0
    while k * (k + 1) // 2 <= order:
        c[k * (k + 1) // 2] = 1
        k += 1
    return TruncatedSeries(order, c)


def triple_triangular_series(order: int) -> TruncatedSeries:
    """Coefficient of q^n counts triples (m, r, s) of non-negative integers
    with m*(m+1)/2 + r*(r+1) + s*(s+1) = n."""
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    c = [0] * (order + 1)
    m = 0
    while True:
        a = m * (m + 1) // 2
        if a > order:
            break
        r = 0
        while True:
            b = a + r * (r + 1)
            if b > order:
                break
            s = 0
            while True:
                e = b + s * (s + 1)
                if e > order:
                    break
                c[e] += 1
                s += 1
            r += 1
        m += 1
    return TruncatedSeries(order, c)


def verify_identity(
    lhs: TruncatedSeries, rhs: TruncatedSeries
) -> tuple[bool, int | None]:
    """Coefficientwise comparison; returns (True, None) on equality or
    (False, n) with the smallest mismatching exponent."""
    lhs._check_order(rhs)
    for n, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs)):
        if a != b:
            return False, n
    return True, None


def is_triangular(n: int) -> tuple[bool, int]:
    """Whether n = k*(k+1)/2 for some k >= 0, and that k (0 when not)."""
    if n < 0:
        return False, 0
    d = 8 * n + 1
    r = isqrt(d)
    if r * r != d:
        return False, 0
    return True, (r - 1) // 2
