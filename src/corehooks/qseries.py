"""Exact truncated formal power series in q, with integer coefficients.

These series provide generating-function oracles that are computed without
ever enumerating a partition: the t-core counting series as an eta-style
product, the triangular-number indicator, and a triple series over shifted
triangular numbers.  Coefficients are Python ints, so arithmetic is exact
at any size.
"""

from __future__ import annotations

from math import comb, isqrt
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

    Expands the product over j >= 1 of (1 - q^(t*j))^t / (1 - q^j).  Each
    factor is applied exactly: the numerator as a signed binomial
    polynomial, the denominator as multiplication by the geometric series
    inverse of (1 - q^j).  Factors with j > order are 1 modulo truncation.
    """
    if t < 2:
        raise ValueError(f"t must be at least 2, got {t}")
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    c = [0] * (order + 1)
    c[0] = 1
    for j in range(1, order + 1):
        step = t * j
        if step <= order:
            # multiply by (1 - q^(t*j))^t, highest terms first so reads
            # stay ahead of writes
            for n in range(order, step - 1, -1):
                acc = c[n]
                sign = -1
                for i in range(1, min(t, n // step) + 1):
                    acc += sign * comb(t, i) * c[n - step * i]
                    sign = -sign
                c[n] = acc
        # multiply by 1 / (1 - q^j)
        for n in range(j, order + 1):
            c[n] += c[n - j]
    return TruncatedSeries(order, c)


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
