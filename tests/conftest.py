"""Shared test helpers: independent brute-force oracles and strategies.

The oracles here deliberately avoid the library's own algorithms.  Hook
lengths are counted box by box directly on the diagram, and partitions
are generated by a plain recursive construction, so that the fast paths
in the package are always checked against a second route.
"""

from __future__ import annotations

from hypothesis import strategies as st


def naive_partitions(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of n with parts bounded by max_part, largest part
    first, by simple recursion."""
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(max_part, 0, -1):
        for rest in naive_partitions(n - first, first):
            out.append((first,) + rest)
    return out


def naive_hook(parts: tuple[int, ...], row: int, col: int) -> int:
    """Hook length of cell (row, col), 1-based, counted directly: one for
    the box, plus boxes strictly right in the row, plus boxes strictly
    below in the column."""
    arm = parts[row - 1] - col
    leg = sum(1 for i in range(row, len(parts)) if parts[i] >= col)
    return 1 + arm + leg


def naive_hooks(parts: tuple[int, ...]) -> list[int]:
    out = []
    for i in range(1, len(parts) + 1):
        for j in range(1, parts[i - 1] + 1):
            out.append(naive_hook(parts, i, j))
    return out


def naive_is_t_core(parts: tuple[int, ...], t: int) -> bool:
    return all(h % t for h in naive_hooks(parts))


def naive_hook_count(parts: tuple[int, ...], k: int) -> int:
    return sum(1 for h in naive_hooks(parts) if h == k)


def naive_core_series(t: int, order: int) -> list[int]:
    """Coefficients up to q^order of the product over j >= 1 of
    (1 - q^(t*j))^t / (1 - q^j), multiplied out factor by factor as
    truncated polynomials: (1 - q^(t*j)) t times, and 1 / (1 - q^j) as the
    geometric series 1 + q^j + q^(2j) + ...  Meant for order <= 300."""

    def times(poly, factor):
        # factor is a list of (exponent, coefficient) pairs
        out = [0] * (order + 1)
        for e, c in factor:
            for i in range(order + 1 - e):
                out[i + e] += c * poly[i]
        return out

    poly = [1] + [0] * order
    for j in range(1, order + 1):
        poly = times(poly, [(e, 1) for e in range(0, order + 1, j)])
        if t * j <= order:
            for _ in range(t):
                poly = times(poly, [(0, 1), (t * j, -1)])
    return poly


def partition_parts(max_n: int = 40, max_len: int = 10):
    """Hypothesis strategy producing valid part tuples."""
    return (
        st.lists(st.integers(min_value=1, max_value=max_n), max_size=max_len)
        .map(lambda xs: tuple(sorted(xs, reverse=True)))
    )


# ---------------------------------------------------------------------------
# Bead-vector oracle for t-cores.
#
# A partition is a t-core exactly when its set of first-column hook lengths
# is closed under subtracting t.  Sorting beads onto t runners turns that
# set into an integer vector (x_0, ..., x_{t-1}) with sum 0, and the size of
# the partition is (t/2)*sum(x_i^2) + sum(i*x_i).  Enumerating the vectors
# therefore enumerates the t-cores with no reference to the package's
# generators, and hook counts fall out of the bead set alone:
# the number of k-hooks is #{b in B : b >= k and b - k not in B}.
#
# The package's hook counts now come from the same charge vectors, so this
# oracle checks only the part-by-part walker of generate.  Against the
# package's counts the independent route is the walker with naive_hooks.
# ---------------------------------------------------------------------------


def _partition_from_vector(xs: tuple[int, ...], t: int) -> tuple[int, ...]:
    base = max(0, -min(xs)) + 1
    size = base * t
    beads = []
    for c, x in enumerate(xs):
        beads.extend(c + t * q for q in range(base + x))
    assert len(beads) == size
    beads.sort(reverse=True)
    parts = [b - (size - i) for i, b in enumerate(beads, start=1)]
    assert all(p >= 0 for p in parts)
    return tuple(p for p in parts if p > 0)


def _bead_set_from_vector(xs: tuple[int, ...], t: int) -> frozenset[int]:
    base = max(0, -min(xs)) + 1
    beads = set()
    for c, x in enumerate(xs):
        beads.update(c + t * q for q in range(base + x))
    return frozenset(beads)


def bead_hook_count(beads: frozenset[int], k: int) -> int:
    return sum(1 for b in beads if b >= k and (b - k) not in beads)


def bead_vector_tcores(n_max: int, t: int):
    """All t-cores of every n <= n_max via bead vectors.

    Returns a dict n -> list of (parts, bead_set).  Independent of the
    walker: no partition is ever built part by part and no diagram hook is
    ever computed.
    """
    slack = (t - 1) * (2 * t - 1) // 12 + 1
    # one coordinate contributes (t*x^2 + 2*c*x)/2 >= (t*x^2 - 2*(t-1)*|x|)/2,
    # the others at least -slack, so |x| is bounded by the first hi with
    # (t*hi^2 - 2*(t-1)*hi)/2 > n_max + slack
    hi = 1
    while t * hi * hi - 2 * (t - 1) * hi <= 2 * (n_max + slack):
        hi += 1
    out = {n: [] for n in range(n_max + 1)}

    def rec(c, sigma, energy2, xs):
        # energy2 = t*sum(x^2) + 2*sum(c*x) so far; final n is energy2/2
        if energy2 // 2 - slack > n_max:
            return
        if c == t - 1:
            x = -sigma
            if abs(x) > hi:
                return
            e2 = energy2 + t * x * x + 2 * c * x
            assert e2 % 2 == 0
            n = e2 // 2
            if 0 <= n <= n_max:
                vec = xs + (x,)
                out[n].append(
                    (_partition_from_vector(vec, t), _bead_set_from_vector(vec, t))
                )
            return
        for x in range(-hi, hi + 1):
            rec(c + 1, sigma + x, energy2 + t * x * x + 2 * c * x, xs + (x,))

    rec(0, 0, 0, ())
    return out
