"""Shared test helpers: independent brute-force oracles and strategies.

The oracles here deliberately avoid the library's own algorithms.  Hook
lengths are counted box by box directly on the diagram, partitions are
generated by a plain recursive construction, t-cores by a part-by-part
walker, and core counts by divisor sums and class numbers, so that the fast paths in the
package are always checked against a second route.  recurrence_core_series
is the exception: it takes g from qseries and checks only the order in
which core_count_series evaluates the recurrence.
"""

from __future__ import annotations

from math import gcd, isqrt

from hypothesis import strategies as st

from corehooks.qseries import _euler_power


def naive_partitions(
    n: int, max_part: int | None = None, allowed: frozenset[int] | None = None
) -> list[tuple[int, ...]]:
    """All partitions of n with parts bounded by max_part and, when
    allowed is given, drawn from it, largest part first, by simple
    recursion."""
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(max_part, 0, -1):
        if allowed is None or first in allowed:
            for rest in naive_partitions(n - first, first, allowed):
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


def recurrence_core_series(t: int, order: int) -> list[int]:
    """Coefficients up to q^order of the same product by Euler's
    pentagonal recurrence, one coefficient after another: c_n is g_n plus
    the c_(n - e) of the pentagonal numbers e <= n with k odd, less those
    with k even, each c_n its own sum.  g comes from qseries._euler_power,
    so only the order of evaluation is checked."""
    adds, subs = [], []
    k = 1
    while k * (3 * k - 1) // 2 <= order:
        (adds if k % 2 else subs).extend((k * (3 * k - 1) // 2, k * (3 * k + 1) // 2))
        k += 1
    g = [0] * (order + 1)
    g[::t] = _euler_power(t, order // t, adds, subs)
    c: list[int] = []
    for n in range(order + 1):
        c.append(
            g[n]
            + sum(c[n - e] for e in adds if e <= n)
            - sum(c[n - e] for e in subs if e <= n)
        )
    return c


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
# The package's t-cores and hook counts come from charge vectors too, so
# this oracle shares the method with them; it keeps its own enumeration
# and its own bead-to-parts step.  The route that shares nothing with the
# package is walk_t_cores below with naive_hooks.
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


def charge_vector_of(parts: tuple[int, ...], t: int) -> tuple[int, ...]:
    """The charge vector of a partition on the t-abacus, the inverse of
    _partition_from_vector: with L beads at parts[i] + L - 1 - i (parts
    padded with zeros, L the least multiple of t that is >= len(parts)),
    x_c is the number of beads on runner c minus L / t."""
    size = -(-len(parts) // t) * t
    counts = [-(size // t)] * t
    for i in range(size):
        counts[((parts[i] if i < len(parts) else 0) + size - 1 - i) % t] += 1
    return tuple(counts)


def largest_less_length(parts: tuple[int, ...]) -> int:
    """lambda_1 - ell, the largest part less the number of parts; 0 for
    the empty partition.  Conjugation changes its sign."""
    return (parts[0] if parts else 0) - len(parts)


def vector_of_positions(z, t: int) -> tuple[int, ...]:
    """The charge vector of the core whose runner c has its first empty
    position at z[c] (z[c] = c mod t), wherever its beads begin: with L
    the beads it has beyond the empty partition's, moving every position
    down by L gives the charge-0 placement, z_c = z[(c + L) mod t] - L."""
    L = sum(zc - c for c, zc in enumerate(z)) // t
    return tuple((z[(c + L) % t] - L - c) // t for c in range(t))


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


# ---------------------------------------------------------------------------
# Part-by-part t-core walker.
#
# It builds partitions largest part first and prunes on first-row hook
# lengths.  Once the next part is bounded by m, the hook lengths of the
# first row in columns beyond m are final; those values are revealed in
# increasing order, and a prefix survives exactly when every revealed value
# v with v >= t has v - t among the already revealed ones.  A first-row
# hook set violating that closure forces a hook of length exactly t
# somewhere in every completion, so the subtree is cut.  A part repeated t
# times forces a column hook of length t, so runs are capped at t - 1.
# Nothing here uses the abacus.
# ---------------------------------------------------------------------------

# frame slots of the walker's stack
_PREV, _SIZE, _RUN, _NEXT, _LO, _CCOL, _ROWS = range(7)


def walk_t_cores(t: int, total: int, exact: bool, excluded=frozenset(), min_part: int = 1):
    """Yield (size, parts) for the t-cores of size total (exact) or of
    every size <= total, with no part in excluded or below min_part.
    Exact streams are in reverse-lexicographic order; the range stream
    puts parents before descendants, next parts in decreasing order."""
    if not exact or total == 0:
        yield (0, ())
        if total == 0:
            return
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
        while m >= lo and (m in excluded or (m == prev and fr[_RUN] == cap_run)):
            m -= 1
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
        while c >= 1:
            b = first + rows - c
            if b >= t and (b - t) not in betas:
                break
            betas.add(b)
            added.append(b)
            c -= 1
        c_star = c
        for b in added:
            betas.remove(b)
        if exact:
            remaining = total - size
            if remaining == 0:
                if c_star == 0:
                    yield (size, tuple(parts))
                parts.pop()
                continue
            hi = min(m, remaining)
        else:
            if c_star == 0:
                yield (size, tuple(parts))
            hi = min(m, total - size)
        lo_child = max(c_star, min_part)
        if hi < lo_child:
            parts.pop()
            continue
        stack.append([m, size, run, hi, lo_child, m + 1, rows])


def walker_cores_of(n: int, t: int, f=None) -> list[tuple[int, ...]]:
    """The parts of the t-cores of n passing the PartFilter f, in
    reverse-lexicographic order, from the walker."""
    limits = () if f is None else (f.excluded, f.min_part)
    return [parts for _, parts in walk_t_cores(t, n, True, *limits)]


# ---------------------------------------------------------------------------
# Arithmetic oracles: closed forms for the number of t-cores of n, with
# trial-division divisors, a Legendre symbol and a count of reduced binary
# quadratic forms.  They share nothing with the abacus or the q-series.
# ---------------------------------------------------------------------------


def divisors(m: int) -> list[int]:
    small = [d for d in range(1, isqrt(m) + 1) if m % d == 0]
    return small + [m // d for d in reversed(small) if d * d != m]


def legendre(d: int, p: int) -> int:
    """(d/p) for an odd prime p, by Euler's criterion."""
    r = pow(d, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def three_core_count(n: int) -> int:
    """Granville-Ono: a_3(n) = sum over d | 3n+1 of (d/3)."""
    return sum(legendre(d, 3) for d in divisors(3 * n + 1))


def five_core_count(n: int) -> int:
    """Garvan-Kim-Stanton: a_5(n) = sum over d | n+1 of (d/5) * (n+1)/d."""
    return sum(legendre(d, 5) * ((n + 1) // d) for d in divisors(n + 1))


def class_number(d: int) -> int:
    """h(d) for a negative discriminant d: the number of reduced primitive
    forms ax^2 + bxy + cy^2 with b^2 - 4ac = d, |b| <= a <= c, and b >= 0
    when |b| = a or a = c.  b has the parity of d, and 3b^2 <= -d.

    Ono-Sze (Acta Arith. 80, 1997): 2 a_4(n) = h(-(32n+20)) when 8n+5 is
    square-free."""
    h = 0
    b = d % 2
    while 3 * b * b <= -d:
        ac = (b * b - d) // 4
        for a in range(max(b, 1), isqrt(ac) + 1):
            if ac % a == 0 and gcd(a, b, ac // a) == 1:
                # (a, -b, c) is reduced and distinct too unless b = 0,
                # b = a or a = c
                h += 1 if b == 0 or b == a or a * a == ac else 2
        b += 2
    return h


def is_square_free(m: int) -> bool:
    return all(m % (p * p) for p in range(2, isqrt(m) + 1))


# ---------------------------------------------------------------------------
# Per-prefix abacus walk.
#
# The walk _abacus.core_runs replaced: it fixes runners t-1..m+1 and solves
# the last runner m of each prefix on its own, with the same bounds and the
# same solve, so it shares the method with the package and checks only how
# core_runs groups its prefixes into blocks: the same cores, each once, with
# the same weights.
# ---------------------------------------------------------------------------


def prefix_runs(t: int, m: int, lo: int, hi: int, paired: bool = False):
    """Yield (z', c, cores) per prefix for the t-cores with no part below
    m >= 1 and size lo <= n <= hi: z' set on every runner but c, cores a
    non-empty list of (n, z'_c, w), one core of each conjugate pair when
    paired (at m = 1).  z' is one list, rewritten in place."""
    budget = 2 * hi
    z = list(range(t))
    if m >= t:
        if lo == 0:
            yield z, t - 1, [(0, t - 1, 1)]
        return
    t1 = t - 1
    q = 2 * t1
    g_m = 2 * m - t + 1
    g2 = [0] * t  # g2[c]: the sum of g_b^2 over runners m <= b < c
    for c in range(m, t1):
        g2[c + 1] = g2[c] + (2 * c - t + 1) ** 2

    def prefixes():
        # (sum, cost) of runners m+1..t-1 for each prefix, with their z' set
        if m == t1:
            yield 0, 0
            return
        fixed = [(0, 0)] * t
        tried = [0] * t
        tops = [0] * t
        c, s, w = t1, 0, 0
        while True:
            k, tk = c - m, t - c + m
            p = 2 * t * s - k * (k + 2 * m - t)
            e = tk * (2 * c - t + 1) - p
            qc = 2 * t * (tk - 1)
            d = e * e + (tk - 1) * (tk * g2[c] + p * p) + 2 * tk * qc * (budget - w)
            r = isqrt(d)
            x = -((e + r) // qc)
            tried[c] = x - 1 if x > 0 else -1
            tops[c] = (r - e) // qc
            while True:
                x = tried[c] + 1
                if x > tops[c]:
                    c += 1
                    if c == t:
                        return
                    k, tk = k + 1, tk - 1
                    continue
                tried[c] = x
                s, w = fixed[c]
                s += x
                w += t * x * x + (2 * c - t + 1) * x
                z[c] = c + t * x
                if c == m + 1:
                    yield s, w
                    continue
                l = (s - m - 1) // tk + 1 if s > m else 0
                if w - s * s + k * l * (2 * (m - s) + tk * (l - 1)) <= budget:
                    break
            c -= 1
            fixed[c] = s, w

    for s, w in prefixes():
        b = g_m - 2 * s
        c0 = w - s * s
        # the x with lo <= n <= hi, n = ((t - 1)x^2 + bx + c0) / 2, by a
        # scan of the root interval for hi
        root = isqrt(b * b + 2 * q * (budget - c0))
        xs = [
            x
            for x in range(max(0, -((root + b) // q)), (root - b) // q + 1)
            if lo <= ((t1 * x + b) * x + c0) >> 1 <= hi
        ]
        cores = []
        for x in xs:
            n = ((t1 * x + b) * x + c0) >> 1
            zm = z[m] = m + t * x
            # lambda_1 - ell: the highest bead, max(z') - t, less the L - 1
            # beads below it, against the L parts
            v = max(z) - t1 - 2 * (s + x)
            if not paired:
                cores.append((n, zm, 1))
            elif v >= 0:
                cores.append((n, zm, 2 if v else 1))
        if cores:
            yield z, m, cores


def core_block(n: int, z: list[int], c: int):
    """The core of size n with first empty positions z as one block of
    _abacus.core_runs, runner c last: one row, runner (c + 1) mod t's
    position, holding the one core."""
    return z, c, [(z[(c + 1) % len(z)], [(n, z[c], 1)])]
