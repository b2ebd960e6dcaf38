"""t-cores as charge vectors on the t-abacus, and the hooks read off them.

Garvan, Kim and Stanton (*Cranks and t-cores*, Invent. Math. 101, 1990)
place the beads of a t-core on t runners with no gap inside any runner.
Runner c ends x_c levels above where it ends for the empty partition, and
the charge vector x = (x_0, ..., x_{t-1}) sums to 0.  Every integer vector
with sum 0 belongs to exactly one t-core, whose size is

    n = (t/2) * sum(x_c^2) + sum(c * x_c).

The code works with z_c = c + t*x_c, the first empty position of runner
c.  A k-hook is a bead with an empty position k below it, so a core has

    sum over c of max(0, z_c - z_{(c-k) mod t} - k) / t

hooks of length k.  For k = a*t + d with 0 < d < t the term of runner c is
max(0, x_c - x_{(c-d) mod t} - a - [c < d]); for k divisible by t every
term is 0.  A core therefore costs O(t) per hook length, where its diagram
costs O(n).

Sizes are doubled and centred: coordinate c with value x costs
w_c(x) = t*x^2 + (2c - t + 1)*x, which is 0 at x = 0 and positive
elsewhere, and the costs of a vector with sum 0 add up to 2n.  The
enumerator fixes x_0, x_1, ... in turn and cuts a prefix as soon as the
cheapest completion exceeds the budget.  Over the reals the completion on
coordinates i..t-1 with sum R costs at least

    ((2tR + m*i)^2 / m - G_i) / (4t),   m = t - i,  G_i = sum_{c >= i} (2c - t + 1)^2,

because w_c(y) = ((2ty + g_c)^2 - g_c^2) / (4t) with g_c = 2c - t + 1 and
the sum of the 2ty + g_c is fixed.  Integer values add a second bound:
a positive unit on coordinate c >= i costs at least 2i + 1 and a negative
unit at least 1.  The last two coordinates are solved, not searched: their
sum is fixed, so their cost is a quadratic in x_{t-2}.

Two prunings act in that last step, where the prefix x_0..x_{t-3} is
fixed, y = x_{t-2} runs over an interval and x_{t-1} is the rest of the
sum.  Conjugation maps x to (-x_{t-1}, ..., -x_0), another core of the
same size with the same hooks, so a total over all cores needs one core
of each conjugate pair, weighted: the y with x_0 + x_{t-1} >= 0, the
core counting twice when the sum is positive.  And a core has no part 1
exactly when min(z) + 1 is in z; with the minimum of the prefix carried
down the search, the y that satisfy this are one span and at most two
single values, found in O(1).  Hook tables and core counts with no
filter use the pairing, and a filter that forbids 1 the narrowing, the
one place part 1 is decided; ordered streams see every core.

Everything here is iterative, and the callers pass t no larger than
n + 1, so the work is bounded by n and never by t.
"""

from __future__ import annotations

from collections import Counter
from math import isqrt
from operator import sub
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from .generate import PartFilter


def charge_vectors(
    t: int, n_max: int, exact: bool, paired: bool = False, no_ones: bool = False
) -> Iterator[tuple[int, list[int], int]]:
    """Yield (n, z, m) for the t-cores of size n <= n_max, or n == n_max
    when exact, in no particular order.  z is one list, rewritten in place
    between yields, and m is the number of cores z stands for.

    By default every core comes once, with m = 1.  paired yields one core
    of each conjugate pair: a core with x_0 + x_{t-1} > 0 stands for itself
    and its conjugate (m = 2), one with x_0 + x_{t-1} = 0 for itself alone,
    and one with x_0 + x_{t-1} < 0 is left out.  no_ones yields each core
    with no part 1 once (at t = 2 the empty core alone), paired or not.
    """
    budget = 2 * n_max
    z = list(range(t))
    tails = [0] * (t + 1)  # tails[i] = G_i
    for c in range(t - 1, -1, -1):
        tails[c] = tails[c + 1] + (2 * c - t + 1) ** 2
    last = t - 2  # x_{t-2} is solved with x_{t-1}
    z_last, z_end = last, t - 1
    t4 = 4 * t
    big = budget + 1  # above |x_c| for every core within the budget

    def interval(j: int, r_sum: int, room: int) -> tuple[int, int]:
        # the x_j whose completion on j+1..t-1 (sum r_sum - x_j) can stay
        # within room over the reals: a quadratic inequality in x_j
        m = t - j - 1
        p = 2 * t * r_sum + m * (j + 1)
        a2 = 2 * t * (m + 1)
        b1 = m * (2 * j - t + 1) - p
        e = t * b1 * b1 - (a2 >> 1) * (p * p - m * tails[j + 1] - t4 * m * room)
        if e < 0:
            return 1, 0
        root = isqrt(e // t)
        return -((b1 + root) // a2), (root - b1) // a2

    def prefixes() -> Iterator[tuple[int, int, int]]:
        # (sum, cost, low) for each prefix x_0..x_{t-3} whose completion can
        # stay within the budget, with z_0..z_{t-3} set; low is the minimum
        # of z_0..z_{t-4}
        if last == 0:
            yield 0, 0, 0
            return
        sums = [0] * last
        costs = [0] * last
        # lows[j] = min(z_0..z_{j-1}), carried like costs when narrowing
        lows = [t * big] * last
        xs = [0] * last
        tops = [0] * last
        lo, tops[0] = interval(0, 0, budget)
        xs[0] = lo - 1
        j = 0
        while j >= 0:
            x = xs[j] + 1
            if x > tops[j]:
                j -= 1
                continue
            xs[j] = x
            s = sums[j] + x
            w = costs[j] + t * x * x + (2 * j - t + 1) * x
            room = budget - w
            if s > room or (s < 0 and -s * (2 * j + 3) > room):
                continue
            z[j] = j + t * x
            if j + 1 == last:
                yield s, w, lows[j]
                continue
            j += 1
            sums[j] = s
            costs[j] = w
            if no_ones:
                lows[j] = min(lows[j - 1], z[j - 1])
            lo, tops[j] = interval(j, -s, room)
            xs[j] = lo - 1

    # spans_of(r_sum, low) gives the (y_lo, y_hi, m) of the y wanted for a
    # prefix, before the budget cuts them: m is the weight of their cores.
    # With no prefix (t = 2) every core is its own conjugate, and the empty
    # core, y = 0, is the only one with no part 1.
    if last and paired and not no_ones:

        def spans_of(r_sum: int, low: int):
            # Conjugation negates x_0 + x_{t-1}, which is x_0 + r_sum - y
            # here, so the y up to cap = x_0 + r_sum give one core of each
            # pair.  At cap the partner also has sum 0 and is kept on its own.
            cap = z[0] // t + r_sum
            return (-big, cap - 1, 2), (cap, cap, 1)

    elif last and no_ones:

        def spans_of(r_sum: int, low: int):
            # The y whose core has no part 1, that is min(z) + 1 in z, when
            # the prefix z_0..z_{t-3} has minimum g (low is that of
            # z_0..z_{t-4}).  a = z_{t-2} grows with y and
            # b = z_{t-1} = t - 1 + t*(r_sum - y) falls; a > g from ya on and
            # b > g up to yb.  While g is the minimum, g + 1 is on a runner
            # c <= t - 2: in the prefix, or a itself, at y = ya alone.  When
            # a is the minimum, a + 1 can only be b (2y = r_sum); when b is,
            # b + 1 can only be z_0.
            g = min(low, z[last - 1])
            ya = (g + 2) // t
            yb = r_sum - (g + 1) // t
            up = (g + 1) % t
            if up == last:
                top = min(ya, yb)
            elif z[up] == g + 1:
                top = yb
            else:
                top = ya - 1
            spans = [(ya, top, 1)]
            if not r_sum & 1 and r_sum >> 1 < ya:
                spans.append((r_sum >> 1, r_sum >> 1, 1))
            y = r_sum + 1 - z[0] // t
            if y > yb and 2 * y > r_sum:
                spans.append((y, y, 1))
            return spans

    else:
        every = ((0, 0, 1),) if no_ones else ((-big, big, 1),)

        def spans_of(r_sum: int, low: int):
            return every

    # the last two coordinates: x_{t-2} = y and x_{t-1} = r_sum - y cost
    # 2t*y^2 - b*y + c0 together, a quadratic solved for y
    for s, w, low in prefixes():
        r_sum = -s
        b = 2 * t * r_sum + 2
        c0 = t * r_sum * r_sum + (t - 1) * r_sum
        disc = b * b - 8 * t * (c0 + w - budget)
        if disc < 0:
            continue
        root = isqrt(disc)
        if exact:
            if root * root != disc:
                continue
            ys = {(b - root) // t4, (b + root) // t4}
            for y_lo, y_hi, m in spans_of(r_sum, low):
                for y in ys:
                    if y_lo <= y <= y_hi and (t4 * y - b) ** 2 == disc:
                        z[z_last] = z_last + t * y
                        z[z_end] = z_end + t * (r_sum - y)
                        yield n_max, z, m
            continue
        lo = -((root - b) // t4)
        hi = (b + root) // t4
        for y_lo, y_hi, m in spans_of(r_sum, low):
            if y_lo < lo:
                y_lo = lo
            if y_hi > hi:
                y_hi = hi
            for y in range(y_lo, y_hi + 1):
                z[z_last] = z_last + t * y
                z[z_end] = z_end + t * (r_sum - y)
                yield (w + 2 * t * y * y - b * y + c0) >> 1, z, m


def core_parts(z: Sequence[int], t: int) -> tuple[int, ...]:
    """The parts of the core with first empty positions z, largest first.

    lo = min(z) is the lowest empty position, and every position below it
    holds a bead, so the beads that make parts are the L positions above
    lo: z_c - t, z_c - 2t, ... on each runner c.  Sorted in decreasing
    order, the i-th of them lies above lo and L - 1 - i other beads, so
    it gives the part b_i - lo - (L - 1 - i).  O(n) per core.
    """
    lo = min(z)
    beads: list[int] = []
    for zc in z:
        beads += range(zc - t, lo, -t)
    beads.sort(reverse=True)
    return tuple(map(sub, beads, range(lo + len(beads) - 1, lo - 1, -1)))


def hook_table(
    cores: Iterable[tuple[int, list[int], int]],
    t: int,
    ks: Sequence[int] | None,
) -> tuple[dict[int, Counter], Counter]:
    """Hook counts of the given cores (n, z, m), each standing for m cores
    with its hooks, by size: (tables, core_counts) with tables[n] mapping
    hook length to its total over the cores of size n.  With ks None every
    hook length is counted, otherwise only the ks.  Only sizes with a core
    appear, and only positive counts are stored."""
    core_counts: Counter = Counter()
    if ks is None:
        tables: dict[int, Counter] = {}
        for n, z, m in cores:
            core_counts[n] += m
            tally = tables.get(n)
            if tally is None:
                tally = tables[n] = Counter()
            # runners c, c2 give hooks k = (c - c2) mod t + a*t < z_c - z_c2,
            # and there is one only when z_c - z_c2 > t
            ranked = sorted(zip(z, range(t)))
            for zc, c in ranked:
                for z2, c2 in ranked:
                    span = zc - z2
                    if span <= t:
                        break
                    k = (c - c2) % t
                    while k < span:
                        tally[k] += (span - k) // t * m
                        k += t
        return tables, core_counts
    # the distinct ks by k mod t, each with its slot in a row of sums;
    # multiples of t never occur and get no slot
    wanted = [k for k in sorted(set(ks)) if k % t]
    groups: dict[int, list[tuple[int, int]]] = {}
    for slot, k in enumerate(wanted):
        groups.setdefault(k % t, []).append((k, slot))
    plan = list(groups.items())
    sums: dict[int, list[int]] = {}
    for n, z, m in cores:
        core_counts[n] += m
        row = sums.get(n)
        if row is None:
            row = sums[n] = [0] * len(wanted)
        for r, slots in plan:
            diffs = list(map(sub, z, z[-r:] + z[:-r]))  # z_c - z_{(c-r) mod t}
            for k, slot in slots:
                total = 0
                for v in diffs:
                    if v > k:
                        total += v - k
                row[slot] += total * m
    tables = {
        n: Counter({k: v // t for k, v in zip(wanted, row) if v})
        for n, row in sums.items()
    }
    return tables, core_counts


def kept_vectors(
    t: int, n_max: int, exact: bool, f: PartFilter, paired: bool = False
) -> Iterator[tuple[int, list[int], int]]:
    """charge_vectors(t, n_max, exact) without the cores whose parts fail
    the filter; z is rewritten in place between yields.

    Part 1 is decided by the narrowing alone: when the filter forbids 1,
    the vectors are narrowed per prefix to the cores with no part 1, and
    part_test decides the larger forbidden values on each core that is
    left, if there are any.  When the filter forbids nothing, paired asks
    for one core of each conjugate pair with its weight (conjugation keeps
    the size and the hooks, not the parts).
    """
    keep = part_test(f, t, n_max)
    vectors = charge_vectors(
        t, n_max, exact, paired=paired and keep is None, no_ones=not f.allows(1)
    )
    if keep is None:
        return vectors
    return (core for core in vectors if keep(core[1]))


def part_test(f: PartFilter, t: int, n_max: int):
    """A test on z that passes the cores with no part the filter forbids
    from 2 up, or None when the filter forbids no value from 2 to n_max.
    Part 1 is not tested here: the narrowing of charge_vectors (no_ones)
    decides it.

    With g_1 < g_2 < ... the empty positions of the abacus, the beads
    between g_v and g_{v+1} are the parts equal to v, so v is a part
    exactly when g_{v+1} - g_v >= 2.  With top the largest forbidden
    value, only the lowest top + 1 gaps matter, and they lie among the gaps
    of the top + 1 runners whose first gap is lowest.
    """
    low = range(2, min(f.min_part, n_max + 1))
    forbidden = sorted({v for v in f.excluded if 1 < v <= n_max}.union(low))
    if not forbidden:
        return None
    need = forbidden[-1] + 1
    reach = t * (need - 1)

    def keep(z: list[int]) -> bool:
        firsts = sorted(z)[:need]
        bound = firsts[0] + reach + 1  # the lowest runner alone has need gaps below
        gaps: list[int] = []
        for v in firsts:
            gaps += range(v, bound, t)
        gaps.sort()
        for v in forbidden:
            if gaps[v] - gaps[v - 1] > 1:
                return False
        return True

    return keep
