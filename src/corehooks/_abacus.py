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


def charge_vectors(t: int, n_max: int, exact: bool) -> Iterator[tuple[int, list[int]]]:
    """Yield (n, z) for every t-core of size n <= n_max, or n == n_max
    when exact, in no particular order.  z is one list, rewritten in place
    between yields."""
    budget = 2 * n_max
    z = list(range(t))
    tails = [0] * (t + 1)  # tails[i] = G_i
    for c in range(t - 1, -1, -1):
        tails[c] = tails[c + 1] + (2 * c - t + 1) ** 2
    last = t - 2  # x_{t-2} is solved with x_{t-1}
    z_last, z_end = last, t - 1
    t4 = 4 * t

    def pair(s: int, w: int) -> Iterator[tuple[int, list[int]]]:
        # x_{t-2} = y and x_{t-1} = -s - y cost 2t*y^2 - b*y + c0 together
        r_sum = -s
        b = 2 * t * r_sum + 2
        c0 = t * r_sum * r_sum + (t - 1) * r_sum
        room = budget - w
        disc = b * b - 8 * t * (c0 - room)
        if disc < 0:
            return
        root = isqrt(disc)
        if exact:
            if root * root != disc:
                return
            ys = {(b - root) // t4, (b + root) // t4}
            for y in ys:
                if (t4 * y - b) ** 2 == disc:
                    z[z_last] = z_last + t * y
                    z[z_end] = z_end + t * (r_sum - y)
                    yield n_max, z
            return
        for y in range(-((root - b) // t4), (b + root) // t4 + 1):
            z[z_last] = z_last + t * y
            z[z_end] = z_end + t * (r_sum - y)
            yield (w + 2 * t * y * y - b * y + c0) >> 1, z

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

    if last == 0:
        yield from pair(0, 0)
        return
    sums = [0] * last
    costs = [0] * last
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
            yield from pair(s, w)
            continue
        j += 1
        sums[j] = s
        costs[j] = w
        lo, tops[j] = interval(j, -s, room)
        xs[j] = lo - 1


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
    cores: Iterable[tuple[int, list[int]]],
    t: int,
    ks: Sequence[int] | None,
) -> tuple[dict[int, Counter], Counter]:
    """Hook counts of the given cores by size: (tables, core_counts) with
    tables[n] mapping hook length to its total over the cores of size n.
    With ks None every hook length is counted, otherwise only the ks.
    Only sizes with a core appear, and only positive counts are stored."""
    core_counts: Counter = Counter()
    if ks is None:
        tables: dict[int, Counter] = {}
        for n, z in cores:
            core_counts[n] += 1
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
                        tally[k] += (span - k) // t
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
    for n, z in cores:
        core_counts[n] += 1
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
                row[slot] += total
    tables = {
        n: Counter({k: v // t for k, v in zip(wanted, row) if v})
        for n, row in sums.items()
    }
    return tables, core_counts


def kept_vectors(
    t: int, n_max: int, exact: bool, f: PartFilter
) -> Iterator[tuple[int, list[int]]]:
    """charge_vectors(t, n_max, exact) without the cores whose parts fail
    the filter; z is rewritten in place between yields."""
    vectors = charge_vectors(t, n_max, exact)
    keep = part_test(f, t, n_max)
    if keep is None:
        return vectors
    return ((n, z) for n, z in vectors if keep(z))


def part_test(f: PartFilter, t: int, n_max: int):
    """A test on z that passes the cores whose parts pass the filter, or
    None when the filter forbids no value up to n_max.

    With g_1 < g_2 < ... the empty positions of the abacus, the beads
    between g_v and g_{v+1} are the parts equal to v, so v is a part
    exactly when g_{v+1} - g_v >= 2.  With top the largest forbidden
    value, only the lowest top + 1 gaps matter, and they lie among the gaps
    of the top + 1 runners whose first gap is lowest.

    Part 1 is tested first and alone: g_1 = min(z), and g_1 + 1 is a gap
    only as the first empty position of its runner (t >= 2), so 1 is a
    part exactly when min(z) + 1 is not in z.
    """
    low = range(1, min(f.min_part, n_max + 1))
    forbidden = sorted({v for v in f.excluded if v <= n_max}.union(low))
    if not forbidden:
        return None
    no_ones = forbidden[0] == 1
    rest = forbidden[no_ones:]
    need = forbidden[-1] + 1
    reach = t * (need - 1)

    def keep(z: list[int]) -> bool:
        if no_ones and min(z) + 1 not in z:
            return False
        if not rest:
            return True
        firsts = sorted(z)[:need]
        bound = firsts[0] + reach + 1  # the lowest runner alone has need gaps below
        gaps: list[int] = []
        for v in firsts:
            gaps += range(v, bound, t)
        gaps.sort()
        for v in rest:
            if gaps[v] - gaps[v - 1] > 1:
                return False
        return True

    return keep
