"""t-cores as points of N^(t-m) on the t-abacus, and the hooks read off them.

Garvan, Kim and Stanton (*Cranks and t-cores*, Invent. Math. 101, 1990)
place the beads of a t-core on t runners with no gap inside any runner.
Put one bead per part: L beads, position 0 empty, bead b giving the part
b - #{beads below b}.  The lowest bead is the smallest part and the
runners are flush, so the t-cores with every part >= m >= 1 are exactly
the points x' of N^(t-m), one bead count per runner c = m..t-1 (runner 0
is empty with position 0), and for m >= t only the empty core is left.
A core's size is n = sum(c*x'_c + t*C(x'_c, 2)) - C(L, 2), L = sum(x'_c).

The code works with z'_c = c + t*x'_c, the first empty position of runner
c.  A k-hook is a bead with an empty position k below it, so a core has

    sum over c of max(0, z_c - z_{(c-k) mod t} - k) / t

hooks of length k, for k divisible by t none.  That count, the parts and
the gaps between empty positions stay the same when every position moves
by the same amount and the runner labels turn with it, so every consumer
takes z' as it is; the charge vector x with sum 0 of the same core has
z_c = c + t*x_c = z'_{(c+L) mod t} - L.  The walk below yields blocks:
runners t-1..m+2 fixed, one row per x'_{m+1}, and in a row the cores,
which differ only in runner m.  Only two of the t terms read runner m and
two more runner m+1, so for each hook length a block costs O(t), a row
O(1) and a core O(1), where a diagram costs O(n).  hook_columns tallies
listed hook lengths so, into one column per k over a window of sizes
(one row for a point query); hook_table counts every hook length of each
core.

The walk yields the cores of sizes lo..hi.  Sizes are doubled and
centred: runner c with x beads costs w_c(x) = t*x^2 + g_c*x, with
g_c = 2c - t + 1, and 2n = sum(w_c(x'_c)) - L^2.  The walk fixes runners
t-1 down to m+1 in turn, with two bounds on the runners m..c-1 still
free.  With s and w the sum and cost fixed so far, x'_c included, and k
runners free, any real completion gives

    2n >= w - (G2 + (2ts - G1)^2 / (t - k)) / (4t),

G1 and G2 the sums of g_b and g_b^2 over the free runners (G2 summed once
per call), so x'_c ranges over the integer interval where this stays
within 2hi.  Above runner m+1, each x'_c in it is then kept only if the
cheapest integer completion stays within 2hi too; runner m+1 takes its
whole interval, one row per x'_{m+1}, and the rows of one prefix of
runners t-1..m+2 make a block.  That completion adds beads at the
lowest free positions while each lowers n.  The i-th bead added lies in
level j = (i-1) // k, at m + (i-1) mod k + jt, and lowers n by s + i - 1
minus that, s - m - j(t - k) for the whole level; so it fills the l
levels j with m + j(t - k) < s.  The last runner m is solved, not
searched: with s and w the sum and cost of runners m+1..t-1 in a row,

    2n = (t-1)x^2 + (2m - t + 1 - 2s)x + w - s^2,   x = x'_m,

a quadratic.  Its root interval for hi less the open interval where
n < lo, at most two integer intervals, gives the cores of the row; lo = 0
leaves the root interval whole, and lo = hi its integer roots.  The
prefixes are bounded by hi alone, so a window costs one prefix walk plus
its cores.  So the 4-cores with no parts 1, 2 are N^1: (3L, ..., 6, 3)
at n = 3L(L+1)/2, thm16's form.

Conjugation gives a core of the same size with the same hooks and swaps
the largest part with the number of parts L, so a total over all cores
needs one core of each conjugate pair, weighted.  The highest bead,
max z' - t, has the other L - 1 beads below it, so lambda_1 - L =
max z' - (t-1) - 2L: a core with lambda_1 > L stands for itself and its
conjugate, one with lambda_1 = L for itself alone, and one with
lambda_1 < L is skipped.  In a row, with top the largest z' of the other
runners and s their beads, that is top - (t-1) - 2s - 2x while
m + t*x <= top and (t-2)x + m - (t-1) - 2s past it.  kept_runs pairs the
walk when the filter forbids no value up to hi, so that every conjugate
passes too, and every reader takes the weight.

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

    # (z', c, rows): rows of (z'_d, cores), d = (c + 1) mod t, and cores of (n, z'_c, w)
    Block = tuple[list[int], int, list[tuple[int, list[tuple[int, int, int]]]]]


def core_runs(t: int, m: int, lo: int, hi: int, paired: bool = False) -> Iterator[Block]:
    """Yield the t-cores with no part below m >= 1 of size lo <= n <= hi,
    one block at a time and in no particular order: blocks (z', c, rows)
    with z' set on every runner but c and d = (c + 1) mod t, and rows a
    non-empty list of rows (z'_d, cores), cores a non-empty list of
    (n, z'_c, w), w the number of cores each stands for: 1, unless paired
    (which needs m = 1) yields only the cores with largest part at least
    L, their number of parts: w = 2 where larger, for the conjugate too.
    c is m, or t - 1 for the empty core alone when m >= t; at c = t - 1,
    d is runner 0, always empty.  z' is one list, rewritten in place
    between yields.
    """
    budget = 2 * hi
    z = list(range(t))  # z'_c = c + t*x'_c
    if m >= t:  # the empty core alone
        if lo == 0:
            yield z, t - 1, [(0, [(0, t - 1, 1)])]
        return
    t1 = t - 1
    q = 2 * t1
    g_m = 2 * m - t + 1
    d = (m + 1) % t
    g2 = [0] * t  # g2[c]: the sum of g_b^2 over runners m <= b < c
    for c in range(m, t1):
        g2[c + 1] = g2[c] + (2 * c - t + 1) ** 2

    def blocks() -> Iterator[tuple[int, int, int, int]]:
        # (sum, cost) of runners m+2..t-1 for each prefix within the budget,
        # with their z' set, and the x'_{m+1} within the real bound; at
        # m = t - 1 one empty prefix and x'_{m+1} = 0, for runner d = 0
        if m == t1:
            yield 0, 0, 0, 0
            return
        fixed = [(0, 0)] * t  # (sum, cost) of runners c+1..t-1, for each c
        tried = [0] * t  # the x'_c tried last
        tops = [0] * t  # the largest x'_c within the real bound
        c, s, w = t1, 0, 0
        while True:
            # a new runner c: the x'_c whose completion on the k runners
            # m..c-1 can stay within the budget over the reals, an interval
            # and not empty, since the cheapest integer completion fits
            k, tk = c - m, t - c + m
            p = 2 * t * s - k * (k + 2 * m - t)  # 2ts - G1
            e = tk * (2 * c - t + 1) - p
            qc = 2 * t * (tk - 1)
            disc = e * e + (tk - 1) * (tk * g2[c] + p * p) + 2 * tk * qc * (budget - w)
            r = isqrt(disc)
            x = -((e + r) // qc)
            tried[c] = x - 1 if x > 0 else -1
            tops[c] = (r - e) // qc
            if c == d:  # the prefix's block: every x'_{m+1} in the interval
                yield s, w, tried[c] + 1, tops[c]
                tried[c] = tops[c]
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
                # the integer test: the cheapest completion fills l whole
                # levels of the k free runners
                l = (s - m - 1) // tk + 1 if s > m else 0
                if w - s * s + k * l * (2 * (m - s) + tk * (l - 1)) <= budget:
                    break
            c -= 1
            fixed[c] = s, w

    below = 4 * q * (hi - lo)  # disc less the discriminant of n = lo
    g_d, t2 = g_m + 2, t - 2
    for s0, w0, x_lo, x_hi in blocks():
        rows = []
        top = -1  # the largest z' of the runners but m, set at the block's first core
        for y in range(x_lo, x_hi + 1):
            s = s0 + y
            w = w0 + (t * y + g_d) * y
            zd = z[d] = d + t * y
            b = g_m - 2 * s
            c0 = w - s * s
            # (q*x + b)^2 <= disc within the budget.  disc >= 0: each row
            # lies inside the real bound of runner m + 1, which with one free
            # runner is this quadratic's own minimum, and both isqrt floors
            # above round inward; at m = t - 1, c0 = 0 and disc = b*b + 4*q*hi.
            disc = b * b + 2 * q * (budget - c0)
            root = isqrt(disc)
            if not below:  # one size, lo = hi: q*x + b is root or -root
                if root * root != disc:
                    continue
                xs = {v // q for v in (root - b, -root - b) if v >= 0 and v % q == 0}
            elif lo and disc > below:
                low = disc - below  # n < lo where (q*x + b)^2 < low
                if root * root < low:
                    continue  # no integer q*x + b has n in the window
                x0, x1, r = max(0, -((root + b) // q)), (root - b) // q, isqrt(low - 1)
                cut, up = -((r + b) // q), (r - b) // q + 1  # n < lo for cut <= x < up
                if cut <= x0:
                    xs = range(max(x0, up), x1 + 1)
                elif up > x1:
                    xs = range(x0, min(cut, x1 + 1))
                else:  # n reaches lo on both sides: two intervals
                    xs = [*range(x0, cut), *range(up, x1 + 1)]
            else:
                xs = range(max(0, -((root + b) // q)), (root - b) // q + 1)
            if not xs:
                continue
            if not paired:
                cores = [(((t1 * x + b) * x + c0) >> 1, m + t * x, 1) for x in xs]
            else:  # lambda_1 - L: h - 2x up to x = edge, then t2*x + e
                if top < 0:  # z'_m = m raises no maximum, and z'_d only grows
                    z[m] = m
                    top = max(z)
                elif zd > top:
                    top = zd
                h, e, edge = top - t1 - 2 * s, b - m, (top - m) // t
                cores = []
                for x in xs:
                    v = h - 2 * x if x <= edge else t2 * x + e
                    if v >= 0:
                        cores.append((((t1 * x + b) * x + c0) >> 1, m + t * x, 2 if v else 1))
            if cores:
                rows.append((zd, cores))
        if rows:
            yield z, m, rows


def _each_core(blocks) -> Iterator[tuple[int, list[int], int]]:
    for z, c, rows in blocks:
        d = (c + 1) % len(z)
        for z[d], cores in rows:
            for n, z[c], w in cores:
                yield n, z, w


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


def hook_table(blocks: Iterable[Block], t: int) -> tuple[dict[int, Counter], Counter]:
    """Every hook length of the cores of blocks (z, c, rows) as core_runs
    yields them, each core (n, z_c, w) standing for w cores, by size:
    (tables, core_counts) with tables[n] mapping hook length to its total
    over the cores of size n.  Only sizes with a core appear, and only
    positive counts are stored.  Each core sorts its t positions and
    tallies every pair of runners.
    """
    core_counts: Counter = Counter()
    tables: dict[int, Counter] = {}
    for n, z, w in _each_core(blocks):
        core_counts[n] += w
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
                    tally[k] += (span - k) // t * w
                    k += t
    return tables, core_counts


_NEVER = float("inf")  # a bound no position passes


def hook_columns(
    blocks: Iterable[Block], t: int, ks: Sequence[int], lo: int, hi: int
) -> tuple[list[list[int]], list[int]]:
    """Hook counts of the listed ks over the cores of blocks (z, c, rows)
    as core_runs yields them, each core (n, z_c, w) standing for w cores,
    as columns over the sizes lo..hi, which must hold every n of blocks:
    (columns, core_counts), columns[i][n - lo] the total of ks[i]-hooks
    over the cores of size n and core_counts[n - lo] the number of those
    cores: (0, n_max) for a range table, (n, n) for a point query.

    For k with r = k mod t, the term of runner b reads z_b and z_{b-r}:
    those of runners c and c + r read z_c and each core adds them, those
    of d = c + 1 and d + r read z_d and each row adds them, and the others
    are summed once per block: O(t) per block, O(1) per row and O(1) per
    core for each k.  At r = 1, d is c + r, a core's term, and at
    r = t - 1, d + r is c, which a row reads as empty: c - k - z_d <= 0.
    Every z'_b of a block is at least b, as core_runs yields it, so a
    runner with no bead (z'_b = b) starts no term: z'_{b-r} >= b - r, or
    b - r + t when b < r, and k >= r.  Only the runners with a bead are
    summed.  Each term is a multiple of t, so the sums are divided once,
    at the end.
    """
    width = hi - lo + 1
    core_counts = [0] * width
    # one column of sums per distinct k, grouped by k mod t; multiples of
    # t never occur and get none
    sums = {k: [0] * width for k in ks if k % t}
    groups: dict[int, list[tuple[int, list[int]]]] = {}
    for k, column in sums.items():
        groups.setdefault(k % t, []).append((k, column))
    plan = list(groups.items())
    for z, c, rows in blocks:
        d = (c + 1) % t
        z[c], z[d] = c, d  # both read as empty: rows and cores add their own terms
        full = [b for b in range(t) if z[b] != b]  # the runners with a bead
        # (column, k, the fixed sum, u, v, c - r, c + r) for each k: a row
        # adds z_d - u and v - z_d, and a core z_c - z_{c-r} - k and
        # z_{c+r} - z_c - k, where positive
        fixed_terms = []
        for r, columns in plan:
            cr, dr = (c + r) % t, (d + r) % t
            for k, column in columns:
                fixed = 0
                for b in full:
                    if b != cr and b != dr:
                        v = z[b] - z[b - r] - k
                        if v > 0:
                            fixed += v
                u = z[d - r] + k if r != 1 else _NEVER
                v = z[dr] - k
                fixed_terms.append((column, k, fixed, u, v, c - r, cr))
        for zd, cores in rows:
            z[d] = zd
            terms = []
            for column, k, total, u, v, cb, ca in fixed_terms:
                if zd > u:
                    total += zd - u
                if v > zd:
                    total += v - zd
                terms.append((column, total, z[cb] + k, z[ca] - k))
            for n, zc, w in cores:
                i = n - lo
                core_counts[i] += w
                for column, total, below, above in terms:
                    if zc > below:
                        total += zc - below
                    if above > zc:
                        total += above - zc
                    column[i] += total * w
    columns = [[v // t for v in sums[k]] if k % t else [0] * width for k in ks]
    return columns, core_counts


def kept_runs(t: int, lo: int, hi: int, f: PartFilter) -> Iterator[Block]:
    """core_runs for the cores whose parts pass the filter.  With m the
    least value it allows, the walk builds the cores with no part below m,
    and part_test decides the forbidden values above m.  When the filter
    forbids no value up to hi, the conjugate of every core passes too, so
    the walk yields one core of each conjugate pair with its weight.
    """
    m = f.min_part
    while m in f.excluded:
        m += 1
    keep = part_test(f, m, t, hi)
    runs = core_runs(t, m, lo, hi, m == 1 and keep is None)
    if keep is None:
        yield from runs
        return
    for z, c, rows in runs:
        d = (c + 1) % t
        kept_rows = []
        for z[d], cores in rows:
            kept = []
            for core in cores:
                z[c] = core[1]
                if keep(z):
                    kept.append(core)
            if kept:
                kept_rows.append((z[d], kept))
        if kept_rows:
            yield z, c, kept_rows


def kept_vectors(t: int, lo: int, hi: int, f: PartFilter) -> Iterator[tuple[int, list[int], int]]:
    """The cores of kept_runs one at a time, as (n, z', w)."""
    return _each_core(kept_runs(t, lo, hi, f))


def part_test(f: PartFilter, m: int, t: int, n_max: int):
    """A test on z that passes the cores with no part the filter forbids
    above m, the least value it allows, or None when it forbids no value
    from m to n_max.  The values below m are left to core_runs.

    With g_1 < g_2 < ... the empty positions of the abacus, the beads
    between g_v and g_{v+1} are the parts equal to v, so v is a part
    exactly when g_{v+1} - g_v >= 2.  With top the largest forbidden
    value, only the lowest top + 1 gaps matter, and they lie among the gaps
    of the top + 1 runners whose first gap is lowest.
    """
    forbidden = sorted(v for v in f.excluded if m < v <= n_max)
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
