"""Mechanical verification of structural facts about t-core partitions.

Includes the necessary multiplicity/gap conditions for 3-cores and
4-cores, the hook-region containment scan, the closed-form checks for
2-core hook counts and for restricted 4-core hook counts, and generic
counterexample scanners for conjectured hook-count orderings.  Every
check either passes over its whole range or reports the first (or all)
failures with enough data to reproduce them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from operator import add, sub

from .generate import (
    EMPTY_FILTER,
    PartFilter,
    iter_partition_parts,
    t_cores_up_to,
)
from .hookstats import (
    FAILS,
    BiasRecord,
    bias_table,
    cross_core_bias_table,
    hook_count_table,
)
from .partition import Cell, Partition, hook_lengths_of
from .qseries import is_triangular


@dataclass
class ConditionReport:
    """Pass/fail outcome of a list of named structural checks on one
    partition; overall is the conjunction."""

    subject: Partition
    checks: list[tuple[str, bool]]
    overall: bool


@dataclass
class RegionWitness:
    """A hook of length k*t together with a t-hook found in its region.

    witness_cell is None in a violation record (no t-hook found); when
    present it lies in the region of hook_cell and has hook length t.
    """

    partition: Partition
    hook_cell: Cell
    hook_len: int
    t: int
    witness_cell: Cell | None


def _multiplicity_rows(p: Partition) -> list[tuple[int, int, int]]:
    """(value, multiplicity, gap to next value) rows; the value after the
    last distinct part is taken to be 0."""
    view = p.multiplicity_view()
    out = []
    for i, (value, mult) in enumerate(view):
        nxt = view[i + 1][0] if i + 1 < len(view) else 0
        out.append((value, mult, value - nxt))
    return out


def check_3core_conditions(p: Partition) -> ConditionReport:
    """Necessary conditions for a partition to be a 3-core, stated on the
    multiplicity view (distinct values with multiplicities):

      3A: every multiplicity is at most 2
      3B: consecutive distinct values differ by at most 2, and the
          smallest value is at most 2
      3C: a repeated value is followed by the next value at distance 1
      3D: a distance-1 step lands on a value of multiplicity 2

    3C and 3D constrain interior steps only (there is no value below the
    last one to compare with).
    """
    rows = _multiplicity_rows(p)
    a = all(m <= 2 for _, m, _ in rows)
    b = all(g <= 2 for _, _, g in rows)
    c = True
    d = True
    for i in range(len(rows) - 1):
        _, mult, gap = rows[i]
        next_mult = rows[i + 1][1]
        if mult == 2 and gap != 1:
            c = False
        if gap == 1 and next_mult != 2:
            d = False
    checks = [("3A", a), ("3B", b), ("3C", c), ("3D", d)]
    return ConditionReport(subject=p, checks=checks, overall=a and b and c and d)


def check_4core_conditions(p: Partition) -> ConditionReport:
    """Necessary conditions for a partition to be a 4-core, on the
    multiplicity view with a sentinel value 0 below the last part:

      4A: every multiplicity is at most 3
      4B: every step (including the last value itself) is at most 3
      4C: a step of 3 starts from a value of multiplicity 1
      4D: a step of 2 starts from multiplicity at most 2 and, for interior
          steps, lands on multiplicity 2 or 3
      4E: an interior step of 1 never lands on multiplicity 2, and from
          multiplicity 2 or 3 it must land on multiplicity 3

    Steps onto the sentinel 0 carry no landing constraint: there is no
    part below the diagram to restrict.
    """
    rows = _multiplicity_rows(p)
    a = all(m <= 3 for _, m, _ in rows)
    b = all(g <= 3 for _, _, g in rows)
    c = all(m == 1 for _, m, g in rows if g == 3)
    d = all(m <= 2 for _, m, g in rows if g == 2)
    e = True
    for i in range(len(rows) - 1):
        _, mult, gap = rows[i]
        next_mult = rows[i + 1][1]
        if gap == 2 and next_mult not in (2, 3):
            d = False
        if gap == 1:
            if next_mult == 2:
                e = False
            if mult >= 2 and next_mult != 3:
                e = False
    checks = [("4A", a), ("4B", b), ("4C", c), ("4D", d), ("4E", e)]
    return ConditionReport(
        subject=p, checks=checks, overall=a and b and c and d and e
    )


def _region_samples(
    parts: tuple[int, ...], hooks: list[int], t: int, threshold: int
):
    """Yield (cell, hook length, witness) for the cells of the diagram,
    row-major, whose hook length is a multiple of t and at least threshold
    and whose region holds a t-hook; the witness is the first such t-hook
    cell, row-major.  hooks is hook_lengths_of(parts)."""
    starts = list(accumulate(parts, initial=0))
    for i, lam in enumerate(parts):
        for j in range(lam):
            h = hooks[starts[i] + j]
            if h % t or h < threshold:
                continue
            witness = next(
                (
                    Cell(r + 1, c + 1)
                    for r in range(i, len(parts))
                    for c in range(j, parts[r])
                    if hooks[starts[r] + c] == t
                ),
                None,
            )
            if witness is not None:
                yield Cell(i + 1, j + 1), h, witness


def _missing_hook_lengths(parts: tuple[int, ...], ts) -> list[int]:
    """The t of ts (ascending, positive, not empty) that are not hook
    lengths of the diagram of parts.

    The first-column hooks b_i = parts[i-1] + len(parts) - i are the beta
    numbers of the partition, and the hook lengths are the differences
    b - c of a beta number b and a non-negative c < b that is not one.  So
    the diagram has a t-hook exactly when some b >= t leaves b - t outside
    the betas.  For b < t, b - t is negative; with the negative numbers
    down to -max(ts) added to the set of betas, one C-level superset test
    over every b decides each t in O(len(parts)).
    """
    betas = list(map(add, parts, range(len(parts) - 1, -1, -1)))
    present = set(range(-ts[-1], 0))
    present.update(betas)
    return [t for t in ts if present.issuperset(map(sub, betas, repeat(t)))]


def region_theorem_scan(
    n_max: int,
    t_values=range(1, 8),
    k_min: int = 2,
    samples: list | None = None,
    samples_per_t: int = 3,
) -> list[RegionWitness]:
    """Search all partitions of every n <= n_max for a hook of length k*t
    (k >= k_min) whose region contains no hook of length exactly t.

    The region of a cell, re-indexed, is a partition of at most as many
    boxes with the same hook lengths cell for cell, and its corner is the
    cell itself; every partition is its own region at (1, 1).  So only the
    corner hook of each partition needs checking, and a violation is
    reported as the region partition with hook_cell (1, 1).  The corner
    hook is parts[0] + len(parts) - 1; the t it calls for are listed once
    per corner value and tested on the first-column hooks alone
    (_missing_hook_lengths), without the hook lengths of the other cells.

    Returns the violations (empty when the containment property holds on
    the whole range).  When a list is passed as samples, the first
    samples_per_t positive witnesses per t, over every cell of every
    partition in enumeration order, are appended to it for reporting;
    only these need every hook length of a diagram (hook_lengths_of).
    """
    if n_max < 1:
        raise ValueError(f"n_max must be positive, got {n_max}")
    t_values = sorted(set(int(t) for t in t_values))
    if any(t < 1 for t in t_values):
        raise ValueError("every t must be at least 1")
    # t_for_corner[h]: the t whose multiples of at least k_min * t include h
    t_for_corner = [
        [t for t in t_values if h % t == 0 and h >= k_min * t]
        for h in range(n_max + 1)
    ]
    violations: list[RegionWitness] = []
    sampled = dict.fromkeys(t_values, 0)
    pending = t_values if samples is not None and samples_per_t > 0 else []
    for n in range(1, n_max + 1):
        for parts in iter_partition_parts(n):
            corner = parts[0] + len(parts) - 1
            ts = t_for_corner[corner]
            if ts:
                for t in _missing_hook_lengths(parts, ts):
                    violations.append(RegionWitness(
                        Partition._unchecked(parts, n), Cell(1, 1), corner, t, None
                    ))
            if pending:
                hooks = hook_lengths_of(parts)
                for t in pending:
                    found = _region_samples(parts, hooks, t, k_min * t)
                    for cell, h, witness in islice(found, samples_per_t - sampled[t]):
                        samples.append(RegionWitness(
                            Partition._unchecked(parts, n), cell, h, t, witness
                        ))
                        sampled[t] += 1
                pending = [t for t in pending if sampled[t] < samples_per_t]
    return violations


def check_2core_ladder(ell_max: int) -> tuple[bool, str | None]:
    """Verify by enumeration, for all n up to ell_max*(ell_max+1)/2:

    at triangular n = L*(L+1)/2 there is exactly one 2-core, the odd hook
    lengths 2k+1 appear exactly L-k times for 0 <= k <= L-1, even lengths
    never appear, and consecutive odd-hook counts differ by exactly 1; at
    every other n there is no 2-core at all.
    """
    if ell_max < 1:
        raise ValueError(f"ell_max must be positive, got {ell_max}")
    n_max = ell_max * (ell_max + 1) // 2
    tables, core_counts = hook_count_table(2, n_max)
    for n in range(n_max + 1):
        tri, ell = is_triangular(n)
        tbl = tables[n]
        if not tri:
            if core_counts[n] != 0 or tbl:
                return False, f"unexpected 2-core data at non-triangular n={n}"
            continue
        if core_counts[n] != 1:
            return False, f"expected exactly one 2-core at n={n}, got {core_counts[n]}"
        if sum(tbl.values()) != n:
            return False, f"hook counts at n={n} do not cover all {n} boxes"
        if any(k % 2 == 0 for k in tbl):
            return False, f"even hook length present at n={n}"
        for k in range(ell):
            if tbl.get(2 * k + 1, 0) != ell - k:
                return (
                    False,
                    f"count of {2*k+1}-hooks at n={n} is {tbl.get(2*k+1, 0)}, "
                    f"expected {ell - k}",
                )
        if tbl.get(2 * ell + 1, 0) != 0:
            return False, f"hooks longer than {2*ell-1} present at n={n}"
        for k in range(ell - 1):
            if tbl.get(2 * k + 1, 0) - tbl.get(2 * k + 3, 0) != 1:
                return False, f"consecutive odd-hook difference not 1 at n={n}, k={k}"
    return True, None


def check_restricted_4core_formula(ell_max: int) -> tuple[bool, str | None]:
    """Verify by enumeration that over 4-cores with no part equal to 1 or
    2, the 1-hook and 3-hook totals both equal L at n = 3*L*(L+1)/2 and
    vanish at every other n <= 3*ell_max*(ell_max+1)/2."""
    if ell_max < 1:
        raise ValueError(f"ell_max must be positive, got {ell_max}")
    n_max = 3 * ell_max * (ell_max + 1) // 2
    f = PartFilter(excluded=frozenset({1, 2}))
    tables, _ = hook_count_table(4, n_max, f, ks=(1, 3))
    expected = {3 * L * (L + 1) // 2: L for L in range(1, ell_max + 1)}
    for n in range(n_max + 1):
        want = expected.get(n, 0)
        got1 = tables[n][1]
        got3 = tables[n][3]
        if got1 != want or got3 != want:
            return (
                False,
                f"restricted 4-core hook counts at n={n}: 1-hooks={got1}, "
                f"3-hooks={got3}, expected both {want}",
            )
    return True, None


def scan_bias_chain(
    t: int,
    ks,
    relations,
    n_max: int,
    f: PartFilter = EMPTY_FILTER,
) -> list[BiasRecord]:
    """Scan n = 0..n_max for counterexamples to a chain of hook-count
    relations; returns only the FAILS records (empty means the chain held
    everywhere on the range)."""
    records = bias_table(t, ks, 0, n_max, f, relations)
    return [r for r in records if r.verdict == FAILS]


def scan_conjecture_5core(n_max: int) -> list[BiasRecord]:
    """Counterexample scan for the conjectured 5-core chain: total 1-hooks
    >= total 3-hooks >= total 6-hooks for every n.  Returns FAILS rows
    only; this reports, it does not assert."""
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    return scan_bias_chain(5, [1, 3, 6], [">=", ">="], n_max)


def necessity_scan(n_max: int) -> list[tuple[int, Partition, str]]:
    """Check that every 3-core of n <= n_max passes the 3-core conditions
    and every 4-core passes the 4-core conditions; returns (t, partition,
    failed-check-ids) triples for any that do not."""
    bad = []
    for t, checker in ((3, check_3core_conditions), (4, check_4core_conditions)):
        for n, p in t_cores_up_to(n_max, t):
            rep = checker(p)
            if not rep.overall:
                failed = ",".join(name for name, ok in rep.checks if not ok)
                bad.append((t, p, failed))
    return bad


@dataclass
class CheckResult:
    """Outcome of one named verification check over a range."""

    check: str
    n_max: int
    holds: bool
    summary: str
    failures: list
    # (t, filter) pairs whose t-core sets at the failing n are worth
    # dumping for post-mortem inspection
    dump_targets: list[tuple[int, PartFilter]]
    failing_n: list[int]
    info: list | None = None  # non-failure report payload (e.g. sampled witnesses)


def bias_records_json(records) -> list[dict]:
    out = []
    for r in records:
        out.append(
            {
                "n": r.n,
                "verdict": r.verdict,
                "values": {f"{t}.{k}": v for (t, k), v in r.values.items()},
                "witness": str(r.witness) if r.witness is not None else None,
            }
        )
    return out


def _chain_check(name, t, ks, relations, n_max, f=EMPTY_FILTER, describe=""):
    fails = scan_bias_chain(t, ks, relations, n_max, f)
    return CheckResult(
        check=name,
        n_max=n_max,
        holds=not fails,
        summary=(
            f"{describe}: holds for all n <= {n_max}"
            if not fails
            else f"{describe}: fails at n = {[r.n for r in fails[:10]]}"
        ),
        failures=bias_records_json(fails),
        dump_targets=[(t, f)],
        failing_n=[r.n for r in fails],
    )


def _check_prop21(n_max: int) -> CheckResult:
    ell = 1
    while (ell + 1) * (ell + 2) // 2 <= n_max:
        ell += 1
    ok, msg = check_2core_ladder(ell)
    return CheckResult(
        check="prop21",
        n_max=n_max,
        holds=ok,
        summary=(
            f"2-core odd-hook ladder: exact for all n <= {ell*(ell+1)//2}"
            if ok
            else f"2-core odd-hook ladder: {msg}"
        ),
        failures=[] if ok else [msg],
        dump_targets=[(2, EMPTY_FILTER)],
        failing_n=[],
    )


def _check_thm16(n_max: int) -> CheckResult:
    f = PartFilter(excluded=frozenset({1, 2}))
    res = _chain_check(
        "thm16", 4, [1, 3], ["="], n_max, f,
        "restricted 4-core 1-hook/3-hook equality (no parts 1, 2)",
    )
    ell = 1
    while 3 * (ell + 1) * (ell + 2) // 2 <= n_max:
        ell += 1
    ok, msg = check_restricted_4core_formula(ell)
    if not ok:
        res.holds = False
        res.failures.append(msg)
        res.summary += f"; closed form fails: {msg}"
    else:
        res.summary += f"; closed form exact through L = {ell}"
    return res


def _check_thm19(n_max: int) -> CheckResult:
    fails = []
    for k in (1, 3):
        records = cross_core_bias_table([(2, k), (4, k)], 0, n_max, ["<="])
        fails.extend(r for r in records if r.verdict == FAILS)
    return CheckResult(
        check="thm19",
        n_max=n_max,
        holds=not fails,
        summary=(
            f"2-core vs 4-core hook dominance (k = 1, 3): holds for all n <= {n_max}"
            if not fails
            else f"2-core vs 4-core hook dominance fails at n = {[r.n for r in fails[:10]]}"
        ),
        failures=bias_records_json(fails),
        dump_targets=[(2, EMPTY_FILTER), (4, EMPTY_FILTER)],
        failing_n=sorted({r.n for r in fails}),
    )


def _check_region(n_max: int) -> CheckResult:
    samples: list[RegionWitness] = []
    violations = region_theorem_scan(n_max, samples=samples)

    def wjson(w: RegionWitness) -> dict:
        return {
            "partition": str(w.partition),
            "hook_cell": list(w.hook_cell),
            "hook_len": w.hook_len,
            "t": w.t,
            "witness_cell": list(w.witness_cell) if w.witness_cell else None,
        }

    return CheckResult(
        check="region",
        n_max=n_max,
        holds=not violations,
        summary=(
            f"hook-region containment: no violations for n <= {n_max}"
            if not violations
            else f"hook-region containment: {len(violations)} violations"
        ),
        failures=[wjson(w) for w in violations],
        dump_targets=[],
        failing_n=[],
        info=[wjson(w) for w in samples],
    )


def _check_conditions(n_max: int) -> CheckResult:
    bad = necessity_scan(n_max)
    return CheckResult(
        check="conditions",
        n_max=n_max,
        holds=not bad,
        summary=(
            f"3-core and 4-core structural conditions: necessary for all n <= {n_max}"
            if not bad
            else f"structural conditions fail on {len(bad)} core partitions"
        ),
        failures=[
            {"t": t, "partition": str(p), "failed": failed} for t, p, failed in bad
        ],
        dump_targets=[],
        failing_n=[],
    )


CHECKS = {
    "prop21": _check_prop21,
    "thm13": lambda n: _chain_check(
        "thm13", 3, [1, 2, 4], [">=", ">="], n,
        describe="3-core hook ordering 1 >= 2 >= 4",
    ),
    "thm14": lambda n: _chain_check(
        "thm14", 4, [1, 3], [">="], n,
        describe="4-core hook ordering 1 >= 3",
    ),
    "thm16": _check_thm16,
    "thm17": lambda n: _chain_check(
        "thm17", 4, [1, 3], [">="], n, PartFilter(excluded=frozenset({1})),
        "restricted 4-core hook ordering 1 >= 3 (no part 1)",
    ),
    "thm18": lambda n: _chain_check(
        "thm18", 5, [1, 3], ["<="], n, PartFilter(excluded=frozenset({1, 2})),
        "restricted 5-core hook ordering 1 <= 3 (no parts 1, 2)",
    ),
    "thm19": _check_thm19,
    "region": _check_region,
    "conj15": lambda n: _chain_check(
        "conj15", 5, [1, 3, 6], [">=", ">="], n,
        describe="conjectured 5-core hook ordering 1 >= 3 >= 6",
    ),
    "conditions": _check_conditions,
}


def run_check(name: str, n_max: int) -> CheckResult:
    """Run one named verification check over n <= n_max."""
    try:
        fn = CHECKS[name]
    except KeyError:
        raise ValueError(
            f"unknown check {name!r}; choose from {sorted(CHECKS)}"
        ) from None
    if n_max < 1:
        raise ValueError(f"n_max must be positive, got {n_max}")
    return fn(n_max)
