"""Mechanical verification of structural facts about t-core partitions.

Includes the necessary multiplicity/gap conditions for 3-cores and
4-cores, the hook-region containment scan, the closed-form checks for
2-core hook counts and for restricted 4-core hook counts, the
counterexample scan of the conjectured 5-core chain, and CHECKS, the
named checks the CLI runs.  Each chain check is one row of one table,
_CHAINS (a description, chains of (t, k) values, the relations between
adjacent values and a part filter), and one runner, _run_chain, turns a
row into a CheckResult.  Every check either passes over its whole range
or reports the first (or all) failures with enough data to reproduce
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, islice, repeat
from math import isqrt
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


def _region_samples(parts: tuple[int, ...], hooks: list[int], t: int):
    """Yield (cell, hook length, witness) for the cells of the diagram,
    row-major, whose hook length is a multiple k*t with k >= 2 and whose
    region holds a t-hook; the witness is the first such t-hook cell,
    row-major.  hooks is hook_lengths_of(parts)."""
    starts = list(accumulate(parts, initial=0))
    for i, lam in enumerate(parts):
        for j in range(lam):
            h = hooks[starts[i] + j]
            if h % t or h < 2 * t:
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
    samples: list | None = None,
    samples_per_t: int = 3,
) -> list[RegionWitness]:
    """Search all partitions of every n <= n_max for a hook of length k*t
    (k >= 2) whose region contains no hook of length exactly t.

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
    # t_for_corner[h]: the t whose multiples of at least 2 * t include h
    t_for_corner = [
        [t for t in t_values if h % t == 0 and h >= 2 * t]
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
                    found = _region_samples(parts, hooks, t)
                    for cell, h, witness in islice(found, samples_per_t - sampled[t]):
                        samples.append(RegionWitness(
                            Partition._unchecked(parts, n), cell, h, t, witness
                        ))
                        sampled[t] += 1
                pending = [t for t in pending if sampled[t] < samples_per_t]
    return violations


def _ladder_index(m: int) -> int:
    """The largest L >= 1 with L*(L+1)/2 <= m, for m >= 0 (1 when m = 0)."""
    return max(1, (isqrt(8 * m + 1) - 1) // 2)


def check_2core_ladder(ell_max: int) -> tuple[bool, str | None]:
    """Verify by enumeration, for all n up to ell_max*(ell_max+1)/2:

    at triangular n = L*(L+1)/2 there is exactly one 2-core, and its hook
    lengths are the odd 2k+1, each exactly L-k times for 0 <= k <= L-1 (so
    no even length appears and consecutive odd-hook counts differ by
    exactly 1); at every other n there is no 2-core at all.
    """
    if ell_max < 1:
        raise ValueError(f"ell_max must be positive, got {ell_max}")
    n_max = ell_max * (ell_max + 1) // 2
    tables, core_counts = hook_count_table(2, n_max)
    # the hook counts of the one 2-core of each triangular n
    ladders = {
        L * (L + 1) // 2: {2 * k + 1: L - k for k in range(L)}
        for L in range(ell_max + 1)
    }
    for n in range(n_max + 1):
        want_cores = int(n in ladders)
        want = ladders.get(n, {})
        # compared as plain dicts: Counter.__eq__ would run first, and slowly
        got = dict(tables[n])
        if got != want or core_counts[n] != want_cores:
            return False, (
                f"2-cores of n={n}: {core_counts[n]} with hook counts {got}, "
                f"expected {want_cores} with {want}"
            )
    return True, None


_NO_PARTS_1_2 = PartFilter(excluded=frozenset({1, 2}))


def _restricted_formula_failure(records: list[BiasRecord], ell: int) -> str | None:
    """Where the records of bias_table(4, [1, 3], 0, ..., no parts 1, 2),
    one per n from 0, first break the closed form through L = ell: both
    totals equal L at n = 3*L*(L+1)/2 and vanish at every other n.  None
    when they keep it."""
    expected = {3 * L * (L + 1) // 2: L for L in range(1, ell + 1)}
    for r in records[: 3 * ell * (ell + 1) // 2 + 1]:
        want = expected.get(r.n, 0)
        got1, got3 = r.values[4, 1], r.values[4, 3]
        if got1 != want or got3 != want:
            return (
                f"restricted 4-core hook counts at n={r.n}: 1-hooks={got1}, "
                f"3-hooks={got3}, expected both {want}"
            )
    return None


def check_restricted_4core_formula(ell_max: int) -> tuple[bool, str | None]:
    """Verify by enumeration that over 4-cores with no part equal to 1 or
    2, the 1-hook and 3-hook totals both equal L at n = 3*L*(L+1)/2 and
    vanish at every other n <= 3*ell_max*(ell_max+1)/2."""
    if ell_max < 1:
        raise ValueError(f"ell_max must be positive, got {ell_max}")
    n_max = 3 * ell_max * (ell_max + 1) // 2
    records = bias_table(4, [1, 3], 0, n_max, _NO_PARTS_1_2, ["="])
    msg = _restricted_formula_failure(records, ell_max)
    return msg is None, msg


def scan_conjecture_5core(n_max: int) -> list[BiasRecord]:
    """Counterexample scan for the conjectured 5-core chain: total 1-hooks
    >= total 3-hooks >= total 6-hooks for every n.  Returns FAILS rows
    only; this reports, it does not assert."""
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    records = bias_table(5, [1, 3, 6], 0, n_max, relations=[">=", ">="])
    return [r for r in records if r.verdict == FAILS]


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
    dump_targets: list[tuple[int, PartFilter]] = field(default_factory=list)
    failing_n: list[int] = field(default_factory=list)
    info: list | None = None  # non-failure report payload (e.g. sampled witnesses)


def bias_records_json(records) -> list[dict]:
    out = []
    for r in records:
        out.append(
            {
                "n": r.n,
                "verdict": r.verdict,
                "values": {f"{t}.{k}": v for (t, k), v in r.values.items()},
                # kept so report bytes stay stable; no table check has a witness
                "witness": None,
            }
        )
    return out


# The chain checks: name -> (description, chains of (t, k) values, the
# relations between adjacent values of each chain, part filter).  Each
# value is the total k-hooks over the t-cores of n that pass the filter.
_CHAINS = {
    "thm13": (
        "3-core hook ordering 1 >= 2 >= 4",
        [[(3, 1), (3, 2), (3, 4)]], [">=", ">="], EMPTY_FILTER,
    ),
    "thm14": ("4-core hook ordering 1 >= 3", [[(4, 1), (4, 3)]], [">="], EMPTY_FILTER),
    "thm17": (
        "restricted 4-core hook ordering 1 >= 3 (no part 1)",
        [[(4, 1), (4, 3)]], [">="], PartFilter(excluded=frozenset({1})),
    ),
    "thm18": (
        "restricted 5-core hook ordering 1 <= 3 (no parts 1, 2)",
        [[(5, 1), (5, 3)]], ["<="], _NO_PARTS_1_2,
    ),
    "thm19": (
        "2-core vs 4-core hook dominance (k = 1, 3)",
        [[(2, 1), (4, 1)], [(2, 3), (4, 3)]], ["<="], EMPTY_FILTER,
    ),
    "conj15": (
        "conjectured 5-core hook ordering 1 >= 3 >= 6",
        [[(5, 1), (5, 3), (5, 6)]], [">=", ">="], EMPTY_FILTER,
    ),
}


def _chain_result(name, n_max, describe, tables, dump_targets) -> CheckResult:
    """The CheckResult of a check over n <= n_max whose chains gave the
    BiasRecord lists in tables: it holds when no record fails."""
    fails = [r for records in tables for r in records if r.verdict == FAILS]
    failing_n = sorted({r.n for r in fails})
    return CheckResult(
        check=name,
        n_max=n_max,
        holds=not fails,
        summary=(
            f"{describe}: holds for all n <= {n_max}"
            if not fails
            else f"{describe}: fails at n = {failing_n[:10]}"
        ),
        failures=bias_records_json(fails),
        dump_targets=dump_targets,
        failing_n=failing_n,
    )


def _run_chain(name: str, n_max: int) -> CheckResult:
    """Run the chain check of the _CHAINS row name: one
    cross_core_bias_table per chain, and the row's t-cores, each t once,
    as dump targets."""
    describe, chains, relations, f = _CHAINS[name]
    tables = [cross_core_bias_table(pairs, 0, n_max, relations, f) for pairs in chains]
    ts = dict.fromkeys(t for pairs in chains for t, _ in pairs)
    return _chain_result(name, n_max, describe, tables, [(t, f) for t in ts])


def _check_prop21(n_max: int) -> CheckResult:
    ell = _ladder_index(n_max)
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
    )


def _check_thm16(n_max: int) -> CheckResult:
    """The 1-hook/3-hook equality over n <= n_max and the closed form
    through the largest L with 3*L*(L+1)/2 <= n_max (L = 1 below n = 3),
    both read from one restricted 4-core table."""
    ell = _ladder_index(n_max // 3)
    n_top = max(n_max, 3 * ell * (ell + 1) // 2)
    records = bias_table(4, [1, 3], 0, n_top, _NO_PARTS_1_2, ["="])
    res = _chain_result(
        "thm16", n_max, "restricted 4-core 1-hook/3-hook equality (no parts 1, 2)",
        [records[: n_max + 1]], [(4, _NO_PARTS_1_2)],
    )
    msg = _restricted_formula_failure(records, ell)
    if msg is None:
        res.summary += f"; closed form exact through L = {ell}"
    else:
        res.holds = False
        res.failures.append(msg)
        res.summary += f"; closed form fails: {msg}"
    return res


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
    )


CHECKS = {
    "prop21": _check_prop21,
    "thm16": _check_thm16,
    **{name: partial(_run_chain, name) for name in _CHAINS},
    "region": _check_region,
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
