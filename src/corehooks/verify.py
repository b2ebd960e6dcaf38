"""Mechanical verification of structural facts about t-core partitions.

Includes the necessary multiplicity/gap conditions for 3-cores and
4-cores, the hook-region containment scan, the closed-form checks for
2-core hook counts and for restricted 4-core hook counts, the
counterexample scan of the conjectured 5-core chain, and CHECKS, the
named checks the CLI runs: each name maps to a description and a runner,
and run_check alone turns a runner's failures into a CheckResult.  Each
chain check is one row of one table, _CHAINS (a description, chains of
(t, k) values, the relations between adjacent values and a part filter),
run by _run_chain with one sweep per t.  Every check either passes over
its whole range or reports the first (or all) failures with enough data
to reproduce them.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from itertools import accumulate, islice
from math import isqrt

from .generate import (
    EMPTY_FILTER,
    PartFilter,
    _integer,
    iter_partition_parts,
    t_cores_up_to,
)
from .hookstats import FAILS, BiasRecord, bias_table, chain_records, chain_tables, hook_count_table
from .partition import Cell, Partition, hook_lengths_of


class ConditionReport(namedtuple("ConditionReport", "subject checks overall")):
    """Pass/fail outcome of a list of named structural checks on one
    partition: subject is the Partition, checks its (name, passed) pairs
    and overall their conjunction."""

    __slots__ = ()


class RegionWitness(
    namedtuple("RegionWitness", "partition hook_cell hook_len t witness_cell")
):
    """A hook of length k*t together with a t-hook found in its region:
    the Partition, the Cell of the hook, its length, t, and the Cell of
    the t-hook.

    witness_cell is None in a violation record (no t-hook found); when
    present it lies in the region of hook_cell and has hook length t.
    """

    __slots__ = ()


def _multiplicity_rows(p: Partition):
    """The (multiplicity, gap to next value) rows of the multiplicity view,
    the value after the last distinct part taken to be 0, and the interior
    steps (multiplicity, gap, multiplicity of the next value) between
    adjacent rows."""
    view = p.multiplicity_view()
    below = [v for v, _ in view[1:]] + [0]
    rows = [(m, v - nxt) for (v, m), nxt in zip(view, below)]
    steps = [(m, g, m2) for (m, g), (m2, _) in zip(rows, rows[1:])]
    return rows, steps


def _condition_report(p: Partition, checks: list[tuple[str, bool]]) -> ConditionReport:
    return ConditionReport(subject=p, checks=checks, overall=all(ok for _, ok in checks))


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
    rows, steps = _multiplicity_rows(p)
    return _condition_report(p, [
        ("3A", all(m <= 2 for m, _ in rows)),
        ("3B", all(g <= 2 for _, g in rows)),
        ("3C", all(g == 1 for m, g, _ in steps if m == 2)),
        ("3D", all(m2 == 2 for _, g, m2 in steps if g == 1)),
    ])


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
    rows, steps = _multiplicity_rows(p)
    return _condition_report(p, [
        ("4A", all(m <= 3 for m, _ in rows)),
        ("4B", all(g <= 3 for _, g in rows)),
        ("4C", all(m == 1 for m, g in rows if g == 3)),
        ("4D", all(m <= 2 for m, g in rows if g == 2)
         and all(m2 in (2, 3) for _, g, m2 in steps if g == 2)),
        ("4E", all(m2 != 2 and (m < 2 or m2 == 3) for m, g, m2 in steps if g == 1)),
    ])


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
    """The t of ts (positive), in their order, that are not hook lengths
    of the diagram of parts.

    The first-column hooks b_i = parts[i-1] + len(parts) - i are the beta
    numbers of the partition, and the hook lengths are the differences
    b - c of a beta number b and a non-negative c < b that is not one.  So
    the diagram has a t-hook exactly when some b >= t leaves b - t outside
    the betas.  With bits the int whose bit b is set for each beta number,
    bit c of (bits >> t) & ~bits is set exactly when c + t is a beta number
    and c is not, so t is missing exactly when that int is 0: one shift
    and one mask per t, after one pass over the parts to build bits.
    """
    bits = 0
    for i, v in enumerate(reversed(parts)):
        bits |= 1 << (v + i)  # the beta number of the i-th part from the end
    return [t for t in ts if not (bits >> t) & ~bits]


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
    only these need every hook length of a diagram (hook_lengths_of),
    built only where the corner hook is at least twice the least t whose
    samples are still pending.
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
            # a sample's hook is at least 2t and at most the corner hook
            if pending and corner >= 2 * pending[0]:
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


def check_restricted_4core_formula(ell_max: int) -> tuple[bool, str | None]:
    """Verify by enumeration that over 4-cores with no part equal to 1 or
    2, the 1-hook and 3-hook totals both equal L at n = 3*L*(L+1)/2 and
    vanish at every other n <= 3*ell_max*(ell_max+1)/2: the closed form
    of _check_thm16, its last failure when it fails."""
    if ell_max < 1:
        raise ValueError(f"ell_max must be positive, got {ell_max}")
    failures, _, _ = _check_thm16(3 * ell_max * (ell_max + 1) // 2)
    return (False, failures[-1]) if failures else (True, None)


def scan_conjecture_5core(n_max: int) -> list[BiasRecord]:
    """Counterexample scan for the conjectured 5-core chain, the conj15
    row of _CHAINS: total 1-hooks >= total 3-hooks >= total 6-hooks for
    every n.  Returns FAILS rows only; this reports, it does not assert."""
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    return _chain_failures("conj15", n_max)


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


class CheckResult(
    namedtuple(
        "CheckResult",
        "check n_max holds summary failures dump_targets failing_n info",
        defaults=((), (), None),
    )
):
    """Outcome of one named verification check over a range.

    failures is a list of json-ready failure entries.  dump_targets holds
    the (t, PartFilter) pairs whose t-core sets at the failing_n are worth
    dumping for post-mortem inspection; info is a list of report entries
    that are not failures (e.g. sampled witnesses), or None.
    """

    __slots__ = ()


def bias_records_json(records) -> list[dict]:
    # "witness" is kept so report bytes stay stable; no table check has one
    return [
        {
            "n": r.n,
            "verdict": r.verdict,
            "values": {f"{t}.{k}": v for (t, k), v in r.values.items()},
            "witness": None,
        }
        for r in records
    ]


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


def _chain_failures(name: str, n_max: int) -> list[BiasRecord]:
    """The FAILS rows over n <= n_max of the _CHAINS row name, chain by
    chain, from one chain_tables sweep; only these become BiasRecords."""
    _, chains, relations, f = _CHAINS[name]
    tables = zip(chains, chain_tables(chains, 0, n_max, relations, f))
    return [r for pairs, table in tables for r in chain_records(pairs, *table, 0, FAILS)]


def _table_verdict(fails: list[BiasRecord], n_max: int):
    """The failures (as json), summary tail and sorted failing n of the
    FAILS records of a check over n <= n_max."""
    failing_n = sorted({r.n for r in fails})
    tail = f"fails at n = {failing_n[:10]}" if fails else f"holds for all n <= {n_max}"
    return bias_records_json(fails), tail, failing_n


def _run_chain(name: str, n_max: int):
    """The chain check of the _CHAINS row name: one chain_tables sweep,
    and the row's t-cores, each t once, as dump targets."""
    failures, tail, failing_n = _table_verdict(_chain_failures(name, n_max), n_max)
    _, chains, _, f = _CHAINS[name]
    ts = dict.fromkeys(t for pairs in chains for t, _ in pairs)
    return failures, tail, {"dump_targets": [(t, f) for t in ts], "failing_n": failing_n}


def _check_prop21(n_max: int):
    ell = _ladder_index(n_max)
    ok, msg = check_2core_ladder(ell)
    if ok:
        return [], f"exact for all n <= {ell * (ell + 1) // 2}", {}
    return [msg], msg, {}


def _check_thm16(n_max: int):
    """The 1-hook/3-hook equality over n <= n_max and the closed form
    through the largest L with 3*L*(L+1)/2 <= n_max (L = 1 below n = 3),
    both read from one restricted 4-core table."""
    ell = _ladder_index(n_max // 3)
    n_form = 3 * ell * (ell + 1) // 2
    records = bias_table(4, [1, 3], 0, max(n_max, n_form), _NO_PARTS_1_2, ["="])
    fails = [r for r in records[: n_max + 1] if r.verdict == FAILS]
    failures, tail, failing_n = _table_verdict(fails, n_max)
    expected = {3 * L * (L + 1) // 2: L for L in range(1, ell + 1)}
    for r in records[: n_form + 1]:
        want = expected.get(r.n, 0)
        got1, got3 = r.values[4, 1], r.values[4, 3]
        if got1 != want or got3 != want:
            msg = (
                f"restricted 4-core hook counts at n={r.n}: 1-hooks={got1}, "
                f"3-hooks={got3}, expected both {want}"
            )
            failures.append(msg)
            tail += f"; closed form fails: {msg}"
            break
    else:
        tail += f"; closed form exact through L = {ell}"
    return failures, tail, {"dump_targets": [(4, _NO_PARTS_1_2)], "failing_n": failing_n}


def _witness_json(w: RegionWitness) -> dict:
    return {
        "partition": str(w.partition),
        "hook_cell": list(w.hook_cell),
        "hook_len": w.hook_len,
        "t": w.t,
        "witness_cell": list(w.witness_cell) if w.witness_cell else None,
    }


def _check_region(n_max: int):
    samples: list[RegionWitness] = []
    violations = region_theorem_scan(n_max, samples=samples)
    tail = f"{len(violations)} violations" if violations else f"no violations for n <= {n_max}"
    return (
        [_witness_json(w) for w in violations], tail,
        {"info": [_witness_json(w) for w in samples]},
    )


def _check_conditions(n_max: int):
    bad = necessity_scan(n_max)
    tail = f"fail on {len(bad)} core partitions" if bad else f"necessary for all n <= {n_max}"
    return [{"t": t, "partition": str(p), "failed": failed} for t, p, failed in bad], tail, {}


# name -> (description, runner).  A runner takes n_max and returns the
# failures, the summary tail and any extra CheckResult fields.
CHECKS = {
    "prop21": ("2-core odd-hook ladder", _check_prop21),
    "thm16": (
        "restricted 4-core 1-hook/3-hook equality (no parts 1, 2)", _check_thm16
    ),
    **{name: (row[0], partial(_run_chain, name)) for name, row in _CHAINS.items()},
    "region": ("hook-region containment", _check_region),
    "conditions": ("3-core and 4-core structural conditions", _check_conditions),
}


def run_check(name: str, n_max: int) -> CheckResult:
    """Run one named verification check over n <= n_max; it holds when
    its runner reports no failure."""
    try:
        description, runner = CHECKS[name]
    except KeyError:
        raise ValueError(
            f"unknown check {name!r}; choose from {sorted(CHECKS)}"
        ) from None
    n_max = _integer(n_max, "n_max must be an integer")
    if n_max < 1:
        raise ValueError(f"n_max must be positive, got {n_max}")
    failures, tail, extra = runner(n_max)
    return CheckResult(
        check=name,
        n_max=n_max,
        holds=not failures,
        summary=f"{description}: {tail}",
        failures=failures,
        **extra,
    )
