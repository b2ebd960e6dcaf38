import json
import time

import pytest

from corehooks import _abacus
from corehooks.cli import main
from corehooks.generate import PartFilter, t_cores_up_to
from corehooks.hookstats import FAILS, HOLDS, NOT_APPLICABLE, bias_table, hook_count_table
from corehooks.partition import Cell, Partition, hook_lengths_of
from corehooks.qseries import core_count_series
from corehooks.verify import (
    CHECKS,
    check_2core_ladder,
    check_3core_conditions,
    check_4core_conditions,
    check_restricted_4core_formula,
    necessity_scan,
    region_theorem_scan,
    run_check,
    scan_conjecture_5core,
)

from conftest import (
    bead_hook_count,
    bead_vector_tcores,
    naive_hook_count,
    naive_hooks,
    naive_is_t_core,
    naive_partitions,
    walk_t_cores,
    walker_cores_of,
)


def failed_ids(report):
    return [name for name, ok in report.checks if not ok]


def test_3core_condition_fixtures():
    assert check_3core_conditions(Partition((3, 1))).overall
    rep = check_3core_conditions(Partition((2, 2, 1)))
    assert not rep.overall and failed_ids(rep) == ["3D"]
    rep = check_3core_conditions(Partition((1, 1, 1)))
    assert "3A" in failed_ids(rep)
    # large last part trips the gap bound
    rep = check_3core_conditions(Partition((3,)))
    assert "3B" in failed_ids(rep)
    assert check_3core_conditions(Partition(())).overall


def test_4core_condition_fixtures():
    assert check_4core_conditions(Partition((2, 2))).overall
    rep = check_4core_conditions(Partition((4,)))
    assert "4B" in failed_ids(rep)
    assert check_4core_conditions(Partition((6, 3, 2, 1))).overall
    # multiplicity 3 with step 2 is impossible in a 4-core
    rep = check_4core_conditions(Partition((2, 2, 2)))
    assert "4D" in failed_ids(rep)
    rep = check_4core_conditions(Partition((3, 3)))
    assert "4C" in failed_ids(rep)
    assert check_4core_conditions(Partition(())).overall


@pytest.mark.parametrize(
    "checker,parts,failed",
    [
        # a repeated value followed by a step of 2
        (check_3core_conditions, (3, 3, 1), ["3C"]),
        # an interior step of 2 that lands on multiplicity 1
        (check_4core_conditions, (3, 1), ["4D"]),
        # an interior step of 1 that lands on multiplicity 2
        (check_4core_conditions, (2, 1, 1), ["4E"]),
        # a step of 1 from multiplicity 2 that lands on multiplicity 1
        (check_4core_conditions, (2, 2, 1), ["4E"]),
    ],
    ids=["3C", "4D-landing", "4E-onto-2", "4E-from-2"],
)
def test_condition_failures_name_the_rule(checker, parts, failed):
    rep = checker(Partition(parts))
    assert failed_ids(rep) == failed and not rep.overall


def test_conditions_failure_is_reported(monkeypatch):
    # no core fails its conditions, so 4-cores are staged against the 3-core rules
    from corehooks import verify

    monkeypatch.setattr(verify, "check_4core_conditions", check_3core_conditions)
    res = run_check("conditions", 6)
    assert not res.holds
    assert res.summary == "3-core and 4-core structural conditions: fail on 8 core partitions"
    assert res.failures == [
        {"t": 4, "partition": p, "failed": failed}
        for p, failed in [
            ("[3]", "3B"), ("[2,1]", "3D"), ("[1,1,1]", "3A"), ("[4,1]", "3B"),
            ("[2,1,1,1]", "3A,3D"), ("[4,1,1]", "3B"), ("[3,2,1]", "3D"), ("[3,1,1,1]", "3A"),
        ]
    ]


def test_conditions_necessary_for_cores():
    assert necessity_scan(40) == []


def test_conditions_not_claimed_sufficient():
    # some non-cores pass the conditions, so the scan checks necessity only
    p = Partition((2, 2))  # has a 3-hook but satisfies the 3-core conditions
    assert check_3core_conditions(p).overall
    assert not p.is_t_core(3)


def test_region_scan_small_and_samples():
    samples = []
    violations = region_theorem_scan(14, samples=samples)
    assert violations == []
    assert samples, "expected sampled positive witnesses"
    for w in samples:
        assert w.witness_cell is not None
        assert w.hook_len == w.partition.hook_length(w.hook_cell)
        assert w.hook_len % w.t == 0 and w.hook_len >= 2 * w.t
        assert w.witness_cell in w.partition.region(w.hook_cell)
        assert w.partition.hook_length(w.witness_cell) == w.t


def test_region_scan_fixture_witness():
    # the 6-hook at the corner of (4,1,1) has a 3-hook inside its region
    p = Partition((4, 1, 1))
    assert p.hook_length((1, 1)) == 6
    samples = []
    region_theorem_scan(6, t_values=[3], samples=samples)
    ours = [w for w in samples if w.partition == p and w.hook_cell == Cell(1, 1)]
    assert ours and ours[0].witness_cell == Cell(1, 2)


def test_region_scan_matches_brute_force():
    # every cell of every partition, with its whole region walked box by
    # box on directly counted hook lengths; no corner-hook reduction
    violations = []
    for n in range(1, 13):
        for parts in naive_partitions(n):
            p = Partition(parts)
            hook = dict(zip(p.cells(), naive_hooks(parts)))
            for cell, h in hook.items():
                for t in range(1, 8):
                    if h % t == 0 and h >= 2 * t:
                        if all(hook[c] != t for c in p.region(cell)):
                            violations.append((parts, cell, t))
    assert violations == []
    assert region_theorem_scan(12, t_values=range(1, 8)) == violations


def test_region_scan_reports_violation_at_corner(monkeypatch):
    # the property holds, so a violation is staged by masking every 3-hook:
    # the corner test reports 3 as missing, and the sample search sees
    # every 3-hook as 0; for n <= 6 only the hook shapes of 6 have a
    # corner hook of 6
    from corehooks import verify

    real_missing = verify._missing_hook_lengths
    real_hooks = verify.hook_lengths_of
    monkeypatch.setattr(
        verify, "_missing_hook_lengths",
        lambda parts, ts: [t for t in ts if t == 3 or t in real_missing(parts, ts)],
    )
    monkeypatch.setattr(
        verify, "hook_lengths_of",
        lambda parts: [h if h != 3 else 0 for h in real_hooks(parts)],
    )
    samples = []
    violations = region_theorem_scan(6, t_values=[3], samples=samples)
    assert [str(w.partition) for w in violations] == [
        "[6]", "[5,1]", "[4,1,1]", "[3,1,1,1]", "[2,1,1,1,1]", "[1,1,1,1,1,1]",
    ]
    for w in violations:
        assert (w.hook_cell, w.hook_len, w.t, w.witness_cell) == (Cell(1, 1), 6, 3, None)
    assert samples == []


def test_missing_hook_lengths_match_diagram_hooks():
    # the first-column (beta number) test against hooks counted box by box
    from corehooks.verify import _missing_hook_lengths

    for n in range(1, 19):
        ts = range(1, n + 2)
        for parts in naive_partitions(n):
            hooks = set(naive_hooks(parts))
            assert _missing_hook_lengths(parts, ts) == [t for t in ts if t not in hooks], parts


@pytest.mark.parametrize("t", range(2, 8))
def test_missing_hook_lengths_of_every_t_core(t):
    # a t-core of n <= 30 has no hook of length t, nor of 2t, 3t, ...
    from corehooks.verify import _missing_hook_lengths

    multiples = range(t, 31, t)
    cores = 0
    for _, parts in walk_t_cores(t, 30, False):
        assert _missing_hook_lengths(parts, [t]) == [t], parts
        assert _missing_hook_lengths(parts, multiples) == list(multiples), parts
        cores += 1
    assert cores == sum(core_count_series(t, 30))


def test_missing_hook_lengths_reports_each_missing_t_in_order():
    # [4, 2] has hook lengths 5, 4, 2, 1, 2, 1: no 3 and no 6
    from corehooks.verify import _missing_hook_lengths

    assert sorted(set(naive_hooks((4, 2)))) == [1, 2, 4, 5]
    assert _missing_hook_lengths((4, 2), [2, 6, 1, 5, 3]) == [6, 3]
    assert _missing_hook_lengths((4, 2), [3, 4, 6]) == [3, 6]
    assert _missing_hook_lengths((4, 2), [5, 4, 2, 1]) == []


def test_missing_hook_lengths_after_the_table_of_powers_grows():
    from corehooks import verify

    ts = range(1, 70)
    for parts in naive_partitions(8):
        hooks = set(naive_hooks(parts))
        assert verify._missing_hook_lengths(parts, ts) == [t for t in ts if t not in hooks]
    # (60,) has the hook lengths 1..60; a part past the table's end
    # rebinds it to a longer one
    assert verify._missing_hook_lengths((60,), ts) == list(range(61, 70))
    table = verify._powers
    big = (len(table), 2, 1)
    hooks = set(naive_hooks(big))
    assert verify._missing_hook_lengths(big, range(1, len(table) + 4)) == [
        t for t in range(1, len(table) + 4) if t not in hooks
    ]
    assert verify._powers is not table and len(verify._powers) > len(table) + 2
    assert verify._powers == [1 << b for b in range(len(verify._powers))]


def test_region_scan_validation():
    with pytest.raises(ValueError):
        region_theorem_scan(0)
    with pytest.raises(ValueError):
        region_theorem_scan(5, t_values=[0])


def test_2core_ladder_small():
    ok, msg = check_2core_ladder(12)
    assert ok, msg
    with pytest.raises(ValueError):
        check_2core_ladder(0)


@pytest.mark.parametrize(
    "n,hook,core_delta,message",
    [
        # 6 = 3*4/2 has the one 2-core [3,2,1]: three 1-hooks, two 3-hooks, one 5-hook
        (6, 3, 0, "2-cores of n=6: 1 with hook counts {1: 3, 3: 3, 5: 1}, "
         "expected 1 with {1: 3, 3: 2, 5: 1}"),
        (5, None, 1, "2-cores of n=5: 1 with hook counts {}, expected 0 with {}"),
    ],
    ids=["hook-count", "core-count"],
)
def test_2core_ladder_names_the_wrong_n(monkeypatch, n, hook, core_delta, message):
    # the ladder is a theorem, so a failure is staged by miscounting one n
    from corehooks import verify

    real = verify.hook_count_table

    def miscounted(t, n_max):
        tables, core_counts = real(t, n_max)
        if hook is not None:
            tables[n][hook] += 1
        core_counts[n] += core_delta
        return tables, core_counts

    monkeypatch.setattr(verify, "hook_count_table", miscounted)
    assert check_2core_ladder(4) == (False, message)


def test_checks_name_the_largest_closed_form_step():
    # the largest steps as the earlier while loops found them
    for n_max in range(1, 201):
        tri = 1
        while (tri + 1) * (tri + 2) // 2 <= n_max:
            tri += 1
        ell = 1
        while 3 * (ell + 1) * (ell + 2) // 2 <= n_max:
            ell += 1
        assert run_check("prop21", n_max).summary == (
            f"2-core odd-hook ladder: exact for all n <= {tri * (tri + 1) // 2}"
        )
        summary = run_check("thm16", n_max).summary
        assert summary.endswith(f"; closed form exact through L = {ell}"), n_max


def test_run_check_reads_n_max_as_an_integer():
    with pytest.raises(ValueError, match="n_max must be an integer, got 10.5"):
        run_check("thm14", 10.5)
    with pytest.raises(ValueError, match="n_max must be an integer, got '10'"):
        run_check("thm14", "10")
    with pytest.raises(ValueError, match="n_max must be positive, got 0"):
        run_check("thm14", 0)


def test_thm16_sweeps_its_table_once(monkeypatch):
    calls = []
    real = _abacus.core_runs

    def counted(t, m, lo, hi, paired=False):
        calls.append((t, m, lo, hi))
        return real(t, m, lo, hi, paired)

    monkeypatch.setattr(_abacus, "core_runs", counted)
    assert run_check("thm16", 300).holds
    assert calls == [(4, 3, 0, 300)]


@pytest.mark.parametrize("name", ["thm16", "thm18"])
def test_restricted_checks_walk_only_their_cores(name):
    # the restricted cores are built on N^(t-3), not filtered out of every
    # t-core: each check through n = 20000 stays well under 2 s in process
    start = time.perf_counter()
    assert run_check(name, 20000).holds
    assert time.perf_counter() - start < 2


def test_thm19_sweeps_each_t_once(monkeypatch):
    calls = []
    real = _abacus.core_runs

    def counted(t, m, lo, hi, paired=False):
        calls.append((t, lo, hi))
        return real(t, m, lo, hi, paired)

    monkeypatch.setattr(_abacus, "core_runs", counted)
    assert run_check("thm19", 300).holds
    assert calls == [(2, 0, 300), (4, 0, 300)]


def test_thm19_reports_failures_of_both_chains(monkeypatch, capsys):
    # thm19 is a theorem, so both chains are made to fail by reversing
    # their relation: 2-core totals >= 4-core totals
    from corehooks import verify

    description, chains, _, f = verify._CHAINS["thm19"]
    monkeypatch.setitem(verify._CHAINS, "thm19", (description, chains, [">="], f))
    res = run_check("thm19", 12)
    assert not res.holds
    # the k = 1 chain fails at 2..12 and the k = 3 chain at 3..12
    assert [r["n"] for r in res.failures] == [*range(2, 13), *range(3, 13)]
    assert res.failing_n == list(range(2, 13))
    assert res.summary == (
        "2-core vs 4-core hook dominance (k = 1, 3): "
        "fails at n = [2, 3, 4, 5, 6, 7, 8, 9, 10, 11]"
    )
    code = main(["verify", "--check", "thm19", "--n-max", "12", "--format", "json", "--seed-dump"])
    assert code == 1
    dump = json.loads(capsys.readouterr().out)["seed_dump"]
    assert list(dump) == [f"t={t},n={n}" for t in (2, 4) for n in range(2, 13)]
    assert dump["t=2,n=6"] == ["[3,2,1]"] and dump["t=2,n=5"] == []


def test_thm16_reports_a_wrong_restricted_count(monkeypatch):
    # thm16 is a theorem, so one restricted 4-core 1-hook count is staged wrong
    from corehooks import _abacus

    real = _abacus.hook_columns

    def miscounted(runs, t, ks, lo, hi):
        columns, core_counts = real(runs, t, ks, lo, hi)
        columns[ks.index(1)][9 - lo] += 1
        return columns, core_counts

    monkeypatch.setattr(_abacus, "hook_columns", miscounted)
    res = run_check("thm16", 20)
    msg = "restricted 4-core hook counts at n=9: 1-hooks=3, 3-hooks=2, expected both 2"
    assert not res.holds and res.failing_n == [9]
    assert res.summary == (
        "restricted 4-core 1-hook/3-hook equality (no parts 1, 2): fails at n = [9]; "
        f"closed form fails: {msg}"
    )
    assert res.failures == [
        {"n": 9, "verdict": FAILS, "values": {"4.1": 3, "4.3": 2}, "witness": None}, msg
    ]
    # the public check reads the same table and reports the same message
    assert check_restricted_4core_formula(2) == (False, msg)


def test_restricted_formula_small():
    ok, msg = check_restricted_4core_formula(4)
    assert ok, msg


def test_restricted_formula_values_by_hand():
    # cross-check the closed form against the naive route at a few n
    f = PartFilter(excluded=frozenset({1, 2}))
    for n, expect in [(3, 1), (5, 0), (7, 0), (9, 2), (18, 3)]:
        got = sum(
            naive_hook_count(parts, 1)
            for parts in naive_partitions(n)
            if naive_is_t_core(parts, 4) and f.passes(parts)
        )
        assert got == expect, n


def test_conjecture_scan_clean_up_to_60():
    assert scan_conjecture_5core(60) == []


def test_scan_reports_failures_with_values():
    # deliberately false chain: total 2-hooks never dominate 1-hooks
    records = bias_table(3, [2, 1], 0, 5, relations=[">="])
    fails = [r for r in records if r.verdict == FAILS]
    assert [r.n for r in fails] == [1, 4]
    assert fails[0].values == {(3, 2): 0, (3, 1): 1}
    assert {r.verdict for r in records if r.n not in (1, 4)} == {HOLDS, NOT_APPLICABLE}


def test_per_partition_5core_min_part_3():
    # every 5-core without parts 1, 2 has at most as many 1-hooks as 3-hooks
    f = PartFilter(excluded=frozenset({1, 2}))
    for n, p in t_cores_up_to(40, 5, f):
        flat = hook_lengths_of(p.parts)
        assert flat.count(1) <= flat.count(3), p


@pytest.mark.parametrize("t", range(2, 8))
def test_bead_vector_oracle_self_validates(t):
    # the oracle must agree with the plain brute-force filter before it is
    # trusted anywhere else
    by_n = bead_vector_tcores(18, t)
    for n in range(19):
        expect = {p for p in naive_partitions(n) if naive_is_t_core(p, t)}
        got = {parts for parts, _ in by_n[n]}
        assert got == expect, (t, n)
        # bead hook counts match direct diagram counts
        for parts, beads in by_n[n]:
            hooks = naive_hooks(parts)
            for k in (1, 2, 3, 6):
                assert bead_hook_count(beads, k) == hooks.count(k)


@pytest.mark.parametrize("t", range(2, 8))
def test_bead_vector_oracle_agrees_with_pruned_enumeration(t):
    by_n = bead_vector_tcores(60, t)
    swept: dict[int, set] = {n: set() for n in range(61)}
    for n, p in t_cores_up_to(60, t):
        swept[n].add(p.parts)
    for n in range(61):
        assert swept[n] == {parts for parts, _ in by_n[n]}, (t, n)


def _walker_totals(n, t, ks):
    """(number of t-cores of n, total k-hooks for each k) from the
    part-by-part walker with hooks counted box by box on the diagram: a
    route that shares no step with the package's abacus counts."""
    hooks = [naive_hooks(parts) for parts in walker_cores_of(n, t)]
    return len(hooks), tuple(sum(h.count(k) for h in hooks) for k in ks)


def test_5core_chain_reversal_at_93_confirmed_independently():
    # the scanner finds the first reversal of the 1-hook/3-hook link at
    # n = 93; the walker with diagram hooks confirms the totals
    assert _walker_totals(93, 5, (1, 3, 6)) == (46, (382, 384, 284))
    tables, core_counts = hook_count_table(5, 93, ks=(1, 3, 6))
    assert core_counts[93] == 46
    assert (tables[93][1], tables[93][3], tables[93][6]) == (382, 384, 284)
    fails = scan_conjecture_5core(93)
    assert [r.n for r in fails] == [93]


# every failure of the conjectured 5-core chain 1 >= 3 >= 6 for n <= 450,
# as (1-hooks, 3-hooks, 6-hooks); all three reverse the first link
CONJ15_FAILS_TO_450 = {
    93: (382, 384, 284),
    213: (1360, 1368, 1130),
    445: (4168, 4290, 3628),
}


def test_conj15_failures_through_450():
    fails = scan_conjecture_5core(450)
    got = {r.n: tuple(r.values[(5, k)] for k in (1, 3, 6)) for r in fails}
    assert got == CONJ15_FAILS_TO_450
    assert [r.n for r in fails] == sorted(CONJ15_FAILS_TO_450)


def test_chain_checks_build_records_only_for_failing_n(monkeypatch):
    # chain_tables hands back columns; a record is built for a failing n
    # alone, so a holding check builds none
    from corehooks import hookstats

    made = []
    real = hookstats.BiasRecord

    def counted(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(hookstats, "BiasRecord", counted)
    assert run_check("thm13", 800).holds
    assert made == []
    fails = scan_conjecture_5core(220)
    assert [r.n for r in fails] == [93, 213]
    assert made == fails


def test_conj15_failures_through_1200():
    # the first link fails at ten n, the second only at 793, and every
    # failing n is 1 mod 4
    records = bias_table(5, [1, 3, 6], 0, 1200, relations=[">=", ">="])
    first = [r.n for r in records if r.values[(5, 1)] < r.values[(5, 3)]]
    second = [r.n for r in records if r.values[(5, 3)] < r.values[(5, 6)]]
    assert first == [93, 213, 445, 561, 773, 837, 897, 1033, 1125, 1197]
    assert second == [793]
    failing = [r.n for r in records if r.verdict == FAILS]
    assert failing == sorted(first + second)
    assert all(n % 4 == 1 for n in failing)


def test_conj15_reversal_at_213_through_walker():
    assert _walker_totals(213, 5, (1, 3, 6)) == (106, CONJ15_FAILS_TO_450[213])


def test_run_check_registry():
    assert set(CHECKS) == {
        "prop21", "thm13", "thm14", "thm16", "thm17", "thm18", "thm19",
        "region", "conj15", "conditions",
    }
    for name in ("thm13", "thm14", "thm16", "thm17", "thm18", "conj15"):
        res = run_check(name, 40)
        assert res.holds, (name, res.summary)
        assert res.failures == []
    res = run_check("prop21", 100)
    assert res.holds
    res = run_check("region", 12)
    assert res.holds and res.info
    res = run_check("conditions", 20)
    assert res.holds
    res = run_check("thm19", 40)
    assert res.holds
    with pytest.raises(ValueError):
        run_check("nope", 10)
    with pytest.raises(ValueError):
        run_check("thm13", 0)
