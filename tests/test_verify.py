import pytest

from corehooks.generate import PartFilter, t_cores_up_to
from corehooks.hookstats import FAILS, hook_count_table
from corehooks.partition import Cell, Partition
from corehooks.verify import (
    CHECKS,
    check_2core_ladder,
    check_3core_conditions,
    check_4core_conditions,
    check_restricted_4core_formula,
    necessity_scan,
    region_theorem_scan,
    run_check,
    scan_bias_chain,
    scan_conjecture_5core,
)

from conftest import (
    bead_hook_count,
    bead_vector_tcores,
    naive_hook_count,
    naive_hooks,
    naive_is_t_core,
    naive_partitions,
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
    region_theorem_scan(6, t_values=[3], samples=samples, samples_per_t=50)
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
    # the property holds, so a violation is staged by masking every 3-hook
    # as 0; for n <= 6 only the hook shapes of 6 have a corner hook of 6
    from corehooks import verify

    real = verify.hook_lengths_of
    monkeypatch.setattr(
        verify, "hook_lengths_of", lambda parts: [h if h != 3 else 0 for h in real(parts)]
    )
    samples = []
    violations = region_theorem_scan(6, t_values=[3], samples=samples)
    assert [str(w.partition) for w in violations] == [
        "[6]", "[5,1]", "[4,1,1]", "[3,1,1,1]", "[2,1,1,1,1]", "[1,1,1,1,1,1]",
    ]
    for w in violations:
        assert (w.hook_cell, w.hook_len, w.t, w.witness_cell) == (Cell(1, 1), 6, 3, None)
    assert samples == []


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
    fails = scan_bias_chain(3, [2, 1], [">="], 5)
    assert [r.n for r in fails] == [1, 4]
    assert fails[0].values == {(3, 2): 0, (3, 1): 1}
    assert all(r.verdict == FAILS for r in fails)


def test_per_partition_5core_min_part_3():
    # every 5-core without parts 1, 2 has at most as many 1-hooks as 3-hooks
    f = PartFilter(excluded=frozenset({1, 2}))
    for n, p in t_cores_up_to(40, 5, f):
        flat = p.hook_lengths()
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
    route that shares no step with the package's charge-vector counts."""
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
