"""The package names the scripts under bench/ import, wrap or remove.
bench/selftest.py checks them too but takes far longer than the unit
tests; this file makes a deletion or rename fail here at once."""

import pytest

import corehooks
from corehooks import cli, hookstats, verify
from corehooks.partition import Partition

OWNERS = {
    "cli": cli,
    "corehooks": corehooks,
    "hookstats": hookstats,
    "Partition": Partition,
    "verify": verify,
}


@pytest.mark.parametrize(
    "name",
    [
        "cli.main",
        "cli.total_hook_count",
        "cli.odd_representation",
        "corehooks.partitions_of",
        "corehooks.core_count_series",
        "corehooks.PartFilter",
        "corehooks.Partition",
        "Partition.from_text",
        "hookstats.hook_count_table",
        # bench/tracer.py wraps it to count nocore's generate.partitions
        "verify.iter_partition_parts",
    ],
)
def test_bench_name_is_callable(name):
    owner, attr = name.split(".")
    assert callable(getattr(OWNERS[owner], attr, None))


def test_bench_calls_keep_their_signatures():
    # the calls as bench/checks.py and bench/pin.py make them
    assert [p.parts for p in corehooks.partitions_of(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert corehooks.core_count_series(3, 6)[6] == 2
    p = corehooks.Partition.from_text("[3,1]")
    assert p.n == 4 and p.is_t_core(5) and not p.is_t_core(4)
    f = corehooks.PartFilter(excluded=frozenset({1, 2}))
    rows, cores = hookstats.hook_count_table(4, 9, f, [1, 3])
    assert cores[9] == 1 and rows[9][1] == rows[9][3] == 2


def test_region_scan_streams_through_verify_name(monkeypatch):
    # the tracer counts partitions by replacing the name in verify's namespace
    real = verify.iter_partition_parts
    seen = []
    monkeypatch.setattr(verify, "iter_partition_parts", lambda n: seen.append(n) or real(n))
    verify.region_theorem_scan(5)
    assert seen == [1, 2, 3, 4, 5]
