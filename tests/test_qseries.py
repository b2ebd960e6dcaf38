from collections import Counter
from operator import itemgetter

import pytest

from corehooks import _abacus
from corehooks.generate import count_t_cores, iter_partition_parts
from corehooks.qseries import (
    core_count_series,
    triangular_indicator_series,
    triple_triangular_series,
    verify_identity,
)

from conftest import naive_core_series


def test_mul_order_mismatch():
    with pytest.raises(ValueError, match="order mismatch: 3 != 4"):
        verify_identity(core_count_series(3, 3), core_count_series(3, 4))


def test_series_is_immutable():
    s = core_count_series(3, 3)
    assert s.order == 3 and s.coeffs == (1, 1, 2, 0)
    assert list(s) == [1, 1, 2, 0]
    with pytest.raises(AttributeError):
        s.order = 5
    with pytest.raises(AttributeError):
        s.coeffs = (1,)


def test_core_series_t2_support():
    s = core_count_series(2, 10)
    assert [n for n in range(11) if s[n]] == [0, 1, 3, 6, 10]
    assert all(c in (0, 1) for c in s.coeffs)


def test_core_series_t4_small_values():
    s = core_count_series(4, 4)
    assert s[0] == 1 and s[3] == 3 and s[4] == 1


def test_core_series_validation():
    with pytest.raises(ValueError):
        core_count_series(1, 10)
    with pytest.raises(ValueError):
        core_count_series(4, -1)


def test_triangular_indicator():
    s = triangular_indicator_series(10)
    assert [n for n in range(11) if s[n]] == [0, 1, 3, 6, 10]
    assert s[5] == 0 and s[0] == 1


def test_triple_series_small_values():
    s = triple_triangular_series(10)
    assert s[0] == 1
    # triples for 3: (2,0,0), (1,1,0), (1,0,1)
    assert s[3] == 3


def test_identity_2core():
    ok, idx = verify_identity(core_count_series(2, 50), triangular_indicator_series(50))
    assert ok and idx is None


def test_identity_4core_triple():
    ok, idx = verify_identity(core_count_series(4, 100), triple_triangular_series(100))
    assert ok and idx is None


def test_identity_4core_triple_to_5000():
    ok, idx = verify_identity(core_count_series(4, 5000), triple_triangular_series(5000))
    assert ok and idx is None


def test_identity_mismatch_reports_first_index():
    ok, idx = verify_identity(triangular_indicator_series(10), core_count_series(3, 10))
    assert not ok and idx == 2  # two 3-cores of 2, indicator gives 0


def test_coefficients_match_enumeration():
    for t in range(2, 8):
        s = core_count_series(t, 30)
        for n in range(31):
            assert s[n] == count_t_cores(n, t), (t, n)


@pytest.mark.parametrize("t", range(2, 13))
def test_core_series_matches_product_expansion(t):
    # the product multiplied out as polynomials, so t > 7 is covered too
    assert list(core_count_series(t, 300).coeffs) == naive_core_series(t, 300)


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_core_series_matches_abacus_through_2000(t):
    sizes = Counter(map(itemgetter(0), _abacus._each_core(_abacus.core_runs(t, 1, 0, 2000))))
    assert list(core_count_series(t, 2000).coeffs) == [sizes[n] for n in range(2001)]


@pytest.mark.parametrize("t,n,cores", [(6, 300, 1749), (7, 200, 6375), (8, 150, 13229), (9, 120, 26210)])
def test_core_series_matches_abacus_at_one_size(t, n, cores):
    assert core_count_series(t, n)[n] == cores
    assert sum(1 for _ in _abacus._each_core(_abacus.core_runs(t, 1, n, n))) == cores


@pytest.mark.parametrize("t", [41, 100])
def test_core_series_above_order_counts_partitions(t):
    # no partition of n <= 40 has a hook of length t > 40
    counts = [sum(1 for _ in iter_partition_parts(n)) for n in range(41)]
    assert list(core_count_series(t, 40).coeffs) == counts


def test_coefficients_nonnegative():
    for t in range(2, 8):
        assert all(c >= 0 for c in core_count_series(t, 200).coeffs)


@pytest.mark.parametrize("t", [2, 3, 5, 7])
def test_truncation_coherence(t):
    long = core_count_series(t, 120)
    for m in (0, 1, 17, 119):
        assert long.coeffs[: m + 1] == core_count_series(t, m).coeffs

