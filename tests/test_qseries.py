import ast
import inspect
import textwrap
from collections import Counter
from operator import itemgetter

import pytest

from corehooks import _abacus
from corehooks.generate import count_t_cores, iter_partition_parts
from corehooks.qseries import (
    _BLOCK,
    core_count_series,
    triangular_indicator_series,
    triple_triangular_series,
    verify_identity,
)

from conftest import naive_core_series, recurrence_core_series


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


@pytest.mark.parametrize("t", range(2, 14))
def test_blocks_match_the_recurrence_one_n_at_a_time(t):
    # orders at and beside the edges of the first blocks, and one far past
    for order in (0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 1000):
        assert list(core_count_series(t, order)) == recurrence_core_series(t, order), order


def _fixed_near_terms():
    """The signed e of each c[n - e] in the per-n sum of
    core_count_series, + when it is added: read from its source."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(core_count_series)))
    (step,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Subscript)
    ]
    terms = []

    def walk(node, sign):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            walk(node.left, sign)
            walk(node.right, sign if isinstance(node.op, ast.Add) else -sign)
        else:
            assert ast.unparse(node).startswith("c[n - "), ast.unparse(node)
            terms.append(sign * node.slice.right.value)

    walk(step.value, 1)
    return terms


def test_fixed_near_terms_are_the_pentagonal_numbers_below_the_block():
    # k(3k - 1)/2 and k(3k + 1)/2 below _BLOCK, added for odd k, less for even k
    pentagonal = [
        (1 if k % 2 else -1) * e
        for k in range(1, _BLOCK)
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)
        if e < _BLOCK
    ]
    assert sorted(_fixed_near_terms(), key=abs) == pentagonal
    assert pentagonal == [1, 2, -5, -7, 12, 15, -22, -26]
    # orders below, at and beside the largest near term, the block edges
    # and one far past them
    for t in range(2, 14):
        for order in (0, 1, 2, 25, 26, 27, 31, 32, 33, 65, 1000):
            assert list(core_count_series(t, order)) == recurrence_core_series(t, order), (t, order)


def test_blocks_above_order_give_the_partition_numbers():
    # t > order: g is 1 at n = 0 only, so the c_n are the p(n)
    p = recurrence_core_series(2 * _BLOCK + 2, 2 * _BLOCK + 1)
    assert p[:8] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert list(core_count_series(2 * _BLOCK + 2, 2 * _BLOCK + 1)) == p


@pytest.mark.parametrize("t", range(2, 9))
def test_coefficients_match_core_counts_through_60(t):
    s = core_count_series(t, 60)
    assert list(s) == [count_t_cores(n, t) for n in range(61)]


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

