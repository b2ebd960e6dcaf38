from collections import Counter

import pytest
from hypothesis import given

from corehooks.partition import Cell, Partition, conjugate_parts, hook_lengths_of

from conftest import naive_hook, naive_hooks, partition_parts


def test_construction_and_text_form():
    p = Partition((6, 3, 2, 1))
    assert p.n == 12
    assert str(p) == "[6,3,2,1]"
    assert Partition.from_text("[6,3,2,1]") == p
    assert Partition.from_text("[]") == Partition(())
    assert str(Partition(())) == "[]"
    assert Partition.from_text(" [ 6 , 3 , 2 , 1 ] ") == p


# int() alone would take "1_0" as 10 and the full-width "３" as 3
@pytest.mark.parametrize("bad", ["6,3", "[6,3", "[a]", "[3.5]", "", "[1_0]", "[３]"])
def test_from_text_rejects_garbage(bad):
    with pytest.raises(ValueError):
        Partition.from_text(bad)


def test_construction_rejects_bad_parts():
    with pytest.raises(ValueError):
        Partition((3, 4))
    with pytest.raises(ValueError):
        Partition((3, 0))
    with pytest.raises(ValueError):
        Partition((-1,))


def test_conjugate_fixtures():
    assert Partition((3, 2, 1)).conjugate() == Partition((3, 2, 1))
    # transpose of the 4-core example diagram, read off by hand
    assert Partition((6, 3, 2, 1)).conjugate() == Partition((4, 3, 2, 1, 1, 1))
    assert Partition(()).conjugate() == Partition(())


def test_hook_length_fixtures():
    p = Partition((6, 3, 2, 1))
    # first row of the hook diagram reads 9 7 5 3 2 1
    assert [p.hook_length((1, j)) for j in range(1, 7)] == [9, 7, 5, 3, 2, 1]
    assert p.hook_length((2, 2)) == 3
    assert Partition((1,)).hook_length((1, 1)) == 1
    # the printed diagram's third row disagrees with direct counting;
    # the formula value 3,1 is what both computation routes give
    assert [p.hook_length((3, j)) for j in (1, 2)] == [3, 1]


def test_hook_length_invalid_cell_names_cell():
    p = Partition((2, 1))
    with pytest.raises(ValueError, match=r"\(1, 3\)"):
        p.hook_length((1, 3))
    with pytest.raises(ValueError, match=r"\(3, 1\)"):
        p.hook_length(Cell(3, 1))


def test_hook_profile_fixtures():
    assert Partition((2, 1)).hook_profile() == Counter({1: 2, 3: 1})
    assert Partition(()).hook_profile() == Counter()
    prof = Partition((6, 3, 2, 1)).hook_profile()
    assert prof[9] == 1
    assert sum(prof.values()) == 12


def test_is_t_core_fixtures():
    assert Partition((6, 3, 2, 1)).is_t_core(4)
    assert Partition((2, 2)).is_t_core(4)
    assert not Partition((4,)).is_t_core(4)
    with pytest.raises(ValueError):
        Partition((1,)).is_t_core(1)


def test_has_exact_hook_fixtures():
    assert Partition((2, 2)).has_exact_hook(3)
    assert not Partition((1,)).has_exact_hook(2)
    assert not Partition((6, 3, 2, 1)).has_exact_hook(4)
    with pytest.raises(ValueError):
        Partition((1,)).has_exact_hook(0)


def test_region_fixtures():
    p = Partition((6, 4, 2, 1))
    assert len(p.region((1, 1))) == 13
    assert p.region((1, 1)) == set(p.cells())
    assert Partition((3, 1)).region((1, 3)) == {Cell(1, 3)}
    assert Partition((4, 1, 1)).region((1, 2)) == {Cell(1, 2), Cell(1, 3), Cell(1, 4)}
    with pytest.raises(ValueError, match=r"\(5, 1\)"):
        p.region((5, 1))


def test_multiplicity_view():
    assert Partition((5, 3, 3, 1)).multiplicity_view() == [(5, 1), (3, 2), (1, 1)]
    assert Partition(()).multiplicity_view() == []


@given(partition_parts())
def test_conjugate_is_involution(parts):
    p = Partition(parts)
    assert p.conjugate().conjugate() == p
    assert p.conjugate().n == p.n


@given(partition_parts())
def test_conjugation_preserves_hook_profile(parts):
    p = Partition(parts)
    assert p.hook_profile() == p.conjugate().hook_profile()


@given(partition_parts(max_n=25, max_len=8))
def test_hook_lengths_match_direct_count(parts):
    assert sorted(hook_lengths_of(parts)) == sorted(naive_hooks(parts))


@given(partition_parts())
def test_profile_counts_every_box_once(parts):
    p = Partition(parts)
    assert sum(p.hook_profile().values()) == p.n


@given(partition_parts(max_n=12, max_len=6))
def test_multiplicity_view_reconstructs(parts):
    p = Partition(parts)
    rebuilt = []
    for value, mult in p.multiplicity_view():
        rebuilt.extend([value] * mult)
    assert tuple(rebuilt) == p.parts
    values = [v for v, _ in p.multiplicity_view()]
    assert values == sorted(set(values), reverse=True)


@given(partition_parts(max_n=10, max_len=6))
def test_region_hooks_are_local(parts):
    # hooks inside a region, re-indexed as a diagram of its own, agree
    # with the hooks of the same cells in the full diagram
    p = Partition(parts)
    if p.n == 0:
        return
    for row, col in [(1, 1), (1, parts[0]), (len(parts), 1)]:
        sub_parts = tuple(
            lam - col + 1 for lam in parts[row - 1 :] if lam >= col
        )
        sub = Partition(sub_parts)
        for i in range(1, len(sub_parts) + 1):
            for j in range(1, sub_parts[i - 1] + 1):
                assert sub.hook_length((i, j)) == p.hook_length(
                    (row + i - 1, col + j - 1)
                )


def test_conjugate_parts_helper():
    assert conjugate_parts((6, 3, 2, 1)) == (4, 3, 2, 1, 1, 1)
    assert conjugate_parts(()) == ()


def test_hook_formula_against_direct_count_exhaustive():
    # every cell of every partition of n <= 12, both routes
    from corehooks.generate import iter_partition_parts

    for n in range(13):
        for parts in iter_partition_parts(n):
            p = Partition(parts)
            for i, j in p.cells():
                assert p.hook_length((i, j)) == naive_hook(parts, i, j)


def test_hook_multiset_and_conjugation_exhaustive_to_25():
    from corehooks.generate import iter_partition_parts
    from corehooks.partition import conjugate_parts

    for n in range(26):
        for parts in iter_partition_parts(n):
            flat = hook_lengths_of(parts)
            assert sorted(flat) == sorted(naive_hooks(parts))
            assert sorted(flat) == sorted(hook_lengths_of(conjugate_parts(parts)))
