import hashlib
from math import isqrt

import pytest

from corehooks.quadform import (
    OddRepresentation,
    _not_two_squares,
    check_triangular_4core_pair,
    is_dickson_excluded,
    odd_representation,
    representable_flags,
)


def test_dickson_exclusion_fixtures():
    assert is_dickson_excluded(7)
    assert is_dickson_excluded(28)
    assert not is_dickson_excluded(29)
    assert is_dickson_excluded(112)  # 16 * 7
    assert not is_dickson_excluded(1)
    with pytest.raises(ValueError):
        is_dickson_excluded(0)


def test_representation_absence_matches_exclusion():
    flags = representable_flags(2000)
    for n in range(1, 2001):
        assert flags[n] == (not is_dickson_excluded(n)), n


def test_parity_of_shifted_odd_squares():
    for h in range(2, 1001):
        assert ((2 * h + 1) ** 2 + 4) % 8 == 5
        assert not is_dickson_excluded((2 * h + 1) ** 2 + 4)


def test_odd_representation_fixture():
    r = odd_representation(2)
    assert (r.x, r.y, r.z) == (3, 1, 3)
    assert (r.m, r.r, r.s) == (1, 0, 1)
    # h(h+1)/2 = 3 = 1 + 0 + 2
    assert r.h * (r.h + 1) // 2 == 3

    r3 = odd_representation(3)
    assert r3.x % 2 == r3.y % 2 == r3.z % 2 == 1
    assert r3.x**2 + 2 * r3.y**2 + 2 * r3.z**2 == 53


def _lex_smallest_all_odd(h):
    target = (2 * h + 1) ** 2 + 4
    for x in range(1, target, 2):
        for y in range(1, target, 2):
            rest = target - x * x - 2 * y * y
            if rest < 0:
                break
            for z in range(1, target, 2):
                if 2 * z * z >= rest:
                    if 2 * z * z == rest:
                        return x, y, z
                    break


def test_odd_representation_is_lex_smallest():
    for h in range(2, 151):
        r = odd_representation(h)
        assert (r.x, r.y, r.z) == _lex_smallest_all_odd(h), h


def test_odd_representations_pinned_through_6000():
    # SHA-256 of the lines "h,x,y,z" for h = 2..6000, recorded before the
    # odd squares became a shared table and x was screened mod 8
    text = "".join(
        f"{h},{r.x},{r.y},{r.z}\n" for h in range(2, 6001) for r in [odd_representation(h)]
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "827e7b9075614e4bd59dfa7ec54d77419cdbb4de4ab662d624fc5fa3f3fa5afc"
    )


def test_prime_rule_skips_only_halves_with_no_odd_pair():
    # every half = 2 mod 8 below 3 * 10^5 that the rule skips is no sum
    # y^2 + z^2 of odd y <= z, by listing every such sum
    limit = 3 * 10**5
    odd_pair_sums = {
        y * y + z * z
        for y in range(1, isqrt(limit // 2) + 1, 2)
        for z in range(y, isqrt(limit - y * y) + 1, 2)
    }
    skipped = [half for half in range(2, limit, 8) if _not_two_squares(half)]
    assert skipped and not odd_pair_sums.intersection(skipped)
    # 3 and 7 divide 42 once; 3^2 | 18 = 9 + 9 and 7^2 | 98 = 49 + 49
    assert _not_two_squares(42) and not _not_two_squares(18) and not _not_two_squares(98)


def test_odd_representation_validation():
    with pytest.raises(ValueError):
        odd_representation(1)
    with pytest.raises(ValueError):
        OddRepresentation(h=2, x=3, y=1, z=5, m=1, r=0, s=2)  # wrong sum
    with pytest.raises(ValueError):
        OddRepresentation(h=2, x=3, y=1, z=3, m=0, r=0, s=1)  # m mismatch


def test_odd_forcing_on_all_representations():
    # for numbers 5 mod 8, any representation has x odd and y, z odd
    for N in range(5, 5001, 8):
        found = 0
        for x in range(0, int(N**0.5) + 1):
            rest = N - x * x
            if rest % 2:
                continue
            half = rest // 2
            for y in range(0, int(half**0.5) + 1):
                z2 = half - y * y
                z = int(z2**0.5)
                while z * z < z2:
                    z += 1
                if z * z == z2:
                    assert x % 2 == 1
                    assert (y * y + z * z) % 4 == 2
                    assert y % 2 == 1 and z % 2 == 1
                    found += 1
        assert found, N


def test_two_4cores_at_triangular_numbers():
    ok, failures = check_triangular_4core_pair(30)
    assert ok, failures
    with pytest.raises(ValueError):
        check_triangular_4core_pair(1)
