import hashlib
import re
from math import isqrt, prod

import pytest

from corehooks.quadform import (
    _PRIMES_3_MOD_4,
    _SCREEN_BOUND,
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


def test_search_exhausts_an_x_that_passes_both_screens():
    # some answers come after an x that both screens let through (half
    # 2 mod 8, no prime 3 mod 4 below 500 dividing it once): the z search
    # ran over its whole range there and found no pair, and a listing of
    # the odd pairs confirms there is none
    exhausted = []
    for h in range(2, 151):
        target = (2 * h + 1) ** 2 + 4
        halves = ((x, (target - x * x) // 2) for x in range(1, isqrt(target) + 1, 2))
        x, half = next(
            (x, half) for x, half in halves if half % 8 == 2 and not _not_two_squares(half)
        )
        if odd_representation(h).x != x:
            odd_pairs = [
                (y, z)
                for y in range(1, isqrt(half // 2) + 1, 2)
                for z in range(y, isqrt(half) + 1, 2)
                if y * y + z * z == half
            ]
            assert odd_pairs == [], h
            exhausted.append(h)
    assert exhausted == [133, 142]


def test_screen_is_the_product_of_the_primes_3_mod_4_below_its_bound():
    # the primes below _SCREEN_BOUND by a sieve of Eratosthenes
    assert _SCREEN_BOUND == 500
    sieve = bytearray([1]) * _SCREEN_BOUND
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(_SCREEN_BOUND - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, _SCREEN_BOUND, p)))
    primes = [p for p in range(_SCREEN_BOUND) if sieve[p] and p % 4 == 3]
    assert primes[:8] == [3, 7, 11, 19, 23, 31, 43, 47] and primes[-1] == 499
    assert _PRIMES_3_MOD_4 == prod(primes)


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
    with pytest.raises(AttributeError):
        odd_representation(2).x = 5
    with pytest.raises(ValueError, match="not a representation"):
        odd_representation(2)._replace(x=5)


@pytest.mark.parametrize(
    "fields,message",
    [
        # 3^2 + 2 + 2 = 13 = 3^2 + 4 holds, but h = 1 is below the bound
        ((1, 3, 1, 1, 1, 0, 0), "h must be at least 2, got 1"),
        # (-3)^2 + 2 + 2 * 3^2 = 29 = 5^2 + 4 holds, but x is negative
        ((2, -3, 1, 3, -2, 0, 1), "x must be a positive odd integer, got -3"),
    ],
)
def test_odd_representation_names_the_failed_bound(fields, message):
    with pytest.raises(ValueError) as exc:
        OddRepresentation(*fields)
    assert str(exc.value) == message


# (fields, message) of each check of OddRepresentation, in the order it
# runs them; the triangular identity follows from the checks before it
FAILED_CHECKS = [
    # 3^2 + 2 + 2 = 13 = 3^2 + 4 holds, but h = 1 is below the bound
    ((1, 3, 1, 1, 1, 0, 0), "h must be at least 2, got 1"),
    ((2, 3, 1, 5, 1, 0, 2),
     "not a representation of 29: OddRepresentation(h=2, x=3, y=1, z=5, m=1, r=0, s=2)"),
    # (-3)^2 + 2 + 2 * 3^2 = 29 = 5^2 + 4 and so on: the sums hold
    ((2, -3, 1, 3, -2, 0, 1), "x must be a positive odd integer, got -3"),
    ((2, 3, -1, 3, 1, -1, 1), "y must be a positive odd integer, got -1"),
    ((2, 3, 1, -3, 1, 0, -2), "z must be a positive odd integer, got -3"),
    ((2, 3, 1, 3, 0, 0, 1),
     "(m, r, s) do not match (x, y, z): OddRepresentation(h=2, x=3, y=1, z=3, m=0, r=0, s=1)"),
]


@pytest.mark.parametrize("fields,message", FAILED_CHECKS, ids=["h", "sum", "x", "y", "z", "mrs"])
def test_odd_representation_messages(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        OddRepresentation(*fields)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        OddRepresentation._make(fields)
    names = OddRepresentation._fields
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        odd_representation(2)._replace(**dict(zip(names, fields)))


def test_make_and_replace_build_checked_records():
    r = odd_representation(2)
    assert OddRepresentation._make(tuple(r)) == r == (2, 3, 1, 3, 1, 0, 1)
    assert type(OddRepresentation._make(r)) is OddRepresentation
    # 3^2 + 2 * 1 + 2 * 3^2 = 29, and 5^2 + 2 * 1 + 2 * 1 = 29 as well
    assert r._replace(x=5, z=1, m=2, s=0) == (2, 5, 1, 1, 2, 0, 0)


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
