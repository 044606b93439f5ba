"""Membership substrate, held against independent brute-force oracles."""

import random

import pytest
from definition import span
from hypothesis import given, settings
from hypothesis import strategies as st

from wcidp import semigroup
from wcidp.semigroup import contains, member


def test_contains_examples():
    assert contains((3, 5), 7) is False
    assert contains((3, 5), 0) is True
    assert contains((2,), 7) is False
    assert contains((1, 4), 10) is True


def test_contains_rejects_negative_values():
    assert contains((3, 5), -1) is False
    assert contains((1,), -100) is False


def test_contains_validates_generators():
    with pytest.raises(ValueError):
        contains((), 3)
    with pytest.raises(ValueError):
        contains((1, 2, 3, 4, 5, 6), 3)
    with pytest.raises(ValueError):
        contains((0, 3), 3)
    # Like WeightSystem, only ints count, and a bool is not one.
    for gens, value in [((3, 5), 7.5), ((3, 5, 7), 2.0), ((3, 5), True),
                        ((3.0, 5), 8), ((3, True), 4), (("3", 5), 8)]:
        with pytest.raises(ValueError):
            contains(gens, value)


def test_contains_agrees_with_dp_oracle_pairs_to_5000():
    for gens in [(3, 5), (4, 9), (7, 11), (2, 9), (6, 10), (17, 23)]:
        for v in range(5001):
            assert contains(gens, v) == span(gens, v), (gens, v)


def test_contains_agrees_with_dp_oracle_random_sets():
    rng = random.Random(485144)
    for _ in range(60):
        k = rng.randint(1, 5)
        gens = tuple(rng.randint(1, 40) for _ in range(k))
        limit = 400 if k >= 4 else 1200
        for v in range(limit + 1):
            assert contains(gens, v) == span(gens, v), (gens, v)


def test_bitmap_member_agrees_with_dp_oracle():
    rng = random.Random(91)
    for _ in range(80):
        k = rng.randint(1, 4)
        gens = tuple(rng.randint(1, 30) for _ in range(k))
        test = member(gens, 200)
        for v in range(-3, 200):
            assert test(v) == span(gens, v), (gens, v)


def test_member_answers_beyond_its_limit():
    # The limit only sizes the bitmap; values above it, below and above the
    # Schur cap, are still decided exactly.  Out of order, (2, 11, 4) still
    # caps at 2 * 11: 9 is not a member.
    for gens in [(5, 7, 9), (6, 10, 15), (4, 6), (11, 13, 17, 19), (12, 20, 30), (2, 11, 4)]:
        test = member(gens, 10)
        for v in range(-40, 601):
            assert test(v) == span(gens, v), (gens, v)


def test_member_pair_closed_form_agrees_with_dp_oracle():
    # Every ordered pair up to 40, coprime or not, equal or not.
    for p in range(1, 41):
        for q in range(1, 41):
            test = member((p, q), 3 * 40)
            for v in range(-2 * q, 3 * 40 + 1):
                assert test(v) == span((p, q), v), (p, q, v)


def test_member_bitmap_is_capped_by_the_weights(monkeypatch):
    real = semigroup.reachable_bitmap
    limits = []

    def spy(generators, limit):
        limits.append(limit)
        return real(generators, limit)

    monkeypatch.setattr(semigroup, "reachable_bitmap", spy)
    test = member((5, 7, 9), 10**9)
    assert limits == [5 * 9 - 1]
    assert test(10**9) and test(10**9 + 1) and not test(11)
    # A gcd of 3 leaves <2, 5, 7>, whose cap is 14.
    test = member((6, 15, 21), 10**9)
    assert limits[1:] == [2 * 7 - 1]
    assert test(3 * 10**8) and not test(3 * 10**8 + 1) and not test(9)
    # A reduced generator 1, and two generators, need no bitmap at all.
    member((3, 6, 9), 10**9)
    member((7, 9), 10**9)
    assert len(limits) == 2


def test_contains_never_builds_a_bitmap_proportional_to_the_value(monkeypatch):
    real = semigroup.reachable_bitmap

    def spy(generators, limit):
        if limit > 1024:
            raise AssertionError(f"bitmap of {limit} bits requested")
        return real(generators, limit)

    monkeypatch.setattr(semigroup, "reachable_bitmap", spy)
    assert contains((3, 5), 10**12) is True
    assert contains((6, 10, 15), 10**12 + 1) is True
    assert contains((4, 6), 10**12 + 1) is False
    # Values below the reduced Schur bound still go through the bitmap.
    assert contains((6, 10), 14) is False
    assert contains((6, 10), 16) is True


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 30), min_size=1, max_size=4),
    st.integers(1, 30),
    st.integers(0, 150),
)
def test_contains_monotone_under_generator_extension(gens, extra, v):
    if contains(gens, v):
        assert contains(tuple(gens) + (extra,), v)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 50), st.integers(-20, 400))
def test_single_generator_membership_is_divisibility(g, v):
    assert contains((g,), v) == (v >= 0 and v % g == 0)
