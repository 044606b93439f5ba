"""Membership conditions: golden examples, brute-force oracles, branch reading."""

import random
from itertools import combinations

import pytest
from definition import pair_branches, singleton, triple

from wcidp.classifier import Candidate
from wcidp.quasismooth import (
    check_qs,
    degrees_in_span,
    qs_pair,
    qs_singleton,
    qs_triple,
)


def oracle_sweep_cases(seed, count):
    """Weights up to 30, two in three of them sharing a factor 2 or 3, and
    degrees up to 2*a4 + 5, so shifts d - a_e also go negative."""
    rng = random.Random(seed)
    for n in range(count):
        scale = (1, 2, 3)[n % 3]
        a = tuple(sorted(scale * rng.randint(1, 30 // scale) for _ in range(5)))
        d1 = rng.randint(1, 2 * a[4] + 5)
        d2 = rng.randint(d1, 2 * a[4] + 5)
        yield a, d1, d2


def test_singleton_examples():
    assert qs_singleton(Candidate.of(1, 1, 1, 1, 3, 2, 4), 4) is False
    assert qs_singleton(Candidate.of(1, 1, 1, 1, 1, 2, 2), 0) is True
    assert qs_singleton(Candidate.of(3, 4, 5, 6, 7, 10, 12), 2) is True


def test_singleton_index_validation():
    c = Candidate.of(1, 1, 1, 1, 1, 2, 2)
    for i in (5, -1, True, 1.5, "1", None):
        with pytest.raises(ValueError):
            qs_singleton(c, i)


def test_singleton_agrees_with_pairwise_oracle():
    rng = random.Random(2025)
    for _ in range(500):
        a = tuple(sorted(rng.randint(1, 9) for _ in range(5)))
        d1 = rng.randint(1, 25)
        d2 = rng.randint(d1, 30)
        c = Candidate(a, d1, d2)
        for i in range(5):
            assert qs_singleton(c, i) == singleton(a, d1, d2, i), (a, d1, d2, i)


def test_pair_examples():
    assert qs_pair(Candidate.of(1, 2, 3, 3, 5, 6, 7), 3, 4) is True
    assert qs_pair(Candidate.of(1, 1, 1, 1, 1, 2, 2), 0, 3) is True
    assert qs_pair(Candidate.of(1, 2, 2, 3, 3, 4, 6), 0, 1) is True


def test_pair_index_validation():
    c = Candidate.of(1, 1, 1, 1, 1, 2, 2)
    with pytest.raises(ValueError):
        qs_pair(c, 2, 2)
    with pytest.raises(ValueError):
        qs_pair(c, 0, 7)
    for i, j in [(0, 1.0), (False, 1), ("0", 1)]:
        with pytest.raises(ValueError):
            qs_pair(c, i, j)


def test_pair_agrees_with_nine_subset_enumeration():
    rng = random.Random(40917)
    for _ in range(400):
        a = tuple(sorted(rng.randint(1, 8) for _ in range(5)))
        d1 = rng.randint(1, 22)
        d2 = rng.randint(d1, 26)
        c = Candidate(a, d1, d2)
        for i, j in combinations(range(5), 2):
            assert qs_pair(c, i, j) == any(pair_branches(a, d1, d2, i, j)), (a, d1, d2, i, j)


def test_pair_agrees_with_dp_oracle_on_wide_weights():
    for a, d1, d2 in oracle_sweep_cases(7703, 1500):
        c = Candidate(a, d1, d2)
        for i, j in combinations(range(5), 2):
            assert qs_pair(c, i, j) == any(pair_branches(a, d1, d2, i, j)), (a, d1, d2, i, j)


def test_triple_agrees_with_dp_oracle_on_wide_weights():
    for a, d1, d2 in oracle_sweep_cases(3307, 1500):
        c = Candidate(a, d1, d2)
        for k, l, m in combinations(range(5), 3):
            assert qs_triple(c, k, l, m) == triple(a, d1, d2, k, l, m), (a, d1, d2, k, l, m)


def test_triple_examples():
    assert qs_triple(Candidate.of(1, 1, 1, 1, 1, 2, 2), 0, 1, 2) is True
    assert qs_triple(Candidate.of(3, 4, 5, 6, 7, 10, 12), 0, 1, 2) is True
    assert qs_triple(Candidate.of(2, 3, 4, 5, 5, 8, 10), 2, 3, 4) is True


def test_triple_index_validation():
    c = Candidate.of(1, 1, 1, 1, 1, 2, 2)
    with pytest.raises(ValueError):
        qs_triple(c, 1, 1, 2)
    for k, l, m in [(0, 1, "2"), (0, True, 2), (0.0, 1, 2)]:
        with pytest.raises(ValueError):
            qs_triple(c, k, l, m)


def test_full_report_examples():
    assert check_qs(Candidate.of(1, 2, 2, 3, 3, 4, 6)).passed
    assert check_qs(Candidate.of(1, 1, 2, 2, 3, 4, 4)).passed
    report = check_qs(Candidate.of(1, 1, 1, 1, 3, 2, 4))
    assert not report.passed
    assert any(v.level == "singleton" and v.indices == (4,) for v in report.violations)


def test_report_lists_every_failing_subset():
    report = check_qs(Candidate.of(1, 1, 1, 1, 3, 2, 4))
    failing = {(v.level, v.indices) for v in report.violations}
    # Every subset containing index 4 can still pass via other branches, so
    # just check the report against per-subset calls.
    c = Candidate.of(1, 1, 1, 1, 3, 2, 4)
    for i in range(5):
        assert (("singleton", (i,)) in failing) == (not qs_singleton(c, i))
    for i, j in combinations(range(5), 2):
        assert (("pair", (i, j)) in failing) == (not qs_pair(c, i, j))
    for k, l, m in combinations(range(5), 3):
        assert (("triple", (k, l, m)) in failing) == (not qs_triple(c, k, l, m))


def test_degree_span_note_is_advisory_only():
    c = Candidate.of(2, 2, 3, 3, 3, 6, 6)
    assert degrees_in_span(c) is True
    # A passing candidate may still have a degree outside the weight span;
    # the note must not affect the quasi-smoothness verdict.
    assert check_qs(c).passed
