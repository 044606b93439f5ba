"""Combined verdict: canonicalization, invariants, fast-path agreement."""

import random
from collections import Counter

import pytest

from wcidp import classifier, quasismooth
from wcidp.classifier import (
    Candidate,
    WeightSystem,
    amplitude,
    classify,
    del_pezzo_quick,
    is_linear_cone,
)


def test_amplitude_examples():
    assert amplitude(Candidate.of(3, 4, 5, 6, 7, 10, 12)) == 3
    assert amplitude(Candidate.of(1, 1, 1, 1, 1, 2, 2)) == 1
    assert amplitude(Candidate.of(1, 1, 2, 2, 3, 4, 4)) == 1
    assert amplitude(Candidate.of(1, 1, 1, 1, 1, 9, 9)) == -13


def test_linear_cone_examples():
    assert is_linear_cone(Candidate.of(1, 1, 1, 1, 2, 2, 3)) is True
    assert is_linear_cone(Candidate.of(1, 1, 1, 1, 1, 2, 2)) is False
    assert is_linear_cone(Candidate.of(2, 2, 3, 3, 3, 6, 6)) is False


def test_classify_examples():
    assert classify(Candidate.of(3, 4, 5, 6, 7, 10, 12)).is_del_pezzo is True
    cone = classify(Candidate.of(1, 1, 1, 1, 2, 2, 3))
    assert cone.is_linear_cone and not cone.is_del_pezzo
    bad_wf = classify(Candidate.of(1, 2, 2, 5, 5, 6, 7))
    assert not bad_wf.wf.passed and not bad_wf.is_del_pezzo


def test_verdict_flag_matches_components():
    rng = random.Random(5)
    for _ in range(400):
        c = Candidate(
            tuple(rng.randint(1, 9) for _ in range(5)),
            rng.randint(1, 24),
            rng.randint(1, 24),
        )
        v = classify(c)
        expected = (not v.is_linear_cone) and v.wf.passed and v.qs.passed and v.amplitude >= 1
        assert v.is_del_pezzo == expected


def test_classify_is_pure():
    c = Candidate.of(2, 3, 4, 5, 5, 8, 10)
    assert classify(c) == classify(c)


def test_quick_path_agrees_with_classify():
    rng = random.Random(6)
    for _ in range(600):
        c = Candidate(
            tuple(rng.randint(1, 10) for _ in range(5)),
            rng.randint(1, 28),
            rng.randint(1, 28),
        )
        assert del_pezzo_quick(c.weights.a, c.d1, c.d2) == classify(c).is_del_pezzo


def test_constructor_canonicalizes_raw_input():
    c = Candidate((5, 3, 4, 7, 6), 12, 10)
    assert c.weights.a == (3, 4, 5, 6, 7)
    assert (c.d1, c.d2) == (10, 12)
    assert c.key == (3, 4, 5, 6, 7, 10, 12)


def test_degenerate_inputs_are_constructor_errors():
    with pytest.raises(ValueError):
        WeightSystem((0, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        WeightSystem((1, 1, 1, 1))
    with pytest.raises(ValueError):
        Candidate((1, 1, 1, 1, 1), 0, 2)
    with pytest.raises(ValueError):
        Candidate((1, 1, 1, 1, 1), 2, -3)
    with pytest.raises(ValueError):
        Candidate.of(1, 1, 1, 1, 1, 2)
    # bool is an int subclass but not an integer input.
    with pytest.raises(ValueError):
        Candidate.of(True, 1, 1, 1, 1, 2, 2)
    with pytest.raises(ValueError):
        Candidate((1, 1, 1, 1, 1), True, 2)
    with pytest.raises(ValueError):
        WeightSystem((1, 1, 1, 1, True))
    # Values that are not integers are refused before sorting could raise
    # TypeError on them.
    with pytest.raises(ValueError):
        WeightSystem([1, 2, 3, 4, "5"])
    with pytest.raises(ValueError):
        WeightSystem([1, 2, 3, 4, None])


def test_weight_system_is_iterable_and_indexable():
    w = WeightSystem((2, 1, 5, 4, 3))
    assert list(w) == [1, 2, 3, 4, 5]
    assert w[4] == 5


def test_predicates_are_looked_up_through_module_globals(monkeypatch):
    # Per-layer tracing replaces these module attributes with counting
    # wrappers, so every call must go through the module's globals:
    # ``classify`` through ``quasismooth``'s, ``del_pezzo_quick`` through
    # ``classifier``'s copies.
    calls = Counter()
    for module in (quasismooth, classifier):
        for name in ("_singleton_ok", "_pair_ok", "_triple_ok"):
            def counting(*args, _key=(module.__name__, name), _real=getattr(module, name)):
                calls[_key] += 1
                return _real(*args)
            monkeypatch.setattr(module, name, counting)

    def counts(module):
        return tuple(calls[module.__name__, name]
                     for name in ("_singleton_ok", "_pair_ok", "_triple_ok"))

    # (3, 4, 5, 6, 7; 10, 12) passes every condition, so nothing short-circuits.
    assert classify(Candidate.of(3, 4, 5, 6, 7, 10, 12)).is_del_pezzo
    assert counts(quasismooth) == (5, 10, 10) and counts(classifier) == (0, 0, 0)
    calls.clear()
    assert del_pezzo_quick((3, 4, 5, 6, 7), 10, 12)
    assert counts(classifier) == (5, 10, 10) and counts(quasismooth) == (0, 0, 0)
