"""Property tests on random candidates with a4 <= 60: the short-circuit
predicates agree with the full reports and with their definitions, and the
classification does not depend on the order of the input."""

from definition import singleton
from hypothesis import given, settings
from hypothesis import strategies as st

from wcidp.classifier import Candidate, classify, del_pezzo_quick
from wcidp.cli import _load_sporadic_asset
from wcidp.enumerator import degree_shapes
from wcidp.quasismooth import _singleton_ok
from wcidp.wellformed import check_wf, is_well_formed

# Derandomized, so every run draws the same examples.
FIXED = settings(derandomize=True, max_examples=400, deadline=None)

MAX_A4 = 60
GOLDEN = [row for row in _load_sporadic_asset(None) if row[4] <= MAX_A4]


@st.composite
def candidates(draw):
    """(weights, d1, d2): a golden row, or random weights with either a
    degree pattern of the shaped search or arbitrary degrees."""
    kind = draw(st.sampled_from(("golden", "pattern", "any")))
    if kind == "golden":
        row = draw(st.sampled_from(GOLDEN))
        return row[:5], row[5], row[6]
    a = tuple(sorted(draw(st.lists(st.integers(1, MAX_A4), min_size=5, max_size=5))))
    if kind == "pattern":
        d1, d2 = draw(st.sampled_from(degree_shapes(a)))
    else:
        d1 = draw(st.integers(1, 2 * a[4]))
        d2 = draw(st.integers(d1, 2 * a[4]))
    return a, d1, d2


@FIXED
@given(candidates())
def test_quick_verdict_equals_full_classification(case):
    a, d1, d2 = case
    assert del_pezzo_quick(a, d1, d2) == classify(Candidate(a, d1, d2)).is_del_pezzo


@FIXED
@given(candidates())
def test_well_formed_boolean_equals_report(case):
    a, d1, d2 = case
    assert is_well_formed(a, d1, d2) == check_wf(Candidate(a, d1, d2)).passed


@FIXED
@given(candidates())
def test_singleton_predicate_equals_its_definition(case):
    a, d1, d2 = case
    for i in range(5):
        assert _singleton_ok(a, d1, d2, i) == singleton(a, d1, d2, i), (a, d1, d2, i)


@FIXED
@given(candidates(), st.data())
def test_classification_ignores_input_order(case, data):
    a, d1, d2 = case
    shuffled = data.draw(st.permutations(a))
    canonical = classify(Candidate(a, d1, d2)).as_dict()
    assert classify(Candidate(shuffled, d2, d1)).as_dict() == canonical, (a, shuffled, d1, d2)
