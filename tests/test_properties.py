"""Property tests on random candidates with a4 <= 60: the short-circuit
predicates agree with the full reports and with their definitions, and the
classification does not depend on the order of the input.  The shaped
chunk loop's singleton masks never drop what the definition admits."""

import numpy as np
from definition import singleton
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wcidp.classifier import Candidate, classify, del_pezzo_quick
from wcidp.cli import _load_sporadic_asset
from wcidp.enumerator import _prefix_singletons, degree_shapes
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


@st.composite
def prefix_batches(draw):
    """A few sorted (a0, a1, a2, a3) prefixes and candidate columns
    (column, a4, d1, d2) on them, with a4 >= a3 and arbitrary degrees, then
    the column of zeros the shaped chunk loop fills a batch up with."""
    prefixes = draw(st.lists(st.lists(st.integers(1, 30), min_size=4, max_size=4).map(sorted),
                             min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(st.integers(0, len(prefixes) - 1), st.integers(0, 30),
                                   st.integers(0, 90), st.integers(0, 90)), max_size=12))
    return prefixes, [(j, prefixes[j][3] + up, d1, d2) for j, up, d1, d2 in rows] + [(0, 0, 0, 0)]


@FIXED
@given(prefix_batches())
# a4 = 8 is congruent to d1 = 5 modulo a0 = 3, but exceeds it: no hit.
@example(([[3, 3, 3, 4]], [(0, 8, 5, 10), (0, 0, 0, 0)]))
def test_prefix_singleton_masks_never_drop_what_the_definition_admits(batch):
    # The masks test a_e <= d only for a4 at d1.  So they equal the condition
    # where d1 > a3 and d2 >= a4, as on every shaped candidate; elsewhere
    # they may keep more than it admits, never less.
    prefixes, rows = batch
    p, c = np.array(prefixes).T, np.array(rows, dtype=np.int32).T
    for i in range(4):
        keep = _prefix_singletons(p, c, np.ones(len(rows), dtype=bool), (i,))
        for (j, a4, d1, d2), kept in zip(rows, keep.tolist()):
            a = (*prefixes[j], a4)
            admitted = singleton(a, d1, d2, i)
            assert kept == admitted if d1 > a[3] and d2 >= a4 else kept or not admitted, (a, d1, d2, i)
