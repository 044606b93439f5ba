"""Property tests on random candidates with a4 <= 60: the short-circuit
predicates agree with the full reports and with their definitions, and the
classification does not depend on the order of the input.  A sweep of small
candidates checks that the short-circuit verdict reads every condition that
rejects a candidate alone.  The shaped chunk loop's singleton masks never
drop what the definition admits, and its generator, on weights up to 500,
never drops a candidate that meets the singleton condition at coordinate
3, nor, by bounding the slopes of its lines, a line that holds a point; it
gives no point for a triple beyond the box."""

from itertools import combinations_with_replacement
from math import gcd
from unittest import mock

import numpy as np
from definition import singleton
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wcidp.classifier import Candidate, classify, del_pezzo_quick
from wcidp.cli import _load_sporadic_asset
from wcidp import enumerator
from wcidp.enumerator import (
    _ABOVE,
    _BETA,
    _C2,
    _K2,
    _M,
    _candidates_fast,
    _candidates_reference,
    _prefix_singletons,
    _residue_classes,
    degree_shapes,
)
from wcidp.quasismooth import _singleton_ok, check_qs
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


def test_quick_verdict_rejects_every_candidate_with_one_violation():
    # del_pezzo_quick reads the report tables in an order of its own.  Each
    # non-cone candidate with amplitude >= 1, weights up to 8 and degrees up
    # to 16 that fails exactly one condition must be rejected by it.  So an
    # order that leaves out one of the subsets or gcd conditions reached
    # here lets a candidate through.
    swept, qs_reached, wf_reached = 0, set(), set()
    for a in combinations_with_replacement(range(1, 9), 5):
        for d1 in range(1, 17):
            for d2 in range(d1, min(16, sum(a) - 1 - d1) + 1):
                if d1 in a or d2 in a:
                    continue
                swept += 1
                c = Candidate(a, d1, d2)
                wf, qs = check_wf(c).violations, check_qs(c).violations
                if len(wf) + len(qs) == 1:
                    wf_reached.update((v.condition, v.omitted) for v in wf)
                    qs_reached.update((v.level, v.indices) for v in qs)
                    assert not del_pezzo_quick(a, d1, d2), (a, d1, d2, wf, qs)
    assert swept == 41_270
    assert (len(qs_reached), len(wf_reached)) == (8, 17)


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
def triple_batches(draw):
    """A few sorted (a0, a1, a2) triples and candidate columns
    (column, a3, a4, d1, d2) on them, with a4 >= a3 >= a2 and arbitrary
    degrees."""
    triples = draw(st.lists(st.lists(st.integers(1, 30), min_size=3, max_size=3).map(sorted),
                            min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(st.integers(0, len(triples) - 1), st.integers(0, 30), st.integers(0, 30),
                                   st.integers(0, 90), st.integers(0, 90)), min_size=1, max_size=12))
    rows = [(j, triples[j][2] + up3, triples[j][2] + up3 + up4, d1, d2) for j, up3, up4, d1, d2 in rows]
    return triples, rows


@FIXED
@given(triple_batches())
# a4 = 8 is congruent to d1 = 5 modulo a0 = 3, but exceeds it: no hit.
@example(([[3, 3, 3]], [(0, 4, 8, 5, 10)]))
def test_prefix_singleton_masks_never_drop_what_the_definition_admits(batch):
    # The masks test a_e <= d only for a4 at d1.  So they equal the condition
    # where d1 > a3 and d2 >= a4, as on every shaped candidate; elsewhere
    # they may keep more than it admits, never less.
    triples, rows = batch
    t, c = np.array(triples).T, np.array(rows, dtype=np.int32).T
    hits = t.astype(np.int32), _residue_classes(t)
    for i in range(3):
        keep = _prefix_singletons(hits, c, np.ones(len(rows), dtype=bool), (i,))
        for (j, a3, a4, d1, d2), kept in zip(rows, keep.tolist()):
            a = (*triples[j], a3, a4)
            admitted = singleton(a, d1, d2, i)
            assert kept == admitted if d1 > a3 and d2 >= a4 else kept or not admitted, (a, d1, d2, i)


@st.composite
def kernel_cases(draw):
    """A box up to (500, 1000) and a sorted triple whose a2 lies within 24
    of the box's a4, so that the plain scan of (a3, a4) stays short."""
    max_a4 = draw(st.integers(1, 500))
    a2 = draw(st.integers(max(1, max_a4 - 24), max_a4))
    a1 = draw(st.integers(1, a2))
    return (draw(st.integers(1, a1)), a1, a2), max_a4, draw(st.integers(2, 1000))


@FIXED
@given(kernel_cases())
def test_generator_keeps_every_candidate_that_meets_singleton_3(case):
    # Each candidate of the plain scan that meets the singleton condition
    # at coordinate 3 is among the kernel's points.
    triple, max_a4, max_d2 = case
    t = np.array(triple)[:, None]
    fast = set()
    for piece in _candidates_fast(t, max_a4, max_d2).slices(4096):
        fast.update(map(tuple, piece.T.tolist()))
    for piece in _candidates_reference(t, max_a4, max_d2).slices(4096):
        for j, a3, a4, d1, d2 in piece.T.tolist():
            if _singleton_ok((*triple, a3, a4), d1, d2, 3):
                assert (j, a3, a4, d1, d2) in fast, (triple, a3, a4, d1, d2, max_a4, max_d2)


@st.composite
def beyond_the_box_cases(draw):
    """A box up to (500, 1000) and a few sorted triples whose a2 lies up to
    5 beyond the box's a4."""
    max_a4 = draw(st.integers(1, 500))
    triple = st.integers(max_a4 + 1, max_a4 + 5).flatmap(
        lambda a2: st.integers(1, a2).flatmap(lambda a1: st.tuples(st.integers(1, a1), st.just(a1), st.just(a2))))
    return draw(st.lists(triple, min_size=1, max_size=4)), max_a4, draw(st.integers(2, 1000))


@FIXED
@given(beyond_the_box_cases())
def test_generators_give_no_point_for_triples_beyond_the_box(case):
    # A triple with a2 > max_a4 has no a3 in the box: neither the kernel's
    # lines and columns nor the plain scan reach a point of it.
    triples, max_a4, max_d2 = case
    t = np.array(triples).T
    for generator in (_candidates_fast, _candidates_reference):
        assert len(generator(t, max_a4, max_d2)) == 0, (generator.__name__, triples, max_a4, max_d2)


def runs_of_the_old_slope_range(P, k, a2, b0, room, r, max_a4):
    """The non-empty runs of the atoms a3 | P + k*a4 with k >= 1, as
    ``_line_runs`` gives them, found on every line whose slope u lies in
    the range it took before its slope bounds: from k + min(0, ceil(P/a2))
    up to the amplitude bound.  Each line is scanned over a3 = a2..max_a4
    for its points."""
    runs = []
    for i in np.flatnonzero(k).tolist():
        P_i, k_i, a2_i, b0_i, room_i, r_i = (int(x[i]) for x in (P, k, a2, b0, room, r))
        m, beta, k2, alpha2, above = int(_M[r_i]), int(_BETA[r_i]), int(_K2[r_i]), int(_C2[3, r_i]), int(_ABOVE[r_i])
        first = k_i + min(0, -(-P_i // a2_i))
        last = (k_i * max(beta, 0) * a2_i + max(k_i * b0_i + m * P_i, 0)) // (m * a2_i)
        a3 = np.arange(a2_i, max_a4 + 1)
        for u in range(first, last + 1):
            a4 = (u * a3 - P_i) // k_i
            on = ((u * a3 - P_i) % k_i == 0) & (a3 + above <= a4) & (a4 <= max_a4)
            on &= (m * a4 <= b0_i + beta * a3) & (k2 * a4 + alpha2 * a3 <= room_i)
            at = np.flatnonzero(on)
            if at.size:
                step = k_i // gcd(u, k_i)
                runs.append((i, int(a3[at[0]]), int(a4[at[0]]), step, u * step // k_i, at.size))
    return runs


@st.composite
def slope_cases(draw):
    """A box up to (500, 1000) and a sorted triple within it."""
    max_a4 = draw(st.integers(1, 500))
    a2 = draw(st.integers(1, max_a4))
    a1 = draw(st.integers(1, a2))
    return (draw(st.integers(1, a1)), a1, a2), max_a4, draw(st.integers(2, 1000))


@FIXED
@given(slope_cases())
def test_slope_bounds_keep_every_non_empty_run(case):
    # The bounds on the slopes u of an atom's lines drop only lines
    # without a point: the kernel's line runs are exactly those of the old
    # range of slopes, in order.
    triple, max_a4, max_d2 = case
    line_runs, seen = enumerator._line_runs, []

    def spy(*atoms):
        got = line_runs(*atoms)
        seen.append(([tuple(run) for run in zip(*(x.tolist() for x in got))], runs_of_the_old_slope_range(*atoms)))
        return got

    with mock.patch.object(enumerator, "_line_runs", spy):
        _candidates_fast(np.array(triple)[:, None], max_a4, max_d2)
    [(got, expected)] = seen
    assert got == expected, (triple, max_a4, max_d2)
