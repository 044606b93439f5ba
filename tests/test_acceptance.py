"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Every criterion is exact (set equality or boolean equivalence); the stated
runtime ceilings are asserted where the criterion names one.  The full-bound
reproduction is hours long and therefore opt-in: set WCIDP_FULL_RUN=1.
A complete golden-table reproduction at covering bounds (every known sporadic
solution has a4 <= 97 and d2 <= 152) and the exhaustive cross-check over the
desk box (60, 120) are likewise opt-in via WCIDP_SLOW=1.
"""

import io
import os
import time
from itertools import combinations

import numpy as np
import pytest
from definition import pair_branches, span

from wcidp import families
from wcidp.classifier import Candidate, amplitude, classify
from wcidp.cli import _write_csv
from wcidp.enumerator import Bounds, degree_shapes, enumerate_solutions

DESK_BOUNDS = Bounds(60, 120)
CROSS_BOUNDS = Bounds(40, 80)


@pytest.fixture(scope="module")
def desk_result():
    t0 = time.monotonic()
    result = enumerate_solutions(DESK_BOUNDS, mode="shaped", jobs=1)
    elapsed = time.monotonic() - t0
    return result, elapsed


@pytest.fixture(scope="module")
def cross_results():
    t0 = time.monotonic()
    exhaustive = enumerate_solutions(CROSS_BOUNDS, mode="exhaustive", jobs=1)
    shaped = enumerate_solutions(CROSS_BOUNDS, mode="shaped", jobs=1)
    elapsed = time.monotonic() - t0
    return exhaustive, shaped, elapsed


def test_c01_golden_rows_classify_as_del_pezzo(golden_sporadic):
    t0 = time.monotonic()
    for row in golden_sporadic:
        verdict = classify(Candidate.of(*row))
        assert verdict.is_del_pezzo, row
        assert not verdict.is_linear_cone and verdict.amplitude >= 1
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"golden classification took {elapsed:.2f}s"
    print(f"criterion 1 PASS: {len(golden_sporadic)} golden rows in {elapsed:.2f}s")


def test_c02_family_soundness_ten_smallest_each():
    t0 = time.monotonic()
    checked = 0
    for spec in families.CATALOG:
        assignments = families.smallest_assignments(spec.id, 10)
        assert len(assignments) == 10, spec.id
        for params in assignments:
            c = families.instantiate(spec.id, params)
            assert classify(c).is_del_pezzo, (spec.id, params, c.key)
            assert amplitude(c) == families.family_amplitude(spec.id, params)
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"family soundness took {elapsed:.2f}s"
    print(f"criterion 2 PASS: {checked} instances across 45 series in {elapsed:.2f}s")


def test_c03_sporadic_reproduction_at_desk_scale(desk_result, golden_sporadic):
    result, elapsed = desk_result
    assert elapsed < 600.0, f"desk-scale enumeration took {elapsed:.1f}s"
    found = [c.key for c in result.sporadic]
    expected = [r for r in golden_sporadic if r[4] <= 60 and r[6] <= 120]
    assert found == expected
    for c, matches in result.family_instances:
        assert matches, c.key
    assert {c.key for c in result.sporadic} | {c.key for c, _ in result.family_instances} \
        == {c.key for c in result.solutions}
    print(f"criterion 3 PASS: sporadic(60,120) == {len(expected)} golden rows, "
          f"{len(result.family_instances)} family-carried, in {elapsed:.0f}s")


@pytest.mark.skipif(
    not os.environ.get("WCIDP_FULL_RUN"),
    reason="full-bound reproduction takes hours; set WCIDP_FULL_RUN=1",
)
def test_c04_full_bound_reproduction(golden_sporadic):
    jobs = int(os.environ.get("WCIDP_JOBS", str(os.cpu_count() or 1)))
    result = enumerate_solutions(Bounds(500, 1000), jobs=jobs)
    assert [c.key for c in result.sporadic] == golden_sporadic
    for c, matches in result.family_instances:
        assert matches, c.key
    print(f"criterion 4 PASS: sporadic(500,1000) == all {len(golden_sporadic)} golden rows")


@pytest.mark.skipif(
    not os.environ.get("WCIDP_SLOW"),
    reason="covering-bound reproduction takes ~3 minutes; set WCIDP_SLOW=1",
)
def test_c04a_covering_bound_reproduction(golden_sporadic):
    # Every golden row satisfies a4 <= 97, d2 <= 152, so bounds (100, 200)
    # already force the complete table.
    result = enumerate_solutions(Bounds(100, 200), jobs=2)
    assert [c.key for c in result.sporadic] == golden_sporadic
    print(f"criterion 4 (covering bounds) PASS: sporadic(100,200) == all "
          f"{len(golden_sporadic)} golden rows")


def test_c05_exhaustive_and_shaped_agree(cross_results):
    exhaustive, shaped, elapsed = cross_results
    assert elapsed < 300.0, f"cross-validation took {elapsed:.1f}s"
    assert [c.key for c in exhaustive.solutions] == [c.key for c in shaped.solutions]
    print(f"criterion 5 PASS: modes agree on {len(shaped.solutions)} solutions "
          f"at ({CROSS_BOUNDS.max_a4},{CROSS_BOUNDS.max_d2}) in {elapsed:.0f}s")


@pytest.mark.skipif(
    not os.environ.get("WCIDP_SLOW"),
    reason="exhaustive search of the desk box takes minutes; set WCIDP_SLOW=1",
)
def test_c05_exhaustive_and_shaped_agree_at_desk_scale(desk_result):
    shaped, _ = desk_result
    jobs = int(os.environ.get("WCIDP_JOBS", str(os.cpu_count() or 1)))
    t0 = time.monotonic()
    exhaustive = enumerate_solutions(DESK_BOUNDS, mode="exhaustive", jobs=jobs)
    elapsed = time.monotonic() - t0
    assert [c.key for c in exhaustive.solutions] == [c.key for c in shaped.solutions]
    print(f"criterion 5 (desk box) PASS: modes agree on {len(shaped.solutions)} solutions "
          f"at ({DESK_BOUNDS.max_a4},{DESK_BOUNDS.max_d2}) in {elapsed:.0f}s with jobs={jobs}")


def test_c06_degree_bounds_hold_on_exhaustive_output(cross_results):
    exhaustive, _, _ = cross_results
    for c in exhaustive.solutions:
        a = c.weights.a
        assert c.d2 <= 2 * a[4], c.key
        assert c.d1 >= a[0] + a[3], c.key
        assert (c.d1, c.d2) in degree_shapes(a), c.key
    print(f"criterion 6 PASS: d2 <= 2*a4 and d1 >= a0+a3 on "
          f"{len(exhaustive.solutions)} exhaustive solutions")


def top_pair_forms(c, a3):
    """Closed forms for the a4 that make c + a4 a member of <a3, a4> on the
    steep tail a3 <= a4 < 2*a3, for -a3 < c <= a3, elementwise.

    When c is 0 or a3 (the combination a4 + c), every a4 does: the first
    array marks those.  Otherwise membership forces c + a4 to be a plain
    multiple of a3, and 3*a3 would need a4 >= 2*a3, so one a4 of the tail
    remains, a3 + (-c mod a3): the second array."""
    return c % a3 == 0, a3 + -c % a3


def test_c07_steep_tail_closed_forms_match_brute_force():
    # On a steep tail a3 <= a4 < 2*a3, c + a4 lies in <a3, a4> exactly when
    # the closed form holds for every a4 or names a4.  The pair condition at
    # (3, 4) asks this with c = a_x or c = a_x - a_t for weights
    # 1 <= a_t, a_x <= a3, so sweeping -a3 < c <= a3 with a4 <= 60 covers
    # every sorted quintuple the statement quantifies over.
    t0 = time.monotonic()
    checked = 0
    for a3 in range(1, 61):
        c = np.arange(1 - a3, a3 + 1)
        every, form = top_pair_forms(c, a3)
        for a4 in range(a3, min(2 * a3 - 1, 60) + 1):
            for ci, closed in zip(c.tolist(), (every | (form == a4)).tolist()):
                assert closed == span((a3, a4), ci + a4), (a3, a4, ci)
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"closed-form sweep took {elapsed:.1f}s"
    print(f"criterion 7 PASS: {checked} closed-form memberships vs brute force "
          f"in {elapsed:.0f}s")


def test_c08_pair_condition_reading_matches_closed_forms():
    # Degree pattern (d1, d2) = (a0 + a4, a1 + a4) over strictly increasing
    # weights with a4 < 2*a3: branch (d) must equal the two compound closed
    # forms, and (b) or (c) or (d) must equal the full four-case disjunction.
    t0 = time.monotonic()
    checked = 0
    for a3 in range(4, 40):
        for a4 in range(a3 + 1, min(2 * a3 - 1, 40) + 1):
            for a0, a1, a2 in combinations(range(1, a3), 3):
                a = (a0, a1, a2, a3, a4)
                d1, d2 = a0 + a4, a1 + a4
                case1 = a4 == 2 * a3 - a0
                case2 = a4 == 2 * a3 - a1
                case3 = a2 == 2 * a1 - a0 and a4 == a3 + a1 - a0
                case4 = a3 == a2 + a1 - 2 * a0 and a4 == 2 * a2 + a1 - 3 * a0
                bb, bc, bd = pair_branches(a, d1, d2, 3, 4)[1:]
                assert bd == (case3 or case4), a
                assert (bb or bc or bd) == (case1 or case2 or case3 or case4), a
                checked += 1
    elapsed = time.monotonic() - t0
    print(f"criterion 8 PASS: {checked} shape-(a0+a4, a1+a4) tuples in {elapsed:.0f}s")


def test_c09_csv_output_is_byte_identical_across_job_counts(desk_result, golden_sporadic):
    result_one, _ = desk_result

    def render(result):
        sink = io.StringIO()
        _write_csv(result.sporadic, sink)
        return sink.getvalue()

    reference = render(result_one)
    assert reference.endswith("\n") and "\r" not in reference
    for jobs in (2, 8):
        rerun = enumerate_solutions(DESK_BOUNDS, mode="shaped", jobs=jobs)
        assert render(rerun) == reference, f"jobs={jobs} differs"
    print("criterion 9 PASS: byte-identical CSV for jobs in {1, 2, 8}")


def test_c10_series_overlap_notes():
    overlaps = {
        19: [(1, lambda t: {"a0": 1, "a1": 2 * t - 1, "nu": 2}),
             (2, lambda t: {"a0": 1, "a1": 2 * t - 1, "nu": 3}),
             (11, lambda t: {"a0": 1, "a1": 2 * t - 1, "nu": 3}),
             (12, lambda t: {"a0": 1, "a1": 2 * t - 1, "nu": 2})],
        30: [(2, lambda t: {"a0": 3, "a1": 2 * t + 1, "nu": 1}),
             (11, lambda t: {"a0": 3, "a1": 2 * t + 1, "nu": 1})],
        17: [(6, lambda t: {"a0": 1, "a1": t, "nu": 2}),
             (8, lambda t: {"a0": 1, "a1": t, "nu": 3})],
        26: [(8, lambda t: {"a0": 3, "a1": t + 2, "nu": 1})],
    }
    checked = 0
    for fid, containments in overlaps.items():
        for t in range(2, 11):
            if not families.valid_params(fid, {"t": t}):
                continue
            c = families.instantiate(fid, {"t": t})
            matches = families.match_tuple(c)
            for other_id, assignment_of in containments:
                expected = assignment_of(t)
                assert any(
                    m.family_id == other_id and m.params == expected for m in matches
                ), (fid, t, other_id, expected, [m.as_dict() for m in matches])
                assert families.instantiate(other_id, expected).key == c.key
                checked += 1
    print(f"criterion 10 PASS: {checked} overlap containments verified")
