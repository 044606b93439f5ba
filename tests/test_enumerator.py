"""Search modes, degree patterns, partitioning, determinism."""

import pytest

from wcidp.classifier import Candidate, classify
from wcidp.enumerator import (
    Bounds,
    PrefixRange,
    _candidates_fast,
    _candidates_reference,
    _iter_prefixes,
    _solve_shaped_chunk,
    degree_shapes,
    enumerate_solutions,
    partition,
    prefix_count,
    sporadic,
)


def keys(result):
    return [c.key for c in result.solutions]


def reference_keys(max_a4, max_d2):
    """Shaped search over the whole prefix space with the plain generator."""
    raw = _solve_shaped_chunk(max_a4, max_d2, 0, prefix_count(max_a4), _candidates_reference)
    return sorted(set(raw))


def test_bounds_validation():
    with pytest.raises(ValueError):
        Bounds(0, 10)
    with pytest.raises(ValueError):
        Bounds(3, 1)
    with pytest.raises(ValueError):
        Bounds(True, 2)
    with pytest.raises(ValueError):
        Bounds(3, 6.0)
    with pytest.raises(ValueError):
        Bounds("3", 6)


def test_degree_shapes_collapse_and_contents():
    assert degree_shapes((1, 1, 1, 1, 1)) == [(2, 2)]
    assert (4, 4) in degree_shapes((1, 1, 2, 2, 3))
    # Generic weights keep all fifteen patterns distinct.
    assert len(degree_shapes((1, 2, 4, 8, 17))) == 15
    # An arithmetic progression collapses three coincidental sums.
    ap = degree_shapes((1, 2, 3, 4, 5))
    assert len(ap) == 12 and (6, 7) in ap and (5, 10) in ap
    for d1, d2 in degree_shapes((2, 3, 5, 11, 14)):
        assert d1 <= d2


def test_smallest_weight_system_only_solution():
    for mode in ("shaped", "exhaustive"):
        res = enumerate_solutions(Bounds(1, 10), mode=mode)
        assert keys(res) == [(1, 1, 1, 1, 1, 2, 2)]


def test_desk_example_bounds_3_6():
    res = enumerate_solutions(Bounds(3, 6))
    got = set(keys(res))
    assert {(1, 1, 2, 2, 3, 4, 4), (2, 2, 3, 3, 3, 6, 6), (1, 2, 2, 3, 3, 4, 6)} <= got
    spor = {c.key for c in sporadic(Bounds(3, 6))}
    assert spor == {(1, 2, 2, 3, 3, 4, 6), (2, 2, 3, 3, 3, 6, 6)}
    assert sporadic(Bounds(1, 10)) == ()


def test_known_rows_at_bounds_7_12():
    got = set(keys(enumerate_solutions(Bounds(7, 12))))
    assert (3, 4, 5, 6, 7, 10, 12) in got
    assert (3, 4, 5, 6, 7, 11, 12) in got


def test_modes_agree_at_small_bounds():
    for A, D in [(6, 12), (8, 10), (10, 20), (12, 24)]:
        fast = keys(enumerate_solutions(Bounds(A, D), mode="shaped"))
        ref = reference_keys(A, D)
        exh = keys(enumerate_solutions(Bounds(A, D), mode="exhaustive"))
        assert fast == ref == exh, (A, D)


def test_fast_generator_matches_reference_at_medium_bounds():
    fast = keys(enumerate_solutions(Bounds(30, 60), mode="shaped"))
    ref = reference_keys(30, 60)
    assert fast == ref


def test_fast_candidates_cover_reference_candidates():
    # At generation level the fast path may emit fewer raw candidates, but
    # never miss one the reference keeps after full classification.
    for prefix in [(1, 2, 3, 5), (2, 3, 7, 8), (1, 1, 4, 4), (3, 3, 3, 5), (2, 4, 5, 9)]:
        ref = _candidates_reference(*prefix, 24, 48)
        fast = _candidates_fast(*prefix, 24, 48)
        w0, w1, w2, w3 = prefix
        for a4, d1, d2 in ref - fast:
            c = Candidate((w0, w1, w2, w3, a4), d1, d2)
            assert not classify(c).is_del_pezzo, (prefix, a4, d1, d2)


def test_result_partition_into_sporadic_and_family_carried():
    res = enumerate_solutions(Bounds(10, 20))
    carried = {c.key for c, _ in res.family_instances}
    spor = {c.key for c in res.sporadic}
    assert carried | spor == set(keys(res))
    assert carried & spor == set()
    for c, matches in res.family_instances:
        assert matches, c


def test_solutions_are_sorted_and_unique():
    res = enumerate_solutions(Bounds(12, 24))
    ks = keys(res)
    assert ks == sorted(ks)
    assert len(ks) == len(set(ks))


def test_solution_theorems_hold_at_small_bounds():
    res = enumerate_solutions(Bounds(14, 28), mode="exhaustive")
    for c in res.solutions:
        a = c.weights.a
        assert c.d2 <= 2 * a[4]
        assert c.d1 >= a[0] + a[3]
        assert (c.d1, c.d2) in degree_shapes(a)
        assert sum(a) - c.d1 - c.d2 >= 1


def test_partition_covers_and_merges():
    bounds = Bounds(10, 20)
    single = partition(bounds, 1)
    assert single == [PrefixRange(0, prefix_count(10))]
    ranges = partition(bounds, 4)
    assert len(ranges) == 4
    assert ranges[0].start == 0 and ranges[-1].stop == prefix_count(10)
    for left, right in zip(ranges, ranges[1:]):
        assert left.stop == right.start
    merged = []
    for r in ranges:
        merged.extend(_iter_prefixes(10, r.start, r.stop))
    assert merged == list(_iter_prefixes(10, 0, prefix_count(10)))


def test_partition_ranges_solve_and_merge_to_single_job_result():
    from wcidp.enumerator import _solve_chunk

    bounds = Bounds(10, 20)
    merged = []
    for r in partition(bounds, 4):
        merged.extend(_solve_chunk((10, 20, "shaped", r.start, r.stop)))
    assert sorted(merged) == keys(enumerate_solutions(bounds, jobs=1))


def test_partition_allows_more_jobs_than_prefixes():
    ranges = partition(Bounds(1, 2), 5)
    assert len(ranges) == 5
    assert sum(len(r) for r in ranges) == prefix_count(1)
    assert all(len(r) == 0 for r in ranges[1:])


def test_jobs_do_not_change_results():
    one = keys(enumerate_solutions(Bounds(16, 32), jobs=1))
    two = keys(enumerate_solutions(Bounds(16, 32), jobs=2))
    assert one == two


def test_progress_callback_reports_completion():
    seen = []
    enumerate_solutions(Bounds(6, 12), progress=lambda d, t, n: seen.append((d, t, n)))
    assert seen
    done, total, _ = seen[-1]
    assert done == total


def test_exhaustive_refuses_large_bounds_without_override():
    with pytest.raises(ValueError):
        enumerate_solutions(Bounds(61, 122), mode="exhaustive")
    with pytest.raises(ValueError):
        enumerate_solutions(Bounds(10, 20), mode="no-such-mode")
