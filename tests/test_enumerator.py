"""Search modes, degree patterns, chunking, determinism."""

import hashlib
import os
import random
import tracemalloc
from itertools import combinations, combinations_with_replacement
from math import gcd

import numpy as np
import pytest

from wcidp import classifier, enumerator, families
from wcidp.classifier import del_pezzo_quick
from wcidp.enumerator import (
    Bounds,
    _candidates_fast,
    _candidates_reference,
    _exhaustive_tuple_solutions,
    _prefix_singletons,
    _residue_classes,
    _singleton_states,
    _solve_chunk,
    _solve_exhaustive_chunk,
    _solve_shaped_chunk,
    _sorted_tuples,
    degree_shapes,
    enumerate_solutions,
    sporadic,
)
from wcidp.quasismooth import _singleton_ok


def keys(result):
    return [c.key for c in result.solutions]


def prefix_batch(prefix, max_a4):
    """The coprime weight tuples of one (a0, a1, a2) prefix, as a (5, n) array."""
    w = np.concatenate(list(_sorted_tuples(max_a4, prefix[0], 5, 7)), axis=1)
    return w[:, (w[1] == prefix[1]) & (w[2] == prefix[2])]


def weight_triples(max_a4, a0s):
    """The sorted (a0, a1, a2) with a0 in a0s, in lexicographic order."""
    return [(a0, *rest) for a0 in a0s for rest in combinations_with_replacement(range(a0, max_a4 + 1), 2)]


def points(runs):
    """Every point of a generator's runs, as a (5, m) array in run order."""
    return np.concatenate([np.zeros((5, 0), dtype=np.int32), *runs.slices(4096)], axis=1)


def candidate_sets(triples, max_a4, max_d2, generator=_candidates_fast, batch=512):
    """Each triple's sorted (a3, a4, d1, d2) points, repeats kept, the
    generator run on batches of ``batch`` triples."""
    sets = []
    for lo in range(0, len(triples), batch):
        t = np.array(triples[lo:lo + batch]).T
        c = points(generator(t, max_a4, max_d2)).T
        c = c[np.lexsort(c.T[::-1])]
        cut = np.searchsorted(c[:, 0], np.arange(t.shape[1] + 1))
        rows = list(map(tuple, c[:, 1:].tolist()))
        sets.extend(rows[cut[k]:cut[k + 1]] for k in range(t.shape[1]))
    return sets


def pinned_digest(triples, max_a4, max_d2, batch=64):
    """The number of points the kernel emits for the triples, and the
    sha256 of them all as int64 rows (triple's index, a3, a4, d1, d2),
    sorted."""
    h = hashlib.sha256()
    total = 0
    for lo in range(0, len(triples), batch):
        c = points(_candidates_fast(np.array(triples[lo:lo + batch]).T, max_a4, max_d2)).astype(np.int64)
        c[0] += lo
        total += c.shape[1]
        h.update(np.ascontiguousarray(c[:, np.lexsort(c[::-1])].T).tobytes())
    return total, h.hexdigest()


def missed_by_the_kernel(triples, max_a4, max_d2):
    """The reference candidates of the triples that meet the singleton
    condition at coordinate 3 and that the kernel does not emit, and how
    many met it."""
    met, missed = 0, []
    for lo in range(0, len(triples), 32):
        t = np.array(triples[lo:lo + 32]).T
        fast = set(zip(*points(_candidates_fast(t, max_a4, max_d2)).tolist()))
        for j, a3, a4, d1, d2 in points(_candidates_reference(t, max_a4, max_d2)).T.tolist():
            w = (*triples[lo + j], a3, a4)
            if _singleton_ok(w, d1, d2, 3):
                met += 1
                if (j, a3, a4, d1, d2) not in fast:
                    missed.append((w, d1, d2))
    return met, missed


def reference_keys(max_a4, max_d2):
    """Shaped search over every a0 chunk with the plain generator."""
    return sorted({key for a0 in range(1, max_a4 + 1)
                   for key in _solve_shaped_chunk(max_a4, max_d2, a0, _candidates_reference)})


def exhaustive_keys(max_a4, max_d2):
    """Exhaustive search over every a0 chunk, in chunk order."""
    return [key for a0 in range(1, max_a4 + 1)
            for key in _solve_exhaustive_chunk(max_a4, max_d2, a0)]


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


def test_family_split_is_built_on_first_read_and_once(monkeypatch):
    calls = []
    build = families.instances_within

    def spy(max_a4, max_d2):
        calls.append((max_a4, max_d2))
        return build(max_a4, max_d2)

    monkeypatch.setattr(families, "instances_within", spy)
    res = enumerate_solutions(Bounds(20, 40), mode="exhaustive")
    assert len(res.solutions) == 183
    assert calls == []
    views = [(res.sporadic, res.family_instances) for _ in range(2)]
    assert calls == [(20, 40)]
    table = build(20, 40)
    expected = (
        tuple(c for c in res.solutions if c.key not in table),
        tuple((c, table[c.key]) for c in res.solutions if c.key in table),
    )
    assert views == [expected, expected]
    assert len(expected[0]) == 29


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


@pytest.mark.parametrize("a0", range(495, 501))
def test_exhaustive_and_shaped_chunks_agree_at_the_full_bound(a0):
    # The chunks a0 = 495..500 of the paper's bound (500, 1000) reach moduli
    # near 500 and cost exhaustive mode well under a second each (a0 = 500,
    # or whichever runs first, also builds its degree tables).  The catalog
    # predicts no solution with a0 > 42, and both modes find none.
    shaped = _solve_shaped_chunk(500, 1000, a0, _candidates_fast)
    assert shaped == _solve_exhaustive_chunk(500, 1000, a0) == []


@pytest.mark.skipif(not os.environ.get("WCIDP_SLOW"),
                    reason="exhaustive mode takes about 100 s on this chunk; set WCIDP_SLOW=1")
def test_exhaustive_and_shaped_chunks_agree_at_100_200():
    # A chunk beyond the exhaustive limit of whole runs, with solutions.
    shaped = sorted(_solve_shaped_chunk(100, 200, 13, _candidates_fast))
    assert len(shaped) == 22
    assert sorted(_solve_exhaustive_chunk(100, 200, 13)) == shaped


def test_kernel_keeps_every_reference_candidate_that_meets_singleton_3_at_30_60():
    # The kernel keeps the points of one atom of the singleton condition at
    # coordinate 3 or another, a superset of that condition: every candidate
    # the plain scan gives that meets it must be among the kernel's points,
    # for every triple of (30, 60).
    met, missed = missed_by_the_kernel(weight_triples(30, range(1, 31)), 30, 60)
    assert met == 178_586
    assert missed == []


def test_kernel_keeps_every_reference_candidate_that_meets_singleton_3_at_the_full_bound():
    # The same on triples drawn from the paper's bound (500, 1000), whose
    # moduli a3 reach 500: 40 triples of three weights drawn uniformly from
    # 1..500 and sorted, from a fixed seed.
    rng = random.Random(2021)
    triples = sorted(tuple(sorted(rng.choices(range(1, 501), k=3))) for _ in range(40))
    met, missed = missed_by_the_kernel(triples, 500, 1000)
    assert met == 64_264
    assert missed == []


def test_fast_candidate_sets_at_30_60_are_pinned():
    # The kernel's points for every triple of (30, 60), in triple order.  A
    # change to how it solves for (a3, a4) may make it faster or shorter,
    # but must leave every set as it is.
    assert pinned_digest(weight_triples(30, range(1, 31)), 30, 60) == (
        411_940, "5d90589d2f666423569bfc7d69287dbf89e266b165ff248537027720a08ec1af")


@pytest.mark.parametrize("a0, size, pin", [
    pytest.param(450, 1_326, (632_515, "a47d985cdd570347497c426db5c386d8fd0249a50ad3e8f422edccba8c8e6808"),
                 id="450"),
    pytest.param(480, 231, (34_540, "0395603f4f86ccc4292c68e9d9970259f3e6098664c7f2f23d963c202ce979eb"),
                 id="480"),
    pytest.param(499, 3, (53, "239728038853390d50c7741064c296343a918cb905378af85080ca720bb3ecd7"), id="499"),
    pytest.param(420, 3_321, (3_169_915, "89b5bbe3c976e1dea19a3a42cb4348790e4c9acf34b962c0d4a858acaffa377b"),
                 id="420", marks=pytest.mark.skipif(not os.environ.get("WCIDP_SLOW"),
                                                    reason="the a0 = 420 chunk takes about 2 s; "
                                                           "set WCIDP_SLOW=1")),
])
def test_fast_candidate_sets_of_full_bound_chunks_are_pinned(a0, size, pin):
    # The same at the paper's bound (500, 1000), for the chunks a0 = 450,
    # 480, 499 (the bound's last three triples) and 420: moduli a3 and a2
    # up to 500 reach lines and columns that (30, 60) never does.
    triples = weight_triples(500, [a0])
    assert len(triples) == size
    assert pinned_digest(triples, 500, 1000) == pin


def test_fast_candidate_sets_do_not_depend_on_the_batch():
    # A triple's points come from its own rows only, whatever shares its
    # batch: batches of one triple, of a few and of many give the same
    # points, each as often.
    triples = weight_triples(24, [2, 12])
    whole = candidate_sets(triples, 24, 48, batch=len(triples))
    for batch in (1, 3, 64):
        assert candidate_sets(triples, 24, 48, batch=batch) == whole, batch


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


def test_chunks_are_one_per_a0_whatever_the_job_count(monkeypatch, fake_pool):
    solve, seen = enumerator._solve_chunk, []

    def spy(args):
        seen.append(args)
        return solve(args)

    monkeypatch.setattr(enumerator, "_solve_chunk", spy)
    for mode in ("shaped", "exhaustive"):
        for jobs in (1, 2, 8):
            seen.clear()
            enumerate_solutions(Bounds(6, 12), mode=mode, jobs=jobs)
            assert seen == [(6, 12, mode, a0) for a0 in range(1, 7)], (mode, jobs)
    # No more workers than chunks.
    assert fake_pool == [2, 6, 2, 6]


def test_each_a0_chunk_solves_alone_and_merges_to_the_single_job_result():
    bounds = Bounds(10, 20)
    for mode in ("shaped", "exhaustive"):
        merged = []
        for a0 in range(1, 11):
            part = _solve_chunk((10, 20, mode, a0))
            assert all(key[0] == a0 for key in part), (mode, a0)
            merged.extend(part)
        assert merged, mode
        assert sorted(merged) == keys(enumerate_solutions(bounds, mode=mode, jobs=1)), mode


def test_more_jobs_than_chunks_give_the_single_job_result():
    for mode in ("shaped", "exhaustive"):
        for bounds, jobs in [(Bounds(1, 2), 5), (Bounds(3, 6), 8)]:
            one = keys(enumerate_solutions(bounds, mode=mode, jobs=1))
            assert keys(enumerate_solutions(bounds, mode=mode, jobs=jobs)) == one, (mode, bounds)


def test_jobs_do_not_change_results():
    for mode in ("shaped", "exhaustive"):
        one = keys(enumerate_solutions(Bounds(16, 32), mode=mode, jobs=1))
        two = keys(enumerate_solutions(Bounds(16, 32), mode=mode, jobs=2))
        assert one == two, mode


def test_progress_callback_reports_completion():
    for jobs in (1, 2):
        seen = []
        res = enumerate_solutions(Bounds(6, 12), jobs=jobs,
                                  progress=lambda d, t, n: seen.append((d, t, n)))
        total = seen[-1][1]
        assert seen[-1] == (total, total, len(res.solutions)), jobs
        assert [d for d, _, _ in seen] == list(range(1, total + 1)), jobs


def test_exhaustive_refuses_large_bounds_without_override():
    with pytest.raises(ValueError):
        enumerate_solutions(Bounds(61, 122), mode="exhaustive")
    with pytest.raises(ValueError):
        enumerate_solutions(Bounds(10, 20), mode="no-such-mode")


def test_exhaustive_override_runs_every_chunk_of_a_large_box(monkeypatch):
    # allow_large_exhaustive lifts the limit on max_a4, and only it: the
    # request goes on to its 61 chunks, here solved by a spy.
    seen = []
    monkeypatch.setattr(enumerator, "_solve_chunk", lambda args: seen.append(args) or [])
    with pytest.raises(ValueError, match="exhaustive"):
        enumerate_solutions(Bounds(61, 122), mode="exhaustive")
    assert seen == []
    res = enumerate_solutions(Bounds(61, 122), mode="exhaustive", allow_large_exhaustive=True)
    assert res.solutions == ()
    assert seen == [(61, 122, "exhaustive", a0) for a0 in range(1, 62)]


def test_jobs_that_are_not_positive_integers_are_refused_before_any_work(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the run started despite a bad job count")

    monkeypatch.setattr(enumerator, "_solve_chunk", must_not_run)
    monkeypatch.setattr("multiprocessing.Pool", must_not_run)
    for jobs in (True, 2.5, "2", 0):
        with pytest.raises(ValueError, match="jobs"):
            enumerate_solutions(Bounds(5, 10), jobs=jobs)


def test_state_table_equals_singleton_predicate():
    # The exhaustive kernel reads the singleton condition as lead(d1) &
    # trail(d2) != 0 on one-byte degree states; it must agree with the one
    # predicate in quasismooth.
    for w in combinations_with_replacement(range(1, 8), 5):
        top = 2 * sum(w)
        lead, trail, _ = _singleton_states(np.array(w)[:, None], top, top)
        for i in range(5):
            verdict = ((lead[i, 0][:, None] & trail[i, 0][None, :]) != 0).tolist()
            wrong = [(d1, d2) for d1 in range(1, top + 1) for d2 in range(d1, top + 1)
                     if verdict[d1][d2] != _singleton_ok(w, d1, d2, i)]
            assert not wrong, (w, i, wrong[:5])


def test_exhaustive_mode_equals_brute_force():
    brute = [(*w, d1, d2)
             for w in combinations_with_replacement(range(1, 11), 5)
             for d1 in range(1, 21)
             for d2 in range(d1, 21)
             if del_pezzo_quick(w, d1, d2)]
    assert keys(enumerate_solutions(Bounds(10, 20), mode="exhaustive")) == brute
    assert len(brute) == 50


def test_exhaustive_batches_split_freely(monkeypatch):
    max_a4, max_d2 = 10, 20
    # The coordinate-4 grid is built in blocks of whole tuples: of the default
    # size, of one tuple, and of three tuples (441 cells each at dmax 20),
    # which leaves (1, 1, 1)'s 55 tuples a last block of one.
    assert prefix_batch((1, 1, 1), max_a4).shape[1] == 55
    for cells in (enumerator._BATCH_CELLS, 1, 3 * 21 * 21):
        monkeypatch.setattr(enumerator, "_BATCH_CELLS", cells)
        for prefix in [(1, 1, 1), (1, 2, 3), (2, 3, 4), (3, 3, 5)]:
            batch = prefix_batch(prefix, max_a4)
            whole = _exhaustive_tuple_solutions(batch, max_d2)
            parts = []
            for j in range(batch.shape[1]):
                parts.extend(_exhaustive_tuple_solutions(batch[:, j:j + 1], max_d2))
            assert whole == parts, (cells, prefix)
        # (1, 1, 1) holds tuples whose own dmax, sum(w) - 2, is below the batch's.
        sums = prefix_batch((1, 1, 1), max_a4).sum(axis=0)
        assert sums.min() - 2 < max_d2 <= sums.max() - 2
        assert _exhaustive_tuple_solutions(prefix_batch((1, 1, 1), max_a4), max_d2)
        # A batch may span prefixes whose tuples have different sums.
        first, second = prefix_batch((1, 1, 1), max_a4), prefix_batch((3, 3, 5), max_a4)
        assert first.sum(axis=0).max() != second.sum(axis=0).max()
        spanning = _exhaustive_tuple_solutions(np.concatenate((first, second), axis=1), max_d2)
        assert spanning == (_exhaustive_tuple_solutions(first, max_d2)
                            + _exhaustive_tuple_solutions(second, max_d2)), cells


@pytest.mark.parametrize("width", [3, 4, 5])
def test_sorted_tuples_stream_every_coprime_tuple_in_order(width):
    # Shaped mode streams the (a0, a1, a2, a3) prefixes, exhaustive mode the
    # whole tuples, and (a0, a1, a2) has no four weights to be coprime:
    # every batch but the last is full, and the batches join to the sorted
    # tuples whose four-weight subsets are coprime.
    max_a4 = 9
    coprime = [w for w in combinations_with_replacement(range(1, max_a4 + 1), width)
               if all(gcd(*q) == 1 for q in combinations(w, 4))]
    for size in (1, 5, 1000):
        for a0 in range(1, max_a4 + 1):
            pieces = list(_sorted_tuples(max_a4, a0, width, size))
            assert all(p.shape[1] == size for p in pieces[:-1]), (size, a0)
            assert all(0 < p.shape[1] <= size and p.dtype == np.int64 for p in pieces), (size, a0)
            got = [tuple(c) for p in pieces for c in p.T.tolist()]
            assert got == [w for w in coprime if w[0] == a0], (size, a0)


def test_exhaustive_chunk_result_does_not_depend_on_batch_size(monkeypatch):
    # Batches carry tuples across prefixes and pieces, and grid blocks cut
    # batches; any cut gives the same solutions in the same order.  A batch
    # is charged 32 cells per degree and a block a tuple's whole grid, so at
    # (12, 60), where most grids are 58 degrees square, 4,000 cells make
    # batches of two in blocks of one, and 20,800 make batches of eleven in
    # blocks of six and five.
    kernel, default_cells = enumerator._exhaustive_tuple_solutions, enumerator._BATCH_CELLS
    cuts = {}

    def spy(w, side):
        cells = enumerator._BATCH_CELLS
        dmax = min(side, int(w.sum(axis=0).max()) - 2)
        cuts.setdefault(cells, []).append((w.shape[1], max(1, cells // (dmax + 1) ** 2)))
        return kernel(w, side)

    monkeypatch.setattr(enumerator, "_exhaustive_tuple_solutions", spy)
    for max_a4, max_d2, budgets in [(10, 20, (1, 3000, 50_000)), (12, 60, (4000, 20_800))]:
        monkeypatch.setattr(enumerator, "_BATCH_CELLS", default_cells)
        default = exhaustive_keys(max_a4, max_d2)
        assert len(default) == len(set(default)) > 0
        for cells in budgets:
            monkeypatch.setattr(enumerator, "_BATCH_CELLS", cells)
            assert exhaustive_keys(max_a4, max_d2) == default, cells
    # (tuples in a batch, tuples in a block): both cuts were reached.
    assert any(block == 1 < n for n, block in cuts[4000])
    assert any(block < n and n % block for n, block in cuts[20_800])


def test_exhaustive_chunk_memory_stays_within_the_stated_budget():
    # The comment on _BATCH_CELLS promises that a batch, with its states and
    # grid blocks, needs under 1 MiB at (20, 40), measured on the largest
    # chunk, a0 = 1.  The first run builds the cached tables, which are not
    # the batch's.
    _solve_exhaustive_chunk(20, 40, 1)
    tracemalloc.start()
    try:
        _solve_exhaustive_chunk(20, 40, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20, peak


def test_prefix_singleton_masks_equal_the_predicate_on_every_30_60_candidate():
    # On the kernel's points, where d1 >= a0 + a3 and d2 > a4, the masks
    # skip no test that matters: each equals the predicate.
    for a0 in range(1, 31):
        for t in _sorted_tuples(30, a0, 3, 32):
            c = points(_candidates_fast(t, 30, 60))
            rows = c.T.tolist()
            triples = list(map(tuple, t.T.tolist()))
            hits = t.astype(np.int32), _residue_classes(t)
            for i in (0, 1, 2):
                mask = _prefix_singletons(hits, c, np.ones(len(rows), dtype=bool), (i,)).tolist()
                expected = [_singleton_ok(triples[j] + (a3, a4), d1, d2, i) for j, a3, a4, d1, d2 in rows]
                assert mask == expected, (a0, i)


def test_shaped_chunk_memory_stays_within_the_stated_budget():
    # The comment on _BATCH_CELLS promises that a shaped batch, kernel,
    # slices and filter, needs under 1 MiB at (40, 80).  Measured on every
    # chunk.  The first runs fill the membership caches, which are not the
    # batch's.
    for a0 in range(1, 41):
        _solve_shaped_chunk(40, 80, a0, _candidates_fast)
        tracemalloc.start()
        try:
            _solve_shaped_chunk(40, 80, a0, _candidates_fast)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20, (a0, peak)


def test_shaped_chunk_memory_stays_within_the_stated_budget_at_the_full_bound(monkeypatch):
    # The same at the paper's bound (500, 1000), on the chunk a0 = 450,
    # whose moduli reach 500: there a batch holds 64 triples, and building
    # their residue classes takes most of the budget.  The first run, which
    # fills the caches, also pins what the chunk loop hands its stages:
    # 1,326 triples and 632,515 points to the kernel, and 28 candidates to
    # del_pezzo_quick.  None of them is well-formed, and del_pezzo_quick
    # tests well-formedness before any singleton condition, so it makes no
    # singleton test, and the chunk has no solution.
    counts = {"triples": 0, "points": 0, "del_pezzo_quick": 0, "_singleton_ok": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)

        return wrapper

    def kernel(t, max_a4, max_d2):
        runs = _candidates_fast(t, max_a4, max_d2)
        counts["triples"] += t.shape[1]
        counts["points"] += len(runs)
        return runs

    with monkeypatch.context() as patch:
        patch.setattr(enumerator, "del_pezzo_quick", counted(enumerator, "del_pezzo_quick"))
        patch.setattr(classifier, "_singleton_ok", counted(classifier, "_singleton_ok"))
        assert _solve_shaped_chunk(500, 1000, 450, kernel) == []
    assert counts == {"triples": 1_326, "points": 632_515, "del_pezzo_quick": 28, "_singleton_ok": 0}
    tracemalloc.start()
    try:
        _solve_shaped_chunk(500, 1000, 450, _candidates_fast)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20, peak


@pytest.mark.skipif(not os.environ.get("WCIDP_SLOW"),
                    reason="the chunk takes about 7 s under tracemalloc; set WCIDP_SLOW=1")
def test_shaped_chunk_memory_stays_within_the_stated_budget_at_the_bound_s_largest_measured_chunk():
    # a0 = 350 of (500, 1000), whose kernel peaks highest of the chunks
    # measured: there the residue classes must not be held beside it.
    _solve_shaped_chunk(500, 1000, 350, _candidates_fast)
    tracemalloc.start()
    try:
        _solve_shaped_chunk(500, 1000, 350, _candidates_fast)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20, peak


@pytest.mark.parametrize("k", [3, 5])
def test_residue_classes_follow_their_definition(k):
    # [i, j, r] has bit e when w[e, j] mod w[i, j] is r, and bit 5 at
    # r = 0; the table is as wide as the largest weight.  Equal weights, and
    # weights that divide one another, put several bits on one residue.
    rng = random.Random(k)
    for top in (1, 7, 60):
        n = rng.randint(1, 9)
        w = np.array([[rng.randint(1, top) for _ in range(n)] for _ in range(k)])
        table = _residue_classes(w)
        span = int(w.max())
        assert table.dtype == np.uint8 and table.shape == (k, n, span)
        for i in range(k):
            for j in range(n):
                for r in range(span):
                    bits = sum(1 << e for e in range(k) if w[e, j] % w[i, j] == r) | (32 if r == 0 else 0)
                    assert table[i, j, r] == bits, (w[:, j].tolist(), i, r)


def test_packed_buffers_keep_every_column_in_order():
    # Pieces of no columns, of fewer and of more than a buffer: every
    # buffer but the last holds ``size`` columns, the last what is left,
    # and the buffers joined are the pieces' columns one after another.  A
    # yielded buffer is refilled after, so each is copied before the next
    # is asked for.
    widths = [0, 5, 300, 0, 1, 700, 128, 2]
    pieces = [np.arange(1, 5 * m + 1, dtype=np.int32).reshape(m, 5).T + 1000 * p for p, m in enumerate(widths)]
    expected = np.concatenate(pieces, axis=1)
    for size in (128, 256, 2048):
        buffers = [b.copy() for b in enumerator._packed(iter(pieces), size)]
        assert [b.shape[1] for b in buffers[:-1]] == [size] * (len(buffers) - 1), size
        last = expected.shape[1] - size * (len(buffers) - 1)
        assert 0 < last <= size and buffers[-1].shape[1] == last, size
        joined = np.concatenate(buffers, axis=1)
        assert joined.dtype == np.int32 and (joined == expected).all(), size


def test_runs_expand_in_slices_of_whole_runs_in_run_order():
    # Runs with no points and a run longer than every slice but the
    # largest: each slice holds the next runs with a point, whole and in
    # order, as many as fit in ``size`` points, or one run alone that is
    # longer; no slice is empty.
    count = np.array([3, 0, 5_000, 1, 0, 7, 130, 0])
    start = np.array([[j, 1 + j, 2 * j + 1, 3 * j + 5, 40 - j] for j in range(count.size)], dtype=np.int32).T
    step = np.array([[0, j % 3, 1, j, 2] for j in range(count.size)], dtype=np.int32).T
    runs = enumerator._Runs(start, step, count)
    whole = [[tuple((start[:, i] + s * step[:, i]).tolist()) for s in range(count[i])]
             for i in range(count.size) if count[i]]
    assert len(runs) == sum(map(len, whole)) == 5_141
    for size in (1, 7, 140, 4096):
        expected, left = [], whole
        while left:
            take = 1
            while take < len(left) and sum(map(len, left[:take + 1])) <= size:
                take += 1
            expected.append(sum(left[:take], []))
            left = left[take:]
        # Every slice is read after all were made, so a slice that shared
        # its buffer with another fails: a caller may hold a slice while it
        # asks for the next.
        slices = list(runs.slices(size))
        assert all(c.dtype == np.int32 and c.shape[1] for c in slices), size
        assert [list(map(tuple, c.T.tolist())) for c in slices] == expected, size


def test_shaped_chunk_result_does_not_depend_on_batch_size(monkeypatch):
    # Batches of 1, 3 and 128 triples (2048 cells a triple at (20, 40)),
    # expanded in slices of whole runs of up to 32, 96 and 4096 points (64
    # cells a point) whose survivors of the first mask are packed by 16, 48
    # and 2048, give the same solutions;
    # only their order within a chunk may differ.
    def chunks():
        return [sorted(_solve_shaped_chunk(20, 40, a0, _candidates_fast)) for a0 in range(1, 21)]

    default = chunks()
    assert sum(map(len, default)) == 183
    for cells in (2048, 3 * 2048):
        monkeypatch.setattr(enumerator, "_BATCH_CELLS", cells)
        assert chunks() == default, cells


def test_stage_counts_at_20_40_are_pinned(monkeypatch):
    # Each stage of the shaped chunk loop is reached through a module
    # attribute; wrapping them counts what every stage receives and passes.
    # A change to the generator or to the filter chain that moves any of
    # these counts changes which candidates the search examines.  For the
    # two kernels, which take a batch of triples or tuples, the counts
    # also hold how many columns they were handed: a change to how the
    # weight tuples are cut into batches moves those.
    counts = {}

    def count(module, name, size=len, batch=False):
        original = getattr(module, name)
        seen = counts[name] = [0, 0, 0] if batch else [0, 0]

        def wrapper(*args):
            result = original(*args)
            seen[0] += 1
            seen[1] += size(result)
            if batch:
                seen[2] += args[0].shape[1]
            return result

        monkeypatch.setattr(module, name, wrapper)

    count(enumerator, "_candidates_fast", batch=True)
    # The prefix-singleton masks narrow the mask of the candidates still in
    # play, once for coordinate 1 and once for 2 and 0: count how many it
    # held before and after, for each.
    singletons = enumerator._prefix_singletons
    masked = counts["_prefix_singletons"] = {(1,): [0, 0], (2, 0): [0, 0]}

    def narrowed(hits, c, keep, coords):
        masked[coords][0] += int(keep.sum())
        keep = singletons(hits, c, keep, coords)
        masked[coords][1] += int(keep.sum())
        return keep

    monkeypatch.setattr(enumerator, "_prefix_singletons", narrowed)
    count(enumerator, "_singleton_ok", size=bool)
    count(enumerator, "del_pezzo_quick", size=bool)
    count(classifier, "is_well_formed", size=bool)
    res = enumerate_solutions(Bounds(20, 40), jobs=1)
    assert len(res.solutions) == 183
    assert counts["_candidates_fast"][1] == 88_245
    # The 1,540 triples of (20, 40) in 25 batches of up to 128.
    assert counts["_candidates_fast"][::2] == [25, 1_540]
    assert counts["_prefix_singletons"] == {(1,): [88_043, 33_069], (2, 0): [33_069, 13_289]}
    # The four-weight gcd test and the drop of repeats leave 4,404 points.
    assert counts["_singleton_ok"] == [4_404, 3_026]
    assert counts["del_pezzo_quick"] == [3_026, 183]
    assert counts["is_well_formed"] == [3_026, 295]
    # The exhaustive kernel hands del_pezzo_quick every pair that meets the
    # singleton conditions, amplitude and the cone test; del_pezzo_quick
    # makes the one well-formedness test of each.
    counts["del_pezzo_quick"][:] = counts["is_well_formed"][:] = [0, 0]
    count(enumerator, "_exhaustive_tuple_solutions", batch=True)
    exhaustive = enumerate_solutions(Bounds(20, 40), mode="exhaustive", jobs=1)
    assert keys(exhaustive) == keys(res)
    assert counts["del_pezzo_quick"] == [5_739, 183]
    assert counts["is_well_formed"] == [5_739, 777]
    assert counts["_exhaustive_tuple_solutions"] == [169, 183, 31_254]


def test_every_degree_pattern_meets_the_top_singleton():
    # So singleton 4 never rejects a shaped candidate, though
    # del_pezzo_quick tests it first among the singletons.
    for w in combinations_with_replacement(range(1, 13), 5):
        for d1, d2 in degree_shapes(w):
            assert _singleton_ok(w, d1, d2, 4), (w, d1, d2)
