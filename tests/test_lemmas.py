"""The facts that shaped mode's completeness rests on, each checked by a
sweep that reads only ``tests/definition.py``.

Shaped mode searches only fifteen degree patterns.  It may do so because
every candidate outside them fails a necessary condition of quasi-smoothness
(Iano-Fletcher, "Working with weighted complete intersections", 2000, §8).
"""

import os
import time
from itertools import combinations, combinations_with_replacement

import pytest
from definition import pair_branches, singleton, triple, well_formed


def fifteen_patterns(a):
    """(a_x + a4, a_y + a4) for x < y < 4, and (a_x + a_y, 2*a4) for
    x <= y with y in {3, 4}."""
    return ({(a[x] + a[4], a[y] + a[4]) for x, y in combinations(range(4), 2)}
            | {(a[x] + a[y], 2 * a[4]) for y in (3, 4) for x in range(y + 1)})


@pytest.mark.parametrize("max_a4", [12, pytest.param(22, marks=pytest.mark.skipif(
    not os.environ.get("WCIDP_SLOW"), reason="the a4 <= 22 sweep takes about 7 minutes; set WCIDP_SLOW=1"))])
def test_top_singleton_and_top_pair_imply_the_fifteen_patterns(max_a4):
    # Lemma (i): over every sorted tuple with a4 <= max_a4 and every non-cone
    # d1 <= d2 with amplitude >= 1, singleton 4 and pair (3, 4) together
    # put (d1, d2) among the fifteen patterns; with them, d2 <= 2*a4.
    # Singleton 4 is tested first: it is the cheaper of the two, and only
    # 56,111 of the pairs pass it at a4 <= 12.
    t0 = time.monotonic()
    swept = met = 0
    for a in combinations_with_replacement(range(1, max_a4 + 1), 5):
        weights = set(a)
        patterns = fifteen_patterns(a)
        top = sum(a) - 1
        for d1 in range(1, top // 2 + 1):
            if d1 in weights:
                continue
            for d2 in range(d1, top - d1 + 1):
                if d2 in weights:
                    continue
                swept += 1
                if singleton(a, d1, d2, 4) and any(pair_branches(a, d1, d2, 3, 4)):
                    met += 1
                    assert (d1, d2) in patterns, (a, d1, d2)
    elapsed = time.monotonic() - t0
    assert (swept, met) == {12: (782_600, 8_170), 22: (44_317_504, 139_214)}[max_a4]
    print(f"lemma (i) PASS: {met} of {swept} degree pairs meet singleton 4 and "
          f"pair (3,4), all inside the fifteen patterns, in {elapsed:.1f}s")


@pytest.mark.parametrize("max_a4", [12, pytest.param(22, marks=pytest.mark.skipif(
    not os.environ.get("WCIDP_SLOW"), reason="the a4 <= 22 sweep takes about 7 minutes; set WCIDP_SLOW=1"))])
def test_singletons_and_pairs_bound_d1_and_with_well_formedness_imply_the_triples(max_a4):
    # One sweep over every sorted tuple with a4 <= max_a4 and every non-cone
    # d1 <= d2 with amplitude >= 1.  Lemma (ii): all five singletons and all
    # ten pairs imply d1 >= a0 + a3, so below that floor one of them fails.
    # Lemma (iii): singletons, pairs and well-formedness imply all ten
    # triples.  Singleton 4 goes first, as in lemma (i).
    t0 = time.monotonic()
    swept = below = met = formed = 0
    for a in combinations_with_replacement(range(1, max_a4 + 1), 5):
        weights = set(a)
        top = sum(a) - 1
        for d1 in range(1, top // 2 + 1):
            if d1 in weights:
                continue
            for d2 in range(d1, top - d1 + 1):
                if d2 in weights:
                    continue
                swept += 1
                below += d1 < a[0] + a[3]
                if not (all(singleton(a, d1, d2, i) for i in (4, 3, 2, 1, 0))
                        and all(any(pair_branches(a, d1, d2, i, j))
                                for i, j in combinations(range(5), 2))):
                    continue
                met += 1
                assert d1 >= a[0] + a[3], (a, d1, d2)
                if well_formed(a, d1, d2):
                    formed += 1
                    assert all(triple(a, d1, d2, *s) for s in combinations(range(5), 3)), (a, d1, d2)
    elapsed = time.monotonic() - t0
    assert (swept, below, met, formed) == {12: (782_600, 648_492, 616, 72),
                                           22: (44_317_504, 37_890_798, 1_899, 196)}[max_a4]
    print(f"lemmas (ii) and (iii) PASS: of {swept} degree pairs, {below} lie below "
          f"d1 = a0 + a3 and fail a singleton or pair; {met} meet the singletons and "
          f"pairs, {formed} of them well-formed and meeting every triple, in {elapsed:.1f}s")
