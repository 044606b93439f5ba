"""Seeded inputs and independent reference checks for the benchmark.

Nothing here imports ``wcidp``.  The tuples the package receives and the
answers its outputs are held to come from this file and the frozen data
beside it: ``golden_sporadic.csv`` (the paper's 92 sporadic rows) and
``family_pool.csv`` (family instances, see ``make_family_pool.py``).
"""

from __future__ import annotations

import csv
import random
from itertools import combinations
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent

Key = tuple[int, int, int, int, int, int, int]

# Solution counts of shaped enumeration, pinned per box.
SOLUTION_COUNTS = {(40, 80): 459, (20, 40): 183, (15, 30): 109, (10, 20): 50}

# Attrition of traced shaped enumeration at (40, 80), counted with the
# gcd and cone prefilters of the chunk loop in place.
ATTRITION = {(40, 80): {
    "enumerator.generator.candidates": 2_086_793,
    "quasismooth.singleton_prefilter.calls": 1_672_962,
    "quasismooth.singleton_prefilter.passes": 483_685,
    "classifier.del_pezzo_quick.calls": 483_685,
    "wellformed.is_well_formed.calls": 10_095,
    "wellformed.is_well_formed.passes": 766,
    "quasismooth.triple.candidates": 459,
    "classifier.del_pezzo_quick.passes": 459,
}}

# Bounds of the lookup stream: the paper's full table bound.
LOOKUP_MAX_A4 = 500
LOOKUP_MAX_D2 = 1000


def _read_rows(name: str) -> list[list[str]]:
    with open(HERE / name, newline="") as f:
        return list(csv.reader(f))[1:]


def load_golden() -> list[Key]:
    """The golden sporadic table, sorted."""
    return sorted(tuple(int(v) for v in row) for row in _read_rows("golden_sporadic.csv"))


def golden_within(max_a4: int, max_d2: int) -> list[Key]:
    return [k for k in load_golden() if k[4] <= max_a4 and k[6] <= max_d2]


def load_family_pool() -> list[tuple[Key, int, tuple[tuple[str, int], ...]]]:
    """Frozen family instances as (tuple, series id, sorted assignment)."""
    pool = []
    for row in _read_rows("family_pool.csv"):
        key = tuple(int(v) for v in row[:7])
        params = tuple((name, int(value)) for name, value in
                       (item.split("=") for item in row[8].split(";")))
        pool.append((key, int(row[7]), params))
    return pool


# ---------------------------------------------------------------------------
# independent reference: necessary conditions, written from the definitions

def degree_patterns(a) -> set[tuple[int, int]]:
    """The fifteen (d1, d2) patterns a del Pezzo candidate can carry."""
    a0, a1, a2, a3, a4 = a
    return {
        (a0 + a4, a1 + a4), (a0 + a4, a2 + a4), (a1 + a4, a2 + a4),
        (a0 + a4, a3 + a4), (a1 + a4, a3 + a4), (a2 + a4, a3 + a4),
        (a0 + a3, 2 * a4), (a1 + a3, 2 * a4), (a2 + a3, 2 * a4),
        (a0 + a4, 2 * a4), (a1 + a4, 2 * a4), (a2 + a4, 2 * a4),
        (2 * a3, 2 * a4), (a3 + a4, 2 * a4), (2 * a4, 2 * a4),
    }


def _gcd_of(values) -> int:
    g = 0
    for v in values:
        g = gcd(g, v)
    return g


def well_formed(a, d1: int, d2: int) -> bool:
    """The three gcd conditions of well-formedness."""
    for keep in combinations(range(5), 4):
        if _gcd_of(a[i] for i in keep) != 1:
            return False
    for keep in combinations(range(5), 3):
        g = _gcd_of(a[i] for i in keep)
        if d1 % g or d2 % g:
            return False
    for keep in combinations(range(5), 2):
        g = _gcd_of(a[i] for i in keep)
        if d1 % g and d2 % g:
            return False
    return True


def singleton_holds(a, d1: int, d2: int, i: int) -> bool:
    """a_i divides d1 or d2, or d1 - a_e and d2 - a_f are non-negative
    multiples of a_i for some e != f."""
    ai = a[i]
    if d1 % ai == 0 or d2 % ai == 0:
        return True
    return any(e != f and d1 >= a[e] and d2 >= a[f]
               and (d1 - a[e]) % ai == 0 and (d2 - a[f]) % ai == 0
               for e in range(5) for f in range(5))


def surely_rejected(key: Key) -> bool:
    """True when a necessary condition of the del Pezzo verdict fails."""
    a, d1, d2 = key[:5], key[5], key[6]
    if sum(a) - d1 - d2 < 1 or d1 in a or d2 in a:
        return True
    return not well_formed(a, d1, d2) or not all(
        singleton_holds(a, d1, d2, i) for i in range(5))


# ---------------------------------------------------------------------------
# seeded generators

def near_misses(rng: random.Random, count: int, taken: set[Key]) -> list[Key]:
    """Shaped tuples that look like solutions but are not.

    Each has one of the fifteen degree patterns, amplitude >= 1, no degree
    equal to a weight and coprime weight quadruples, so only the finer
    conditions (the other gcd conditions, the singleton conditions) reject
    it; ``surely_rejected`` confirms the rejection independently.
    """
    out: list[Key] = []
    while len(out) < count:
        a4 = rng.randint(4, LOOKUP_MAX_A4)
        a = tuple(sorted(rng.randint(1, a4) for _ in range(4))) + (a4,)
        d1, d2 = rng.choice(sorted(degree_patterns(a)))
        key = (*a, d1, d2)
        if (d2 > LOOKUP_MAX_D2 or key in taken or sum(a) - d1 - d2 < 1
                or d1 in a or d2 in a
                or any(_gcd_of(a[i] for i in keep) != 1 for keep in combinations(range(5), 4))
                or not surely_rejected(key)):
            continue
        taken.add(key)
        out.append(key)
    return out


# No request log of the package exists, so neither verdict class is weighted:
# ``classify`` gets the same number of accepted and rejected tuples and each
# class gets its own percentiles.  ``match`` asks every golden row (up to
# ``match_max_a4``; 97 is the table's largest a4) and ``match_families``
# family instances, again with percentiles per class.
FULL_SIZES = {"classify_per_verdict": 2000, "match_families": 20,
              "match_max_a4": 97, "cold": 21}
SMOKE_SIZES = {"classify_per_verdict": 100, "match_families": 2,
               "match_max_a4": 15, "cold": 3}


def lookup_inputs(seed: int, sizes: dict) -> dict:
    """The lookup workload's requests for one seed.

    ``classify``: distinct tuples with the expected verdict, shuffled, as
    many accepted as rejected.  Accepted ones are every golden row plus
    family instances from the pool; rejected ones are near misses.
    ``match``: golden rows up to ``match_max_a4`` (no family may match) plus
    family instances in the same a4 range, each with its expected match.
    ``cold``: tuples from the classify stream for fresh-process checks.
    """
    rng = random.Random(seed)
    golden = load_golden()
    pool = load_family_pool()
    per_verdict = sizes["classify_per_verdict"]
    family_keys = [key for key, _, _ in rng.sample(pool, per_verdict - len(golden))]
    accepted = golden + family_keys
    rejected = near_misses(rng, per_verdict, set(accepted))
    stream = [(k, True) for k in accepted] + [(k, False) for k in rejected]
    rng.shuffle(stream)

    # match_tuple's cost grows with a4, so one instance is drawn from each
    # of ``match_families`` equal a4-ordered strata: every seed then asks
    # for the same mix of cheap and dear queries.
    small = sorted((entry for entry in pool if entry[0][4] <= sizes["match_max_a4"]),
                   key=lambda entry: entry[0][4])
    strata = sizes["match_families"]
    picks = [rng.choice(small[len(small) * s // strata: len(small) * (s + 1) // strata])
             for s in range(strata)]
    match = [(k, None) for k in golden if k[4] <= sizes["match_max_a4"]]
    match += [(key, (fid, params)) for key, fid, params in picks]
    rng.shuffle(match)

    cold = stream[:sizes["cold"]]
    return {"classify": stream, "match": match, "cold": cold}
