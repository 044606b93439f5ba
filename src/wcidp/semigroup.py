"""Exact arithmetic over numerical semigroups spanned by small weight sets.

The semigroup spanned by positive integers g_1, ..., g_p is the set of all
non-negative integer combinations sum(u_i * g_i).  Membership questions of
this kind drive every quasi-smoothness test, and gcds of weight subsets drive
every well-formedness test.  All values in play are tiny (degrees stay below
a few thousand in any search this package runs), so membership is read from
a cached reachability bitmap; ``contains`` reduces larger values to it by
the gcd of the generators and Schur's bound on the Frobenius number.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence


def _checked_generators(generators: Iterable[int]) -> tuple[int, ...]:
    gens = tuple(generators)
    if not 1 <= len(gens) <= 5:
        raise ValueError(f"expected between 1 and 5 generators, got {len(gens)}")
    if any(g < 1 for g in gens):
        raise ValueError(f"generators must be positive, got {gens}")
    return gens


def contains(generators: Iterable[int], value: int) -> bool:
    """Decide whether ``value`` is a non-negative integer combination of the
    generators.

    Negative values are never representable; zero always is (the empty
    combination).  Duplicate generators are allowed and irrelevant.

    Dividing out g = gcd of the generators leaves coprime generators
    a_1 < ... < a_n, whose Frobenius number is at most (a_1 - 1)(a_n - 1) - 1
    (Schur's bound, Brauer 1942); every reduced value >= a_1 * a_n is
    therefore a member, and only smaller ones are looked up in the bitmap.
    """
    gens = _checked_generators(generators)
    if value < 0:
        return False
    g = gcd(*gens)
    if value % g:
        return False
    reduced = tuple(sorted({x // g for x in gens}))
    value //= g
    if value >= reduced[0] * reduced[-1]:
        return True
    return member(reduced, value, value)


_BITMAP_CACHE_SIZE = 1 << 15


@lru_cache(maxsize=_BITMAP_CACHE_SIZE)
def reachable_bitmap(generators: tuple[int, ...], limit: int) -> int:
    """Bitmap of representable values: bit v is set iff v is a non-negative
    integer combination of the generators, for 0 <= v <= limit.

    Cached per (generator tuple, limit); the cache only accelerates repeated
    queries and has no observable effect on results.  Safe under fork-based
    multiprocessing (each worker owns its copy) and under the GIL.
    """
    gens = _checked_generators(generators)
    full = (1 << (limit + 1)) - 1
    bitmap = 1
    for g in gens:
        step = g
        while step <= limit:
            bitmap |= (bitmap << step) & full
            step <<= 1
    return bitmap


def _bucket(limit: int) -> int:
    size = 64
    while size < limit:
        size <<= 1
    return size


def member(generators: tuple[int, ...], value: int, limit_hint: int) -> bool:
    """Fast membership via the cached bitmap.

    ``limit_hint`` is any upper bound for the values that will be queried with
    this generator set; it is rounded up to a power of two so repeated queries
    share one cache entry.
    """
    if value < 0:
        return False
    if value == 0:
        return True
    bucket = _bucket(max(limit_hint, value))
    return (reachable_bitmap(generators, bucket) >> value) & 1 == 1


def subset_gcd(weights: Sequence[int], omitted: Iterable[int]) -> int:
    """gcd of the weights whose indices are *not* in ``omitted``.

    ``omitted`` must contain 1, 2 or 3 distinct indices from {0..4}, so at
    least two weights remain.
    """
    if len(weights) != 5:
        raise ValueError(f"expected 5 weights, got {len(weights)}")
    omit = set(omitted)
    if not omit <= set(range(5)):
        raise ValueError(f"omitted indices must lie in 0..4, got {sorted(omit)}")
    if not 1 <= len(omit) <= 3:
        raise ValueError("omitted set must leave at least two weights")
    g = 0
    for i, w in enumerate(weights):
        if i not in omit:
            g = gcd(g, w)
    return g


def pair_span_contains_sum(a3: int, a4: int, ai: int) -> bool:
    """Closed form for ``ai + a4 in <a3, a4>`` on a steep tail.

    Valid when 0 < ai < a3 < a4 < 2*a3: the only representation a candidate
    sum can take is 2*a3, so membership holds exactly when a4 == 2*a3 - ai.
    """
    if not 0 < ai < a3 < a4 < 2 * a3:
        raise ValueError(f"preconditions 0 < ai < a3 < a4 < 2*a3 violated: {ai, a3, a4}")
    return a4 == 2 * a3 - ai


def pair_span_contains_sum_minus(a3: int, a4: int, ai: int, aj: int) -> bool:
    """Closed form for ``ai + a4 - aj in <a3, a4>`` on a steep tail.

    Valid when 0 < ai, aj < a3 < a4 < 2*a3 and ai != aj.  The shifted sum can
    only be a multiple of a3, forcing a4 == 2*a3 + aj - ai when ai > aj and
    a4 == a3 + aj - ai when ai < aj.
    """
    if ai == aj:
        raise ValueError("ai and aj must differ")
    if not (0 < ai < a3 and 0 < aj < a3 and a3 < a4 < 2 * a3):
        raise ValueError(f"preconditions violated: {ai, aj, a3, a4}")
    if ai > aj:
        return a4 == 2 * a3 + aj - ai
    return a4 == a3 + aj - ai
