"""Exact arithmetic over numerical semigroups spanned by small weight sets.

The semigroup spanned by positive integers g_1, ..., g_p is the set of all
non-negative integer combinations sum(u_i * g_i).  Membership questions of
this kind drive every quasi-smoothness test (the gcds of weight subsets that
well-formedness needs live in ``wellformed``).  All values in play are tiny
(degrees stay below a few thousand in any search this package runs), so
membership is read from a cached reachability bitmap; ``contains`` reduces
larger values to it by the gcd of the generators and Schur's bound on the
Frobenius number.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable


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
