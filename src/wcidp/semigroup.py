"""Exact arithmetic over numerical semigroups spanned by small weight sets.

The semigroup spanned by positive integers g_1, ..., g_p is the set of all
non-negative integer combinations sum(u_i * g_i).  Membership questions of
this kind drive every quasi-smoothness test (the gcds of weight subsets that
well-formedness needs live in ``wellformed``).

``member`` builds the membership test of one generator set, once, and every
membership question in the package goes through it, ``contains`` included.
It decides membership in four steps:

* gcd reduction: with g the gcd of the generators, a value is a member only
  if g divides it, and then exactly when value / g is a member of the
  semigroup of the coprime generators a_1 < ... < a_n = generators / g;
* Schur's cap: the Frobenius number of coprime a_1 < ... < a_n is at most
  (a_1 - 1)(a_n - 1) - 1 (Schur's bound, Brauer 1942), so every reduced
  value >= a_1 * a_n is a member, and a_1 = 1 makes every value one;
* two coprime generators p and q: writing v = x*p + y*q forces
  x = v * p^-1 (mod q), so v is a member exactly when
  v >= p * (v * p^-1 mod q), a closed form with no table;
* three or more: a cached reachability bitmap, read once per test, whose
  limit is the smaller of the caller's value range and Schur's cap.

The cost of a test is therefore bounded by the weights, never by the values
asked about.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Callable, Iterable


def contains(generators: Iterable[int], value: int) -> bool:
    """Decide whether ``value`` is a non-negative integer combination of the
    generators.

    Negative values are never representable; zero always is (the empty
    combination).  Duplicate generators are allowed and irrelevant.  A value
    or generator that is not an ``int`` (a ``bool`` included) raises
    ValueError.
    """
    gens = tuple(generators)
    if not 1 <= len(gens) <= 5:
        raise ValueError(f"expected between 1 and 5 generators, got {len(gens)}")
    if any(not isinstance(x, int) or isinstance(x, bool) for x in (*gens, value)):
        raise ValueError(f"generators and value must be integers, got {gens} and {value!r}")
    if any(g < 1 for g in gens):
        raise ValueError(f"generators must be positive, got {gens}")
    return member(gens, value)(value)


_BITMAP_CACHE_SIZE = 1 << 15


@lru_cache(maxsize=_BITMAP_CACHE_SIZE)
def reachable_bitmap(generators: tuple[int, ...], limit: int) -> int:
    """Bitmap of representable values: bit v is set iff v is a non-negative
    integer combination of the positive generators, for 0 <= v <= limit.

    Cached per (generator tuple, limit); the cache only accelerates repeated
    queries and has no observable effect on results.  Safe under fork-based
    multiprocessing (each worker owns its copy) and under the GIL.
    """
    full = (1 << (limit + 1)) - 1
    bitmap = 1
    for g in generators:
        step = g
        while step <= limit:
            bitmap |= (bitmap << step) & full
            step <<= 1
    return bitmap


def member(generators: tuple[int, ...], limit: int) -> Callable[[int], bool]:
    """The membership test of the semigroup spanned by positive ``generators``.

    ``limit`` is the largest value the caller expects to ask about.  It only
    sizes the bitmap of three or more generators, rounded up to a power of
    two so that nearby limits share one cache entry; a larger value is still
    answered exactly.
    """
    g = gcd(*generators)
    if g > 1:
        generators = tuple([x // g for x in generators])
    low = generators[0]
    if low == 1:
        def test(v: int) -> bool:
            return v >= 0 and v % g == 0
        return test
    if len(generators) == 2:
        # The closed form holds in either order, and when q is 1.
        p, q = low * g, generators[1]
        inv = pow(low, -1, q)
        if g == 1:
            def test(v: int) -> bool:
                return v >= p * (v * inv % q)
        else:
            def test(v: int) -> bool:
                return v % g == 0 and v >= p * (v // g * inv % q)
        return test
    cap = min(generators) * max(generators)
    size = min(_bucket(limit // g), cap - 1)
    bits = reachable_bitmap(generators, size)

    def test(v: int) -> bool:
        if v % g:
            return False
        v //= g
        if v > size:
            return v >= cap or (reachable_bitmap(generators, _bucket(v)) >> v) & 1 == 1
        return v >= 0 and (bits >> v) & 1 == 1
    return test


def _bucket(limit: int) -> int:
    """The least power of two >= ``limit``, and at least 64."""
    return 1 << max(6, (limit - 1).bit_length())
