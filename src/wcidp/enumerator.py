"""Bounded exhaustive search for del Pezzo weighted complete intersections.

Two modes enumerate every candidate (a0..a4; d1, d2) with a4 and d2 inside
the given bounds whose verdict is del Pezzo:

* ``exhaustive`` iterates all sorted weight tuples and *all* degree pairs
  with d1 <= d2 and d1 + d2 <= sum(a) - 1 (forced by amplitude >= 1) and
  classifies each.  It exists to cross-validate the shaped mode at small
  bounds without the degree-pattern theorem, and refuses max_a4 > 60 unless
  explicitly overridden.  Its batches of whole tuples are sized by their
  degree states.  Each degree gets one-byte singleton states per
  coordinate, and one bitwise AND of the states of d1 and d2 reads the
  singleton condition.  Coordinate 4 is read first, on the (tuple, d1, d2)
  grid, because it removes nearly every pair; the grid is built in blocks
  of whole tuples, so a batch stays under 1 MiB.
  Coordinates 3..0 then filter the joined survivors of the whole batch:
  numpy decides the singleton conditions, the linear cones and amplitude,
  and ``is_well_formed`` and ``del_pezzo_quick`` the rest.

* ``shaped`` iterates only the fifteen degree patterns a quasi-smooth
  candidate can have at its largest weight: d2 = a_y + a4 (y < 4) with
  d1 = a_x + a4 (x < y), or d2 = 2*a4 with d1 a sum of two of the top
  weights or a_x + a4.  It also prunes by amplitude >= 1, d2 <= max_d2,
  d1 >= a0 + a3 and the four-weight gcd conditions.  Three lemmas on the
  conditions of Iano-Fletcher, "Working with weighted complete
  intersections" (2000), §8, carry this, each for sorted weights and
  non-cone d1 <= d2 with amplitude >= 1: (i) singleton 4 and pair (3, 4)
  put (d1, d2) among the fifteen patterns, so d2 <= 2*a4; (ii) all five
  singletons and all ten pairs give d1 >= a0 + a3; (iii) those and
  well-formedness give all ten triples, so no triple rejects a candidate
  that reached them.  The lemmas are checked, not proved, by sweeps of
  ``tests/test_lemmas.py`` that read only the definitions: up to a4 <= 12
  in tier-1, and up to a4 <= 22 under WCIDP_SLOW.
  The generator, ``_candidates_fast``, is one numpy kernel over a batch of
  (a0, a1, a2, a3) prefixes of one chunk.  It gives each pattern
  row of each prefix its a4 range in closed form; a short range is kept
  whole, and a longer one is pinned by the top-pair closed forms or cut to
  the residues of a4 that the singleton condition at coordinate 3 (else 2)
  admits, so the kernel works on arithmetic progressions of a4 from a3 up.
  Equal weights repeat rows and distinct rows meet, so a candidate may come
  more than once; one sort of a key per candidate drops the repeats.  Its
  contract is exactness: for each prefix it returns the set of (a4, d1, d2)
  those rules give, each once, and tests pin the sets by hash.  The rules
  only ever keep supersets of the survivors, and every candidate is still
  fully re-classified, so they cannot introduce false positives; a plain
  scanning generator, ``_candidates_reference``, backs the kernel in the
  differential tests.  A batch holds 128 prefixes and needs under 1 MiB
  (see ``_BATCH_CELLS``).  The chunk loop then filters the candidates
  cheapest first: as numpy masks over the batch, compressed once, the
  gcd-product and linear-cone tests and the singleton conditions at
  coordinates 0, 1 and 2 (``_prefix_singletons``); then, one survivor at a
  time, the singleton condition at coordinate 3 and ``del_pezzo_quick``.

Work is cut into one chunk per value of the smallest weight a0, whatever
the job count.  One stream, ``_sorted_tuples``, cuts a chunk into batches
for both modes: its sorted weight tuples whose four-weight subsets are
coprime, in lexicographic order, as (a0, a1, a2, a3) prefixes for shaped
mode and as whole tuples for exhaustive mode.  Workers share nothing
mutable and the merged, sorted result is identical for every job count.
``multiprocessing`` is imported only when a run starts more than one worker.
The search ends there: which solutions are series instances is asked of
``families``, which is imported only when ``EnumerationResult.sporadic`` or
``.family_instances`` is first read.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, combinations_with_replacement
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from .classifier import Candidate, del_pezzo_quick
from .quasismooth import _singleton_ok
from .wellformed import _GCD_CONDITIONS, SINGLE_GCD, is_well_formed

if TYPE_CHECKING:
    from .families import FamilyMatch

MODE_SHAPED = "shaped"
MODE_EXHAUSTIVE = "exhaustive"
_MODES = (MODE_SHAPED, MODE_EXHAUSTIVE)

EXHAUSTIVE_A4_LIMIT = 60


@dataclass(frozen=True)
class Bounds:
    """Search box: largest weight and largest degree allowed."""

    max_a4: int
    max_d2: int

    def __post_init__(self):
        if any(not isinstance(v, int) or isinstance(v, bool) for v in (self.max_a4, self.max_d2)):
            raise ValueError(f"bounds must be integers, got {(self.max_a4, self.max_d2)}")
        if self.max_a4 < 1:
            raise ValueError(f"max_a4 must be >= 1, got {self.max_a4}")
        if self.max_d2 < 2:
            raise ValueError(f"max_d2 must be >= 2, got {self.max_d2}")


@dataclass(frozen=True)
class EnumerationResult:
    """Every del Pezzo candidate in a box, sorted by tuple.

    ``sporadic`` and ``family_instances`` split ``solutions`` by the
    series instances inside ``bounds``.  That index is built on the first
    read of either view and kept, so a caller that reads only
    ``solutions`` never pays for it.
    """

    bounds: Bounds
    mode: str
    solutions: tuple[Candidate, ...]

    @cached_property
    def _instances(self) -> dict[tuple[int, ...], tuple[FamilyMatch, ...]]:
        from . import families

        return families.instances_within(self.bounds.max_a4, self.bounds.max_d2)

    @cached_property
    def sporadic(self) -> tuple[Candidate, ...]:
        """The solutions that no series instance accounts for."""
        return tuple(c for c in self.solutions if c.key not in self._instances)

    @cached_property
    def family_instances(self) -> tuple[tuple[Candidate, tuple[FamilyMatch, ...]], ...]:
        """Each solution that is a series instance, with every match."""
        return tuple((c, self._instances[c.key]) for c in self.solutions
                     if c.key in self._instances)


# The memory budget of both kernels, in cells of two bytes.  Both take
# their batches from ``_sorted_tuples``, every batch of a chunk but its last
# of the size below.
#
# Exhaustive mode cuts a batch of weight tuples so that its degree states
# need at most this many cells: 32 for each degree of each tuple, with
# degrees up to the largest that can matter, as a degree takes about 64
# bytes (its state index and its states at the five coordinates).  The
# batch's coordinate-4 grid, one cell for each (tuple, d1, d2), is built in
# blocks of whole tuples of at most this many cells, as a grid cell takes
# two bytes (its state byte and its mask); the survivors kept from each
# block are a few percent of it.  So a batch needs under 1 MiB (a test
# holds this at (20, 40)), and the exhaustive run's peak memory stays that
# of the interpreter and numpy.  Of 2^17..2^20, 2^18 ran fastest at
# (20, 40); at (30, 60) 2^20 ran about 15 % faster, but needs four times
# the memory.
#
# Shaped mode charges a weight prefix 2048 cells (4 KiB): its fifteen
# pattern rows and its candidates, up to about 40 at (40, 80), each held in
# a few arrays of 8-byte entries.  So a batch of _BATCH_CELLS >> 11 = 128
# prefixes needs under 1 MiB.  At (40, 80), under tracemalloc, a chunk
# peaks at 514 kB (a0 = 1) and at most 961 kB (a0 = 22); the batch with
# the most candidates, 5,144, is in a0 = 24.  The peak is the generator's,
# as the chunk loop keeps its candidates as int32 columns.  A test holds
# a0 = 1 and 17..24 under 1 MiB.  Batches of 256 prefixes ran the
# generator about a fifth faster, but left the (40, 80) run about 0.8 MB
# more resident memory.
_BATCH_CELLS = 1 << 18


# ---------------------------------------------------------------------------
# the weight tuples of a chunk, for both modes

# The four-weight subsets, whose gcds must be 1: the weight-only gcd
# conditions.
_QUADRUPLES = [kept for kind, kept, _ in _GCD_CONDITIONS if kind == SINGLE_GCD]


@cache
def _sorted_tails(max_a4: int, width: int) -> np.ndarray:
    """Every sorted (a2, ..., a_{width-1}) with entries in 1..max_a4, one
    column each in lexicographic order: a (width - 2, n) array, built once
    per bound and width."""
    tails = np.fromiter(chain.from_iterable(combinations_with_replacement(range(1, max_a4 + 1), width - 2)),
                        dtype=np.min_scalar_type(max_a4)).reshape(-1, width - 2).T.copy()
    tails.flags.writeable = False
    return tails


def _sorted_tuples(max_a4: int, a0: int, width: int, size: int) -> Iterator[np.ndarray]:
    """The sorted weight tuples (a0, a1, ...) of ``width`` entries up to
    max_a4 whose four-weight subsets within ``width`` are coprime, in
    lexicographic order, as (width, m) arrays of ``size`` columns (the last
    may hold fewer).  A batch may span values of a1.  The tuples are built
    and filtered in pieces of at most ``size``, so that, beside the cached
    table, the stream holds under two batches."""
    tails = _sorted_tails(max_a4, width)
    quadruples = np.array([kept for kept in _QUADRUPLES if kept[3] < width], dtype=np.intp).reshape(-1, 4)
    held = np.empty((width, 0), dtype=np.int64)
    for a1 in range(a0, max_a4 + 1):
        # The sorted tails with a2 >= a1 are a suffix of the table.
        for cut in range(np.searchsorted(tails[0], a1), tails.shape[1], size):
            tail = tails[:, cut:cut + size]
            w = np.empty((width, tail.shape[1]), dtype=np.int64)
            w[:2] = [[a0], [a1]]
            w[2:] = tail
            held = np.concatenate((held, w[:, (np.gcd.reduce(w[quadruples], axis=1) == 1).all(axis=0)]), axis=1)
            if held.shape[1] >= size:
                yield held[:, :size]
                held = held[:, size:]
    if held.shape[1]:
        yield held


# ---------------------------------------------------------------------------
# shaped mode: candidate generation for a batch of weight prefixes

# Below this many a4 values, scanning a pattern's range outright is cheaper
# than solving the membership conditions for a4.
_SCAN_THRESHOLD = 6


# d1 = c1 + k1*a4, d2 = c2 + k2*a4 for each of the fifteen patterns.
def _shape_rows(a0: int, a1: int, a2: int, a3: int):
    return (
        (1, a0, 1, a1), (1, a0, 1, a2), (1, a1, 1, a2),
        (1, a0, 1, a3), (1, a1, 1, a3), (1, a2, 1, a3),
        (0, a0 + a3, 2, 0), (0, a1 + a3, 2, 0), (0, a2 + a3, 2, 0),
        (1, a0, 2, 0), (1, a1, 2, 0), (1, a2, 2, 0),
        (0, 2 * a3, 2, 0), (1, a3, 2, 0), (2, 0, 2, 0),
    )


def degree_shapes(weights: Sequence[int]) -> list[tuple[int, int]]:
    """The deduplicated degree pairs a del Pezzo candidate can carry.

    Every quasi-smooth non-cone candidate with amplitude >= 1 has (d1, d2)
    among the fifteen patterns of ``_shape_rows``; equal weights collapse
    some of them.
    """
    a0, a1, a2, a3, a4 = weights
    return sorted({(c1 + k1 * a4, c2 + k2 * a4) for k1, c1, k2, c2 in _shape_rows(a0, a1, a2, a3)})


# The rows as arrays: k1 and k2 of each row, (15,), and c1 and c2 as the
# (4, 15) coefficients of (a0, a1, a2, a3), read off the unit prefixes.
_UNIT_ROWS = np.array([_shape_rows(*e) for e in np.eye(4, dtype=int).tolist()])
_K1, _K2 = _UNIT_ROWS[0, :, 0], _UNIT_ROWS[0, :, 2]
_C1, _C2 = _UNIT_ROWS[:, :, 1], _UNIT_ROWS[:, :, 3]


# Branch (d) of the pair condition at the two largest coordinates, read from
# two three-bit masks: bit k of m1 (of m2) says that d1 - a_k (d2 - a_k)
# lies in <a3, a4>, for k in {0, 1, 2}.  It holds when each degree has two
# such shifts and every k is one of them; _BRANCH_D[m1 | m2 << 3] says so.
_BRANCH_D = np.array([
    bin(m1).count("1") >= 2 and bin(m2).count("1") >= 2 and m1 | m2 == 7
    for m2 in range(8) for m1 in range(8)
])
_SHIFT_BITS = 1 << np.arange(6)


def _top_pair_forms(c: np.ndarray, a3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed forms for the a4 that make c + a4 a member of <a3, a4> on the
    steep tail a3 <= a4 < 2*a3, for -a3 < c <= a3, elementwise.

    When c is 0 or a3 (the combination a4 + c), every a4 does: the first
    array marks those.  Otherwise membership forces c + a4 to be a plain
    multiple of a3, and 3*a3 would need a4 >= 2*a3, so one a4 of the tail
    remains, a3 + (-c mod a3): the second array.  The caller filters it to
    its own range."""
    return c % a3 == 0, a3 + -c % a3


def _top_pair_a4(c1: np.ndarray, c2: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The a4 values compatible with the pair condition at the two largest
    coordinates, for rows (d1, d2) = (c1 + a4, c2 + a4) of the prefixes p,
    (4, m), whose a4 ranges lie within a3 <= a4 < 2*a3: an (m, 8) array with
    -1 for a slot a row does not keep, repeats allowed, and the rows where
    the condition holds for every a4, whose values mean nothing."""
    c = np.stack((c1, c2), axis=1)
    every, forms = _top_pair_forms(
        np.concatenate((c, (c[:, :, None] - p[:3].T[:, None, :]).reshape(-1, 6)), axis=1), p[3][:, None])
    # Branches (a) to (c) need a degree in the span, (d) the shifts: a shift
    # whose closed form holds for every a4 sets its bit in ``base``; any
    # other a4 that can satisfy (d) is the closed form of some shift and
    # collects the bits of every shift whose form it is.
    shifts, listed = every[:, 2:], forms[:, 2:]
    base = (shifts * _SHIFT_BITS).sum(axis=1)
    bits = np.where(shifts, 0, _SHIFT_BITS)
    collected = ((listed[:, :, None] == listed[:, None, :]) * bits[:, None, :]).sum(axis=2)
    listed[shifts | ~_BRANCH_D[base[:, None] | collected]] = -1
    return forms, every[:, 0] | every[:, 1] | _BRANCH_D[base]


def _linear_residues(k: np.ndarray, r: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The residues x (mod m) with k*x == r (mod m), elementwise: two slots
    on a new last axis, -1 where empty, and where every x solves it.

    Only k in {-1, 0, 1, 2} occurs (degree patterns are at most 2*a4 plus a
    constant), so each case has a closed form: x = k*r for k = 1 or -1, and
    for k = 2, r/2 when r is even and (r + m)/2 when r + m is even."""
    r = r % m
    first = np.where(k == 2, np.where(r & 1, -1, r >> 1), k * r % m)
    first[k == 0] = -1
    second = np.where((k == 2) & ((r + m) & 1 == 0), (r + m) >> 1, -1)
    return np.stack((first, second), axis=-1), (k == 0) & (r == 0)


def _coord_residues(k1: np.ndarray, c1: np.ndarray, k2: np.ndarray, c2: np.ndarray,
                    subs: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Necessary residues of a4 (mod m) for the singleton condition at the
    coordinate of weight m, row by row, for the patterns (d1, d2) =
    (c1 + k1*a4, c2 + k2*a4): m divides d1 or d2, or both sides admit a
    shift d - a_e divisible by m, where a_e runs over subs, (4, r), and a4.

    Returns an (r, 14) array with -1 for an empty slot, repeats allowed, and
    the rows with no restriction, whose residues mean nothing."""
    # The shifts of d1 by a0..a3 and by a4 (coefficient k1 - 1), the same
    # for d2, then d1 and d2 themselves.
    sols, every = _linear_residues(
        np.stack((k1, k1, k1, k1, k1 - 1, k2, k2, k2, k2, k2 - 1, k1, k2)),
        np.concatenate((subs - c1, [-c1], subs - c2, [-c2], [-c1], [-c2])), m)
    sols = sols.transpose(1, 0, 2).reshape(-1, 24)
    free1, free2 = every[:5].any(axis=0), every[5:10].any(axis=0)
    r1, r2 = sols[:, :10], sols[:, 10:20]
    in_r2 = (r1[:, :, None] == r2[:, None, :]).any(axis=2)
    both = np.where(free1[:, None], r2, np.where(free2[:, None] | in_r2, r1, -1))
    return np.concatenate((both, sols[:, 20:]), axis=1), every[10] | every[11] | (free1 & free2)


def _distinct(values: np.ndarray) -> np.ndarray:
    """values, (r, s), sorted along each row, with -1 in place of each
    repeat.  A stable sort pages in the least of numpy's sorting code."""
    values = np.sort(values, axis=1, kind="stable")
    values[:, 1:][values[:, 1:] == values[:, :-1]] = -1
    return values


def _rows(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (prefix, row) pairs where the (n, 15) ``mask`` holds, repeated
    cyclically to a multiple of 64, and which of them are the originals.

    numpy keeps up to seven freed buffers of every size under 1 KiB for
    reuse, so arrays of as many sizes as row counts take kept about a
    megabyte after a (40, 80) run; counts rounded up take a handful of
    sizes.  A repeat computes what its original does, so writing both to a
    table is harmless, and it is kept out of the progressions."""
    j, r = np.nonzero(mask)
    size = -(-j.size // 64) * 64
    return np.resize(j, size), np.resize(r, size), np.arange(size) < j.size


def _progressions(p: np.ndarray, max_a4: int, max_d2: int):
    """The a4 values of every pattern row of the prefixes p, (4, n).

    Returns c1 and c2, (n, 15), and flat arrays (cell, first, step, count)
    of arithmetic progressions of a4 that start at a3 or above, where the
    cell j*15 + r names prefix j's row r.  A range of at most
    ``_SCAN_THRESHOLD`` + 1 values is kept whole; any other is pinned by the
    top pair (rows with d2 = c2 + a4) or restricted to residues of a4 modulo
    a3, else modulo a2, else kept whole.  Rows that equal weights repeat,
    and rows that meet, give the same candidate more than once.
    """
    a3 = p[3][:, None]
    c1, c2 = p.T @ _C1, p.T @ _C2
    hi = (p.sum(axis=0)[:, None] - 1 - c1 - c2) // (_K1 + _K2 - 1)
    np.minimum(hi, (max_d2 - c2) // _K2, out=hi)
    np.minimum(hi, max_a4, out=hi)
    live = hi >= a3
    solve = live & (hi - a3 > _SCAN_THRESHOLD)
    whole = live & ~solve

    # The top pair pins the a4 of its rows to values in [a3, 2*a3), each the
    # one term of a progression of step a3 (hi < 2*a3 there).
    j, r, real = _rows(solve & (_K2 == 1))
    values, free = _top_pair_a4(c1[j, r], c2[j, r], p[:, j])
    rows = [(j, r, real & ~free, p[3, j], np.concatenate((values, np.full((j.size, 6), -1)), axis=1))]
    # Coordinate 3 restricts a4 unless its condition holds for every a4;
    # coordinate 2 is the fallback, and a range neither restricts is whole.
    rest = solve & (_K2 == 2)
    rest[j, r] |= free
    for i in (3, 2):
        if not rest.any():
            break
        j, r, real = _rows(rest)
        m = p[i, j]
        res, every = _coord_residues(_K1[r], c1[j, r], _K2[r], c2[j, r], p[:, j], m)
        rows.append((j, r, real & ~every, m, res))
        rest[:] = False
        rest[j, r] = every
    whole |= rest
    j, r, kept, m, res = map(np.concatenate, zip(*rows))

    res = _distinct(res)
    first = a3[j] + (res - a3[j]) % m[:, None]
    count = np.where((res >= 0) & kept[:, None], (hi[j, r][:, None] - first) // m[:, None] + 1, 0)
    used = np.flatnonzero(count)
    row = used // 14
    count_whole = np.where(whole, hi - a3 + 1, 0).ravel()
    cell = np.flatnonzero(count_whole)
    return c1, c2, *(np.concatenate(x) for x in zip(
        ((j * 15 + r)[row], first.ravel()[used], m[row], count.ravel()[used]),
        (cell, p[3, cell // 15], np.ones_like(cell), count_whole[cell])))


class _Rows(np.ndarray):
    """Candidate rows (column of p, a4, d1, d2), one per line.  Like a set
    of candidates, and unlike a plain array, they are true when there is at
    least one, so callers may test them as they tested sets."""

    def __bool__(self) -> bool:
        return len(self) > 0


def _candidates_fast(p: np.ndarray, max_a4: int, max_d2: int) -> _Rows:
    """Shaped-mode candidates for a batch of weight prefixes.

    p is a (4, n) array, one (a0, a1, a2, a3) column per prefix.  Returns
    (m, 4) distinct rows (column of p, a4, d1, d2), sorted, for each prefix
    the set ``_progressions`` describes.
    """
    c1, c2, cell, first, step, count = _progressions(p, max_a4, max_d2)
    # One key per candidate, ((column*(max_a4 + 1) + a4)*b + d1)*b + d2 with
    # b = 2*max_a4 + 1 > d2 >= d1, so one sort brings repeats together.  The
    # key is linear in a4, so a progression of a4 gives one of keys.  It fits
    # in an int64 while n*(max_a4 + 1)*b**2 < 2**63: at 128 prefixes, for
    # max_a4 up to about 2.6e5.
    b = 2 * max_a4 + 1
    r = cell % 15
    slope = (b + _K1[r]) * b + _K2[r]
    start = (cell // 15 * (max_a4 + 1) * b + c1.ravel()[cell]) * b + c2.ravel()[cell] + slope * first
    key = np.arange(count.sum())
    key -= np.repeat(count.cumsum() - count, count)
    key *= np.repeat(slope * step, count)
    key += np.repeat(start, count)
    key.sort(kind="stable")
    key = key[np.diff(key, prepend=-1) != 0]
    rows = np.empty((key.size, 4), dtype=np.int64)
    for col, radix in ((3, b), (2, b), (1, max_a4 + 1)):
        rows[:, col] = key % radix
        key //= radix
    rows[:, 0] = key
    return rows.view(_Rows)


def _candidates_reference(p: np.ndarray, max_a4: int, max_d2: int) -> np.ndarray:
    """Plain shaped-mode generator: scan a4 for each prefix and apply only
    the documented prunes.  It takes and returns what ``_candidates_fast``
    does, and the differential tests hold that one to it."""
    cands = []
    for j, (a0, a1, a2, a3) in enumerate(p.T.tolist()):
        for a4 in range(a3, max_a4 + 1):
            total = a0 + a1 + a2 + a3 + a4
            d2_cap = min(max_d2, 2 * a4)
            for d1, d2 in degree_shapes((a0, a1, a2, a3, a4)):
                if d2 > d2_cap or d1 + d2 > total - 1 or d1 < a0 + a3:
                    continue
                cands.append((j, a4, d1, d2))
    return np.array(cands, dtype=np.int64).reshape(-1, 4)


# The singleton condition at one coordinate i, read from the hits of d1 and
# d2: bit e < 5 of a hit byte says that d - a_e is a non-negative multiple
# of a_i, and bit 5 that a_i divides d.  _SINGLETON_OK[h1, h2] holds when a_i
# divides d1 or d2, or some e != f has a hit e at d1 and a hit f at d2.
_SINGLETON_OK = np.array([
    [bool((h1 | h2) & 32) or any(h1 >> e & h2 >> f & 1 for e in range(5) for f in range(5) if e != f)
     for h2 in range(64)] for h1 in range(64)
])
_HIT_BITS = (1 << np.arange(5)).astype(np.uint8)


def _prefix_singletons(p: np.ndarray, c: np.ndarray, keep: np.ndarray,
                       coords: Sequence[int]) -> np.ndarray:
    """keep, narrowed in place to the candidates that meet the singleton
    conditions at the prefix coordinates ``coords``.

    p is a (4, n) batch of prefixes, c the int32 (4, m) candidate columns
    (column of p, a4, d1, d2) and keep a boolean (m,) mask.  One table per
    batch and coordinate holds the hits of each residue class of a_i, so a
    candidate needs d1, d2 and a4 modulo a_i and two reads of it.  Of the
    a_e <= d tests only a4 <= d1 is made: shaped candidates have
    d1 >= a0 + a3 > a3 and d2 > a4.  Elsewhere the mask may keep a
    candidate the condition rejects, but never drops one it admits."""
    j, a4, d1, d2 = c
    m = p[list(coords)].astype(np.int32)
    n, span = p.shape[1], int(m.max())
    # table[k, j, r] has bit e when a_e == r (mod m[k, j]) for e < 4, and
    # bit 5 at r = 0.
    table = np.zeros((len(coords), n, span), dtype=np.uint8)
    table[:, :, 0] = 32
    coord, col = np.ogrid[:len(coords), :n]
    for e in range(4):
        table[coord, col, p[e] % m] |= _HIT_BITS[e]
    at = j * span
    a4_hit = np.where(a4 <= d1, np.uint8(16), np.uint8(0))
    for k in range(len(coords)):
        mk = m[k][j]
        ra = a4 % mk
        r1, r2 = d1 % mk, d2 % mk
        h1 = table[k].ravel()[at + r1]
        h1 |= (r1 == ra) * a4_hit
        h2 = table[k].ravel()[at + r2]
        h2 |= (r2 == ra).view(np.uint8) << 4
        keep &= _SINGLETON_OK[h1, h2]
    return keep


def _solve_shaped_chunk(max_a4: int, max_d2: int, a0: int,
                        generator: Callable) -> list[tuple[int, ...]]:
    sols = []
    size = max(1, _BATCH_CELLS >> 11)
    # The three weights of the prefix that each four-weight subset with a4
    # keeps.
    tops = [kept[:3] for kept in _QUADRUPLES if kept[3] == 4]
    for p in _sorted_tuples(max_a4, a0, 4, size):
        # A short batch is filled up with prefixes beyond the box, which
        # have no candidates, so that every batch has one size (see _rows).
        p = np.concatenate((p, np.full((4, size - p.shape[1]), max_a4 + 1)), axis=1)
        # a4 shares a prime with one of the three-weight gcds exactly when it
        # shares one with their product.
        g_prod = np.gcd.reduce(p[tops], axis=1).prod(axis=0)
        cands = generator(p, max_a4, max_d2)
        # The candidates as int32 columns, with columns of zeros, which the
        # linear-cone test rules out, to make the count a multiple of 128
        # (see _rows).
        c = np.zeros((4, -(-len(cands) // 128) * 128), dtype=np.int32)
        c[:, :len(cands)] = cands.T
        del cands
        j, a4, d1, _ = c
        # Every pattern has d2 > a4 and d1 >= a0 + a3 > a3, so the one linear
        # cone left to rule out is d1 = a4.
        keep = np.gcd(g_prod[j], a4) == 1
        keep &= d1 != a4
        prefixes = list(map(tuple, p.T.tolist()))
        for j, a4, d1, d2 in zip(*c[:, _prefix_singletons(p, c, keep, (0, 1, 2))].tolist()):
            w = prefixes[j] + (a4,)
            if _singleton_ok(w, d1, d2, 3) and del_pezzo_quick(w, d1, d2):
                sols.append((*w, d1, d2))
    return sols


# ---------------------------------------------------------------------------
# exhaustive mode

@cache
def _degree_tables(max_d2: int) -> tuple[np.ndarray, np.ndarray]:
    """The residues d % a of the degrees 0..max_d2, one row per a in
    0..max_d2 + 1 (row 0 is unused; a larger a leaves d as it is); and the
    sums d1 + d2 of the degree pairs 1 <= d1 <= d2 <= max_d2, indexed by
    (d1, d2), with 2 * max_d2 + 1 at every other index.  Built once per
    bound."""
    d = np.arange(max_d2 + 1)
    residues = d % np.maximum(np.arange(max_d2 + 2), 1)[:, None]
    pair_sum = (d[:, None] + d).astype(np.min_scalar_type(2 * max_d2 + 1))
    pair_sum[(d[:, None] > d) | (d[:, None] == 0)] = 2 * max_d2 + 1
    residues.flags.writeable = pair_sum.flags.writeable = False
    return residues, pair_sum


def _singleton_states(w: np.ndarray, dmax: int, max_d2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-byte singleton states of the degrees 0..dmax (dmax <= max_d2) of
    the weight tuples w, (5, n): the arrays (lead, trail, reach).  lead and
    trail are indexed by (coordinate, tuple, degree); reach[tuple, d] has bit
    e set when a_e <= d.

    At coordinate i the singleton condition holds for d1 <= d2 exactly when
    ``lead[i, k, d1] & trail[i, k, d2]`` is non-zero.  Bit 7 of lead says
    that a_i divides d1, and bit 6 of trail that it divides d2; each byte
    sets the other of the two bits always.  Bit e < 5 of trail is a hit at
    d2, d2 - a_e a non-negative multiple of a_i.  Bits 0..4 of lead are those
    a hit at d2 needs to pair with a hit at d1: none without a hit at d1,
    any index after several, and any index but e after the one hit e.
    """
    n = w.shape[1]
    span = int(w.max())
    # The hits of a residue class of a_i are the bits of the weights in it,
    # summed since they differ; class 0 also carries the divisor bit.  A
    # degree keeps the hits of its class whose weights it reaches.
    rows = np.arange(0, 5 * n * span, span).reshape(5, n)
    at = rows + w[:, None, :] % w
    classes = np.bincount(at.ravel(), np.repeat(_HIT_BITS, 5 * n), 5 * n * span).astype(np.uint8)
    classes[rows] |= 32
    at = _degree_tables(max_d2)[0][np.minimum(w, max_d2 + 1), :dmax + 1]
    at += rows[:, :, None]
    reach = np.einsum("e,e...->...", _HIT_BITS, np.arange(dmax + 1) >= w[:, :, None])
    states = classes[at]
    states &= reach | 32
    hits = states & 31
    lead = hits ^ 31
    lead |= ((hits & (hits - 1)) != 0) * np.uint8(31)
    lead *= hits != 0
    lead |= (states & 32) << 2 | 64
    return lead, hits | (states & 32) << 1 | 128, reach


def _exhaustive_tuple_solutions(w: np.ndarray, max_d2: int) -> list[tuple[int, ...]]:
    """Classify every admissible degree pair for a batch of weight tuples.

    A batch is a (5, n) array, one column per sorted weight tuple, of tuples
    that pass the weight-only single-gcd conditions; it may span prefixes.
    Each degree up to the batch's largest d2 gets one-byte singleton states
    (``_singleton_states``).  Coordinate 4 goes first, on the (tuple, d1, d2)
    grid, with the linear-cone test folded into its states and d1 <= d2 and
    each tuple's amplitude masked in: it removes nearly every pair (96 % at
    (20, 40)).  The grid is built in blocks of whole tuples, each of at most
    ``_BATCH_CELLS`` cells (at least one tuple), and only the flat indices
    of each block's survivors are kept, joined in (tuple, d1, d2) order.
    Coordinates 3..0 then filter the survivors of the whole batch at once:
    numpy decides the singleton conditions, the linear cones and amplitude,
    and ``is_well_formed`` and ``del_pezzo_quick`` the rest.  Results come
    in (tuple, d1, d2) order, so a batch gives the concatenation of what its
    columns give one at a time.
    """
    total = w.sum(axis=0)
    dmax = min(max_d2, int(total.max()) - 2)
    lead, trail, reach = _singleton_states(w, dmax, max_d2)
    # A degree equal to a weight makes a linear cone; there, and only
    # there, the reach grows.
    cone = reach[:, 1:] != reach[:, :-1]
    lead[4, :, 1:][cone] = 0
    trail[4, :, 1:][cone] = 0
    side = dmax + 1
    pair_sum = _degree_tables(max_d2)[1][:side, :side]
    cap = np.minimum(total, 2 * max_d2 + 1).astype(pair_sum.dtype)[:, None, None]
    block = max(1, _BATCH_CELLS // (side * side))
    found = []
    for lo in range(0, w.shape[1], block):
        grid = lead[4, lo:lo + block, :, None] & trail[4, lo:lo + block, None, :]
        hit = grid.view(bool)
        np.not_equal(grid, 0, out=hit)
        hit &= pair_sum < cap[lo:lo + block]
        found.append(np.flatnonzero(hit) + lo * side * side)
    del grid, hit
    k, d1, d2 = np.unravel_index(np.concatenate(found), (w.shape[1], side, side))
    at1, at2 = k * side + d1, k * side + d2
    ok = np.ones(len(k), dtype=bool)
    for i in (3, 2, 1, 0):
        ok &= (lead[i].ravel()[at1] & trail[i].ravel()[at2]) != 0
    sols = []
    for a, d1, d2 in zip(map(tuple, w[:, k[ok]].T.tolist()), d1[ok].tolist(), d2[ok].tolist()):
        if is_well_formed(a, d1, d2) and del_pezzo_quick(a, d1, d2):
            sols.append((*a, d1, d2))
    return sols


def _solve_exhaustive_chunk(max_a4: int, max_d2: int, a0: int) -> list[tuple[int, ...]]:
    # No admissible degree exceeds the largest sum(w) - 2.  Every tuple is
    # charged the degree states of that largest box, so ``step`` tuples stay
    # within _BATCH_CELLS whatever their a1.
    side = min(max_d2, 5 * max_a4 - 2)
    step = max(1, _BATCH_CELLS // (32 * (side + 1)))
    sols = []
    for w in _sorted_tuples(max_a4, a0, 5, step):
        sols.extend(_exhaustive_tuple_solutions(w, side))
    return sols


# ---------------------------------------------------------------------------
# orchestration

def _solve_chunk(args: tuple) -> list[tuple[int, ...]]:
    max_a4, max_d2, mode, a0 = args
    if mode == MODE_EXHAUSTIVE:
        return _solve_exhaustive_chunk(max_a4, max_d2, a0)
    return _solve_shaped_chunk(max_a4, max_d2, a0, _candidates_fast)


def _check_request(bounds: Bounds, mode: str, jobs: int, allow_large_exhaustive: bool) -> None:
    """Raise ValueError for a request ``enumerate_solutions`` would refuse."""
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == MODE_EXHAUSTIVE and bounds.max_a4 > EXHAUSTIVE_A4_LIMIT and not allow_large_exhaustive:
        raise ValueError(
            f"exhaustive mode with max_a4 = {bounds.max_a4} > {EXHAUSTIVE_A4_LIMIT} "
            "is infeasible; it exists for cross-validation at small bounds "
            "(pass allow_large_exhaustive=True to override)"
        )
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")


def enumerate_solutions(
    bounds: Bounds,
    mode: str = MODE_SHAPED,
    jobs: int = 1,
    progress: Callable[[int, int, int], None] | None = None,
    allow_large_exhaustive: bool = False,
) -> EnumerationResult:
    """All del Pezzo candidates within the bounds, sorted.

    A request it refuses raises ValueError before any work.  There is one
    chunk per smallest weight a0 = 1..max_a4, solved in that order, so the
    chunks do not depend on ``jobs``.  ``progress`` is called as
    progress(done_chunks, max_a4, solutions_so_far) after each chunk.
    """
    _check_request(bounds, mode, jobs, allow_large_exhaustive)
    chunk_args = [(bounds.max_a4, bounds.max_d2, mode, a0) for a0 in range(1, bounds.max_a4 + 1)]
    workers = min(jobs, len(chunk_args))

    raw: list[tuple[int, ...]] = []
    if workers == 1:
        context = nullcontext()
    else:
        from multiprocessing import Pool

        context = Pool(processes=workers)
    with context as pool:
        parts = map(_solve_chunk, chunk_args) if pool is None else pool.imap(_solve_chunk, chunk_args)
        for done, part in enumerate(parts, 1):
            raw.extend(part)
            if progress is not None:
                progress(done, len(chunk_args), len(raw))

    solutions = tuple(Candidate(key[:5], key[5], key[6]) for key in sorted(set(raw)))
    return EnumerationResult(bounds=bounds, mode=mode, solutions=solutions)


def sporadic(bounds: Bounds, mode: str = MODE_SHAPED, jobs: int = 1,
             progress: Callable[[int, int, int], None] | None = None) -> tuple[Candidate, ...]:
    """Solutions within bounds that no family instance accounts for."""
    return enumerate_solutions(bounds, mode=mode, jobs=jobs, progress=progress).sporadic
