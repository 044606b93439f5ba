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
  and ``del_pezzo_quick`` the rest.

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
  (a0, a1, a2) weight triples of one chunk.  In each pattern row d1 and d2
  are linear in (a3, a4), and modulo a3 the singleton condition at
  coordinate 3 needs one of five atoms "a3 divides P + k*a4", with P fixed
  by the triple: a3 divides d1, d2, or a shift d - a_e of one degree.  An
  atom with k >= 1 is a family of lines on which a4 is affine in a3, and
  the box, amplitude >= 1 and d2 <= max_d2 cut each line to one interval
  of a3, and bound its slope, so that lines without a point are never
  made; the one atom with k = 0 that matters keeps whole columns of a4.
  So no residue system is solved per (a0, a1, a2, a3) prefix.  The atoms
  keep a superset of the condition, and every candidate is still fully
  re-classified, so they cannot introduce false positives.  A plain scanning generator,
  ``_candidates_reference``, backs the kernel in the differential tests:
  every candidate it gives that meets singleton 3 must be among the
  kernel's points, and tests pin those points by hash.  The kernel returns
  runs of points, which the chunk loop expands with ``np.repeat`` in
  slices of whole runs, at most 4096 points unless one run alone is
  longer, and filters as numpy masks, the most selective first: the
  linear cone d1 = a4 and the singleton condition at coordinate 1 on each
  slice; then, on their survivors packed by 2048 points, the singleton
  conditions at coordinates 2 and 0 (``_prefix_singletons``) and the
  four-weight gcd conditions.  A point comes once for each atom and row
  that hold it, and one set drops the repeats.  Then, one survivor at a
  time, the singleton condition at coordinate 3 and ``del_pezzo_quick``
  decide.
  A batch holds 128 triples, 64 at the paper's bound, and needs under
  1 MiB (see ``_BATCH_CELLS``).

Work is cut into one chunk per value of the smallest weight a0, whatever
the job count.  One stream, ``_sorted_tuples``, cuts a chunk into batches
for both modes: its sorted weight tuples whose four-weight subsets are
coprime, in lexicographic order, as (a0, a1, a2) triples for shaped mode
and as whole tuples for exhaustive mode.  Workers share nothing
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
from itertools import chain, combinations, combinations_with_replacement
from math import gcd
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from .classifier import Candidate, del_pezzo_quick
from .quasismooth import _singleton_ok
from .wellformed import _GCD_CONDITIONS, SINGLE_GCD

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
# Shaped mode charges a weight triple 2048 cells (4 KiB): the atoms of its
# fifteen pattern rows, their lines and the runs of points on them, each
# held in about a dozen arrays of 4-byte entries.  So a batch of
# _BATCH_CELLS >> 11 = 128 triples, expanded in slices of whole runs of at
# most _BATCH_CELLS >> 6 = 4096 points (64 cells a point: five int32
# coordinates and the masks' temporaries; a run has at most max_a4 points,
# and one longer than a slice makes a slice alone), whose survivors of the
# first mask are packed by _BATCH_CELLS >> 7 = 2048 points, needs under
# 1 MiB.
# A triple's lines grow with the range of a3, so its kernel takes up to
# about 16 * (max_a4 + 1) cells (15 kB a triple at (500, 1000) a0 = 350);
# where that exceeds 2048 a batch holds fewer triples, but never fewer
# than _BATCH_CELLS >> 12 = 64, as the kernel's fixed cost of a call,
# about 0.3 ms, then dominates.  The batch's residue classes
# (``_residue_classes``) take one byte for each of a triple's three moduli
# and each residue up to max_a4, 96 kB for 64 triples at the bound; they
# are built after the kernel ran.  Under tracemalloc, every chunk of
# (40, 80) peaks at most at 644 kB (a0 = 1), and the (500, 1000) chunks
# a0 = 350, 420 and 450, in batches of 64 triples, at 965, 663 and
# 582 kB; at a0 = 350 that is the kernel's own peak.  Tests hold every
# (40, 80) chunk and a0 = 450 under 1 MiB, and a0 = 350 under WCIDP_SLOW.
# At (40, 80) batches of 256 triples peaked at 1.26 MB, and batches of 32
# made 378 kernel calls where 128 make 112, and took 0.59 against 0.46 s.
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
# shaped mode: candidate generation for a batch of weight triples

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
# (4, 15) coefficients of (a0, a1, a2, a3), read off the unit prefixes.  So
# d1 = P1 + _C1[3]*a3 + k1*a4 with P1 = (a0, a1, a2) @ _C1[:3], and the same
# for d2.  Amplitude >= 1 reads _M*a4 <= B0 + _BETA*a3 with
# B0 = a0 + a1 + a2 - 1 - P1 - P2.
_UNIT_ROWS = np.array([_shape_rows(*e) for e in np.eye(4, dtype=int).tolist()], dtype=np.int32)
_K1, _K2 = _UNIT_ROWS[0, :, 0], _UNIT_ROWS[0, :, 2]
_C1, _C2 = _UNIT_ROWS[:, :, 1], _UNIT_ROWS[:, :, 3]
# These and _SIDE2 are built from Python values: numpy arithmetic at import
# would page in code that a process without shaped search never runs.
_M = np.array([k1 + k2 - 1 for k1, _, k2, _ in _shape_rows(0, 0, 0, 0)], dtype=np.int32)
_BETA = np.array([1 - c1 - c2 for _, c1, _, c2 in _shape_rows(0, 0, 0, 1)], dtype=np.int32)
# The degree whose shifts d - a_e each row reads at coordinate 3.  Rows
# 6..8 read d2, as d1 - a_x = a3 would keep every point.  Rows 3..5 read
# d1: there d2 - a4 = a3 is a hit at every point, so the condition turns on
# the hits of d1.  The other rows could read either; rows 1 and 2 read d1,
# the rest d2.
_SIDE2 = np.array([r == 0 or r >= 6 for r in range(15)])
# The rows whose points at a4 = a3 other rows give too, so they start at
# a4 = a3 + 1: there rows 3..5 and 9..11 read (a_x + a3, 2*a3), as rows
# 6..8 do, and rows 13 and 14 read (2*a3, 2*a3), as row 12 does.
_ABOVE = np.array([r in (3, 4, 5, 9, 10, 11, 13, 14) for r in range(15)], dtype=np.int32)


class _Runs:
    """Candidate points (column of the batch, a3, a4, d1, d2) in runs: run
    i holds start[:, i] + s*step[:, i] for s < count[i].  len() counts the
    points, so runs are true when there is at least one point, as a set of
    candidates is."""

    def __init__(self, start: np.ndarray, step: np.ndarray, count: np.ndarray):
        self.start, self.step, self.count = start, step, count

    def __len__(self) -> int:
        return int(self.count.sum())

    def slices(self, size: int) -> Iterator[np.ndarray]:
        """The points in run order as (5, m) arrays, in the dtype of
        ``start``, each of whole runs: at most ``size`` points, unless one
        run alone is longer, and never none.  ``np.repeat`` writes the runs'
        starts, and adds their steps, times each point's place in its run,
        at coordinates 1..4 only: coordinate 0, the column of the batch, is
        one value on a run."""
        ends, done = self.count.cumsum(), 0
        while done < len(self):
            # From the next run with a point, the runs that end within
            # ``size`` points, or that run alone if it is longer.
            first, stop = np.searchsorted(ends, (done, done + size), side="right").tolist()
            stop = max(stop, first + 1)
            count, n = self.count[first:stop], int(ends[stop - 1]) - done
            done += n
            # A point's place in its run is its place in the slice less that
            # of its run's first point.
            before = count.cumsum(dtype=np.int32)
            before -= count
            s = np.arange(n, dtype=np.int32)
            s -= np.repeat(before, count)
            c = np.repeat(self.start[:, first:stop], count, axis=1)
            step = np.repeat(self.step[1:, first:stop], count, axis=1)
            step *= s
            c[1:] += step
            # Free the temporaries before the next slice is made, while this
            # one is still held.
            del s, step
            yield c


def _ranges(first: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values of the ranges first[i] .. first[i] + count[i] - 1 in
    order, each with its range's index i: (index, value), both in the
    dtype of ``first`` where ``count`` has it too."""
    at = np.repeat(np.arange(count.size, dtype=first.dtype), count)
    return at, np.arange(at.size, dtype=first.dtype) - (count.cumsum(dtype=first.dtype) - count)[at] + first[at]


def _narrow(lo: np.ndarray, hi: np.ndarray, c: np.ndarray, b: np.ndarray) -> None:
    """Narrow the integer intervals [lo, hi] in place to the x with
    c*x <= b, elementwise; an interval with c = 0 > b empties."""
    div = np.where(c == 0, 1, c)
    np.minimum(hi, np.where(c > 0, b // div, np.where((c == 0) & (b < 0), lo - 1, hi)), out=hi)
    np.maximum(lo, np.where(c < 0, -(-b // div), lo), out=lo)


def _line_runs(P: np.ndarray, k: np.ndarray, a2: np.ndarray, b0: np.ndarray, room: np.ndarray,
               r: np.ndarray, max_a4: int) -> tuple[np.ndarray, ...]:
    """The runs (atom, a3, a4, da3, da4, count) of the atoms a3 | P + k*a4
    with k >= 1, given per atom with its a2, B0 and room = max_d2 - P2 (so
    d2 <= max_d2 reads k2*a4 + alpha2*a3 <= room) and pattern row r.

    An atom is the lines k*a4 = u*a3 - P, one for each slope u, and each
    bound on a point bounds u, as a2 <= a3 <= a4 <= max_a4 and P >= -a2:
    - a4 >= a3 reads (u - k)*a3 >= P, so u >= k + ceil(P/a2) where P <= 0,
      and u >= k + ceil(P/max_a4) where P > 0;
    - a4 <= max_a4 reads u*a3 <= k*max_a4 + P, so u <= (k*max_a4 + P)/a2;
    - amplitude >= 1 reads m*u*a3 <= k*B0 + m*P + k*beta*a3, so
      u <= (k*max(beta, 0)*a2 + max(k*B0 + m*P, 0))/(m*a2);
    - d2 <= max_d2 reads (k2*u + k*alpha2)*a3 <= k*room + k2*P, every row
      having k2 >= 1 and alpha2 >= 0, so
      u <= (k*room + k2*P - k*alpha2*a2)/(k2*a2).
    Atoms with no slope left are dropped before their lines are made.  On a
    line, a4 is affine in a3, so a2 <= a3 <= a4 <= max_a4 (a3 < a4 in the
    rows of ``_ABOVE``), amplitude >= 1 and d2 <= max_d2 leave one interval
    of a3."""
    m, k2 = _M[r], _K2[r]
    first = k - (-P // np.where(P > 0, max_a4, a2))
    last = (k * np.maximum(_BETA[r], 0) * a2 + np.maximum(k * b0 + m * P, 0)) // (m * a2)
    np.minimum(last, (k * max_a4 + P) // a2, out=last)
    np.minimum(last, (k * room + k2 * P - k * _C2[3, r] * a2) // (k2 * a2), out=last)
    atom = np.flatnonzero((k > 0) & (last >= first)).astype(np.int32)
    at, u = _ranges(first[atom], last[atom] - first[atom] + 1)
    # A batch's memory peaks at its lines: free what they do not need.
    del m, k2, first, last
    atom = atom[at]
    P, k, r = P[atom], k[atom], r[atom]
    lo, hi = a2[atom], np.full(atom.size, max_a4, dtype=a2.dtype)
    _narrow(lo, hi, k - u, -P - k * _ABOVE[r])
    _narrow(lo, hi, u, k * max_a4 + P)
    _narrow(lo, hi, _M[r] * u - k * _BETA[r], k * b0[atom] + _M[r] * P)
    _narrow(lo, hi, _K2[r] * u + k * _C2[3, r], k * room[atom] + _K2[r] * P)
    # k*a4 = u*a3 - P needs u*a3 = P modulo k: every a3, every other, or none.
    step = k // np.gcd(u, k)
    a3 = lo + (P - u * lo) % step
    count = np.where((u * a3 - P) % k == 0, (hi - a3) // step + 1, 0)
    run = np.flatnonzero(count > 0)
    atom, u, P, k, a3, step, count = atom[run], u[run], P[run], k[run], a3[run], step[run], count[run]
    return atom, a3, (u * a3 - P) // k, step, u * step // k, count


def _column_runs(P: np.ndarray, k: np.ndarray, a2: np.ndarray, b0: np.ndarray, room: np.ndarray,
                 r: np.ndarray, max_a4: int) -> tuple[np.ndarray, ...]:
    """The runs of the atoms with k = 0, as ``_line_runs`` gives them.
    These are a3 | d1 in rows 6..8 and 12, none of them in ``_ABOVE``,
    where d1 = a_x + a3 or 2*a3.  a3 >= a2 divides a_x only at
    a3 = a_x = a2, where those rows are row 12, so only row 12's atom,
    P = 0, is kept: each a3 whose lowest a4, a3 itself, lies in the box
    keeps its column of a4 up to the bounds."""
    atom = np.flatnonzero((k == 0) & (P == 0)).astype(np.int32)
    a2, b0, room, r = a2[atom], b0[atom], room[atom], r[atom]
    m, beta, k2, alpha2 = _M[r], _BETA[r], _K2[r], _C2[3, r]
    lo, hi = a2.copy(), np.full(atom.size, max_a4, dtype=a2.dtype)
    _narrow(lo, hi, m - beta, b0)
    _narrow(lo, hi, k2 + alpha2, room)
    at, a3 = _ranges(lo, np.maximum(hi - lo + 1, 0))
    top = np.minimum((b0[at] + beta[at] * a3) // m[at], (room[at] - alpha2[at] * a3) // k2[at])
    return atom[at], a3, a3, np.zeros_like(a3), np.ones_like(a3), np.minimum(top, max_a4) - a3 + 1


def _candidates_fast(t: np.ndarray, max_a4: int, max_d2: int) -> _Runs:
    """Shaped-mode candidates for a batch of weight triples.

    t is a (3, n) array, one (a0, a1, a2) column per triple.  For each
    pattern row, modulo a3 the singleton condition at coordinate 3 needs
    one of five atoms "a3 divides P + k*a4", with P fixed by the triple and
    0 <= k <= 2: a3 | d1, a3 | d2, and a3 | d - a_e for e = 0, 1, 2 on the
    row's side d (``_SIDE2``).  The e != f and a_e <= d clauses are
    dropped, so the atoms keep a superset.  d - a3 is d modulo a3.  d - a4
    adds no point the condition needs: a3 | d - a4 gives a3 | a4, so
    a3 | d where d = 2*a4 (rows 6..14), and a3 = a_x = a2 where
    d = a_x + a4 (rows 0..5); there any hit f < 3 of the other degree
    makes d - a_f, or d1 in row 0, divisible by a3.  With k >= 1 an atom
    is a family of lines in the (a3, a4) plane (``_line_runs``), with k = 0
    whole columns of a4 (``_column_runs``).
    Returns the points of every line and column as ``_Runs``.  A point that
    meets several atoms, or several rows that equal weights make equal,
    comes once for each.  The work is in int32, whose range holds every
    value for max_a4 up to about 10^7; no pattern has d2 > 2*max_a4.
    """
    t, max_d2 = t.astype(np.int32), min(max_d2, 2 * max_a4)
    p1, p2 = t.T @ _C1[:3], t.T @ _C2[:3]
    side, k_side = np.where(_SIDE2, p2, p1), np.where(_SIDE2, _K2, _K1)
    P = np.stack((p1, p2, side - t[0][:, None], side - t[1][:, None], side - t[2][:, None]), axis=2)
    k = np.stack((_K1, _K2, k_side, k_side, k_side), axis=1)
    # A key 4*P + k per atom (0 <= k <= 2), sorted along the row, shows its
    # repeats: in rows 3..5, a3 | d2 and a3 | d1 - a_x are both a3 | a4.
    key = np.sort(4 * P + k, axis=2)
    fresh = np.ones(key.shape, dtype=bool)
    fresh[:, :, 1:] = key[:, :, 1:] != key[:, :, :-1]
    j, r = (x.astype(np.int32) for x in np.nonzero(fresh)[:2])
    key = key[fresh]
    atoms = (key >> 2, key & 3, t[2, j], (t.sum(axis=0, dtype=np.int32)[:, None] - 1 - p1 - p2)[j, r],
             max_d2 - p2[j, r], r)
    del P, key, fresh
    atom, a3, a4, da3, da4, count = (
        np.concatenate(x) for x in zip(_line_runs(*atoms, max_a4), _column_runs(*atoms, max_a4)))
    del atoms
    j, r = j[atom], r[atom]
    alpha1, alpha2, k1, k2 = _C1[3, r], _C2[3, r], _K1[r], _K2[r]
    start = np.stack((j, a3, a4, p1[j, r] + alpha1 * a3 + k1 * a4, p2[j, r] + alpha2 * a3 + k2 * a4),
                     dtype=np.int32)
    step = np.stack((np.zeros_like(a3), da3, da4, alpha1 * da3 + k1 * da4, alpha2 * da3 + k2 * da4))
    return _Runs(start, step, count)


def _candidates_reference(t: np.ndarray, max_a4: int, max_d2: int) -> _Runs:
    """Plain shaped-mode generator: scan every a3 and a4 whose weight tuple
    meets the four-weight gcd conditions, for each triple, and apply only
    the documented prunes.  It takes and returns what ``_candidates_fast``
    does, each point a run of one, and the differential tests hold that one
    to it."""
    cands = []
    for j, (a0, a1, a2) in enumerate(t.T.tolist()):
        for a3 in range(a2, max_a4 + 1):
            for a4 in range(a3, max_a4 + 1):
                w = (a0, a1, a2, a3, a4)
                if any(gcd(*kept) > 1 for kept in combinations(w, 4)):
                    continue
                total = sum(w)
                d2_cap = min(max_d2, 2 * a4)
                for d1, d2 in degree_shapes(w):
                    if d2 > d2_cap or d1 + d2 > total - 1 or d1 < a0 + a3:
                        continue
                    cands.append((j, a3, a4, d1, d2))
    start = np.array(cands, dtype=np.int32).reshape(-1, 5).T
    return _Runs(start, np.zeros_like(start), np.ones(start.shape[1], dtype=np.int64))


# The singleton condition at one coordinate i, read from the hits of d1 and
# d2: bit e < 5 of a hit byte says that d - a_e is a non-negative multiple
# of a_i, and bit 5 that a_i divides d.  _SINGLETON_OK[h1 << 6 | h2] holds
# when a_i divides d1 or d2, or some e != f has a hit e at d1 and a hit f at
# d2.
_SINGLETON_OK = np.array([
    bool((h1 | h2) & 32) or any(h1 >> e & h2 >> f & 1 for e in range(5) for f in range(5) if e != f)
    for h1 in range(64) for h2 in range(64)
])
_HIT_BITS = (1 << np.arange(5)).astype(np.uint8)


def _residue_classes(w: np.ndarray) -> np.ndarray:
    """The residue classes of the weights w, (k, n), modulo each of them: a
    (k, n, span) uint8 table, span the largest weight, whose [i, j, r] has
    bit e when w[e, j] mod w[i, j] is r, and bit 5 at r = 0.  Each weight's
    bit is set by one scatter: it hits one residue of each modulus."""
    k, n = w.shape
    span = int(w.max())
    rows = np.arange(0, k * n * span, span).reshape(k, n)
    classes = np.zeros(k * n * span, dtype=np.uint8)
    for e in range(k):
        classes[rows + w[e] % w] |= _HIT_BITS[e]
    classes[rows] |= 32
    return classes.reshape(k, n, span)


def _prefix_singletons(hits: tuple[np.ndarray, np.ndarray], c: np.ndarray, keep: np.ndarray,
                       coords: Sequence[int]) -> np.ndarray:
    """keep, narrowed in place to the candidates that meet the singleton
    conditions at the triple's coordinates ``coords``.

    hits holds the moduli a0, a1, a2 of the batch of triples as int32, (3, n),
    and their ``_residue_classes``; c is the (5, m) candidate columns
    (column of the batch, a3, a4, d1, d2) and keep a boolean (m,) mask.  A
    candidate needs d1, d2, a3 and a4 modulo a_i, a read of the table for
    each degree and a compare with a3 and a4 for each.  Of the a_e <= d
    tests only a4 <= d1 is made: shaped candidates have d1 >= a0 + a3 > a3
    and d2 > a4.  Elsewhere the mask may keep a candidate the condition
    rejects, but never drops one it admits."""
    moduli, table = hits
    j, a3, a4, d1, d2 = c
    at = j * table.shape[2]
    a4_hit = (a4 <= d1).view(np.uint8) << 4
    for i in coords:
        m = moduli[i].take(j)
        r1, r2, r3, r4 = d1 % m, d2 % m, a3 % m, a4 % m
        classes = table[i].ravel()
        h1 = classes.take(at + r1)
        h1 |= (r1 == r3).view(np.uint8) << 3
        h1 |= (r1 == r4) * a4_hit
        h2 = classes.take(at + r2)
        h2 |= (r2 == r3).view(np.uint8) << 3
        h2 |= (r2 == r4).view(np.uint8) << 4
        verdict = np.left_shift(h1, 6, dtype=np.uint16)
        verdict |= h2
        keep &= _SINGLETON_OK.take(verdict)
    return keep


def _packed(pieces: Iterator[np.ndarray], size: int) -> Iterator[np.ndarray]:
    """The columns of the (5, m) pieces in order, packed into one int32
    buffer of ``size`` columns, which is yielded each time it is full and
    refilled after; what is left at the end comes in the buffer's first
    columns.  So the stages after it make few calls."""
    buf, n = np.empty((5, size), dtype=np.int32), 0
    for c in pieces:
        while c.shape[1]:
            k = min(size - n, c.shape[1])
            buf[:, n:n + k] = c[:, :k]
            n, c = n + k, c[:, k:]
            if n == size:
                yield buf
                n = 0
    if n:
        yield buf[:, :n]


def _masked_points(t: np.ndarray, runs: _Runs) -> set[tuple[int, ...]]:
    """The points of the runs of a batch of triples t, (3, n), that the
    numpy masks keep, each once.

    Every pattern has d2 > a4 and d1 >= a0 + a3 > a3, so the one linear
    cone left to rule out is d1 = a4 (c[3] = c[2]).  Singleton 1 keeps the
    fewest points (21 % of those past the cone at (40, 80), against 30 %
    for singleton 2 and 41 % for singleton 0), so it goes first, with the
    cone test, on every slice.  Their survivors are packed into buffers of
    _BATCH_CELLS >> 7 = 2048 points, and only those meet singletons 2 and 0
    and the four-weight gcds.  The residue classes are built after the
    kernel ran, so that they and the kernel's arrays are never held at
    once."""
    found = set()
    hits = t.astype(np.int32), _residue_classes(t)
    quadruples = np.array(_QUADRUPLES)

    # Through ``map``, unlike a generator expression, no slice is held once
    # it is masked, while the next one is made.
    def passed(c):
        return c[:, _prefix_singletons(hits, c, c[3] != c[2], (1,))]

    for c in _packed(map(passed, runs.slices(_BATCH_CELLS >> 6)), _BATCH_CELLS >> 7):
        c = c[:, _prefix_singletons(hits, c, np.ones(c.shape[1], dtype=bool), (2, 0))]
        w = np.concatenate((hits[0][:, c[0]], c[1:3]))
        found.update(zip(*c[:, (np.gcd.reduce(w[quadruples], axis=1) == 1).all(axis=0)].tolist()))
    return found


def _solve_shaped_chunk(max_a4: int, max_d2: int, a0: int,
                        generator: Callable) -> list[tuple[int, ...]]:
    sols = []
    # 128 triples, fewer where the kernel's lines are longer, but not fewer
    # than 64 (see _BATCH_CELLS).
    size = max(1, _BATCH_CELLS >> 12, min(_BATCH_CELLS >> 11, _BATCH_CELLS // (16 * (max_a4 + 1))))
    for t in _sorted_tuples(max_a4, a0, 3, size):
        triples = list(map(tuple, t.T.tolist()))
        for j, a3, a4, d1, d2 in sorted(_masked_points(t, generator(t, max_a4, max_d2))):
            w = triples[j] + (a3, a4)
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
    classes = _residue_classes(w)
    # A degree keeps the hits of its residue class whose weights it reaches.
    rows = np.arange(0, classes.size, classes.shape[2]).reshape(5, w.shape[1])
    at = _degree_tables(max_d2)[0][np.minimum(w, max_d2 + 1), :dmax + 1]
    at += rows[:, :, None]
    reach = np.einsum("e,e...->...", _HIT_BITS, np.arange(dmax + 1) >= w[:, :, None])
    states = classes.ravel()[at]
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
    and ``del_pezzo_quick`` the rest.  Results come
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
        if del_pezzo_quick(a, d1, d2):
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
