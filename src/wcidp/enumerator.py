"""Bounded exhaustive search for del Pezzo weighted complete intersections.

Two modes enumerate every candidate (a0..a4; d1, d2) with a4 and d2 inside
the given bounds whose verdict is del Pezzo:

* ``exhaustive`` iterates all sorted weight tuples and *all* degree pairs
  with d1 <= d2 and d1 + d2 <= sum(a) - 1 (forced by amplitude >= 1) and
  classifies each.  It exists to cross-validate the shaped mode at small
  bounds without the degree-pattern theorem, and refuses max_a4 > 60 unless
  explicitly overridden.  It streams the tuples that pass the weight-only
  single-gcd conditions into batches, which may span the (a0, a1, a2)
  prefixes of one chunk and are sized by their degree states.  Each degree
  gets one-byte singleton states per coordinate, and one bitwise AND of the
  states of d1 and d2 reads the singleton condition.  Coordinate 4 is read first, on the
  (tuple, d1, d2) grid, because it removes nearly every pair; the grid is
  built in blocks of whole tuples, so a batch stays under 1 MiB.
  Coordinates 3..0 then filter the joined survivors of the whole batch:
  numpy decides the singleton conditions, the linear cones and amplitude,
  and ``is_well_formed`` and ``del_pezzo_quick`` the rest.

* ``shaped`` iterates only the fifteen degree patterns a quasi-smooth
  candidate can have at its largest weight: d2 = a_y + a4 (y < 4) with
  d1 = a_x + a4 (x < y), or d2 = 2*a4 with d1 a sum of two of the top
  weights or a_x + a4.  On top of the pattern restriction it prunes by
  amplitude >= 1, d2 <= min(max_d2, 2*a4), d1 >= a0 + a3, and the
  four-weight gcd conditions.  To keep the full-bound run tractable, the
  fast path solves the top-pair and top-singleton membership conditions for
  a4 in closed form instead of scanning it; these generators only ever
  produce supersets of the survivors, and every candidate they emit is still
  fully re-classified, so they cannot introduce false positives.  A plain
  scanning generator, ``_candidates_reference``, backs the fast path in the
  differential tests.  The chunk loop filters each candidate, cheapest
  first: one gcd of a4 with the product of the four three-weight gcds, the
  linear-cone test, the singleton condition at coordinate 3, then
  ``del_pezzo_quick``, which tests singletons 4 and 3 last: every pattern
  meets coordinate 4 by construction, and coordinate 3 was just tested.

Work is cut into one chunk per value of the smallest weight a0, whatever
the job count; workers share nothing mutable and the merged, sorted result
is identical for every job count.  ``multiprocessing`` is imported only when
a run starts more than one worker.  The search ends there: which solutions
are series instances is asked of ``families``, which is imported only when
``EnumerationResult.sporadic`` or ``.family_instances`` is first read.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache, cached_property
from math import gcd
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


# ---------------------------------------------------------------------------
# shaped mode: candidate generation per weight prefix

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


def _mod_sols(k: int, r: int, m: int):
    """Residues x (mod m) with k*x == r (mod m); None means every x.

    Only k in {-1, 0, 1, 2} occurs (degree patterns are at most 2*a4 plus a
    constant), so each case has a closed form.
    """
    r %= m
    if k == 1:
        return (r,)
    if k == -1:
        return ((m - r) % m,)
    if k == 0:
        return None if r == 0 else ()
    if k == 2:
        if m & 1:
            return ((r * ((m + 1) // 2)) % m,)
        if r & 1:
            return ()
        half = m // 2
        return (r // 2, r // 2 + half)
    raise ValueError(f"unsupported coefficient {k}")


def _side_residues(kappa: int, c: int, subs: tuple[int, int, int, int], m: int):
    """Residues of a4 (mod m) letting d - a_e be divisible by m for some e,
    where d = kappa*a4 + c.  The fifth subtrahend is a4 itself (kappa - 1).
    None means the side is satisfiable for every a4."""
    out: set[int] = set()
    for s in subs:
        sols = _mod_sols(kappa, s - c, m)
        if sols is None:
            return None
        out.update(sols)
    sols = _mod_sols(kappa - 1, -c, m)
    if sols is None:
        return None
    out.update(sols)
    return out


def _coord_residues(k1: int, c1: int, k2: int, c2: int,
                    subs: tuple[int, int, int, int], m: int):
    """Necessary residues of a4 (mod m) for the singleton condition at the
    coordinate of weight m, for the pattern (d1, d2) = (c1 + k1*a4,
    c2 + k2*a4): m divides d1 or d2, or both sides admit a shift divisible
    by m.  None means no restriction."""
    div1 = _mod_sols(k1, -c1, m)
    if div1 is None:
        return None
    div2 = _mod_sols(k2, -c2, m)
    if div2 is None:
        return None
    r1 = _side_residues(k1, c1, subs, m)
    r2 = _side_residues(k2, c2, subs, m)
    if r1 is None and r2 is None:
        return None
    if r1 is None:
        both = r2
    elif r2 is None:
        both = r1
    else:
        both = r1 & r2
    return both | set(div1) | set(div2)


def _top_pair_member(c: int, a3: int):
    """Closed forms for the a4 values that can make c + a4 a member of
    <a3, a4>, assuming a3 <= a4 < 2*a3 and |c| <= a3.

    Membership then forces c + a4 to be a plain multiple of a3, except when
    c is itself a non-negative multiple of a3 (the combination a4 + c), in
    which case it holds for every a4; that case returns None.  The multiple
    3*a3 would need a4 >= 2*a3, so two values remain; values outside the
    caller's range are filtered later."""
    if c >= 0 and c % a3 == 0:
        return None
    return (a3 - c, 2 * a3 - c)


# Branch (d) of the pair condition at the two largest coordinates, read from
# two three-bit masks: bit k of m1 (of m2) says that d1 - a_k (d2 - a_k)
# lies in <a3, a4>, for k in {0, 1, 2}.  It holds when each degree has two
# such shifts and every k is one of them; _BRANCH_D[m1 | m2 << 3] says so.
_BRANCH_D = tuple(
    bin(m1).count("1") >= 2 and bin(m2).count("1") >= 2 and m1 | m2 == 7
    for m2 in range(8) for m1 in range(8)
)


def _top_pair_candidates(c1: int, c2: int, a0: int, a1: int, a2: int, a3: int):
    """a4 values compatible with the pair condition at the two largest
    coordinates for the pattern (d1, d2) = (c1 + a4, c2 + a4); None when
    the condition holds for every a4."""
    in1 = _top_pair_member(c1, a3)
    in2 = _top_pair_member(c2, a3)
    if in1 is None or in2 is None:
        return None
    # Branches (a) to (c) need a degree in the span, (d) the shifts.  A shift
    # whose closed form is None lands for every a4 and sets its bit in
    # ``base``; any other a4 that can satisfy (d) is listed by some closed
    # form and collects the bits of the forms that list it.
    base = 0
    listed: dict[int, int] = {}
    for bit, c in ((1, c1 - a0), (2, c1 - a1), (4, c1 - a2),
                   (8, c2 - a0), (16, c2 - a1), (32, c2 - a2)):
        values = _top_pair_member(c, a3)
        if values is None:
            base |= bit
        else:
            for v in values:
                listed[v] = listed.get(v, 0) | bit
    if _BRANCH_D[base]:
        return None
    out = {*in1, *in2}
    for v, bits in listed.items():
        if _BRANCH_D[base | bits]:
            out.add(v)
    return out


def _candidates_fast(a0: int, a1: int, a2: int, a3: int,
                     max_a4: int, max_d2: int) -> set[tuple[int, int, int]]:
    """Shaped-mode candidates (a4, d1, d2) for one weight prefix."""
    subs = (a0, a1, a2, a3)
    psum = a0 + a1 + a2 + a3
    lo = a3
    cands: set[tuple[int, int, int]] = set()
    # Equal weights repeat a row; the repeat only re-adds the same tuples.
    for k1, c1, k2, c2 in _shape_rows(a0, a1, a2, a3):
        hi = (psum - 1 - c1 - c2) // (k1 + k2 - 1)
        cap = (max_d2 - c2) // k2
        if cap < hi:
            hi = cap
        if max_a4 < hi:
            hi = max_a4
        if hi < lo:
            continue
        source: Sequence[int]
        if hi - lo <= _SCAN_THRESHOLD:
            # Small ranges: scanning beats solving for a4.
            source = range(lo, hi + 1)
        else:
            pinned = _top_pair_candidates(c1, c2, a0, a1, a2, a3) if k2 == 1 else None
            if pinned is not None:
                source = [v for v in pinned if lo <= v <= hi]
            else:
                source = range(lo, hi + 1)
                # Coordinate 3 restricts a4 unless its condition holds for
                # every a4; coordinate 2 is the fallback.
                for m in (a3, a2):
                    res = _coord_residues(k1, c1, k2, c2, subs, m)
                    if res is not None:
                        source = []
                        for r in res:
                            first = lo + ((r - lo) % m)
                            source.extend(range(first, hi + 1, m))
                        break
        for a4 in source:
            cands.add((a4, c1 + k1 * a4, c2 + k2 * a4))
    return cands


def _candidates_reference(a0: int, a1: int, a2: int, a3: int,
                          max_a4: int, max_d2: int) -> set[tuple[int, int, int]]:
    """Plain shaped-mode generator: scan a4 and apply only the documented
    prunes.  Differential tests hold the fast generator to this one."""
    cands: set[tuple[int, int, int]] = set()
    d1_floor = a0 + a3
    for a4 in range(a3, max_a4 + 1):
        w = (a0, a1, a2, a3, a4)
        total = a0 + a1 + a2 + a3 + a4
        d2_cap = min(max_d2, 2 * a4)
        for d1, d2 in degree_shapes(w):
            if d2 > d2_cap or d1 + d2 > total - 1 or d1 < d1_floor:
                continue
            cands.add((a4, d1, d2))
    return cands


def _solve_shaped_chunk(max_a4: int, max_d2: int, a0: int,
                        generator: Callable) -> list[tuple[int, ...]]:
    sols = []
    for a1 in range(a0, max_a4 + 1):
        g01 = gcd(a0, a1)
        for a2 in range(a1, max_a4 + 1):
            g012 = gcd(g01, a2)
            for a3 in range(a2, max_a4 + 1):
                if gcd(g012, a3) != 1:
                    continue
                # a4 shares a prime with one of the four three-weight gcds
                # exactly when it shares one with their product.
                g_prod = g012 * gcd(g01, a3) * gcd(gcd(a0, a2), a3) * gcd(gcd(a1, a2), a3)
                for a4, d1, d2 in generator(a0, a1, a2, a3, max_a4, max_d2):
                    if g_prod != 1 and gcd(g_prod, a4) != 1:
                        continue
                    # Every pattern has d2 > a4 and d1 >= a0 + a3 > a3, so
                    # the one linear cone left to rule out is d1 = a4.
                    if d1 == a4:
                        continue
                    w = (a0, a1, a2, a3, a4)
                    if _singleton_ok(w, d1, d2, 3) and del_pezzo_quick(w, d1, d2):
                        sols.append((*w, d1, d2))
    return sols


# ---------------------------------------------------------------------------
# exhaustive mode

# The memory budget of the exhaustive kernel, in cells of two bytes.  A
# batch of weight tuples is cut so that its degree states need at most this
# many cells: 32 for each degree of each tuple, with degrees up to the
# largest that can matter, as a degree takes about 64 bytes (its state
# index and its states at the five coordinates).  The batch's coordinate-4
# grid, one cell for each (tuple, d1, d2), is built in blocks of whole
# tuples of at most this many cells, as a grid cell takes two bytes (its
# state byte and its mask); the survivors kept from each block are a few
# percent of it.  So a batch needs under 1 MiB (a test holds this at
# (20, 40)), and the exhaustive run's peak memory stays that of the
# interpreter and numpy.  Of 2^17..2^20, 2^18 ran fastest at (20, 40); at
# (30, 60) 2^20 ran about 15 % faster, but needs four times the memory.
_BATCH_CELLS = 1 << 18

_HIT_BITS = (1 << np.arange(5)).astype(np.uint8)

# The four-weight subsets, whose gcds must be 1: the weight-only gcd
# conditions.
_QUADRUPLES = [kept for kind, kept, _ in _GCD_CONDITIONS if kind == SINGLE_GCD]


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


@cache
def _weight_triples(max_a4: int) -> np.ndarray:
    """Every sorted (a2, a3, a4) with entries in 1..max_a4, one column each in
    lexicographic order: a (3, n) array, built once per bound."""
    a = np.arange(1, max_a4 + 1, dtype=np.min_scalar_type(max_a4))
    triples = a[np.array(np.nonzero((a[:, None, None] <= a[:, None]) & (a[:, None] <= a)))]
    triples.flags.writeable = False
    return triples


def _prefix_tuples(max_a4: int, a0: int, size: int) -> Iterator[np.ndarray]:
    """The weight tuples with smallest weight a0 whose four-weight subsets
    are coprime, in lexicographic order, as (5, m) arrays, each cut from at
    most ``size`` sorted tuples."""
    triples = _weight_triples(max_a4)
    for a1 in range(a0, max_a4 + 1):
        # The sorted triples with a2 >= a1 are a suffix of the table.
        for cut in range(np.searchsorted(triples[0], a1), triples.shape[1], size):
            tail = triples[:, cut:cut + size]
            w = np.empty((5, tail.shape[1]), dtype=np.int64)
            w[:2] = [[a0], [a1]]
            w[2:] = tail
            yield w[:, (np.gcd.reduce(w[_QUADRUPLES], axis=1) == 1).all(axis=0)]


def _solve_exhaustive_chunk(max_a4: int, max_d2: int, a0: int) -> list[tuple[int, ...]]:
    # No admissible degree exceeds the largest sum(w) - 2.  Every tuple is
    # charged the degree states of that largest box, so ``step`` tuples stay
    # within _BATCH_CELLS whatever their a1; what one piece leaves over is
    # carried into the next batch.
    side = min(max_d2, 5 * max_a4 - 2)
    step = max(1, _BATCH_CELLS // (32 * (side + 1)))
    sols = []
    held = np.empty((5, 0), dtype=np.int64)
    for w in _prefix_tuples(max_a4, a0, step):
        held = np.concatenate((held, w), axis=1)
        while held.shape[1] >= step:
            sols.extend(_exhaustive_tuple_solutions(held[:, :step], side))
            held = held[:, step:]
    if held.shape[1]:
        sols.extend(_exhaustive_tuple_solutions(held, side))
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
