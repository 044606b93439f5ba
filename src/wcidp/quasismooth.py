"""Quasi-smoothness of a codimension-2 weighted complete intersection surface.

Quasi-smoothness is equivalent to a family of numerical-semigroup membership
conditions indexed by single coordinates, coordinate pairs and coordinate
triples.  Writing (g, h, ...) for the semigroup of non-negative combinations
of the listed weights and {k, l, m} for the complement of a pair {i, j}:

* singleton i: a_i divides d1 or d2, or d1 - a_e and d2 - a_f both lie in
  (a_i) for some e != f;
* pair {i, j}: one of
    (a) d1, d2 in (a_i, a_j),
    (b) d1 in (a_i, a_j) and d2 - a_e in (a_i, a_j) for some e,
    (c) d1 - a_e in (a_i, a_j) for some e, and d2 in (a_i, a_j),
    (d) two-element sets E, F within {k, l, m} with E + F covering all of
        {k, l, m}, with d1 - a_e in (a_i, a_j) for both e in E and
        d2 - a_f in (a_i, a_j) for both f in F;
* triple {k, l, m}: d1 and d2 in (a_k, a_l, a_m), or d1 plus both d2 - a_i,
  d2 - a_j, or d2 plus both d1 - a_i, d1 - a_j.

In (b) and (c) the shift index e ranges over all five coordinates; a shift
that goes negative simply fails membership.  Each level keeps one table of
its subsets in lexicographic order (``_SINGLE_CHECKS``, ``_PAIR_CHECKS``,
``_TRIPLE_CHECKS``).  ``check_qs`` reads them forwards and reports every
failing subset; ``classifier.del_pezzo_quick`` reads them backwards and
short-circuits for enumeration loops.  Backwards, each level starts with
the subsets of the largest weights, the most selective ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter
from typing import TYPE_CHECKING

from .semigroup import member

if TYPE_CHECKING:  # pragma: no cover
    from .classifier import Candidate

SINGLETON = "singleton"
PAIR = "pair"
TRIPLE = "triple"

# Each level's index subsets in canonical (lexicographic) order, the order of
# ``check_qs``'s reports, and the complement of every pair and triple.
_SINGLES = tuple((i,) for i in range(5))
_PAIRS = tuple(combinations(range(5), 2))
_TRIPLES = tuple(combinations(range(5), 3))
_PAIR_REST = {s: tuple(k for k in range(5) if k not in s) for s in _PAIRS}
_TRIPLE_REST = {s: tuple(k for k in range(5) if k not in s) for s in _TRIPLES}


@dataclass(frozen=True)
class QsViolation:
    """One failing index subset with a short account of the failed branches."""

    level: str
    indices: tuple[int, ...]
    detail: str

    def as_dict(self) -> dict:
        return {"level": self.level, "indices": list(self.indices), "detail": self.detail}


@dataclass(frozen=True)
class QsReport:
    passed: bool
    violations: tuple[QsViolation, ...]

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "violations": [v.as_dict() for v in self.violations],
        }


def _singleton_ok(a: tuple[int, ...], d1: int, d2: int, i: int) -> bool:
    ai = a[i]
    r1 = d1 % ai
    if r1 == 0:
        return True
    r2 = d2 % ai
    if r2 == 0:
        return True
    # d - a_e lies in (a_i) exactly when a_e == d (mod a_i) and a_e <= d.
    # ``only1`` is the one such e at d1, or 5 when there are several: any f
    # then pairs with one of them.
    only1 = -1
    e = 0
    for ae in a:
        if ae % ai == r1 and d1 >= ae:
            if only1 >= 0:
                only1 = 5
                break
            only1 = e
        e += 1
    if only1 < 0:
        return False
    f = 0
    for af in a:
        if af % ai == r2 and d2 >= af and f != only1:
            return True
        f += 1
    return False


def _pair_ok(a: tuple[int, ...], d1: int, d2: int, i: int, j: int) -> bool:
    mem = member((a[i], a[j]), d2)
    # (d) puts two shifts of d2 in the span, so once d1 is in the span (b)
    # holds whenever (d) does and decides alone; likewise (c) once only d2 is.
    if mem(d1):
        if mem(d2):
            return True
        for ae in a:
            if mem(d2 - ae):
                return True
        return False
    if mem(d2):
        for ae in a:
            if mem(d1 - ae):
                return True
        return False
    # (d) with E, F two-element subsets of {k, l, m} covering it: at least
    # two shifts land at each degree, and every index lands at one of them.
    k, l, m = _PAIR_REST[i, j]
    e1, e2, e3 = mem(d1 - a[k]), mem(d1 - a[l]), mem(d1 - a[m])
    if e1 + e2 + e3 < 2:
        return False
    f1, f2, f3 = mem(d2 - a[k]), mem(d2 - a[l]), mem(d2 - a[m])
    return f1 + f2 + f3 >= 2 and (e1 or f1) and (e2 or f2) and (e3 or f3)


def _triple_ok(a: tuple[int, ...], d1: int, d2: int, k: int, l: int, m: int) -> bool:
    mem = member((a[k], a[l], a[m]), d2)
    i, j = _TRIPLE_REST[k, l, m]
    if mem(d1):
        return mem(d2) or (mem(d2 - a[i]) and mem(d2 - a[j]))
    return mem(d2) and mem(d1 - a[i]) and mem(d1 - a[j])


def _check_index(i: int) -> None:
    if not isinstance(i, int) or isinstance(i, bool):
        raise ValueError(f"index must be an integer, got {i!r}")
    if not 0 <= i <= 4:
        raise ValueError(f"index out of range: {i}")


def qs_singleton(candidate: "Candidate", i: int) -> bool:
    """Singleton condition at coordinate i."""
    _check_index(i)
    return _singleton_ok(candidate.weights.a, candidate.d1, candidate.d2, i)


def qs_pair(candidate: "Candidate", i: int, j: int) -> bool:
    """Pair condition at coordinates i < j."""
    _check_index(i)
    _check_index(j)
    if i == j:
        raise ValueError("pair indices must differ")
    if i > j:
        i, j = j, i
    return _pair_ok(candidate.weights.a, candidate.d1, candidate.d2, i, j)


def qs_triple(candidate: "Candidate", k: int, l: int, m: int) -> bool:
    """Triple condition at coordinates k < l < m."""
    for x in (k, l, m):
        _check_index(x)
    if len({k, l, m}) != 3:
        raise ValueError("triple indices must be distinct")
    k, l, m = sorted((k, l, m))
    return _triple_ok(candidate.weights.a, candidate.d1, candidate.d2, k, l, m)


# One detail template per level.  Each subset's own template is built here,
# with its indices filled in, and takes the subset's weights (``%d``) per
# violation.
_SINGLE_DETAIL = (
    "a[{0}]=%d divides neither degree and no shifted pair "
    "(d1-a_e, d2-a_f) with e != f lands in its span"
)
_PAIR_DETAIL = (
    "no branch places the degrees in <a[{0}], a[{1}]> = "
    "<%d, %d>, with or without single or paired shifts"
)
_TRIPLE_DETAIL = "neither degree configuration lands in <%d, %d, %d>"
_SINGLE_CHECKS, _PAIR_CHECKS, _TRIPLE_CHECKS = (
    tuple((idx, itemgetter(*idx), detail.format(*idx)) for idx in subsets)
    for subsets, detail in (
        (_SINGLES, _SINGLE_DETAIL), (_PAIRS, _PAIR_DETAIL), (_TRIPLES, _TRIPLE_DETAIL)
    )
)


def check_qs(candidate: "Candidate") -> QsReport:
    """Evaluate all 5 + 10 + 10 subset conditions and list every failure,
    each level in canonical (lexicographic) subset order.

    The conditions read quasi-smoothness only when no degree equals a
    weight.  On a linear cone a linear equation removes a variable, and a
    failure listed here is no evidence of a singularity: (1,1,2,2,2; 1,1)
    is the smooth cone x0 = x1 = 0, yet fails pair (2, 3).  ``classify``
    rejects a linear cone on that ground alone."""
    a = candidate.weights.a
    d1, d2 = candidate.d1, candidate.d2
    violations = []
    for level, checks, ok in (
        (SINGLETON, _SINGLE_CHECKS, _singleton_ok),
        (PAIR, _PAIR_CHECKS, _pair_ok),
        (TRIPLE, _TRIPLE_CHECKS, _triple_ok),
    ):
        for idx, weights_of, detail in checks:
            if not ok(a, d1, d2, *idx):
                violations.append(QsViolation(level, idx, detail % weights_of(a)))
    return QsReport(passed=not violations, violations=tuple(violations))


def degrees_in_span(candidate: "Candidate") -> bool:
    """Advisory check that both degrees lie in the span of all five weights.

    Not part of quasi-smoothness; reported by the command line as a note and
    never used to reject a candidate.
    """
    mem = member(candidate.weights.a, candidate.d2)
    return mem(candidate.d1) and mem(candidate.d2)
