"""Well-formedness of a codimension-2 weighted complete intersection surface.

A candidate (a0..a4; d1, d2) is well-formed exactly when three gcd conditions
hold on the weight subsets:

* for every omitted index triple, the gcd of the remaining two weights
  divides d1 or d2;
* for every omitted index pair, the gcd of the remaining three weights
  divides both d1 and d2;
* for every omitted single index, the remaining four weights are coprime.

``_GCD_CONDITIONS`` lists the 25 sub-conditions once, and one table of
getters built from it, ``_GETTERS``, feeds both ``check_wf``, which reports
every violated sub-condition, and ``is_well_formed``, which short-circuits
inside enumeration loops.  Both read it in report order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from operator import itemgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .classifier import Candidate

TRIPLE_GCD = "triple-gcd"
PAIR_GCD = "pair-gcd"
SINGLE_GCD = "single-gcd"

# Every sub-condition as (kind, indices of the weights kept, indices
# omitted), in report order: omitted triples, pairs, then singles, each in
# lexicographic order.
_GCD_CONDITIONS = tuple(
    (kind, tuple(k for k in range(5) if k not in omitted), omitted)
    for kind, size in ((TRIPLE_GCD, 3), (PAIR_GCD, 2), (SINGLE_GCD, 1))
    for omitted in combinations(range(5), size)
)


def _gcd_violated(kind: str, b: int, d1: int, d2: int) -> bool:
    """Whether the gcd ``b`` of the kept weights breaks a condition of
    ``kind``."""
    if kind == SINGLE_GCD:
        return b != 1
    off1 = d1 % b != 0
    off2 = d2 % b != 0
    return off1 | off2 if kind == PAIR_GCD else off1 & off2


@dataclass(frozen=True)
class WfViolation:
    """One failed gcd condition: which indices were omitted and the gcd seen."""

    condition: str
    omitted: tuple[int, ...]
    gcd_value: int

    def as_dict(self) -> dict:
        return {
            "condition": self.condition,
            "omitted": list(self.omitted),
            "gcd_value": self.gcd_value,
        }


@dataclass(frozen=True)
class WfReport:
    passed: bool
    violations: tuple[WfViolation, ...]

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "violations": [v.as_dict() for v in self.violations],
        }


# Every sub-condition with a getter of its kept weights, in report order.
# A gcd of 1 breaks no condition, so both readers test only larger ones.
_GETTERS = tuple((kind, itemgetter(*kept), omitted) for kind, kept, omitted in _GCD_CONDITIONS)


def check_wf(candidate: "Candidate") -> WfReport:
    """Evaluate all 25 sub-conditions and list every violation."""
    a = candidate.weights.a
    d1, d2 = candidate.d1, candidate.d2
    violations = []
    for kind, kept, omitted in _GETTERS:
        b = gcd(*kept(a))
        if b != 1 and _gcd_violated(kind, b, d1, d2):
            violations.append(WfViolation(kind, omitted, b))
    return WfReport(passed=not violations, violations=tuple(violations))


def is_well_formed(a: tuple[int, int, int, int, int], d1: int, d2: int) -> bool:
    """Short-circuiting boolean variant over a raw sorted weight tuple."""
    for kind, kept, _ in _GETTERS:
        b = gcd(*kept(a))
        if b != 1 and _gcd_violated(kind, b, d1, d2):
            return False
    return True
