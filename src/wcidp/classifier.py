"""Candidate surfaces and the combined del Pezzo verdict.

A candidate is five positive weights in ascending order plus two degrees
d1 <= d2.  It describes a del Pezzo surface exactly when it is not an
intersection with a linear cone (no degree equals a weight), is well-formed,
is quasi-smooth, and has amplitude sum(a) - d1 - d2 >= 1.  Constructors accept
raw unsorted input and canonicalize it; degenerate entries (zero or negative)
are rejected outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .quasismooth import (
    _PAIR_CHECKS,
    _SINGLE_CHECKS,
    _TRIPLE_CHECKS,
    QsReport,
    _pair_ok,
    _singleton_ok,
    _triple_ok,
    check_qs,
)
from .wellformed import WfReport, check_wf, is_well_formed


def _positive_ints(values: tuple) -> bool:
    """Whether every entry is an int >= 1 and not a bool."""
    for v in values:
        if not isinstance(v, int) or v < 1 or v is True:
            return False
    return True


@dataclass(frozen=True)
class WeightSystem:
    """Five positive integer weights, stored in ascending order."""

    a: tuple[int, int, int, int, int]

    def __init__(self, a: Iterable[int]):
        # Checked before sorting, which raises TypeError on non-integers.
        weights = tuple(a)
        if len(weights) != 5:
            raise ValueError(f"expected 5 weights, got {len(weights)}")
        if not _positive_ints(weights):
            raise ValueError(f"weights must be positive integers, got {weights}")
        object.__setattr__(self, "a", tuple(sorted(weights)))

    def __iter__(self):
        return iter(self.a)

    def __getitem__(self, i: int) -> int:
        return self.a[i]


@dataclass(frozen=True)
class Candidate:
    """A weight system with two degrees, canonicalized to d1 <= d2."""

    weights: WeightSystem
    d1: int
    d2: int

    def __init__(self, weights: WeightSystem | Iterable[int], d1: int, d2: int):
        if not isinstance(weights, WeightSystem):
            weights = WeightSystem(weights)
        if not _positive_ints((d1, d2)):
            raise ValueError(f"degrees must be positive integers, got {(d1, d2)}")
        if d1 > d2:
            d1, d2 = d2, d1
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "d2", d2)

    @classmethod
    def of(cls, *values: int) -> "Candidate":
        """Build from seven integers: five weights then two degrees."""
        if len(values) != 7:
            raise ValueError(f"expected 7 integers, got {len(values)}")
        return cls(values[:5], values[5], values[6])

    @property
    def key(self) -> tuple[int, int, int, int, int, int, int]:
        return (*self.weights.a, self.d1, self.d2)

    def __str__(self) -> str:
        a = self.weights.a
        return f"({a[0]},{a[1]},{a[2]},{a[3]},{a[4]}; {self.d1},{self.d2})"


@dataclass(frozen=True)
class Verdict:
    """All criteria for one candidate, plus the combined del Pezzo flag."""

    is_linear_cone: bool
    wf: WfReport
    qs: QsReport
    amplitude: int
    is_del_pezzo: bool

    def as_dict(self) -> dict:
        return {
            "is_linear_cone": self.is_linear_cone,
            "well_formed": self.wf.as_dict(),
            "quasi_smooth": self.qs.as_dict(),
            "amplitude": self.amplitude,
            "is_del_pezzo": self.is_del_pezzo,
        }


def amplitude(candidate: Candidate) -> int:
    """sum of weights minus both degrees; may be zero or negative."""
    return sum(candidate.weights.a) - candidate.d1 - candidate.d2


def is_linear_cone(candidate: Candidate) -> bool:
    """True when either degree equals one of the weights."""
    wset = set(candidate.weights.a)
    return candidate.d1 in wset or candidate.d2 in wset


def classify(candidate: Candidate) -> Verdict:
    """Full verdict with complete violation reports.

    A pure function of the canonical tuple: five weights and codimension two
    make the dimension 2 automatically, so no dimension check appears.
    """
    cone = is_linear_cone(candidate)
    wf = check_wf(candidate)
    qs = check_qs(candidate)
    amp = amplitude(candidate)
    verdict = (not cone) and wf.passed and qs.passed and amp >= 1
    return Verdict(cone, wf, qs, amp, verdict)


def del_pezzo_quick(a: tuple[int, int, int, int, int], d1: int, d2: int) -> bool:
    """Short-circuiting boolean equivalent of ``classify(...).is_del_pezzo``.

    Takes a raw ascending weight tuple; used inside enumeration loops where
    building reports would dominate the runtime.  Amplitude, the linear
    cones and well-formedness come first: both search modes hand over only
    candidates that meet the singleton conditions, and well-formedness
    rejects most of them.  The quasi-smoothness tables follow, each read
    backwards, so that the subsets of the largest weights come first.
    """
    if sum(a) - d1 - d2 < 1:
        return False
    if d1 in a or d2 in a:
        return False
    if not is_well_formed(a, d1, d2):
        return False
    for (i,), _, _ in reversed(_SINGLE_CHECKS):
        if not _singleton_ok(a, d1, d2, i):
            return False
    for (i, j), _, _ in reversed(_PAIR_CHECKS):
        if not _pair_ok(a, d1, d2, i, j):
            return False
    for (k, l, m), _, _ in reversed(_TRIPLE_CHECKS):
        if not _triple_ok(a, d1, d2, k, l, m):
            return False
    return True
