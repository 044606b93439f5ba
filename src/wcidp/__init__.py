"""Exact classification and bounded enumeration of codimension-2 weighted
complete intersection del Pezzo surfaces.

The package decides, in exact integer arithmetic, whether a candidate
(a0..a4; d1, d2) is well-formed, quasi-smooth, free of linear-cone
degeneration and of positive amplitude; encodes the 45 infinite series of
such surfaces as a declarative catalog; and reproduces the sporadic solution
table by pruned exhaustive search.
"""

from .classifier import Candidate, Verdict, WeightSystem, amplitude, classify, is_linear_cone
from .enumerator import (
    Bounds,
    EnumerationResult,
    degree_shapes,
    enumerate_solutions,
    sporadic,
)
from .quasismooth import QsReport, check_qs, qs_pair, qs_singleton, qs_triple
from .semigroup import contains
from .wellformed import WfReport, check_wf

__version__ = "0.1.0"

# ``families`` parses and compiles every series expression when it is
# imported, which a caller that only classifies or enumerates never needs;
# its names load it on first use.
_FAMILY_NAMES = frozenset({
    "CATALOG",
    "FamilyMatch",
    "FamilySpec",
    "catalog_records",
    "instantiate",
    "match_tuple",
    "smallest_assignments",
    "valid_params",
    "verify_amplitude_column",
})


def __getattr__(name):
    if name in _FAMILY_NAMES:
        from . import families

        return getattr(families, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Bounds",
    "CATALOG",
    "Candidate",
    "EnumerationResult",
    "FamilyMatch",
    "FamilySpec",
    "QsReport",
    "Verdict",
    "WeightSystem",
    "WfReport",
    "amplitude",
    "catalog_records",
    "check_qs",
    "check_wf",
    "classify",
    "contains",
    "degree_shapes",
    "enumerate_solutions",
    "instantiate",
    "is_linear_cone",
    "match_tuple",
    "qs_pair",
    "qs_singleton",
    "qs_triple",
    "smallest_assignments",
    "sporadic",
    "valid_params",
    "verify_amplitude_column",
    "__version__",
]
