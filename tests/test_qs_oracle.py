"""An independent quasi-smoothness oracle: a Groebner basis over GF(32003).

A general member of the family (a0..a4; d1, d2) is quasi-smooth exactly when
its affine cone in A^5 is smooth away from the origin.  The cone's singular
locus is cut out by f1, f2 and the ten 2x2 minors of their Jacobian; the
equations are weighted homogeneous, so a singular point off the origin
brings a whole curve with it, and the cone is smooth away from the origin
exactly when that ideal is zero-dimensional or the unit ideal.

Random coefficients mod 32003 on every monomial of each degree stand in for
a general member.  A special choice can only enlarge the singular locus, so
the oracle errs only towards "singular": a "singular" answer against a
quasi-smooth ``check_qs`` verdict is retried once with a second seed, and a
"quasi-smooth" answer is final.  A degree that no monomial has makes its equation zero, and
the oracle answers "not quasi-smooth".  None of this reads the membership
conditions ``check_qs`` decides by.
"""

import os
import random
from itertools import combinations, combinations_with_replacement

import pytest
from definition import qs_failures

from wcidp.classifier import Candidate
from wcidp.quasismooth import check_qs

sympy = pytest.importorskip("sympy")

PRIME = 32003
X = sympy.symbols("x0:5")


def exponents(a, d):
    """Every exponent vector e with sum(e_i * a_i) == d."""
    out = []

    def extend(i, left, prefix):
        if i == len(a):
            if left == 0:
                out.append(prefix)
            return
        for k in range(left // a[i] + 1):
            extend(i + 1, left - k * a[i], prefix + (k,))

    extend(0, d, ())
    return out


def general_member_is_quasi_smooth(a, d1, d2, seed):
    rng = random.Random(seed)
    equations = []
    for d in (d1, d2):
        terms = exponents(a, d)
        if not terms:
            return False
        equations.append(sympy.Add(*[
            rng.randrange(1, PRIME) * sympy.Mul(*[x**k for x, k in zip(X, e)]) for e in terms
        ]))
    jacobian = [[sympy.diff(f, x) for x in X] for f in equations]
    minors = [
        jacobian[0][i] * jacobian[1][j] - jacobian[0][j] * jacobian[1][i]
        for i, j in combinations(range(5), 2)
    ]
    basis = sympy.groebner([*equations, *minors], *X, modulus=PRIME, order="grevlex")
    return list(basis.exprs) == [1] or basis.is_zero_dimensional


def oracle(a, d1, d2, expected):
    """The oracle's answer, asked again with a second seed when the first says
    "singular" against an ``expected`` "quasi-smooth" (only a "singular" answer
    can be wrong, so a "quasi-smooth" one is never asked again)."""
    answer = general_member_is_quasi_smooth(a, d1, d2, seed=1)
    if not answer and expected:
        answer = general_member_is_quasi_smooth(a, d1, d2, seed=2)
    return answer


@pytest.mark.parametrize("a, d1, d2, quasi_smooth", [
    ((1, 1, 1, 1, 1), 2, 2, True),
    ((1, 2, 2, 3, 3), 4, 6, True),
    # Singleton 4 fails: a4 = 3 divides neither degree.
    ((1, 1, 1, 1, 3), 2, 2, False),
    ((1, 2, 2, 2, 3), 4, 4, False),
    # Pair (3, 4) fails: d1 = 4 and every d1 - a_e miss <3, 3>.
    ((2, 2, 2, 3, 3), 4, 6, False),
    # Each row below fails exactly one condition.  Singleton 0: a0 = 3
    # divides neither 8 nor any 8 - a_e.
    ((3, 4, 4, 4, 4), 8, 8, False),
    # Singleton 1: only 8 - a0 is a multiple of 3, at both degrees, and the
    # shifts must differ.
    ((2, 3, 4, 4, 4), 8, 8, False),
    # Pair (1, 2), branch (d): of the shifts by a0, a3, a4, only 8 - a0 lands
    # in <3, 3> at d2, and (d) needs two at each degree.
    ((2, 3, 3, 4, 4), 7, 8, False),
    # Pair (2, 3), branch (d): a4 = 4 shifts neither degree into <3, 3>.
    ((2, 2, 3, 3, 4), 5, 8, False),
    # Singleton 2: a2 = 4 divides neither degree, and no a_f == 2 (mod 4)
    # shifts d2 = 10 onto a multiple of 4.
    ((3, 3, 4, 5, 5), 9, 10, False),
    # Singleton 3: a3 = 4 divides neither degree, and only a0 shifts either
    # degree onto a multiple of 4; the shifts must differ.
    ((2, 3, 3, 4, 5), 6, 10, False),
])
def test_check_qs_agrees_with_the_groebner_oracle(a, d1, d2, quasi_smooth):
    report = check_qs(Candidate(a, d1, d2))
    assert report.passed == quasi_smooth
    # A row that is not quasi-smooth fails one condition only, the one the
    # definition names too.
    violations = [(v.level, v.indices) for v in report.violations]
    assert len(violations) == (not quasi_smooth)
    assert violations == qs_failures(a, d1, d2)
    assert oracle(a, d1, d2, report.passed) == report.passed


@pytest.mark.skipif(
    not os.environ.get("WCIDP_SLOW"),
    reason="the a4 <= 3 sweep takes minutes, some tuples 5-15 s each; set WCIDP_SLOW=1",
)
def test_check_qs_agrees_with_the_groebner_oracle_for_every_a4_up_to_3():
    # Every candidate with a4 <= 3 and amplitude >= 1 that is not a linear
    # cone.  The membership conditions are not read on linear cones: there a
    # linear equation removes a variable, so (1,1,2,2,2; 1,1) is the smooth
    # cone x0 = x1 = 0, yet it fails pair (2, 3).
    disagreements = []
    for a in combinations_with_replacement((1, 2, 3), 5):
        for d1, d2 in combinations_with_replacement(range(1, sum(a) - 1), 2):
            if d1 in a or d2 in a or sum(a) - d1 - d2 < 1:
                continue
            passed = check_qs(Candidate(a, d1, d2)).passed
            if oracle(a, d1, d2, passed) != passed:
                disagreements.append((a, d1, d2, passed))
    assert disagreements == []
