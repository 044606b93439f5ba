"""The quasi-smoothness conditions and semigroup membership, written out as
their definitions read, for the tests to hold the package to.

Nothing here comes from ``wcidp``.  Membership in the span of a generator
set is read from a dynamic-programming reachability table (``span``).  Each
condition asks about membership through ``span_of(generators, value)``, so a
test may pass another membership test, such as ``wcidp.semigroup.contains``
for degrees too large for a table.
"""

from itertools import combinations
from math import gcd


def _reachable(gens, size):
    """table[v] for 0 <= v <= size: whether v is a non-negative integer
    combination of gens."""
    table = [True] + [False] * size
    for v in range(1, size + 1):
        table[v] = any(g <= v and table[v - g] for g in gens)
    return table


# The table of each generator tuple asked about, rebuilt twice as long when
# a larger value is asked.
_TABLES = {}


def span(gens, value):
    """Whether value is a non-negative integer combination of the tuple
    gens."""
    if value < 0:
        return False
    table = _TABLES.get(gens)
    if table is None or value >= len(table):
        table = _TABLES[gens] = _reachable(gens, max(64, 2 * value))
    return table[value]


def singleton(a, d1, d2, i, span_of=span):
    """a_i divides d1 or d2, or d1 - a_e and d2 - a_f both lie in (a_i) for
    some e != f."""
    def mem(v):
        return span_of((a[i],), v)

    return (mem(d1) or mem(d2)
            or any(e != f and mem(d1 - a[e]) and mem(d2 - a[f])
                   for e in range(5) for f in range(5)))


# The two-element subsets of the complement of each pair {i, j}.
_HALVES = {(i, j): list(combinations([k for k in range(5) if k not in (i, j)], 2))
           for i, j in combinations(range(5), 2)}


def pair_branches(a, d1, d2, i, j, span_of=span):
    """Branches (a) to (d) of the pair condition at {i, j}, i < j, each
    evaluated in full; (d) runs over all nine ordered pairs of two-element
    subsets E = {e, g} and F = {f, h} of the complement and keeps those
    whose union covers it."""
    gens = (a[i], a[j])
    in1, in2 = span_of(gens, d1), span_of(gens, d2)
    # Whether d1 - a_e and d2 - a_e lie in the span, for each e.
    shift1 = [span_of(gens, d1 - ae) for ae in a]
    shift2 = [span_of(gens, d2 - ae) for ae in a]
    halves = _HALVES[i, j]
    return (
        in1 and in2,
        in1 and any(shift2),
        in2 and any(shift1),
        any(shift1[e] and shift1[g] and shift2[f] and shift2[h] and len({e, g, f, h}) == 3
            for e, g in halves for f, h in halves),
    )


def triple(a, d1, d2, k, l, m, span_of=span):
    """d1 and d2 in (a_k, a_l, a_m), or d1 plus both d2 - a_i, d2 - a_j, or
    d2 plus both d1 - a_i, d1 - a_j, where {i, j} is the complement."""
    def mem(v):
        return span_of((a[k], a[l], a[m]), v)

    i, j = (x for x in range(5) if x not in (k, l, m))
    return ((mem(d1) and mem(d2))
            or (mem(d1) and mem(d2 - a[i]) and mem(d2 - a[j]))
            or (mem(d2) and mem(d1 - a[i]) and mem(d1 - a[j])))


def qs_failures(a, d1, d2, span_of=span):
    """(level, indices) of every failing quasi-smoothness condition: the
    singletons, pairs and triples, each level in lexicographic order."""
    return ([("singleton", (i,)) for i in range(5) if not singleton(a, d1, d2, i, span_of)]
            + [("pair", s) for s in combinations(range(5), 2)
               if not any(pair_branches(a, d1, d2, *s, span_of=span_of))]
            + [("triple", s) for s in combinations(range(5), 3)
               if not triple(a, d1, d2, *s, span_of=span_of)])


def well_formed(a, d1, d2):
    """Any four weights are coprime, the gcd of any three divides both d1
    and d2, and the gcd of any two divides d1 or d2: no stratum of the
    weighted projective space where a weight subset's gcd exceeds 1 meets
    the surface in a curve."""
    return (all(gcd(*s) == 1 for s in combinations(a, 4))
            and all(d1 % g == 0 and d2 % g == 0 for g in (gcd(*s) for s in combinations(a, 3)))
            and all(d1 % g == 0 or d2 % g == 0 for g in (gcd(*s) for s in combinations(a, 2))))
