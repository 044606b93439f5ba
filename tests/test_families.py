"""Series catalog: constraints, instantiation, matching, frozen assets."""

import ast
import csv
import json
from fractions import Fraction
from importlib import resources
from math import gcd

import pytest

from wcidp import families
from wcidp.classifier import Candidate, amplitude, classify


def test_catalog_has_all_45_series():
    assert len(families.CATALOG) == 45
    assert [s.id for s in families.CATALOG] == list(range(1, 46))


def test_catalog_matches_shipped_records():
    raw = resources.files("wcidp").joinpath("data/family_catalog.json").read_text()
    assert json.loads(raw) == families.catalog_records()


def test_valid_params_examples():
    assert families.valid_params(26, {"t": 4}) is False
    assert families.valid_params(26, {"t": 2}) is True
    assert families.valid_params(1, {"a0": 1, "a1": 3, "nu": 2}) is True
    # bool is an int subclass, but True is not a parameter value.
    assert families.valid_params(15, {"t": True}) is False
    assert families.valid_params(15, {"t": 0}) is False


def test_invalid_reason_names_the_constraint():
    assert families.invalid_reason(26, {"t": 4}) == "t % 3 != 1"
    assert families.invalid_reason(26, {"t": 2}) is None
    assert families.invalid_reason(1, {"a0": 3, "a1": 1, "nu": 2}) == "a0 < a1"
    assert families.invalid_reason(15, {"t": True}) == "t must be a positive integer, got True"


def test_parameter_name_errors():
    with pytest.raises(ValueError):
        families.valid_params(99, {"t": 1})
    with pytest.raises(ValueError):
        families.valid_params(15, {"s": 1})
    with pytest.raises(ValueError):
        families.valid_params(1, {"a0": 1, "a1": 3})


def test_non_ascending_instances_are_rejected_not_sorted():
    # No catalog assignment that passes its printed constraints produces an
    # unsorted tuple, but the guard must reject rather than repair if one did.
    synthetic = families.FamilySpec(
        id=99, parameters=("t",),
        weights=("t + 1", "1", "1", "1", "1"), degrees=("2", "2"),
        amplitude="1", constraints=(),
    )
    key, reason = families._instance_or_reason(synthetic, {"t": 1})
    assert key is None
    assert reason == "instantiated weights are not ascending"


def test_instantiate_examples():
    assert families.instantiate(15, {"t": 2}).key == (1, 1, 2, 2, 3, 4, 4)
    assert families.instantiate(16, {"t": 1}).key == (1, 2, 3, 3, 5, 6, 7)
    assert families.instantiate(1, {"a0": 1, "a1": 3, "nu": 2}).key == (1, 3, 3, 4, 5, 6, 8)


def test_instantiate_rejects_invalid_params():
    with pytest.raises(ValueError):
        families.instantiate(26, {"t": 4})
    with pytest.raises(ValueError, match="t must be a positive integer, got True"):
        families.instantiate(15, {"t": True})


def test_amplitude_column_examples():
    assert families.verify_amplitude_column(15, [{"t": t} for t in range(1, 21)])
    assert families.verify_amplitude_column(21, [{"t": t} for t in range(1, 21)])
    assert families.verify_amplitude_column(1, [{"a0": 1, "a1": 3, "nu": 2}])
    assert families.family_amplitude(1, {"a0": 1, "a1": 3, "nu": 2}) == 2
    # The amplitude formula is defined only where the assignment is valid.
    for fid, params in [(26, {"t": 4}), (15, {"t": True}), (15, {"t": 0})]:
        with pytest.raises(ValueError, match=f"invalid parameters for family {fid}: "):
            families.family_amplitude(fid, params)


def test_match_examples():
    matches = families.match_tuple(Candidate.of(1, 1, 1, 1, 1, 2, 2))
    assert any(m.family_id == 15 and m.params == {"t": 1} for m in matches)

    assert families.match_tuple(Candidate.of(1, 2, 2, 3, 3, 4, 6)) == []

    ids = {m.family_id for m in families.match_tuple(Candidate.of(1, 3, 3, 4, 5, 6, 8))}
    assert ids >= {1, 2, 11, 12, 19}


def test_round_trip_on_frozen_samples():
    for spec in families.CATALOG:
        for params in families.smallest_assignments(spec.id, 4):
            c = families.instantiate(spec.id, params)
            matches = families.match_tuple(c)
            assert any(
                m.family_id == spec.id and m.params == params for m in matches
            ), (spec.id, params, c.key)


def test_small_instances_classify_as_del_pezzo():
    for spec in families.CATALOG:
        for params in families.smallest_assignments(spec.id, 3):
            c = families.instantiate(spec.id, params)
            verdict = classify(c)
            assert verdict.is_del_pezzo, (spec.id, params, c.key)
            assert amplitude(c) == families.family_amplitude(spec.id, params)


def test_frozen_sample_asset_regenerates_identically():
    raw = resources.files("wcidp").joinpath("data/family_samples.json").read_text()
    frozen = {int(k): v for k, v in json.loads(raw).items()}
    assert set(frozen) == set(range(1, 46))
    for fid, assignments in frozen.items():
        assert assignments == families.smallest_assignments(fid, 10)


def test_smallest_assignments_are_the_smallest_below_the_first_bound_that_holds_enough():
    count = 10
    within = families.instances_within(256, 10**9)
    for spec in families.CATALOG:
        instances = sorted((key, m.assignment) for key, ms in within.items()
                           for m in ms if m.family_id == spec.id)
        bound = 16
        while sum(key[4] <= bound for key, _ in instances) < count and bound < 256:
            bound *= 2
        expected = [dict(a) for key, a in instances if key[4] <= bound][:count]
        assert len(expected) == count, spec.id
        assert families.smallest_assignments(spec.id, count) == expected, spec.id
    # Not the smallest instances of the whole series: series 6 has one below
    # its sixth, but with a4 = 19 > 16.
    sixth = families.instantiate(6, families.smallest_assignments(6, count)[5])
    smaller = families.instantiate(6, {"a0": 1, "a1": 2, "nu": 7})
    assert sixth.key == (1, 3, 5, 5, 7, 8, 10)
    assert smaller.key == (1, 2, 3, 18, 19, 20, 21) < sixth.key
    # A negative count is refused, not read as a slice from the end, and so
    # is a count that is not an int.
    assert families.smallest_assignments(6, 0) == []
    for bad in (-1, 2.5, True, "3"):
        with pytest.raises(ValueError):
            families.smallest_assignments(6, bad)


def _golden_rows():
    text = resources.files("wcidp").joinpath("data/sporadic_catalog.csv").read_text()
    rows = csv.DictReader(text.splitlines())
    return [tuple(int(r[k]) for k in ("a0", "a1", "a2", "a3", "a4", "d1", "d2")) for r in rows]


def _neighbours(key):
    """Every canonical tuple one entry away from ``key`` by +-1."""
    for i in range(7):
        for step in (-1, 1):
            values = list(key)
            values[i] += step
            if values[i] >= 1:
                yield Candidate.of(*values)


def test_instances_within_agrees_with_match_tuple():
    # The enumeration scans every assignment; match_tuple solves for one per
    # series.  Agreement on the box, on the sporadic table and on near misses
    # shows the solve misses nothing the scan finds and invents nothing.
    table = families.instances_within(60, 120)
    assert len(table) == 721
    for key, matches in table.items():
        c = Candidate(key[:5], key[5], key[6])
        assert list(matches) == families.match_tuple(c), key
    golden = _golden_rows()
    assert len(golden) == 92
    for row in golden:
        assert row not in table
        assert families.match_tuple(Candidate.of(*row)) == [], row
    for key in table:
        if key[4] > 20:
            continue
        for c in _neighbours(key):
            assert c.key[4] <= 60 and c.key[6] <= 120
            assert families.match_tuple(c) == list(table.get(c.key, ())), c.key


@pytest.mark.parametrize("family_id, params", [
    (15, {"t": 100000}),
    (45, {"t": 50000}),
    (1, {"a0": 3, "a1": 5, "nu": 20001}),
])
def test_match_tuple_at_large_a4(family_id, params):
    c = families.instantiate(family_id, params)
    assert c.key[4] >= 100000
    assert families.match_tuple(c) == [
        families.FamilyMatch(family_id, tuple(sorted(params.items())))
    ]


def test_series_without_a_linear_solve_is_a_catalog_error():
    with pytest.raises(ValueError, match="no weight or degree formula is linear"):
        families.FamilySpec(
            id=99, parameters=("t",),
            weights=("1", "1", "t*t", "t*t", "2*t*t"), degrees=("2*t*t", "2*t*t"),
            amplitude="1", constraints=(),
        )


def test_instantiation_overflow_is_checked():
    with pytest.raises(OverflowError):
        families.instantiate(15, {"t": 1 << 63})


def test_zero_slope_in_a_solve_is_an_error_naming_the_series():
    # "t - t" passes the degree walk but does not depend on t; the solve must
    # say so rather than divide by zero or skip the series.
    synthetic = families.FamilySpec(
        id=99, parameters=("t",),
        weights=("t - t + 1", "1", "t", "t", "t"), degrees=("2", "2"),
        amplitude="1", constraints=(),
    )
    with pytest.raises(RuntimeError, match="family 99: 't - t \\+ 1' does not depend on t"):
        families._solve(synthetic, (1, 1, 1, 1, 1, 2, 2))


# The catalog read over exact rationals, the way it reads on paper: every
# expression parsed with ``ast`` and evaluated over ``Fraction``, with a gcd
# that refuses a non-integral argument.  Nothing here comes from ``families``.


class _NotIntegral(ArithmeticError):
    pass


def _rational_gcd(x, y):
    if Fraction(x).denominator != 1 or Fraction(y).denominator != 1:
        raise _NotIntegral
    return Fraction(gcd(int(x), int(y)))


_RATIONAL_GLOBALS = {"__builtins__": {}, "gcd": _rational_gcd, "max": max}


def _rational(text):
    return compile(ast.parse(text, mode="eval"), text, "eval")


def _rational_reading(record, params):
    """(reason, key, amplitude) of an assignment: reason None, the 7-tuple
    and the amplitude when it is valid; the amplitude is None when its
    formula does not come out an integer."""
    for name in record["parameters"]:
        v = params[name]
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            return f"{name} must be a positive integer, got {v!r}", None, None
    env = {name: Fraction(params[name]) for name in record["parameters"]}
    for text in record["constraints"]:
        try:
            if not eval(_rational(text), _RATIONAL_GLOBALS, env):
                return text, None, None
        except _NotIntegral:
            return text, None, None
    values = []
    for text in record["weights"] + record["degrees"]:
        v = Fraction(eval(_rational(text), _RATIONAL_GLOBALS, env))
        if v.denominator != 1:
            return f"{text} is not an integer", None, None
        values.append(int(v))
    weights, degrees = values[:5], values[5:]
    if min(values) < 1:
        return "instantiated tuple has a non-positive entry", None, None
    if weights != sorted(weights):
        return "instantiated weights are not ascending", None, None
    if degrees[0] > degrees[1]:
        return "instantiated degrees are not in order d1 <= d2", None, None
    amp = Fraction(eval(_rational(record["amplitude"]), _RATIONAL_GLOBALS, env))
    return None, tuple(values), int(amp) if amp.denominator == 1 else None


def _moved_assignments(params):
    yield params
    for name in params:
        for step in (-1, 1, 2):
            yield {**params, name: params[name] + step}


@pytest.mark.parametrize("family_id", range(1, 46))
def test_integer_evaluation_agrees_with_the_rational_reading(family_id):
    raw = resources.files("wcidp").joinpath("data/family_catalog.json").read_text()
    record = next(r for r in json.loads(raw) if r["id"] == family_id)
    seen = 0
    for base in families.smallest_assignments(family_id, 10):
        for params in _moved_assignments(base):
            reason, key, amp = _rational_reading(record, params)
            assert families.invalid_reason(family_id, params) == reason, params
            if key is None:
                with pytest.raises(ValueError):
                    families.instantiate(family_id, params)
                continue
            seen += 1
            assert families.instantiate(family_id, params).key == key
            if amp is None:
                with pytest.raises(ValueError):
                    families.family_amplitude(family_id, params)
            else:
                assert families.family_amplitude(family_id, params) == amp
    assert seen >= 10


def test_gcd_of_a_non_integral_quotient_fails_its_constraint():
    # (a1 - a0)/2 = 1/2: the division is not exact, so the gcd cannot hold.
    assert families.invalid_reason(1, {"a0": 2, "a1": 3, "nu": 1}) == (
        "gcd(nu*a0 - 1, (a1 - a0)/2) == 1"
    )
