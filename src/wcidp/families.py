"""The 45 infinite series of del Pezzo weighted complete intersections.

Every series is shipped as data (``data/family_catalog.json``): closed-form
weight, degree and amplitude expressions in the series parameters, plus the
validity constraints (gcd conditions, parity, congruences, lower bounds).
Keeping the catalog declarative makes it auditable record by record and lets
external tools re-check it without reading Python.

Expressions are evaluated over Python ints.  Each ``x / y`` in a catalog
expression is compiled to an exact quotient: an int when ``y`` divides ``x``,
else the ``Fraction`` x/y, so that constraints like
``gcd((nu*a0 - 1)/2, (a1 - a0)/2) == 1`` mean what they say: a gcd of a
non-integral quotient fails the constraint, and a weight formula that does
not come out an integer invalidates the assignment.

Every parameter must be readable off the tuple: in some order, each one
occurs with degree 1 in a weight or degree formula once the earlier ones are
fixed (in this catalog: a0, a1 or b0, b1 from the first two weights, then
nu from a later weight; or t alone).  Loading a
series derives this order from the parsed formulas and rejects a series that
has none, as it rejects disallowed syntax; ``match_tuple`` follows it to solve
for the one candidate assignment per series instead of searching.

Beyond the printed constraints, a valid assignment must instantiate to
positive ascending weights with degrees d1 <= d2.  Small parameters can break
the printed ascending order, and re-sorting would silently change which
series "contains" a tuple, so such assignments are rejected rather than
repaired.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from math import gcd
from typing import Iterable, Iterator, Mapping

from .classifier import Candidate

_MAX_MAGNITUDE = 1 << 63

_ALLOWED_CALLS = {"gcd", "max"}
_ALLOWED_NODES = frozenset({
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Compare, ast.Call, ast.Name,
    ast.Constant, ast.Load, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Mod,
    ast.USub, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
})


class _NonIntegral(ArithmeticError):
    """A gcd argument came out non-integral; the enclosing constraint fails."""


def _exact_gcd(x: int | Fraction, y: int | Fraction) -> int:
    if x.denominator != 1 or y.denominator != 1:
        raise _NonIntegral
    return gcd(int(x), int(y))


def _exact_quotient(x: int | Fraction, y: int | Fraction) -> int | Fraction:
    """x / y: an int when the division is exact, else a ``Fraction``."""
    q, r = divmod(x, y)
    return q if r == 0 else Fraction(x) / y


class _ExactDivision(ast.NodeTransformer):
    """Rewrite every ``x / y`` into ``_exact_quotient(x, y)``."""

    def visit_BinOp(self, node: ast.BinOp) -> ast.AST:
        self.generic_visit(node)
        if not isinstance(node.op, ast.Div):
            return node
        func = ast.copy_location(ast.Name("_exact_quotient", ast.Load()), node)
        return ast.copy_location(ast.Call(func, [node.left, node.right], []), node)


def _parse_expr(text: str, names: Iterable[str]) -> ast.Expression:
    """Parse and validate one catalog expression."""
    tree = ast.parse(text, mode="eval")
    allowed_names = set(names) | _ALLOWED_CALLS
    for node in ast.walk(tree):
        kind = type(node)
        if kind not in _ALLOWED_NODES:
            raise ValueError(f"disallowed syntax {kind.__name__!r} in {text!r}")
        if kind is ast.Name and node.id not in allowed_names:
            raise ValueError(f"unknown name {node.id!r} in {text!r}")
        if kind is ast.Call:
            if type(node.func) is not ast.Name or node.func.id not in _ALLOWED_CALLS:
                raise ValueError(f"disallowed call in {text!r}")
        if kind is ast.Constant and not isinstance(node.value, int):
            raise ValueError(f"non-integer constant in {text!r}")
    return tree


def _compile_expr(text: str, tree: ast.Expression):
    """Code evaluating a parsed expression over ints; the tree is consumed."""
    if "/" in text:
        tree = _ExactDivision().visit(tree)
    return compile(tree, f"<family:{text}>", "eval")


def _degree(node: ast.AST, var: str, known: set[str]) -> int | None:
    """Polynomial degree of an expression in ``var`` once the ``known`` names
    are fixed; None when it is not such a polynomial (it names an unknown
    parameter, divides by ``var``, or puts ``var`` inside ``%``, gcd or max)."""
    if isinstance(node, ast.Expression):
        return _degree(node.body, var, known)
    if isinstance(node, ast.Constant):
        return 0
    if isinstance(node, ast.Name):
        return 1 if node.id == var else 0 if node.id in known else None
    if isinstance(node, ast.UnaryOp):
        return _degree(node.operand, var, known)
    if isinstance(node, ast.BinOp):
        left, right = _degree(node.left, var, known), _degree(node.right, var, known)
        if left is None or right is None:
            return None
        if isinstance(node.op, (ast.Add, ast.Sub)):
            return max(left, right)
        if isinstance(node.op, ast.Mult):
            return left + right
        if isinstance(node.op, ast.Div) and right == 0:
            return left
        return 0 if left == right == 0 else None
    if isinstance(node, ast.Call):
        return 0 if all(_degree(arg, var, known) == 0 for arg in node.args) else None
    return None


def _solve_plan(
    family_id: int, parameters: tuple[str, ...], formulas: list[ast.Expression]
) -> tuple[tuple[str, int], ...]:
    """The order in which a tuple determines the parameters: (parameter,
    formula index) pairs, each formula of degree 1 in its parameter once the
    earlier ones are fixed.  Raises ValueError when no such order exists."""
    known: set[str] = set()
    plan = []
    while len(plan) < len(parameters):
        for name in parameters:
            if name in known:
                continue
            index = next(
                (i for i, tree in enumerate(formulas) if _degree(tree, name, known) == 1), None
            )
            if index is not None:
                break
        else:
            unsolved = [name for name in parameters if name not in known]
            raise ValueError(
                f"family {family_id}: no weight or degree formula is linear in {unsolved}"
            )
        plan.append((name, index))
        known.add(name)
    return tuple(plan)


_EVAL_GLOBALS = {
    "__builtins__": {}, "gcd": _exact_gcd, "max": max, "_exact_quotient": _exact_quotient,
}


@dataclass(frozen=True)
class FamilySpec:
    """One series: symbolic tuple formulas plus parameter constraints."""

    id: int
    parameters: tuple[str, ...]
    weights: tuple[str, str, str, str, str]
    degrees: tuple[str, str]
    amplitude: str
    constraints: tuple[str, ...]
    _codes: dict = field(compare=False, repr=False, default_factory=dict)

    def __post_init__(self):
        texts = self.weights + self.degrees
        trees = [_parse_expr(text, self.parameters) for text in texts]
        plan = _solve_plan(self.id, self.parameters, trees)
        codes = {
            "formulas": tuple(_compile_expr(text, tree) for text, tree in zip(texts, trees)),
            "amplitude": _compile_expr(
                self.amplitude, _parse_expr(self.amplitude, self.parameters)
            ),
            "constraints": tuple(
                (text, _compile_expr(text, _parse_expr(text, self.parameters)))
                for text in self.constraints
            ),
            "plan": plan,
        }
        object.__setattr__(self, "_codes", codes)

    def as_record(self) -> dict:
        return {
            "id": self.id,
            "parameters": list(self.parameters),
            "weights": list(self.weights),
            "degrees": list(self.degrees),
            "amplitude": self.amplitude,
            "constraints": list(self.constraints),
        }


@dataclass(frozen=True)
class FamilyMatch:
    """A series together with a parameter assignment hitting a tuple."""

    family_id: int
    assignment: tuple[tuple[str, int], ...]

    @property
    def params(self) -> dict[str, int]:
        return dict(self.assignment)

    def as_dict(self) -> dict:
        return {"id": self.family_id, "params": self.params}


def _load_catalog() -> tuple[FamilySpec, ...]:
    raw = resources.files(__package__).joinpath("data/family_catalog.json").read_text()
    records = json.loads(raw)
    specs = []
    for rec in records:
        specs.append(
            FamilySpec(
                id=int(rec["id"]),
                parameters=tuple(rec["parameters"]),
                weights=tuple(rec["weights"]),
                degrees=tuple(rec["degrees"]),
                amplitude=rec["amplitude"],
                constraints=tuple(rec["constraints"]),
            )
        )
    ids = [s.id for s in specs]
    if sorted(ids) != list(range(1, 46)):
        raise RuntimeError(f"family catalog must hold ids 1..45, got {sorted(ids)}")
    return tuple(sorted(specs, key=lambda s: s.id))


CATALOG: tuple[FamilySpec, ...] = _load_catalog()
_BY_ID: dict[int, FamilySpec] = {s.id: s for s in CATALOG}


def family(family_id: int) -> FamilySpec:
    try:
        return _BY_ID[family_id]
    except KeyError:
        raise ValueError(f"unknown family id: {family_id}") from None


def _checked_names(spec: FamilySpec, params: Mapping[str, int]) -> None:
    if set(params) != set(spec.parameters):
        raise ValueError(
            f"family {spec.id} takes parameters {set(spec.parameters)}, got {set(params)}"
        )


def _instance_or_reason(
    spec: FamilySpec, params: Mapping[str, int]
) -> tuple[tuple[int, ...] | None, str | None]:
    """Evaluate one assignment: (7-tuple, None) when valid, else (None, reason)."""
    for name in spec.parameters:
        v = params[name]
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            return None, f"{name} must be a positive integer, got {v!r}"
    for text, code in spec._codes["constraints"]:
        try:
            if not eval(code, _EVAL_GLOBALS, params):
                return None, text
        except _NonIntegral:
            return None, text
    values = []
    for expr, code in zip(spec.weights + spec.degrees, spec._codes["formulas"]):
        v = eval(code, _EVAL_GLOBALS, params)
        if v.denominator != 1:
            return None, f"{expr} is not an integer"
        values.append(int(v))
    weights, degrees = values[:5], values[5:]
    if any(w < 1 for w in weights) or any(d < 1 for d in degrees):
        return None, "instantiated tuple has a non-positive entry"
    if weights != sorted(weights):
        return None, "instantiated weights are not ascending"
    if degrees[0] > degrees[1]:
        return None, "instantiated degrees are not in order d1 <= d2"
    if any(abs(v) >= _MAX_MAGNITUDE for v in values):
        raise OverflowError(f"family {spec.id} instance exceeds 64-bit range: {values}")
    return tuple(values), None


def _evaluate(family_id: int, params: Mapping[str, int]) -> tuple[tuple[int, ...] | None, str | None]:
    """``_instance_or_reason`` for a series named by id; an unknown id or a
    wrong set of parameter names raises ValueError."""
    spec = family(family_id)
    _checked_names(spec, params)
    return _instance_or_reason(spec, params)


def valid_params(family_id: int, params: Mapping[str, int]) -> bool:
    """True when the assignment satisfies every constraint and instantiates
    to a canonical tuple (positive ascending weights, d1 <= d2)."""
    return _evaluate(family_id, params)[0] is not None


def invalid_reason(family_id: int, params: Mapping[str, int]) -> str | None:
    """The first failed constraint (verbatim), or None when valid."""
    return _evaluate(family_id, params)[1]


def _valid_instance(family_id: int, params: Mapping[str, int]) -> tuple[int, ...]:
    """The 7-tuple of a valid assignment; ValueError names what is wrong."""
    key, reason = _evaluate(family_id, params)
    if key is None:
        raise ValueError(f"invalid parameters for family {family_id}: {reason}")
    return key


def instantiate(family_id: int, params: Mapping[str, int]) -> Candidate:
    """The concrete candidate for a valid assignment."""
    key = _valid_instance(family_id, params)
    return Candidate(key[:5], key[5], key[6])


def family_amplitude(family_id: int, params: Mapping[str, int]) -> int:
    """Value of the series' amplitude column at a valid assignment."""
    _valid_instance(family_id, params)
    spec = family(family_id)
    v = eval(spec._codes["amplitude"], _EVAL_GLOBALS, params)
    if v.denominator != 1:
        raise ValueError(f"amplitude formula non-integral at {dict(params)}")
    return int(v)


def verify_amplitude_column(family_id: int, samples: Iterable[Mapping[str, int]]) -> bool:
    """Check computed amplitudes against the catalog's amplitude column."""
    from .classifier import amplitude

    for params in samples:
        c = instantiate(family_id, params)
        if amplitude(c) != family_amplitude(family_id, params):
            return False
    return True


def _a4_value(spec: FamilySpec, params: Mapping[str, int]) -> int | Fraction:
    return eval(spec._codes["formulas"][4], _EVAL_GLOBALS, params)


def _assignments_up_to(spec: FamilySpec, max_a4: int) -> Iterator[tuple[dict[str, int], tuple[int, ...]]]:
    """All valid assignments whose instance has a4 <= max_a4.

    The printed a4 formula is strictly increasing in each parameter wherever
    assignments are valid, so scans break once it climbs past the bound; hard
    caps at max_a4 + 2 per parameter keep every scan finite regardless.
    """
    cap = max_a4 + 2
    if spec.parameters == ("t",):
        for t in range(1, cap + 1):
            params = {"t": t}
            if _a4_value(spec, params) > max_a4:
                break
            key, _ = _instance_or_reason(spec, params)
            if key is not None:
                yield params, key
        return
    p_name, q_name, nu_name = spec.parameters
    for p in range(1, cap + 1):
        prev_base = None
        for q in range(p + 1, cap + 1):
            base = _a4_value(spec, {p_name: p, q_name: q, nu_name: 1})
            if base > max_a4:
                # Break only on a confirmed climb past the bound; a single
                # large value may still precede admissible ones.
                if prev_base is not None and prev_base > max_a4 and base >= prev_base:
                    break
                prev_base = base
                continue
            prev_base = base
            for nu in range(1, cap + 1):
                params = {p_name: p, q_name: q, nu_name: nu}
                if _a4_value(spec, params) > max_a4:
                    break
                key, _ = _instance_or_reason(spec, params)
                if key is not None:
                    yield params, key


def _solve(spec: FamilySpec, target: tuple[int, ...]) -> dict[str, int] | None:
    """The only assignment of ``spec`` whose formulas can give ``target``, or
    None when a parameter solves to anything but a positive integer or the
    solved assignment misses another entry of the target."""
    formulas = spec._codes["formulas"]
    env: dict[str, int] = {}
    for name, index in spec._codes["plan"]:
        code = formulas[index]
        env[name] = 0
        f0 = eval(code, _EVAL_GLOBALS, env)
        env[name] = 1
        slope = eval(code, _EVAL_GLOBALS, env) - f0
        if slope == 0:
            known = {k: v for k, v in env.items() if k != name}
            raise RuntimeError(
                f"family {spec.id}: {(spec.weights + spec.degrees)[index]!r} "
                f"does not depend on {name} at {known}"
            )
        value, rest = divmod(target[index] - f0, slope)
        if rest or value < 1:
            return None
        env[name] = value
    # A cheap early out; match_tuple's call to _instance_or_reason is the exact check.
    for code, t in zip(formulas, target):
        if eval(code, _EVAL_GLOBALS, env) != t:
            return None
    return env


def match_tuple(candidate: Candidate) -> list[FamilyMatch]:
    """Every (series, assignment) pair reproducing the candidate exactly.

    Complete by an exact solve: each series' plan reads its parameters one at
    a time off tuple entries whose formulas are linear in them, so at most one
    assignment per series can reproduce the candidate.  That assignment is
    re-checked against every constraint and the whole tuple, so a match is
    never reported falsely and the cost does not grow with a4.
    """
    target = candidate.key
    matches = []
    for spec in CATALOG:
        params = _solve(spec, target)
        if params is None:
            continue
        key, _ = _instance_or_reason(spec, params)
        if key == target:
            matches.append(FamilyMatch(spec.id, tuple(sorted(params.items()))))
    # CATALOG is sorted by id and each series matches at most once.
    return matches


def instances_within(max_a4: int, max_d2: int) -> dict[tuple[int, ...], tuple[FamilyMatch, ...]]:
    """All family instances inside the bounds, keyed by their 7-tuple."""
    out: dict[tuple[int, ...], list[FamilyMatch]] = {}
    for spec in CATALOG:
        for params, key in _assignments_up_to(spec, max_a4):
            if key[6] <= max_d2:
                out.setdefault(key, []).append(
                    FamilyMatch(spec.id, tuple(sorted(params.items())))
                )
    return {
        key: tuple(sorted(ms, key=lambda m: (m.family_id, m.assignment)))
        for key, ms in out.items()
    }


def smallest_assignments(family_id: int, count: int = 10) -> list[dict[str, int]]:
    """The ``count`` valid assignments with the smallest instances (by
    tuple, then by assignment) among those with a4 <= B, where B is the
    first of 16, 32, 64, ... that holds at least ``count`` instances (or
    the first past 2^20).

    A series may have a smaller instance with a larger a4, which this
    leaves out: series 6 returns (1, 3, 5, 5, 7, 8, 10) sixth, but its
    (1, 2, 3, 18, 19, 20, 21) has a4 > B = 16.
    """
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise ValueError(f"count must be an integer >= 0, got {count!r}")
    spec = family(family_id)
    bound = 16
    found: list[tuple[tuple[int, ...], tuple[tuple[str, int], ...]]] = []
    while True:
        found = [
            (key, tuple(sorted(params.items())))
            for params, key in _assignments_up_to(spec, bound)
        ]
        if len(found) >= count or bound > 1 << 20:
            break
        bound *= 2
    found.sort()
    return [dict(assignment) for _, assignment in found[:count]]


def catalog_records() -> list[dict]:
    """The catalog as plain records, for re-audit by external tools."""
    return [spec.as_record() for spec in CATALOG]
