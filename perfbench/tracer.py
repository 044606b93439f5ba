"""In-memory tracing of the package from outside it.

The package looks up its collaborators as module attributes at call time
(``enumerator`` calls ``del_pezzo_quick`` through its own globals,
``classifier`` calls ``_pair_ok`` through its globals, and so on).  The
tracer replaces such attributes with wrappers that count calls, verdicts
and time, and restores them afterwards.  Nothing in the package changes.

Self time is a span's duration minus the time of the wrapped calls made
inside it.  Per-call spans are kept only for names wrapped with
``spans=True`` (chunks and queries); hot inner functions are aggregated.
A name that no longer exists is recorded as absent and its metrics are
reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from itertools import count
from time import perf_counter


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    passes: int = 0
    callers: int = 0
    last_caller: int = -1
    size: int = 0
    spans: list = field(default_factory=list)


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.absent: set[str] = set()
        self._stack = [[0.0, 0]]
        self._seq = count(1)
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, target: str, name: str, *, verdict=bool, spans: bool = False,
             on_call=None, leaf: bool = False) -> None:
        """Wrap ``module.attr`` (given as "wcidp.module.attr") under ``name``.

        Several targets may share one name; their counts add up.  A call
        passes when ``verdict(result)`` is true.  ``on_call(stat, args,
        result)`` adds a size, such as candidates generated or bytes written.

        ``leaf=True`` takes a cheaper path for hot functions that call no
        other wrapped function: no span frame and no caller count.
        """
        module_name, _, attr = target.rpartition(".")
        stat = self.stats.setdefault(name, Stat())
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.absent.add(name)
            return
        stack = self._stack
        seq = self._seq

        if leaf:
            def wrapper(*args):
                t0 = perf_counter()
                result = original(*args)
                elapsed = perf_counter() - t0
                stack[-1][0] += elapsed
                stat.calls += 1
                stat.self_s += elapsed
                if result:
                    stat.passes += 1
                return result
        else:
            def wrapper(*args, **kwargs):
                caller = stack[-1]
                frame = [0.0, next(seq)]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - t0
                    stack.pop()
                    caller[0] += elapsed
                    stat.calls += 1
                    stat.self_s += elapsed - frame[0]
                if verdict(result):
                    stat.passes += 1
                if caller[1] != stat.last_caller:
                    stat.last_caller = caller[1]
                    stat.callers += 1
                if spans:
                    stat.spans.append((t0, elapsed, caller[1], frame[1]))
                if on_call is not None:
                    on_call(stat, args, result)
                return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def stat(self, name: str) -> Stat | None:
        """The stat for ``name``, or None when any of its targets is absent."""
        return None if name in self.absent else self.stats.get(name)


def _passed(report) -> bool:
    return report.passed


def _is_del_pezzo(verdict) -> bool:
    return verdict.is_del_pezzo


def _valid_assignment(outcome) -> bool:
    return outcome[0] is not None


def _add_len(stat, args, result) -> None:
    stat.size += len(result)


def _add_written(stat, args, result) -> None:
    # The sink is a fresh file, so its position after the call is its size.
    stat.size += args[-1].tell()


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    w = tracer.wrap
    w("wcidp.enumerator._candidates_fast", "enumerator.generator", on_call=_add_len)
    w("wcidp.enumerator._solve_chunk", "enumerator.chunk", spans=True, on_call=_add_len)
    w("wcidp.enumerator._exhaustive_tuple_solutions", "enumerator.exhaustive_tuple")
    w("wcidp.enumerator._singleton_ok", "quasismooth.singleton_prefilter", leaf=True)
    w("wcidp.enumerator.del_pezzo_quick", "classifier.del_pezzo_quick")
    w("wcidp.families.instances_within", "families.instances_within")
    for module in ("classifier", "quasismooth"):
        w(f"wcidp.{module}._singleton_ok", "quasismooth.singleton", leaf=True)
        w(f"wcidp.{module}._pair_ok", "quasismooth.pair")
        w(f"wcidp.{module}._triple_ok", "quasismooth.triple")
    w("wcidp.classifier.check_qs", "quasismooth.check_qs", verdict=_passed)
    w("wcidp.classifier.is_well_formed", "wellformed.is_well_formed", leaf=True)
    w("wcidp.classifier.check_wf", "wellformed.check_wf", verdict=_passed)
    w("wcidp.quasismooth.member", "semigroup.member", leaf=True)
    for module in ("classifier", "cli"):
        w(f"wcidp.{module}.classify", "classifier.classify", verdict=_is_del_pezzo, spans=True)
    w("wcidp.families.match_tuple", "families.match_tuple", spans=True)
    w("wcidp.families._instance_or_reason", "families.assignments", verdict=_valid_assignment)
    w("wcidp.cli._write_jsonl", "cli.write_jsonl", on_call=_add_written)
    w("wcidp.cli._write_csv", "cli.write_csv", on_call=_add_written)


# name -> extra metrics beyond .calls and .self_s
LAYERS = {
    "enumerator.generator": ("candidates",),
    "enumerator.chunk": ("p50_s", "max_s"),
    "enumerator.exhaustive_tuple": (),
    "quasismooth.singleton_prefilter": ("pass_ratio", "passes"),
    "quasismooth.singleton": ("pass_ratio",),
    "quasismooth.pair": ("pass_ratio",),
    "quasismooth.triple": ("pass_ratio", "candidates"),
    "quasismooth.check_qs": ("pass_ratio",),
    "classifier.del_pezzo_quick": ("pass_ratio", "passes"),
    "classifier.classify": ("pass_ratio",),
    "wellformed.is_well_formed": ("pass_ratio", "passes"),
    "wellformed.check_wf": ("pass_ratio",),
    "semigroup.member": ("pass_ratio",),
    "families.instances_within": (),
    "families.match_tuple": ("pass_ratio",),
    "families.assignments": ("pass_ratio",),
    "cli.write_jsonl": ("bytes",),
    "cli.write_csv": ("bytes",),
}

UNITS = {"calls": "count", "self_s": "s", "pass_ratio": "ratio", "passes": "count",
         "candidates": "count", "p50_s": "s", "max_s": "s", "bytes": "B"}

# Per-layer metrics that are not read from one wrapped name.
DERIVED = {"enumerator.yield_ratio": "ratio", "semigroup.bitmap.misses": "count",
           "semigroup.bitmap.hit_ratio": "ratio"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2] if ordered else 0.0


def _extra(name: str, stat: Stat, extra: str) -> float:
    if extra == "pass_ratio":
        return _ratio(stat.passes, stat.calls)
    if extra == "passes":
        return stat.passes
    if extra == "candidates":
        # The generator counts what it emits; the triple stage counts its
        # calling spans, that is candidates that passed every earlier condition.
        return stat.size if name == "enumerator.generator" else stat.callers
    if extra == "bytes":
        return stat.size
    durations = [span[1] for span in stat.spans]
    return _median(durations) if extra == "p50_s" else max(durations, default=0.0)


def layer_metrics(tracer: Tracer, bitmap_before, bitmap_after) -> dict:
    """Every per-layer value by metric name; None marks an absent layer."""
    out: dict[str, float | None] = {}
    for name, extras in LAYERS.items():
        stat = tracer.stat(name)
        for key in ("calls", "self_s", *extras):
            if stat is None:
                out[f"{name}.{key}"] = None
            elif key in ("calls", "self_s"):
                out[f"{name}.{key}"] = getattr(stat, key)
            else:
                out[f"{name}.{key}"] = _extra(name, stat, key)
    generator, chunk = tracer.stat("enumerator.generator"), tracer.stat("enumerator.chunk")
    out["enumerator.yield_ratio"] = (
        None if generator is None or chunk is None else _ratio(chunk.size, generator.size))
    if bitmap_before is None or bitmap_after is None:
        out["semigroup.bitmap.misses"] = out["semigroup.bitmap.hit_ratio"] = None
    else:
        hits = bitmap_after.hits - bitmap_before.hits
        misses = bitmap_after.misses - bitmap_before.misses
        out["semigroup.bitmap.misses"] = misses
        out["semigroup.bitmap.hit_ratio"] = _ratio(hits, hits + misses)
    return out

