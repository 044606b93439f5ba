"""Benchmark of wcidp: end-to-end metrics, exactness gates and a traced pass.

    python3 perfbench/run.py --workload enum-shaped --seed 1 --seconds 40 --trace 0

Workloads (each a closed loop with one client in one process):

* ``enum-shaped``: ``wcidp enumerate`` in shaped mode on the box (40, 80),
  once at jobs=2 writing CSV, then repeatedly at jobs=1 writing JSONL.
* ``enum-exhaustive``: ``enumerate_solutions`` in exhaustive mode on the box
  (20, 40) at jobs=1.
* ``lookup``: ``classify`` on a seeded stream of distinct tuples, then
  ``match_tuple`` on the golden rows plus seeded family instances, repeatedly;
  before them, fresh-process ``wcidp check`` calls.

Every timed call runs in a fresh interpreter (``child.py``), so each starts
from an empty cache, as a user's command does.  Passes repeat until
``--seconds`` is spent, less the time of the set-up probes made before and
after them; the metrics are medians over passes.  The gated time is
``cpu_ref``, CPU time in units of a reference loop timed during the same
pass (see ``child.py``); CPU and wall seconds are printed beside it.  With
``--trace 1`` the run instead makes one untraced and one traced pass at
jobs=1 and reports per-layer metrics.  ``--smoke`` shrinks every workload
to a few seconds.  The last line of standard output is the JSON result;
the line before it holds named metrics, sample counts, checks and the
environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

import inputs
from tracer import DERIVED, LAYERS, UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

WORKLOADS = ("enum-shaped", "enum-exhaustive", "lookup")
BOXES = {False: {"enum-shaped": (40, 80), "enum-exhaustive": (20, 40)},
         True: {"enum-shaped": (15, 30), "enum-exhaustive": (10, 20)}}
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "cpu_ref": "ref"}
# Fresh interpreters that only import the package, half before and half
# after the workload; setup_s is the median of their import CPU time and
# the workload's.
SETUP_PROBES = {False: 30, True: 4}
IMPORT_PROBES = 3
# The console script ``wcidp`` runs exactly this.
CLI_ENTRY = "import sys; from wcidp.cli import main; sys.exit(main())"


class BenchError(RuntimeError):
    """The run cannot produce its metrics; no result is printed."""


class Checks:
    """Exactness checks: each is attempted once and fails or passes."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Runner:
    """Starts child processes one at a time under a shared deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.children: list[tuple[str, dict]] = []

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            # Kill the whole session so pool workers go too, then reap.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{argv[1:3]} ran past the deadline") from None
        return subprocess.CompletedProcess(argv, proc.returncode, out, err)

    def child(self, **spec) -> dict:
        proc = self._run([sys.executable, str(HERE / "child.py"), json.dumps(spec)])
        if proc.returncode != 0:
            raise BenchError(f"task {spec['task']} failed:\n{proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.children.append((spec["task"], out))
        return out

    def cli(self, args: list[str]) -> tuple[int, float]:
        t0 = time.perf_counter()
        proc = self._run([sys.executable, "-c", CLI_ENTRY, *args])
        return proc.returncode, time.perf_counter() - t0

    def importtime(self) -> dict[str, float]:
        """Cumulative import time of wcidp and numpy, from -X importtime."""
        proc = self._run([sys.executable, "-X", "importtime", "-c", "import wcidp, wcidp.cli"])
        if proc.returncode != 0:
            raise BenchError(f"import failed:\n{proc.stderr[-2000:]}")
        found = {}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in ("wcidp", "numpy"):
                found.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
        return found

    @staticmethod
    def repeat(one_pass, until: float) -> list:
        """At least one pass, then more while a pass of the average length
        still ends before the monotonic time ``until``."""
        results = []
        start = time.monotonic()
        while True:
            results.append(one_pass())
            now = time.monotonic()
            if now + (now - start) / len(results) > until:
                return results


def cpu_times(passes: list[dict]) -> dict:
    """cpu_ref, the median pass's CPU time in reference units, and the
    median CPU seconds."""
    return {"cpu_ref": median(out["cpu_s"] / out["ref_unit_s"] for out in passes),
            "cpu_s": median(out["cpu_s"] for out in passes)}


def pass_times(passes: list[dict]) -> dict:
    return {key: [out[key] for out in passes] for key in ("cpu_s", "ref_unit_s")}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


# ---------------------------------------------------------------------------
# exactness gates

def _read_jsonl(path: Path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f]


def _read_csv_rows(path: Path) -> list[tuple[int, ...]]:
    with open(path) as f:
        lines = f.read().splitlines()
    return [tuple(int(v) for v in line.split(",")) for line in lines[1:]]


def gate_enumeration(jsonl: Path, csv_path: Path, box, checks: Checks) -> None:
    records = _read_jsonl(jsonl)
    rows = [tuple(r[k] for k in ("a0", "a1", "a2", "a3", "a4", "d1", "d2")) for r in records]
    sporadic = sorted(row for row, r in zip(rows, records) if not r["families"])
    checks.check(sporadic == inputs.golden_within(*box),
                 f"sporadic rows differ from the golden table within {box}")
    checks.check(len(rows) == inputs.SOLUTION_COUNTS[box],
                 f"{len(rows)} solutions in {box}, expected {inputs.SOLUTION_COUNTS[box]}")
    checks.check(rows == _read_csv_rows(csv_path), "JSONL and CSV list different rows")
    checks.check(all(r["verdict"]["is_del_pezzo"] for r in records),
                 "a JSONL row is not reported as del Pezzo")


def gate_lookup(out: dict, requests: dict, checks: Checks) -> None:
    for (key, expected), verdict in zip(requests["classify"], out["verdicts"], strict=True):
        checks.check(verdict == expected, f"classify{key} gave del Pezzo = {verdict}")
    for (key, expected), found in zip(requests["match"], out["found"], strict=True):
        found = [(fid, tuple(tuple(p) for p in params)) for fid, params in found]
        ok = not found if expected is None else expected in found
        checks.check(ok, f"match_tuple{key} gave {found}, expected {expected or 'none'}")


# ---------------------------------------------------------------------------
# workloads, untraced

def _enum_paths(tag: str) -> tuple[Path, Path]:
    return WORK / f"{tag}.jsonl", WORK / f"{tag}.csv"


def measure_enum_shaped(run: Runner, args, checks: Checks, until: float) -> dict:
    """One jobs=2 CSV pass, then jobs=1 JSONL passes, each gated against
    that CSV.  cpu_ref is the jobs=1 pass: its two workers make the jobs=2
    pass compete for the host's few cores."""
    box = BOXES[args.smoke]["enum-shaped"]
    jsonl, csv_path = _enum_paths("enum-shaped")
    j2 = run.child(task="enumerate", box=box, jobs=2, format="csv", output=str(csv_path))
    checks.check(j2["exit_code"] == 0, f"enumerate --jobs 2 exited {j2['exit_code']}")

    def one_pass():
        j1 = run.child(task="enumerate", box=box, jobs=1, format="jsonl", output=str(jsonl))
        checks.check(j1["exit_code"] == 0, f"enumerate exited {j1['exit_code']}")
        gate_enumeration(jsonl, csv_path, box, checks)
        return j1

    passes = run.repeat(one_pass, until)
    times = cpu_times(passes)
    return {
        "cpu_ref": times["cpu_ref"],
        "named": {"enum_cpu_s": (times["cpu_s"], "s"),
                  "enum_wall_s": (median(out["wall_s"] for out in passes), "s"),
                  "enum_wall_s_j2": (j2["wall_s"], "s"),
                  "enum_cpu_s_j2": (j2["cpu_s"], "s")},
        "samples": {"passes": len(passes), **pass_times(passes)},
    }


def gate_exhaustive(keys: list, reference: list, box, checks: Checks) -> None:
    checks.check(keys == reference, f"exhaustive and shaped solutions differ in {box}")
    checks.check(len(keys) == inputs.SOLUTION_COUNTS[box],
                 f"{len(keys)} exhaustive solutions in {box}, "
                 f"expected {inputs.SOLUTION_COUNTS[box]}")


def measure_enum_exhaustive(run: Runner, args, checks: Checks, until: float) -> dict:
    box = BOXES[args.smoke]["enum-exhaustive"]
    reference = run.child(task="shaped_keys", box=box)["keys"]

    def one_pass():
        out = run.child(task="exhaustive", box=box)
        gate_exhaustive(out["keys"], reference, box, checks)
        return out

    passes = run.repeat(one_pass, until)
    times = cpu_times(passes)
    return {"cpu_ref": times["cpu_ref"],
            "named": {"exhaustive_cpu_s": (times["cpu_s"], "s"),
                      "exhaustive_wall_s": (median(out["wall_s"] for out in passes), "s")},
            "samples": {"passes": len(passes), **pass_times(passes)}}


def measure_lookup(run: Runner, args, checks: Checks, until: float) -> dict:
    sizes = inputs.SMOKE_SIZES if args.smoke else inputs.FULL_SIZES
    requests = inputs.lookup_inputs(args.seed, sizes)

    cold_ms = []
    for key, expected in requests["cold"]:
        code, wall = run.cli(["check", *map(str, key)])
        checks.check(code == (0 if expected else 3), f"wcidp check {key} exited {code}")
        cold_ms.append(wall * 1e3)

    def one_pass():
        out = run.child(task="lookup", seed=args.seed, smoke=args.smoke)
        gate_lookup(out, requests, checks)
        return out

    passes = run.repeat(one_pass, until)
    times = cpu_times(passes)
    # Latencies by class of request, so that no traffic mix is assumed.
    classify_us = {True: [], False: []}
    match_ms = {"golden": [], "family": []}
    for out in passes:
        for (_, accepted), ns in zip(requests["classify"], out["classify_ns"], strict=True):
            classify_us[accepted].append(ns / 1e3)
        for (_, expected), ns in zip(requests["match"], out["match_ns"], strict=True):
            match_ms["golden" if expected is None else "family"].append(ns / 1e6)
    n_classify = sum(map(len, classify_us.values()))
    return {
        "cpu_ref": times["cpu_ref"],
        "named": {
            "lookup_cpu_s": (times["cpu_s"], "s"),
            "lookup_wall_s": (median(out["classify_wall_s"] + out["match_wall_s"]
                                     for out in passes), "s"),
            "classify_accepted_p50_us": (percentile(classify_us[True], 50), "us"),
            "classify_accepted_p99_us": (percentile(classify_us[True], 99), "us"),
            "classify_rejected_p50_us": (percentile(classify_us[False], 50), "us"),
            "classify_rejected_p99_us": (percentile(classify_us[False], 99), "us"),
            "classify_per_s": (n_classify / sum(out["classify_wall_s"] for out in passes), "1/s"),
            "match_golden_p50_ms": (percentile(match_ms["golden"], 50), "ms"),
            "match_golden_p80_ms": (percentile(match_ms["golden"], 80), "ms"),
            "match_family_p50_ms": (percentile(match_ms["family"], 50), "ms"),
            "check_cold_p50_ms": (percentile(cold_ms, 50), "ms"),
        },
        "samples": {"passes": len(passes), **pass_times(passes),
                    "classify_accepted": len(classify_us[True]),
                    "classify_rejected": len(classify_us[False]),
                    "match_golden": len(match_ms["golden"]),
                    "match_family": len(match_ms["family"]), "check_cold": len(cold_ms)},
    }


# ---------------------------------------------------------------------------
# workloads, traced

# Counters that depend only on the enumeration, not on how it is written.
ENUMERATION_COUNTS = (
    "enumerator.generator.candidates", "enumerator.chunk.calls",
    "quasismooth.singleton_prefilter.calls", "quasismooth.singleton_prefilter.passes",
    "classifier.del_pezzo_quick.calls", "classifier.del_pezzo_quick.passes",
    "wellformed.is_well_formed.calls", "wellformed.is_well_formed.passes",
)
# Layers only the JSONL writer reaches: it classifies every row again.
JSONL_LAYERS = ("cli.write_jsonl", "classifier.classify", "quasismooth.check_qs",
                "wellformed.check_wf")


def trace_enum_shaped(run: Runner, args, checks: Checks) -> dict:
    box = BOXES[args.smoke]["enum-shaped"]
    jsonl, csv_path = _enum_paths("enum-shaped-trace")
    spec = {"task": "enumerate", "box": box, "jobs": 1}
    base = run.child(**spec, format="jsonl", output=str(jsonl))
    traced = run.child(**spec, format="jsonl", output=str(jsonl), trace=True)
    # The CSV pass sees only the enumeration, so its attrition counts are
    # not mixed with the JSONL writer's re-classification.
    plain = run.child(**spec, format="csv", output=str(csv_path), trace=True)
    gate_enumeration(jsonl, csv_path, box, checks)
    for name in ENUMERATION_COUNTS:
        checks.check(traced["layers"][name] == plain["layers"][name],
                     f"{name} differs between two traced enumerations")
    layers = dict(plain["layers"])
    for name, value in traced["layers"].items():
        if name.startswith(JSONL_LAYERS):
            layers[name] = value
    pinned = inputs.ATTRITION.get(box)
    info = {"attrition_matches_baseline": None if pinned is None else
            all(layers[k] == v for k, v in pinned.items())}
    return {"layers": layers, "base": base["cpu_s"], "traced": traced["cpu_s"], "info": info}


def trace_enum_exhaustive(run: Runner, args, checks: Checks) -> dict:
    box = BOXES[args.smoke]["enum-exhaustive"]
    reference = run.child(task="shaped_keys", box=box)["keys"]
    base = run.child(task="exhaustive", box=box)
    traced = run.child(task="exhaustive", box=box, trace=True)
    for out in (base, traced):
        gate_exhaustive(out["keys"], reference, box, checks)
    return {"layers": traced["layers"], "base": base["cpu_s"], "traced": traced["cpu_s"]}


def trace_lookup(run: Runner, args, checks: Checks) -> dict:
    requests = inputs.lookup_inputs(
        args.seed, inputs.SMOKE_SIZES if args.smoke else inputs.FULL_SIZES)
    spec = {"task": "lookup", "seed": args.seed, "smoke": args.smoke}
    base = run.child(**spec)
    traced = run.child(**spec, trace=True)
    for out in (base, traced):
        gate_lookup(out, requests, checks)
    return {"layers": traced["layers"], "base": base["cpu_s"], "traced": traced["cpu_s"]}


MEASURE = {"enum-shaped": measure_enum_shaped, "enum-exhaustive": measure_enum_exhaustive,
           "lookup": measure_lookup}
TRACE = {"enum-shaped": trace_enum_shaped, "enum-exhaustive": trace_enum_exhaustive,
         "lookup": trace_lookup}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, extras in LAYERS.items():
        for key in ("calls", "self_s", *extras):
            units[f"{name}.{key}"] = UNITS[key]
    units.update(DERIVED)
    units.update({"import.wcidp_s": "s", "import.numpy_s": "s", "trace.untraced_s": "s",
                  "trace.traced_s": "s", "trace.overhead_s": "s"})
    return units


# ---------------------------------------------------------------------------
# environment and entry point

def environment() -> dict:
    load = os.getloadavg()
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    try:
        # The ceiling keeps git from reporting a repository above the checkout.
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                             ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wcidp").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "git_sha": sha, "source_sha256": digest.hexdigest(),
            "loadavg_start": list(load), "platform": platform.platform()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny boxes and request lists, for testing the benchmark")
    return parser.parse_args(argv)


def run(args) -> tuple[dict, dict]:
    env = environment()
    start = time.monotonic()
    # Passes stop within --seconds, but one pass may be longer than that
    # (a lookup pass takes about 30 s), and the probes come on top.
    runner = Runner(start + 2 * args.seconds + 90)
    checks = Checks()
    WORK.mkdir(exist_ok=True)
    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "smoke": args.smoke, "env": env}
    if args.trace:
        out = TRACE[args.workload](runner, args, checks)
        imports = [runner.importtime() for _ in range(IMPORT_PROBES)]
        layers = dict(out["layers"])
        for name in ("wcidp", "numpy"):
            values = [found[name] for found in imports if name in found]
            layers[f"import.{name}_s"] = median(values) if values else None
        layers["trace.untraced_s"] = out["base"]
        layers["trace.traced_s"] = out["traced"]
        layers["trace.overhead_s"] = out["traced"] - out["base"]
        units = per_layer_units()
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
        summary["absent"] = sorted(name for name, value in layers.items() if value is None)
        summary.update(out.get("info", {}))
    else:
        probes = SETUP_PROBES[args.smoke]
        for _ in range(probes // 2):
            runner.child(task="setup")
        probe_s = time.monotonic() - start
        # The second half of the probes takes about as long as the first.
        out = MEASURE[args.workload](runner, args, checks, start + args.seconds - probe_s)
        for _ in range(probes - probes // 2):
            runner.child(task="setup")
        setup = [child["setup_s"] for _, child in runner.children]
        values = {"setup_s": median(setup),
                  "peak_rss_mb": max(child["peak_rss_mb"] for task, child in runner.children
                                     if task != "setup"),
                  "cpu_ref": out["cpu_ref"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        named = {"setup_wall_s": (median(child["setup_wall_s"] for _, child in runner.children),
                                  "s"), **out["named"]}
        summary["named"] = {name: {"value": v, "unit": u} for name, (v, u) in named.items()}
        summary["samples"] = {**out["samples"], "setup": len(setup)}
    summary["elapsed_s"] = time.monotonic() - start
    summary["checks"] = {"attempted": checks.attempted, "failed": len(checks.failures),
                         "error_rate": len(checks.failures) / max(1, checks.attempted),
                         "failures": checks.failures[:20]}
    result = {"correct": not checks.failures, "attempted": max(1, checks.attempted),
              "failed": len(checks.failures), "metrics": metrics}
    return summary, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "wcidp" / "__init__.py").is_file():
        print(f"no wcidp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        summary, result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
