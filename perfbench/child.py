"""One measured task of the benchmark, run in a fresh interpreter.

    python3 perfbench/child.py '<json task spec>'

The parent (``run.py``) starts one child per task so that every timed call
starts from the state a user's process starts from: a fresh import and
empty caches.  The child prints one JSON object as its last line.

Times are taken as wall time and as CPU time: user plus system, of the
main thread and of the pool workers it has reaped.  On a shared virtual
machine the wall time also holds the time the process waited for a core,
which the kernel does not charge as CPU time.  Other threads are left
out: numpy's BLAS threads spin for a varying while after they start.

The speed of a core still drifts (by a fifth over minutes on a 2-vCPU
host, as neighbours come and go), so an untraced jobs=1 call is sampled
against a reference: every ``REFERENCE_PERIOD_S`` one ``reference_unit``,
a fixed pure-Python loop, is timed in CPU time on the same thread, from
the signal of an interval timer.  The unit's mean time is the core's
speed over the same seconds as the call; the call's CPU time, less the
samples', divided by it is the call's work in reference units, which
stays put as the speed drifts.  Every time taken, down to each request's
latency, leaves out the samples that fell inside it.
"""

import time

_t0, _c0 = time.perf_counter(), time.thread_time()
import wcidp  # noqa: E402  (timed: import and catalog load)
import wcidp.cli  # noqa: E402

SETUP_S = time.thread_time() - _c0
SETUP_WALL_S = time.perf_counter() - _t0

import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

import inputs  # noqa: E402
import tracer as tracing  # noqa: E402
from wcidp import classifier, cli, enumerator, families, semigroup  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024


def _cpu_s() -> float:
    """CPU seconds of the calling thread and of the reaped child processes."""
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + workers.ru_utime + workers.ru_stime


REFERENCE_PERIOD_S = 0.05


def reference_unit() -> int:
    """Fixed work of the kind the package does: small tuples, modular
    arithmetic and dict updates, about a millisecond on a 2-vCPU Xeon."""
    counts: dict[tuple[int, int, int], int] = {}
    total = 0
    for i in range(2000):
        t = (i % 97, i % 89, i % 83)
        total += t[0] * t[1] - t[2]
        counts[t] = counts.get(t, 0) + 1
    return total


class Reference:
    """CPU seconds of ``reference_unit``, sampled while a call runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.wall_s = 0.0

    def sample(self) -> None:
        t0, c0 = perf_counter(), time.thread_time()
        reference_unit()
        self.samples.append(time.thread_time() - c0)
        self.wall_s += perf_counter() - t0

    @contextmanager
    def during(self):
        """Take a sample now and on every SIGALRM while the body runs."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD_S, REFERENCE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def unit_s(self) -> float:
        return sum(self.samples) / len(self.samples)


def _bitmap_info():
    cache_info = getattr(getattr(semigroup, "reachable_bitmap", None), "cache_info", None)
    return cache_info() if cache_info is not None else None


def _unpaused() -> float:
    return 0.0


def _traced(call, spec):
    """Run ``call`` untraced, or under the tracer when the spec asks.

    ``call`` takes a function that gives the wall seconds spent so far in
    reference samples, to leave them out of the times it takes itself.
    Returns the value, the timings of the call (wall and CPU seconds, and
    for an untraced jobs=1 call the reference unit's mean CPU seconds) and
    the per-layer metrics of a traced call."""
    if spec.get("trace"):
        return _traced_layers(lambda: call(_unpaused))
    if spec.get("jobs", 1) != 1:
        c0, t0 = _cpu_s(), perf_counter()
        value = call(_unpaused)
        return value, {"wall_s": perf_counter() - t0, "cpu_s": _cpu_s() - c0}, None
    reference = Reference()
    c0, t0 = _cpu_s(), perf_counter()
    with reference.during():
        value = call(lambda: reference.wall_s)
    # The samples ran on this thread and are not the call's.
    wall = perf_counter() - t0 - reference.wall_s
    cpu = _cpu_s() - c0 - sum(reference.samples)
    return value, {"wall_s": wall, "cpu_s": cpu, "ref_unit_s": reference.unit_s()}, None


def _traced_layers(call):
    tracer = tracing.Tracer()
    before = _bitmap_info()
    tracing.install_layers(tracer)
    try:
        c0, t0 = _cpu_s(), perf_counter()
        value = call()
        times = {"wall_s": perf_counter() - t0, "cpu_s": _cpu_s() - c0}
    finally:
        tracer.restore()
    after = _bitmap_info()
    return value, times, tracing.layer_metrics(tracer, before, after)


def task_enumerate(spec):
    box = spec["box"]
    argv = ["enumerate", "--max-a4", str(box[0]), "--max-d2", str(box[1]),
            "--mode", "shaped", "--jobs", str(spec["jobs"]),
            "--format", spec["format"], "--output", spec["output"]]
    code, times, metrics = _traced(lambda paused: cli.main(argv), spec)
    return {"exit_code": code, **times, "layers": metrics}


def task_exhaustive(spec):
    bounds = enumerator.Bounds(*spec["box"])
    result, times, metrics = _traced(
        lambda paused: enumerator.enumerate_solutions(
            bounds, mode=enumerator.MODE_EXHAUSTIVE, jobs=1),
        spec)
    return {**times, "keys": [c.key for c in result.solutions], "layers": metrics}


def task_shaped_keys(spec):
    result = enumerator.enumerate_solutions(enumerator.Bounds(*spec["box"]), jobs=1)
    return {"keys": [c.key for c in result.solutions]}


def _requests(query, keys, paused):
    """Closed loop, one client: each query is sent when the last returned.
    Returns the answers, the nanoseconds of each query and the loop's
    seconds, all without the ``paused`` seconds."""
    Candidate = classifier.Candidate
    answers, elapsed_ns = [], []
    t0, p0 = perf_counter(), paused()
    for key in keys:
        q0, p1 = perf_counter_ns(), paused()
        answers.append(query(Candidate.of(*key)))
        elapsed_ns.append(perf_counter_ns() - q0 - round((paused() - p1) * 1e9))
    return answers, elapsed_ns, perf_counter() - t0 - (paused() - p0)


def _lookup_pass(requests, paused):
    verdicts, classify_ns, classify_wall = _requests(
        classifier.classify, [key for key, _ in requests["classify"]], paused)
    matches, match_ns, match_wall = _requests(
        families.match_tuple, [key for key, _ in requests["match"]], paused)
    return {"classify_ns": classify_ns, "classify_wall_s": classify_wall,
            "verdicts": [v.is_del_pezzo for v in verdicts],
            "match_ns": match_ns, "match_wall_s": match_wall,
            "found": [[(m.family_id, list(m.assignment)) for m in found] for found in matches]}


def task_lookup(spec):
    sizes = inputs.SMOKE_SIZES if spec["smoke"] else inputs.FULL_SIZES
    requests = inputs.lookup_inputs(spec["seed"], sizes)
    out, times, metrics = _traced(lambda paused: _lookup_pass(requests, paused), spec)
    return {**out, **times, "layers": metrics}


TASKS = {"enumerate": task_enumerate, "exhaustive": task_exhaustive,
         "shaped_keys": task_shaped_keys, "lookup": task_lookup,
         "setup": lambda spec: {}}


def main() -> None:
    spec = json.loads(sys.argv[1])
    source = Path(wcidp.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        sys.exit(f"wcidp was imported from {source}, not from this checkout")
    out = TASKS[spec["task"]](spec)
    out["setup_s"] = SETUP_S
    out["setup_wall_s"] = SETUP_WALL_S
    out["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
