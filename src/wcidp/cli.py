"""Command-line interface: classify tuples, enumerate, inspect families,
and verify runs against the shipped golden data.

Exit codes: 0 success or affirmative answer, 1 verification mismatch or I/O
failure, 2 usage error, 3 negative classification or invalid parameters.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import sys
import time
from importlib import resources

from .classifier import Candidate, Verdict, classify
from .enumerator import (
    MODE_EXHAUSTIVE,
    MODE_SHAPED,
    Bounds,
    EnumerationResult,
    _check_request,
    enumerate_solutions,
)
from .quasismooth import degrees_in_span

OK = 0
MISMATCH = 1
USAGE = 2
NEGATIVE = 3

CSV_HEADER = "a0,a1,a2,a3,a4,d1,d2"

_PROGRESS_HELP = ("print a line of text on stderr about once a second "
                  "(chunks done, solutions so far)")
_JOBS_HELP = "worker processes (default: WCIDP_JOBS if set, else 1)"


def _usage(problem, what: str = "usage error") -> int:
    print(f"{what}: {problem}", file=sys.stderr)
    return USAGE


def _request(args, mode: str = MODE_SHAPED, allow_large_exhaustive: bool = False
             ) -> tuple[Bounds, int]:
    """The bounds and job count a run asks for, refused with ValueError
    before any work: ``--jobs``, else ``WCIDP_JOBS``, else 1."""
    bounds = Bounds(args.max_a4, args.max_d2 if args.max_d2 is not None else 2 * args.max_a4)
    jobs = args.jobs
    if jobs is None:
        env = os.environ.get("WCIDP_JOBS") or "1"
        try:
            jobs = int(env)
        except ValueError:
            jobs = 0
        if jobs < 1:
            raise ValueError(f"WCIDP_JOBS must be an integer >= 1, got {env!r}")
    _check_request(bounds, mode, jobs, allow_large_exhaustive)
    return bounds, jobs


def _progress_printer(label: str):
    last = [0.0]

    def emit(done: int, total: int, found: int) -> None:
        now = time.monotonic()
        if done == total or now - last[0] >= 1.0:
            last[0] = now
            print(f"{label}: {done}/{total} a0 chunks, {found} solutions so far",
                  file=sys.stderr, flush=True)

    return emit


def _parse_tuple(values: list[str]) -> Candidate:
    if len(values) != 7:
        raise ValueError(f"expected 7 integers, got {len(values)}")
    try:
        nums = [int(v) for v in values]
    except ValueError:
        raise ValueError(f"tuple entries must be integers: {values!r}") from None
    return Candidate.of(*nums)


def _verdict_lines(c: Candidate, verdict: Verdict, explain: bool) -> list[str]:
    lines = []
    if verdict.is_del_pezzo:
        lines.append(f"del Pezzo: yes, I={verdict.amplitude}")
    else:
        reasons = []
        if verdict.is_linear_cone:
            a = c.weights.a
            hit = c.d1 if c.d1 in a else c.d2
            reasons.append(f"linear cone (degree {hit} equals a weight)")
        if not verdict.wf.passed:
            reasons.append("not well-formed")
        # The qs conditions assume no linear cone (Iano-Fletcher §8); on a
        # cone they are no evidence of a singularity.
        if not verdict.qs.passed and not verdict.is_linear_cone:
            reasons.append("not quasi-smooth")
        if verdict.amplitude < 1:
            reasons.append(f"amplitude {verdict.amplitude} < 1")
        lines.append(f"rejected: {'; '.join(reasons)} (I={verdict.amplitude})")
    if explain:
        for v in verdict.wf.violations:
            lines.append(f"  wf {v.condition} omitted={list(v.omitted)}: gcd={v.gcd_value}")
        if verdict.is_linear_cone:
            lines.append("  linear cone: qs conditions not evaluated")
        else:
            for v in verdict.qs.violations:
                lines.append(f"  qs {v.level} indices={list(v.indices)}: {v.detail}")
    return lines


def cmd_check(args) -> int:
    try:
        c = _parse_tuple(args.tuple)
    except ValueError as exc:
        return _usage(exc)
    verdict = classify(c)
    for line in _verdict_lines(c, verdict, args.explain):
        print(line)
    if args.require_nonempty and not degrees_in_span(c):
        print("note: a degree is not a non-negative combination of the weights")
    return OK if verdict.is_del_pezzo else NEGATIVE


def _write_csv(rows, sink) -> None:
    sink.write(CSV_HEADER + "\n")
    for c in rows:
        sink.write(",".join(map(str, c.key)) + "\n")


def _write_jsonl(result: EnumerationResult, rows, sink) -> None:
    match_map = {c.key: ms for c, ms in result.family_instances}
    for c in rows:
        verdict = classify(c)
        record = {
            "a0": c.weights.a[0], "a1": c.weights.a[1], "a2": c.weights.a[2],
            "a3": c.weights.a[3], "a4": c.weights.a[4],
            "d1": c.d1, "d2": c.d2,
            "verdict": verdict.as_dict(),
            "families": [m.as_dict() for m in match_map.get(c.key, ())],
        }
        sink.write(json.dumps(record, separators=(",", ":")) + "\n")


def cmd_enumerate(args) -> int:
    try:
        bounds, jobs = _request(args, args.mode, args.allow_big_exhaustive)
    except ValueError as exc:
        return _usage(exc)
    # Fail a bad output path now, not after the run; the file itself is
    # opened only once the rows exist, so no error truncates it.
    problem = None
    if args.output:
        out_dir = os.path.dirname(os.path.abspath(args.output))
        if os.path.isdir(args.output):
            problem = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.output)
        elif not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK)):
            problem = f"cannot write into directory {out_dir}"
    if problem is not None:
        print(f"i/o failure: {problem}", file=sys.stderr)
        return MISMATCH
    progress = _progress_printer("enumerate") if args.progress else None
    result = enumerate_solutions(bounds, mode=args.mode, jobs=jobs, progress=progress,
                                 allow_large_exhaustive=args.allow_big_exhaustive)
    rows = result.sporadic if args.exclude_families else result.solutions
    try:
        sink = open(args.output, "w", newline="") if args.output else sys.stdout
        try:
            if args.format == "csv":
                _write_csv(rows, sink)
            else:
                _write_jsonl(result, rows, sink)
        finally:
            if args.output:
                sink.close()
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return MISMATCH
    return OK


def cmd_families(args) -> int:
    from . import families

    if args.family_cmd == "list":
        records = families.catalog_records()
        if args.json:
            print(json.dumps(records, indent=2))
        else:
            for rec in records:
                weights = ", ".join(rec["weights"])
                degs = ", ".join(rec["degrees"])
                conds = "; ".join(rec["constraints"]) or "-"
                print(f"No.{rec['id']:>2}  ({weights}; {degs})  I={rec['amplitude']}  [{conds}]")
        return OK
    if args.family_cmd == "instantiate":
        try:
            params = {}
            for item in args.params:
                name, _, value = item.partition("=")
                if name in params:
                    return _usage(f"parameter {name!r} given more than once")
                params[name] = int(value)
        except ValueError:
            return _usage(f"parameters must look like t=2, got {args.params!r}")
        try:
            reason = families.invalid_reason(args.id, params)
        except (ValueError, OverflowError) as exc:
            return _usage(exc)
        if reason is not None:
            print(f"invalid parameters: {reason}")
            return NEGATIVE
        c = families.instantiate(args.id, params)
        print(",".join(map(str, c.key)))
        return OK
    if args.family_cmd == "match":
        try:
            c = _parse_tuple(args.tuple)
        except ValueError as exc:
            return _usage(exc)
        try:
            matches = families.match_tuple(c)
        except OverflowError as exc:
            return _usage(exc)
        for m in matches:
            params = " ".join(f"{k}={v}" for k, v in m.assignment)
            print(f"id={m.family_id} {params}")
        if not matches:
            print("no family matches (sporadic if it is a del Pezzo solution)")
        return OK
    raise AssertionError(f"unhandled families subcommand {args.family_cmd!r}")


def _load_sporadic_asset(path: str | None) -> list[tuple[int, ...]]:
    if path is None:
        text = resources.files(__package__).joinpath("data/sporadic_catalog.csv").read_text()
    else:
        with open(path) as f:
            text = f.read()
    rows = []
    reader = csv.DictReader(text.splitlines())
    for row in reader:
        rows.append(tuple(int(row[k]) for k in ("a0", "a1", "a2", "a3", "a4", "d1", "d2")))
    return sorted(rows)


def _load_family_samples() -> dict[int, list[dict[str, int]]]:
    text = resources.files(__package__).joinpath("data/family_samples.json").read_text()
    raw = json.loads(text)
    return {int(k): v for k, v in raw.items()}


def cmd_verify(args) -> int:
    from . import families

    try:
        bounds, jobs = _request(args)
    except ValueError as exc:
        return _usage(exc)
    try:
        golden = _load_sporadic_asset(args.sporadic_asset)
        samples = _load_family_samples()
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return _usage(exc, "missing or unreadable golden assets")

    failures = 0

    bad_rows = [row for row in golden if not classify(Candidate.of(*row)).is_del_pezzo]
    if bad_rows:
        failures += len(bad_rows)
        for row in bad_rows:
            print(f"FAIL golden row does not classify as del Pezzo: {row}")
    else:
        print(f"PASS all {len(golden)} golden sporadic rows classify as del Pezzo")

    grid_bad = 0
    for fid, assignments in sorted(samples.items()):
        for params in assignments:
            c = families.instantiate(fid, params)
            if not classify(c).is_del_pezzo:
                print(f"FAIL family {fid} sample {params} -> {c.key} not del Pezzo")
                grid_bad += 1
            elif not families.verify_amplitude_column(fid, [params]):
                print(f"FAIL family {fid} sample {params}: amplitude column mismatch")
                grid_bad += 1
    if grid_bad:
        failures += grid_bad
    else:
        total = sum(len(v) for v in samples.values())
        print(f"PASS all {total} frozen family samples classify with the stated amplitude")

    progress = _progress_printer("verify") if args.progress else None
    result = enumerate_solutions(bounds, jobs=jobs, progress=progress)
    found = [c.key for c in result.sporadic]
    expected = [row for row in golden if row[4] <= bounds.max_a4 and row[6] <= bounds.max_d2]
    missing = sorted(set(expected) - set(found))
    extra = sorted(set(found) - set(expected))
    for row in missing:
        print(f"FAIL sporadic row missing from enumeration: {row}")
    for row in extra:
        print(f"FAIL enumeration produced an unlisted sporadic row: {row}")
    if not missing and not extra:
        print(f"PASS sporadic({bounds.max_a4}, {bounds.max_d2}) matches the golden "
              f"table restriction exactly ({len(found)} rows)")
    failures += len(missing) + len(extra)

    if failures:
        print(f"FAIL {failures} discrepancies")
        return MISMATCH
    print("PASS all checks")
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcidp",
        description="Classify and enumerate codimension-2 weighted complete "
                    "intersection del Pezzo surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="classify one tuple of 5 weights and 2 degrees")
    p_check.add_argument("tuple", nargs=7, metavar="N")
    p_check.add_argument("--explain", action="store_true",
                         help="print every violated sub-condition")
    p_check.add_argument("--require-nonempty", action="store_true",
                         help="also note when a degree is outside the weight span")
    p_check.set_defaults(func=cmd_check)

    p_enum = sub.add_parser("enumerate", help="enumerate all solutions within bounds")
    p_enum.add_argument("--max-a4", type=int, required=True)
    p_enum.add_argument("--max-d2", type=int, default=None,
                        help="defaults to 2*max-a4, which never cuts solutions")
    p_enum.add_argument("--mode", choices=(MODE_SHAPED, MODE_EXHAUSTIVE), default=MODE_SHAPED)
    p_enum.add_argument("--exclude-families", action="store_true",
                        help="emit only sporadic solutions")
    p_enum.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_enum.add_argument("--jobs", type=int, help=_JOBS_HELP)
    p_enum.add_argument("--output", default=None, help="output path (default stdout)")
    p_enum.add_argument("--progress", action="store_true",
                        help=_PROGRESS_HELP)
    p_enum.add_argument("--allow-big-exhaustive", action="store_true")
    p_enum.set_defaults(func=cmd_enumerate)

    p_fam = sub.add_parser("families", help="inspect the 45 infinite series")
    fam_sub = p_fam.add_subparsers(dest="family_cmd", required=True)
    p_list = fam_sub.add_parser("list", help="print the catalog")
    p_list.add_argument("--json", action="store_true")
    p_inst = fam_sub.add_parser("instantiate", help="instantiate one series")
    p_inst.add_argument("id", type=int)
    p_inst.add_argument("params", nargs="+", metavar="name=value")
    p_match = fam_sub.add_parser("match", help="find all series containing a tuple")
    p_match.add_argument("tuple", nargs=7, metavar="N")
    p_fam.set_defaults(func=cmd_families)

    p_verify = sub.add_parser("verify", help="re-derive and compare against golden data")
    p_verify.add_argument("--max-a4", type=int, default=60)
    p_verify.add_argument("--max-d2", type=int, default=None)
    p_verify.add_argument("--jobs", type=int, help=_JOBS_HELP)
    p_verify.add_argument("--sporadic-asset", default=None,
                          help="override the shipped sporadic table (for audits)")
    p_verify.add_argument("--progress", action="store_true", help=_PROGRESS_HELP)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
