"""Command-line contract: formats, exit codes, golden verification."""

import csv
import errno
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from definition import qs_failures

import wcidp
from wcidp.classifier import Candidate, classify
from wcidp.cli import main
from wcidp.semigroup import contains


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_affirmative(capsys):
    code, out, _ = run(capsys, "check", "3", "4", "5", "6", "7", "10", "12")
    assert code == 0
    assert out.strip() == "del Pezzo: yes, I=3"


def test_check_linear_cone_is_negative(capsys):
    code, out, _ = run(capsys, "check", "1", "1", "1", "1", "2", "2", "3")
    assert code == 3
    assert "linear cone" in out


def test_check_explain_on_a_linear_cone_evaluates_no_qs_condition(capsys):
    # f1 and f2 are linear in x0 and x1, so the cone is the smooth
    # x0 = x1 = 0; the qs conditions assume no linear cone and are no
    # evidence of a singularity there.
    code, out, _ = run(capsys, "check", "--explain", "1", "1", "2", "2", "2", "1", "1")
    assert code == 3
    assert out.splitlines() == [
        "rejected: linear cone (degree 1 equals a weight); not well-formed (I=6)",
        "  wf triple-gcd omitted=[0, 1, 2]: gcd=2",
        "  wf triple-gcd omitted=[0, 1, 3]: gcd=2",
        "  wf triple-gcd omitted=[0, 1, 4]: gcd=2",
        "  wf pair-gcd omitted=[0, 1]: gcd=2",
        "  linear cone: qs conditions not evaluated",
    ]


def test_check_degenerate_input_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "1", "1", "1", "1", "1", "0", "2")
    assert code == 2
    assert "usage error" in err


SINGLE_TAIL = "divides neither degree and no shifted pair (d1-a_e, d2-a_f) with e != f lands in its span"
PAIR_TAIL = "with or without single or paired shifts"


def test_check_explain_prints_witnesses(capsys):
    code, out, _ = run(capsys, "check", "--explain", "1", "2", "2", "5", "5", "6", "7")
    assert code == 3
    assert out.splitlines() == [
        "rejected: not well-formed; not quasi-smooth (I=2)",
        "  wf triple-gcd omitted=[0, 1, 2]: gcd=5",
        "  qs pair indices=[3, 4]: no branch places the degrees in <a[3], a[4]> = <5, 5>, " + PAIR_TAIL,
    ]
    # Fails all three gcd kinds and all three membership levels; every
    # failure is listed, in canonical subset order.
    code, out, _ = run(capsys, "check", "--explain", "4", "5", "6", "8", "10", "17", "19")
    assert code == 3
    assert out.splitlines() == [
        "rejected: not well-formed; not quasi-smooth; amplitude -3 < 1 (I=-3)",
        "  wf triple-gcd omitted=[0, 1, 2]: gcd=2",
        "  wf triple-gcd omitted=[0, 1, 3]: gcd=2",
        "  wf triple-gcd omitted=[0, 1, 4]: gcd=2",
        "  wf triple-gcd omitted=[0, 2, 3]: gcd=5",
        "  wf triple-gcd omitted=[1, 2, 3]: gcd=2",
        "  wf triple-gcd omitted=[1, 2, 4]: gcd=4",
        "  wf triple-gcd omitted=[1, 3, 4]: gcd=2",
        "  wf pair-gcd omitted=[0, 1]: gcd=2",
        "  wf pair-gcd omitted=[1, 2]: gcd=2",
        "  wf pair-gcd omitted=[1, 3]: gcd=2",
        "  wf pair-gcd omitted=[1, 4]: gcd=2",
        "  wf single-gcd omitted=[1]: gcd=2",
        "  qs singleton indices=[0]: a[0]=4 " + SINGLE_TAIL,
        "  qs singleton indices=[1]: a[1]=5 " + SINGLE_TAIL,
        "  qs singleton indices=[2]: a[2]=6 " + SINGLE_TAIL,
        "  qs singleton indices=[3]: a[3]=8 " + SINGLE_TAIL,
        "  qs singleton indices=[4]: a[4]=10 " + SINGLE_TAIL,
        "  qs pair indices=[0, 2]: no branch places the degrees in <a[0], a[2]> = <4, 6>, " + PAIR_TAIL,
        "  qs pair indices=[0, 3]: no branch places the degrees in <a[0], a[3]> = <4, 8>, " + PAIR_TAIL,
        "  qs pair indices=[0, 4]: no branch places the degrees in <a[0], a[4]> = <4, 10>, " + PAIR_TAIL,
        "  qs pair indices=[1, 3]: no branch places the degrees in <a[1], a[3]> = <5, 8>, " + PAIR_TAIL,
        "  qs pair indices=[1, 4]: no branch places the degrees in <a[1], a[4]> = <5, 10>, " + PAIR_TAIL,
        "  qs pair indices=[2, 3]: no branch places the degrees in <a[2], a[3]> = <6, 8>, " + PAIR_TAIL,
        "  qs pair indices=[2, 4]: no branch places the degrees in <a[2], a[4]> = <6, 10>, " + PAIR_TAIL,
        "  qs pair indices=[3, 4]: no branch places the degrees in <a[3], a[4]> = <8, 10>, " + PAIR_TAIL,
        "  qs triple indices=[0, 2, 3]: neither degree configuration lands in <4, 6, 8>",
        "  qs triple indices=[0, 2, 4]: neither degree configuration lands in <4, 6, 10>",
        "  qs triple indices=[0, 3, 4]: neither degree configuration lands in <4, 8, 10>",
        "  qs triple indices=[1, 3, 4]: neither degree configuration lands in <5, 8, 10>",
        "  qs triple indices=[2, 3, 4]: neither degree configuration lands in <6, 8, 10>",
    ]


def test_check_nonempty_note(capsys):
    code, out, _ = run(capsys, "check", "--require-nonempty", "2", "3", "4", "5", "5", "8", "10")
    assert code == 0
    assert out.startswith("del Pezzo: yes")
    assert "note:" not in out
    # The note reports but never rejects; here both degrees are odd while
    # every weight is even, so neither degree is in the weight span.
    code, out, _ = run(capsys, "check", "--require-nonempty", "2", "2", "2", "2", "2", "3", "5")
    assert code == 3
    assert "note: a degree is not a non-negative combination" in out


HUGE_DEGREES = ((10**9, 10**9 + 1), (10**9 + 1, 10**9 + 3), (10**9, 10**9 + 6),
                (10**12 + 5, 10**12 + 9))


@pytest.mark.parametrize("a", [(1, 2, 3, 4, 5), (4, 6, 9, 10, 15), (6, 10, 15, 21, 35),
                               (2, 4, 6, 9, 15), (6, 9, 10, 14, 15)])
def test_report_at_huge_degrees_matches_transcription(a):
    for d1, d2 in HUGE_DEGREES:
        report = classify(Candidate(a, d1, d2)).qs
        assert [(v.level, v.indices) for v in report.violations] == \
            qs_failures(a, d1, d2, span_of=contains), (a, d1, d2)


def fresh_python(*argv):
    """Run the interpreter with ``argv`` in a new process that imports
    wcidp from this tree, under a timeout."""
    src = str(Path(wcidp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=30, env=env)


def test_check_cost_is_bounded_by_the_weights_not_the_degrees():
    # Membership tables sized by the degrees made this call run out of
    # memory; a fresh interpreter with a timeout keeps a regression from
    # stalling the suite.
    tup = ("1", "2", "3", "4", "5", "1000000000", "1000000001")
    proc = fresh_python("-m", "wcidp.cli", "check", "--explain", "--require-nonempty", *tup)
    assert proc.returncode == 3, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "rejected: amplitude -1999999986 < 1 (I=-1999999986)"
    failures = qs_failures((1, 2, 3, 4, 5), 10**9, 10**9 + 1, span_of=contains)
    assert [line.split(":")[0] for line in lines[1:] if line.startswith("  qs ")] == [
        f"  qs {level} indices={list(idx)}" for level, idx in failures]
    # Weight 1 spans every value, so no note either.
    assert len(lines) == 1 + len(failures)


_LOADED = "print(*(m in sys.modules for m in ('wcidp.families', 'multiprocessing', 'numpy')))"


@pytest.mark.parametrize("code", [
    "import sys, wcidp, wcidp.cli",
    "import sys, wcidp.cli; wcidp.cli.main(['check', '1', '3', '3', '4', '5', '6', '8'])",
], ids=["import", "check"])
def test_import_and_check_load_neither_the_catalog_nor_multiprocessing(code):
    proc = fresh_python("-c", f"{code}; {_LOADED}")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False False True"


def test_catalog_names_resolve_on_first_use():
    code = ("import wcidp; names = {n: getattr(wcidp, n) for n in wcidp.__all__}; "
            "print(names['match_tuple'] is wcidp.families.match_tuple, "
            "names['CATALOG'] is wcidp.families.CATALOG)")
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(wcidp, "no_such_name")


def test_enumerate_csv_exact_bytes(capsys):
    code, out, _ = run(capsys, "enumerate", "--max-a4", "3", "--max-d2", "6",
                       "--exclude-families", "--format", "csv")
    assert code == 0
    assert out == "a0,a1,a2,a3,a4,d1,d2\n1,2,2,3,3,4,6\n2,2,3,3,3,6,6\n"


def test_enumerate_single_row(capsys):
    code, out, _ = run(capsys, "enumerate", "--max-a4", "1", "--format", "csv")
    assert code == 0
    assert out == "a0,a1,a2,a3,a4,d1,d2\n1,1,1,1,1,2,2\n"


def test_enumerate_jsonl_agrees_with_csv(capsys):
    code, csv_out, _ = run(capsys, "enumerate", "--max-a4", "4", "--format", "csv")
    assert code == 0
    code, jsonl_out, _ = run(capsys, "enumerate", "--max-a4", "4", "--format", "jsonl")
    assert code == 0
    csv_rows = {tuple(int(x) for x in line.split(","))
                for line in csv_out.strip().splitlines()[1:]}
    json_rows = set()
    for line in jsonl_out.strip().splitlines():
        rec = json.loads(line)
        assert rec["verdict"]["is_del_pezzo"] is True
        json_rows.add((rec["a0"], rec["a1"], rec["a2"], rec["a3"], rec["a4"],
                       rec["d1"], rec["d2"]))
    assert csv_rows == json_rows


# sha256 of the exact output bytes: the verdict reports, their violation
# texts and the family matches may be computed faster, never differently.
@pytest.mark.parametrize("argv, digest", [
    (("enumerate", "--max-a4", "12", "--max-d2", "24", "--format", "jsonl"),
     "0a6b9f0c8b192c783abfd3e90643e677cfaeb58a8884a52cce647a07aa502b39"),
    (("check", "--explain", "1", "1", "1", "1", "3", "2", "4"),
     "7b2a2459d802084d6b2c78a3614add350076830656d57116f9bb0a7872719b52"),
    (("check", "--explain", "2", "2", "2", "3", "3", "4", "6"),
     "fd42249ce414e702473186eb6d18b1b288c4ef33eea4901fddf468416df9768a"),
])
def test_report_bytes_are_pinned(capsys, argv, digest):
    _, out, _ = run(capsys, *argv)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_writes_output_file(tmp_path, capsys):
    path = tmp_path / "out.csv"
    code, out, _ = run(capsys, "enumerate", "--max-a4", "3", "--output", str(path))
    assert code == 0 and out == ""
    text = path.read_text()
    assert text.startswith("a0,a1,a2,a3,a4,d1,d2\n")
    assert text.endswith("\n") and not text.endswith("\n\n")


def test_enumerate_rejects_unwritable_output_before_the_run(tmp_path, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("enumeration ran before the output path was checked")

    monkeypatch.setattr("wcidp.cli.enumerate_solutions", must_not_run)
    missing = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "enumerate", "--max-a4", "30", "--output", str(missing))
    assert code == 1 and out == ""
    assert err.startswith("i/o failure:")
    assert not missing.parent.exists()


def test_enumerate_rejects_a_directory_as_output_before_the_run(tmp_path, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("enumeration ran before the output path was checked")

    monkeypatch.setattr("wcidp.cli.enumerate_solutions", must_not_run)
    code, out, err = run(capsys, "enumerate", "--max-a4", "12", "--output", str(tmp_path))
    assert code == 1 and out == ""
    # The same message the failed open reported after the whole run.
    reason = os.strerror(errno.EISDIR)
    assert err == f"i/o failure: [Errno {errno.EISDIR}] {reason}: {str(tmp_path)!r}\n"


def test_enumerate_progress_goes_to_stderr(capsys):
    code, out, err = run(capsys, "enumerate", "--max-a4", "6", "--progress")
    assert code == 0
    assert "a0 chunks" in err
    assert "a0 chunks" not in out


def test_enumerate_starts_no_more_workers_than_chunks(capsys, fake_pool):
    # One chunk per a0: --max-a4 3 has three, so --jobs 8 starts three.
    code, out, _ = run(capsys, "enumerate", "--max-a4", "3", "--jobs", "8")
    assert code == 0 and out.count("\n") == 5
    assert fake_pool == [3]


def test_enumerate_rejects_big_exhaustive(capsys):
    code, _, err = run(capsys, "enumerate", "--max-a4", "100", "--mode", "exhaustive")
    assert code == 2
    assert "exhaustive" in err


def test_enumerate_allow_big_exhaustive_runs_every_chunk(capsys, monkeypatch):
    # Without the flag the request is a usage error before any work; with
    # it, the 61 chunks of the box run, here through a spy.
    seen = []
    monkeypatch.delenv("WCIDP_JOBS", raising=False)
    monkeypatch.setattr("wcidp.enumerator._solve_chunk", lambda args: seen.append(args) or [])
    argv = ["enumerate", "--max-a4", "61", "--max-d2", "122", "--mode", "exhaustive"]
    code, _, err = run(capsys, *argv)
    assert code == 2 and "exhaustive" in err and seen == []
    code, out, _ = run(capsys, *argv, "--allow-big-exhaustive")
    assert code == 0 and out.count("\n") == 1
    assert seen == [(61, 122, "exhaustive", a0) for a0 in range(1, 62)]


def test_enumerate_rejects_bad_bounds(capsys):
    code, _, err = run(capsys, "enumerate", "--max-a4", "0")
    assert code == 2


def test_error_inside_a_run_is_not_a_usage_error(capsys, monkeypatch):
    def broken(args):
        raise ValueError("broken chunk")

    monkeypatch.delenv("WCIDP_JOBS", raising=False)
    monkeypatch.setattr("wcidp.enumerator._solve_chunk", broken)
    with pytest.raises(ValueError, match="broken chunk"):
        main(["enumerate", "--max-a4", "5"])
    assert "usage error" not in capsys.readouterr().err


@pytest.mark.parametrize("command", [["enumerate", "--max-a4", "5"], ["verify", "--max-a4", "5"]])
@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_bad_wcidp_jobs_is_a_usage_error_before_any_work(capsys, monkeypatch, command, value):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the run started despite a bad WCIDP_JOBS")

    monkeypatch.setenv("WCIDP_JOBS", value)
    monkeypatch.setattr("wcidp.cli.enumerate_solutions", must_not_run)
    monkeypatch.setattr("wcidp.cli.classify", must_not_run)
    code, out, err = run(capsys, *command)
    assert code == 2 and out == ""
    assert err == f"usage error: WCIDP_JOBS must be an integer >= 1, got {value!r}\n"


def test_jobs_flag_wins_over_wcidp_jobs(capsys, monkeypatch):
    monkeypatch.setenv("WCIDP_JOBS", "two")
    code, out, _ = run(capsys, "enumerate", "--max-a4", "3", "--jobs", "1")
    assert code == 0 and out.startswith("a0,a1,a2,a3,a4,d1,d2\n")
    monkeypatch.setenv("WCIDP_JOBS", "2")
    code, out2, _ = run(capsys, "enumerate", "--max-a4", "3")
    assert code == 0 and out2 == out


def test_families_list(capsys):
    code, out, _ = run(capsys, "families", "list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 45
    assert lines[14].startswith("No.15")


def test_families_list_json(capsys):
    code, out, _ = run(capsys, "families", "list", "--json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 45


def test_families_instantiate(capsys):
    code, out, _ = run(capsys, "families", "instantiate", "15", "t=2")
    assert code == 0
    assert out.strip() == "1,1,2,2,3,4,4"


def test_families_instantiate_repeated_param_is_usage_error(capsys):
    code, out, err = run(capsys, "families", "instantiate", "15", "t=2", "t=3")
    assert code == 2 and out == ""
    assert err == "usage error: parameter 't' given more than once\n"


def test_families_instantiate_invalid_params(capsys):
    code, out, _ = run(capsys, "families", "instantiate", "26", "t=4")
    assert code == 3
    assert "t % 3 != 1" in out


def test_families_instantiate_unknown_id(capsys):
    code, _, err = run(capsys, "families", "instantiate", "99", "t=1")
    assert code == 2
    assert "unknown family id" in err


def test_families_match(capsys):
    code, out, _ = run(capsys, "families", "match", "1", "3", "3", "4", "5", "6", "8")
    assert code == 0
    ids = {int(line.split()[0].split("=")[1]) for line in out.strip().splitlines()}
    assert ids >= {1, 2, 11, 12, 19}


def test_families_match_sporadic_tuple(capsys):
    code, out, _ = run(capsys, "families", "match", "1", "2", "2", "3", "3", "4", "6")
    assert code == 0
    assert "no family matches" in out


def test_families_match_at_large_a4(capsys):
    code, out, _ = run(capsys, "families", "match",
                       "1", "1", "100000", "100000", "199999", "200000", "200000")
    assert code == 0
    assert out.strip() == "id=15 t=100000"


def test_families_instantiate_overflow_is_usage_error(capsys):
    code, out, err = run(capsys, "families", "instantiate", "15", f"t={1 << 63}")
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: family 15 instance exceeds 64-bit range")


def test_families_match_overflow_is_usage_error(capsys):
    t = 1 << 63
    entries = (1, 1, t, t, 2 * t - 1, 2 * t, 2 * t)
    code, out, err = run(capsys, "families", "match", *map(str, entries))
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: family 15 instance exceeds 64-bit range")


def test_verify_small_bounds_pass(capsys):
    code, out, _ = run(capsys, "verify", "--max-a4", "7", "--max-d2", "12")
    assert code == 0
    assert "PASS all checks" in out


def test_verify_detects_corrupted_asset(tmp_path, capsys):
    from importlib import resources

    text = resources.files("wcidp").joinpath("data/sporadic_catalog.csv").read_text()
    rows = text.strip().splitlines()
    # Corrupt one in-bounds row: (1,2,2,3,3;4,6) -> (1,2,2,3,3;4,7).
    idx = rows.index("1,2,2,3,3,4,6")
    rows[idx] = "1,2,2,3,3,4,7"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows) + "\n")
    code, out, _ = run(capsys, "verify", "--max-a4", "7", "--max-d2", "12",
                       "--sporadic-asset", str(bad))
    assert code == 1
    assert "FAIL" in out


def test_verify_rejects_bad_jobs_before_any_work(capsys):
    code, out, err = run(capsys, "verify", "--max-a4", "3", "--max-d2", "6", "--jobs", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and "jobs" in err


def test_verify_missing_asset_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--max-a4", "3", "--max-d2", "6",
                       "--sporadic-asset", "/nonexistent/table.csv")
    assert code == 2


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
