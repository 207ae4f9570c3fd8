"""Command-line behavior: outputs, formats, exit codes."""

import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import lastsquares
from lastsquares.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_examples(capsys):
    assert run(capsys, "compute", "T", "10", "4") == (0, "5503\n", "")
    assert run(capsys, "compute", "S", "2", "0") == (0, "1\n", "")
    assert run(capsys, "compute", "W", "9", "2") == (0, "2815\n", "")
    assert run(capsys, "compute", "U", "4", "1") == (0, "17\n", "")
    assert run(capsys, "compute", "V", "4", "1") == (0, "17\n", "")


def test_compute_range_error_exits_2(capsys):
    code, out, err = run(capsys, "compute", "T", "4", "9")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_compute_size_is_bounded(capsys):
    # T(9000, 3000) has 4,292 digits, near the 4,300 that int() prints;
    # 15000 once ended in a ValueError traceback
    code, out, err = run(capsys, "compute", "T", "9000", "3000")
    assert (code, err, len(out)) == (0, "", 4293)
    assert out[:-1].isdigit()
    for size in ("9001", "15000"):
        code, out, err = run(capsys, "compute", "T", size, "0")
        assert (code, out) == (2, "")
        assert f"argument size: must be at most 9000, got {size}" in err


def test_usage_error_exits_2(capsys):
    code, out, err = run(capsys, "compute", "Q", "4", "1")
    assert (code, out) == (2, "")
    assert "invalid choice" in err
    code, out, err = run(capsys)
    assert (code, out) == (2, "")
    assert "usage:" in err


def test_help_exits_0(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: lastsq")


def test_table_csv_rows(capsys):
    code, out, _ = run(capsys, "table", "5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n\\r,0,1,2,3,4"
    assert lines[1] == "1,1"
    assert lines[5] == "5,31,49,31,9,1"
    assert not out.endswith(",\n")


def test_table_plain_contains_values(capsys):
    code, out, _ = run(capsys, "table", "3")
    assert code == 0
    assert "7" in out and "5" in out
    code, _, err = run(capsys, "table", "0")
    assert code == 2


def test_table_nmax_beyond_its_bounds_is_a_usage_error(capsys, monkeypatch):
    from lastsquares import cli

    def never(*args):
        raise AssertionError("a table row was computed")

    monkeypatch.setattr(cli, "eval_T", never)
    for nmax, bound in (
        (str(cli._TABLE_NMAX_LIMIT + 1), f"at most {cli._TABLE_NMAX_LIMIT}"),
        ("0", "at least 1"),
        ("9" * 5000, "argument nmax: integer of 5000 digits is too long"),
    ):
        code, out, err = run(capsys, "table", nmax)
        assert (code, out) == (2, "")
        assert "nmax" in err and bound in err


def test_table_nmax_bound_is_inclusive():
    from lastsquares.cli import _TABLE_NMAX_LIMIT, build_parser

    assert _TABLE_NMAX_LIMIT == 400
    args = build_parser().parse_args(["table", "400"])
    assert args.nmax == 400


def test_enumerate_count_and_list(capsys):
    assert run(capsys, "enumerate", "B", "2", "0", "--count", "--sign", "plus")[:2] == (0, "3\n")
    assert run(capsys, "enumerate", "D", "4", "1", "--list", "--sign", "plus")[:2] == (0, "bdw\n")
    assert run(capsys, "enumerate", "B", "4", "1", "--count")[:2] == (0, "24\n")
    code, out, _ = run(capsys, "enumerate", "D", "2", "0")
    assert (code, out) == (0, "bb\nbw\n")


def test_enumerate_weight_filters(capsys):
    code, out, _ = run(
        capsys, "enumerate", "B", "2", "1", "--count", "--sign", "plus",
        "--weight-parity", "odd",
    )
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "enumerate", "B", "4", "2", "--count", "--weight", "2")
    assert (code, out) == (0, "4\n")
    code, _, err = run(capsys, "enumerate", "D", "4", "1", "--count", "--weight", "1")
    assert code == 2


def test_enumerate_render(capsys):
    code, out, _ = run(capsys, "enumerate", "D", "4", "1", "--list", "--sign", "plus", "--render")
    assert code == 0
    assert out == "bdw  [#][o|#][ ]\n"
    code, _, err = run(capsys, "enumerate", "D", "4", "1", "--count", "--render")
    assert code == 2


def test_enumerate_guard_violation_exits_2(capsys):
    code, _, err = run(capsys, "enumerate", "B", "17", "0", "--count")
    assert code == 2
    assert "size guard" in err


def test_size_guard_error_names_only_the_variable(capsys, monkeypatch):
    from lastsquares import verify

    monkeypatch.setattr(verify, "_lemma_reports", None)  # the guard must stop the sweep first
    for argv in (["enumerate", "B", "30", "3", "--count"], ["verify", "lemma", "--nmax", "30"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == (
            "error: board of 30 cells exceeds the size guard of 16; "
            "raise it via the LASTSQ_MAX_CELLS environment variable\n"
        )
        assert "max_cells" not in err


def test_enumerate_env_override(capsys, monkeypatch):
    monkeypatch.setenv("LASTSQ_MAX_CELLS", "18")
    code, out, _ = run(capsys, "enumerate", "B", "17", "0", "--count")
    assert (code, out) == (0, f"{2 ** 17}\n")


def test_enumerate_jobs_deterministic(capsys):
    code, first, _ = run(capsys, "enumerate", "B", "8", "2", "--list")
    assert code == 0
    code, again, _ = run(capsys, "enumerate", "B", "8", "2", "--list")
    assert code == 0
    assert again == first
    code, out, err = run(capsys, "enumerate", "B", "8", "2", "--list", "--jobs", "3")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --jobs" in err


def test_biject_examples(capsys):
    assert run(capsys, "biject", "prop5", "bdw")[:2] == (0, "bt\n")
    assert run(capsys, "biject", "prop5-inv", "bt")[:2] == (0, "bdw\n")
    assert run(capsys, "biject", "conjugate", "bwbt")[:2] == (0, "tbbw\n")
    assert run(capsys, "biject", "conjugate", "bt")[:2] == (0, "EXCEPTIONAL epsilon+\n")
    assert run(capsys, "biject", "conjugate", "www")[:2] == (0, "EXCEPTIONAL epsilon-\n")
    assert run(capsys, "biject", "prop1", "m=4;chosen=1,2,3,4;marks=1")[:2] == (0, "bdw\n")
    assert run(capsys, "biject", "prop1-inv", "bdw")[:2] == (
        0,
        "m=4;chosen=1,2,3,4;marks=1\n",
    )


def test_biject_error_codes(capsys):
    code, _, err = run(capsys, "biject", "prop5", "bb")  # minus class
    assert code == 3
    code, _, err = run(capsys, "biject", "conjugate", "t")  # outside the domain
    assert code == 3
    code, _, err = run(capsys, "biject", "prop5", "bx")  # parse error
    assert code == 2
    code, _, err = run(capsys, "biject", "prop1", "m=4;chosen=1;marks=")
    assert code == 2
    code, _, err = run(capsys, "biject", "prop5-inv", "wb")
    assert code == 2


def test_verify_suites_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "theorem", "--mmax", "12", "--enum-limit", "8")
    assert code == 0
    assert "summary: passed=" in out and "failed=0" in out
    code, out, _ = run(capsys, "verify", "lemma", "--nmax", "6")
    assert code == 0
    code, out, _ = run(capsys, "verify", "strata", "--nmax", "4")
    assert code == 0
    assert "skipped=4" in out.splitlines()[-1]
    code, out, err = run(capsys, "verify", "theorem", "--mmax", "1")
    assert (code, out) == (2, "")
    assert "--mmax" in err


def test_verify_json_records(capsys):
    code, out, _ = run(
        capsys, "verify", "strata", "--nmax", "3", "--format", "json"
    )
    assert code == 0
    lines = out.splitlines()
    # every line, the closing summary included, is one JSON record
    for line in lines:
        json.loads(line)
    assert lines[-1] == '{"summary":{"failed":0,"passed":%d,"skipped":3}}' % (len(lines) - 4)
    for line in lines[:-1]:
        assert line.startswith("{") and line.endswith("}")
        assert '"paper_ref":' in line


def test_verify_output_deterministic(capsys):
    first = run(capsys, "verify", "lemma", "--nmax", "5", "--format", "json")
    second = run(capsys, "verify", "lemma", "--nmax", "5", "--format", "json")
    assert first == second


def test_full_default_verify_smoke(capsys):
    # trimmed limits; the full defaults run in the acceptance suite
    code, out, _ = run(
        capsys, "verify", "all", "--mmax", "20", "--enum-limit", "6", "--nmax", "4"
    )
    assert code == 0
    assert "failed=0" in out.splitlines()[-1]


# SHA-256 of the stdout of `lastsq verify all` (plain format) and of
# `lastsq verify all --format json`. The CI workflow reads both from this file
# and checks the installed console script against them.
VERIFY_ALL_PLAIN_SHA256 = "0bedd91fb5057268b79b3b3f5b4ca0dbd062683b5ce4d17f2420856f147c0ae3"
VERIFY_ALL_JSON_SHA256 = "da2ae7e1ec4a45323882d4db6d84dd9cd97be6d47009d4349e8cacc5e4ed6a1a"


def test_verify_all_default_limits_pass(capsys):
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    summary = out.splitlines()[-1]
    assert "failed=0" in summary and "passed=" in summary
    changed = (
        "the output of `lastsq verify all` changed; if the change is intended, "
        "update VERIFY_ALL_PLAIN_SHA256 and VERIFY_ALL_JSON_SHA256 and record it in CHANGES.md"
    )
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_PLAIN_SHA256, changed
    code, out, _ = run(capsys, "verify", "all", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_JSON_SHA256, changed


class CountingStdout(io.StringIO):
    """A stdout that counts its write calls, which capsys cannot see."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


# SHA-256 of the stdout of `lastsq enumerate B 12 4` and of `lastsq table 40`,
# as the per-line writers printed them.
ENUMERATE_B_12_4_SHA256 = "56d010ba817f37359bce2583ad1d0c2ce2bd4ef7a6aacb5546fb8d4c1cb404fc"
TABLE_40_SHA256 = "04a7b52130f7d6457597007a1e298ada47c7f645c50d44c3058de2d1f95bc6f5"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["verify", "all", "--format", "json"], VERIFY_ALL_JSON_SHA256),
        (["enumerate", "B", "12", "4"], ENUMERATE_B_12_4_SHA256),
        (["table", "40"], TABLE_40_SHA256),
    ],
    ids=["verify-json", "enumerate", "table"],
)
def test_main_writes_one_block_of_lines_per_write(monkeypatch, argv, expected):
    out = CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(argv) == 0
    text = out.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == expected
    lines = text.count("\n")
    # a write per block of 256 lines, and one for the last newline alone
    assert lines > 0 and out.writes <= -(-lines // 256) + 1, (lines, out.writes)


class DiscardingStdout:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


def test_enumerate_writes_as_it_lists(monkeypatch):
    # B(13, 4) has 253,440 members, about 17 MiB as one list of encodings
    monkeypatch.setattr(sys, "stdout", DiscardingStdout())
    tracemalloc.start()
    try:
        assert main(["enumerate", "B", "13", "4"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak


def test_jobs_below_one_is_a_usage_error(capsys):
    for jobs in ("0", "-3", "x"):
        code, out, err = run(capsys, "enumerate", "B", "5", "1", "--count", "--jobs", jobs)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --jobs" in err


def test_jobs_is_an_unrecognized_option(capsys):
    for jobs in ("1", "2"):
        code, out, err = run(capsys, "enumerate", "B", "5", "1", "--count", "--jobs", jobs)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --jobs" in err


@pytest.mark.parametrize(
    "record, offset",
    [
        ("m=\u0664;chosen=1,2;marks=", 2),  # Arabic-Indic four
        ("m=4;chosen=\uff11,2;marks=", 11),  # fullwidth one
        ("m=4;chosen=1,2;marks=\u00b9", 21),  # superscript one
        ("m=" + "9" * 5000 + ";chosen=1,2;marks=", 2),
        ("m=4;chosen=1,2,3,4;marks=" + "1" * 5000, 25),
        ("m=4;chosen=1,2,3,4;marks=1,1", 27),
        ("m=6;chosen=1,2,3,4,5,6;marks=2,1", 31),
        ("m=8;chosen=1,2,3,4,5,6,7,8;marks=1,3,2,4", 37),
        ("m=6;chosen=3,1;marks=", 13),
        ("m=6;chosen=1,1,2,3;marks=", 13),
    ],
    ids=[
        "arabic-indic-m", "fullwidth-chosen", "superscript-mark", "long-m", "long-mark",
        "repeated-mark", "descending-marks", "mark-out-of-order", "descending-chosen",
        "repeated-chosen",
    ],
)
def test_prop1_record_parse_errors_exit_2(capsys, record, offset):
    code, out, err = run(capsys, "biject", "prop1", record)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(f"(offset {offset})\n")


def test_prop1_board_length_is_bounded(capsys):
    code, out, _ = run(capsys, "biject", "prop1", "m=131072;chosen=1,2;marks=")
    assert (code, len(out)) == (0, 131073)
    for m in ("131073", "1000000000000"):
        code, out, err = run(capsys, "biject", "prop1", f"m={m};chosen=1,2;marks=")
        assert (code, out) == (2, "")
        assert err == f"error: prop1 takes boards of at most 131072 cells, got m={m}\n"


@pytest.mark.parametrize(
    "option, value",
    [
        ("--mmax", "1"),
        ("--mmax", "x"),
        ("--mmax", "401"),
        ("--nmax", "0"),
        ("--enum-limit", "-1"),
        ("--enum-limit", "1.5"),
    ],
)
def test_bad_verify_limit_is_a_usage_error(capsys, option, value):
    code, out, err = run(capsys, "verify", "all", option, value)
    assert (code, out) == (2, "")
    assert option in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["table", "1_0"], "nmax"),
        (["table", "\uff13"], "nmax"),  # fullwidth 3
        (["compute", "S", "\u0661\u0660", "0"], "size"),  # Arabic-Indic 10
        (["compute", "S", "10", " 1"], "r"),
        (["compute", "S", "10", "+1"], "r"),
        (["compute", "S", "10", "-"], "r"),
        (["enumerate", "B", "\u00b3", "1"], "size"),  # superscript 3
        (["enumerate", "B", "3", "1_0"], "r"),
        (["enumerate", "B", "3", "1", "--weight", "\uff10"], "--weight"),
        (["verify", "all", "--mmax", "2\u0660"], "--mmax"),
        (["verify", "all", "--enum-limit", " 0"], "--enum-limit"),
        (["verify", "all", "--nmax", "1\n"], "--nmax"),
    ],
)
def test_integers_take_ascii_digits_only(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"argument {name}: expected an integer in ASCII digits, got " in err


def test_negative_integers_reach_the_command(capsys):
    # a leading '-' passes the parser; the range is the command's to check
    assert run(capsys, "compute", "S", "10", "-1") == (2, "", "error: need m >= 1 and r >= 0, got m=10 r=-1\n")
    code, out, err = run(capsys, "enumerate", "B", "3", "1", "--weight", "-2")
    assert (code, out) == (2, "")
    assert "expected an integer" not in err


def test_verify_mmax_bound_is_inclusive(capsys, monkeypatch):
    from lastsquares import verify

    # `verify all` reads its units' functions when they run, so the patches
    # apply; on one CPU every unit runs in this process, where calls is seen
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    calls = []
    monkeypatch.setattr(verify, "_theorem_enumeration", lambda *limits: calls.append(limits) or [])
    for name in ("_theorem_formulas", "_lemma_reports", "_strata_reports", "_auxiliary_reports"):
        monkeypatch.setattr(verify, name, lambda *limits: [])
    assert run(capsys, "verify", "all", "--mmax", "400") == (0, "summary: passed=0 failed=0 skipped=0\n", "")
    assert calls == [(400, 12)]


def test_verify_nmax_is_bounded_so_that_the_unit_queue_fits_a_pipe_buffer(capsys, monkeypatch):
    from lastsquares import verify

    code, out, err = run(capsys, "verify", "lemma", "--nmax", "65")
    assert (code, out) == (2, "")
    assert "argument --nmax: must be at most 64, got 65" in err
    # `verify all` writes its unit indices, 2 bytes each, into a pipe in one write
    # before it forks: at the largest limits they fit even a 16 KiB pipe buffer
    monkeypatch.setenv("LASTSQ_MAX_CELLS", "64")
    assert len(verify._units("all", 400, 12, 64)) * 2 <= 16384


def test_verify_limits_beyond_the_size_guard_exit_2(capsys, monkeypatch):
    from lastsquares import verify

    def never(*args, **kwargs):
        raise AssertionError("a sweep started")

    for name in ("_lemma_reports", "_b_strata", "count", "eval_S"):
        monkeypatch.setattr(verify, name, never)
    for argv in (
        ["verify", "lemma", "--nmax", "30"],
        ["verify", "strata", "--nmax", "30"],
        ["verify", "theorem", "--mmax", "40", "--enum-limit", "40"],
        ["verify", "all", "--nmax", "30"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "size guard" in err
    # every limit of `verify all` is checked before the first suite starts
    with pytest.raises(lastsquares.SizeLimitExceeded):
        lastsquares.verify_all(n_max=30)


@pytest.fixture
def two_cpus(monkeypatch):
    """`verify all` runs its suites on two processes, whatever CPUs this host has."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Errors planted in the suites that `verify all` runs in its child: a bug
# that is no error of the package, and one error class of each exit code.
CHILD_ERRORS = [
    ValueError("a bug, not bad input"),
    lastsquares.errors.SizeLimitExceeded(30, 16),
    lastsquares.errors.ParseError("expected key=value", 3),
    lastsquares.errors.NotPlusClass("minus class"),
    lastsquares.errors.InternalInvariantViolation("invariant"),
]


@pytest.mark.parametrize("error", CHILD_ERRORS, ids=lambda error: type(error).__name__)
def test_an_error_in_the_forked_suites_is_the_error_of_the_command(capsys, monkeypatch, two_cpus, error):
    from lastsquares import verify

    def broken(*args):
        raise error

    monkeypatch.setattr(verify, "_lemma_reports", broken)
    in_process = run(capsys, "verify", "lemma", "--nmax", "3")
    assert in_process[:2] == (getattr(error, "exit_code", 4), "")
    assert in_process[2].endswith(f"{error}\n")
    assert run(capsys, "verify", "all", "--mmax", "10", "--nmax", "3") == in_process
    assert_no_child()


@pytest.mark.parametrize("error", [ValueError("the theorem broke"), KeyboardInterrupt()])
def test_a_failure_of_the_theorem_suite_leaves_no_child(capsys, monkeypatch, two_cpus, error):
    import time

    from lastsquares import verify

    parent = os.getpid()

    def broken(*args):  # in the parent alone, at its first theorem unit
        if os.getpid() == parent:
            raise error
        return []

    def slow(unit):  # the child takes a lemma or strata unit first, and is still in it then
        def run_slowly(n, r):
            if os.getpid() != parent:
                time.sleep(2)
            return unit(n, r)

        return run_slowly

    monkeypatch.setattr(verify, "_theorem_formulas", broken)
    for name in ("_lemma_reports", "_strata_reports"):
        monkeypatch.setattr(verify, name, slow(getattr(verify, name)))
    started = time.monotonic()
    if isinstance(error, Exception):
        # the child's unit was taken before the parent's: its end is waited for
        assert run(capsys, "verify", "all") == (4, "", "internal error: ValueError: the theorem broke\n")
        assert time.monotonic() - started >= 2
    else:
        with pytest.raises(KeyboardInterrupt):
            main(["verify", "all"])
        assert time.monotonic() - started < 2  # the child is killed in its unit
    assert_no_child()


def test_of_two_exceptions_the_one_of_the_unit_taken_first_is_raised(capsys, monkeypatch, two_cpus, tmp_path):
    import time

    from lastsquares import verify

    parent, report, failed = os.getpid(), verify._report, tmp_path / "child-failed"

    def broken(*args, **kwargs):  # every lemma and strata report is built here
        if os.getpid() != parent:
            failed.touch()
            raise ValueError("the child's unit")
        # the parent's first unit, lemma or strata, waits for the child to fail in the other
        deadline = time.monotonic() + 10
        while not failed.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return report(*args, **kwargs)

    def late(*args):  # a theorem unit, taken after lemma and strata
        raise ValueError("the parent's unit")

    monkeypatch.setattr(verify, "_report", broken)
    monkeypatch.setattr(verify, "_theorem_formulas", late)
    assert run(capsys, "verify", "all") == (4, "", "internal error: ValueError: the child's unit\n")
    assert failed.exists()
    assert_no_child()


@pytest.mark.parametrize("error", CHILD_ERRORS, ids=lambda error: type(error).__name__)
def test_an_error_in_one_theorem_unit_is_the_error_of_verify_theorem(capsys, monkeypatch, two_cpus, error):
    from lastsquares import verify

    formulas = verify._theorem_formulas

    def broken(m):
        if m == 7:
            raise error
        return formulas(m)

    monkeypatch.setattr(verify, "_theorem_formulas", broken)
    in_process = run(capsys, "verify", "theorem", "--mmax", "60")
    assert in_process[:2] == (getattr(error, "exit_code", 4), "")
    assert in_process[2].endswith(f"{error}\n")
    assert run(capsys, "verify", "all", "--mmax", "60") == in_process
    assert_no_child()


def test_an_exception_the_child_cannot_pickle_is_an_internal_error(capsys, monkeypatch, two_cpus):
    from lastsquares import verify

    class Local(Exception):  # pickle cannot find a local class by its name
        pass

    parent, report = os.getpid(), verify._report

    def broken(*args, **kwargs):  # every unit builds its reports here
        if os.getpid() != parent:
            raise Local("boom")
        return report(*args, **kwargs)

    monkeypatch.setattr(verify, "_report", broken)
    # the parent takes the lemma or the strata suite first, so the child runs a unit
    assert run(capsys, "verify", "all") == (4, "", "internal error: Local: boom\n")
    assert_no_child()
    parent = None  # now in this process too, as `verify lemma` raises it
    assert run(capsys, "verify", "lemma", "--nmax", "3") == (4, "", "internal error: Local: boom\n")


@pytest.mark.parametrize("where", ["parent", "child"])
def test_a_slow_unit_in_one_process_leaves_the_output_as_it_is(
    capsys, monkeypatch, two_cpus, where, tmp_path
):
    import time

    from lastsquares import verify

    parent, strata, slept = os.getpid(), verify._strata_reports, tmp_path / "slept"

    def slow(n, r):
        if (os.getpid() == parent) == (where == "parent"):
            slept.touch()
            time.sleep(0.3)
        return strata(n, r)

    monkeypatch.setattr(verify, "_strata_reports", slow)
    for argv, digest in ((["verify", "all"], VERIFY_ALL_PLAIN_SHA256),
                         (["verify", "all", "--format", "json"], VERIFY_ALL_JSON_SHA256)):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert_no_child()
        assert slept.exists()  # a strata unit ran in that process, slowly
        slept.unlink()


@pytest.mark.parametrize(
    "argv", [["verify", "lemma"], ["verify", "strata"], ["verify", "theorem", "--mmax", "60"]]
)
@pytest.mark.parametrize("format", ["plain", "json"])
def test_a_single_suite_shares_its_units_with_one_child(capsys, monkeypatch, two_cpus, argv, format):
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    shared = run(capsys, *argv, "--format", format)
    assert len(forks) == 1
    assert_no_child()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    alone = run(capsys, *argv, "--format", format)
    assert len(forks) == 1
    assert alone[0] == 0 and shared == alone


def test_verify_all_on_one_cpu_runs_in_process(capsys, monkeypatch):
    def no_fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    for argv, digest in ((["verify", "all"], VERIFY_ALL_PLAIN_SHA256),
                         (["verify", "all", "--format", "json"], VERIFY_ALL_JSON_SHA256)):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def open_descriptors():
    """The number of this process's open descriptors, or None where /proc is missing."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.mark.parametrize("fails", ["fork", "first pipe", "second pipe"])
def test_no_process_or_descriptor_to_spare_runs_every_unit_in_process(capsys, monkeypatch, two_cpus, fails):
    import errno

    pipe, pipes = os.pipe, []

    def counted_pipe():
        if fails == ("first pipe", "second pipe")[len(pipes)]:
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        pipes.append(pipe())
        return pipes[-1]

    def fork():
        if fails != "fork":
            raise AssertionError("forked without a pipe")
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "pipe", counted_pipe)
    monkeypatch.setattr(os, "fork", fork)
    before = open_descriptors()
    fallback = run(capsys, "verify", "lemma", "--nmax", "3")
    assert open_descriptors() == before
    assert len(pipes) == ("first pipe", "second pipe", "fork").index(fails)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert fallback == run(capsys, "verify", "lemma", "--nmax", "3")
    assert fallback[0] == 0
    assert_no_child()


def truncate_dumps(pickle):
    """From now on, pickle.dump in this process writes only the first 10 bytes of the pickle."""
    dumps = pickle.dumps
    pickle.dump = lambda obj, file, *args: file.write(dumps(obj)[:10])


# How a forked child may end without sending its results, and how the command says so.
LOST_CHILDREN = {
    "exit": ("exit status 3", lambda pickle: os._exit(3)),
    "signal": ("signal SIGTERM", lambda pickle: os.kill(os.getpid(), signal.SIGTERM)),
    "truncated": ("exit status 0", truncate_dumps),
}


@pytest.mark.parametrize("how", list(LOST_CHILDREN))
def test_a_child_that_ends_without_its_results_is_an_internal_error(capsys, monkeypatch, two_cpus, how, tmp_path):
    import pickle
    import time

    from lastsquares import verify

    ended, lose = LOST_CHILDREN[how]
    parent, strata, taken = os.getpid(), verify._strata_reports, tmp_path / "child-took-a-unit"

    def lost(n, r):
        if os.getpid() != parent:
            taken.touch()
            lose(pickle)
            raise ValueError("the child's unit")
        # the parent's first unit waits until the child holds one
        deadline = time.monotonic() + 10
        while not taken.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return strata(n, r)

    monkeypatch.setattr(verify, "_strata_reports", lost)
    message = f"internal error: the forked verify process ended without its results ({ended})\n"
    assert run(capsys, "verify", "strata", "--nmax", "6") == (4, "", message)
    assert taken.exists()
    assert_no_child()


@pytest.mark.parametrize("suite", ["theorem", "lemma", "strata", "auxiliary", "all"])
@pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["two-cpus", "one-cpu"])
def test_the_command_writes_what_the_library_returns(capsys, monkeypatch, two_cpus, suite, cpus):
    from lastsquares import verify

    limits = {"m_max": 30, "enum_limit": 8, "n_max": 6}
    library = {
        "theorem": lambda: verify.verify_theorem(limits["m_max"], limits["enum_limit"]),
        "lemma": lambda: verify.verify_lemma(limits["n_max"]),
        "strata": lambda: verify.verify_strata(limits["n_max"]),
        "auxiliary": verify.verify_auxiliary,
        "all": lambda: verify.verify_all(**limits),
    }
    reports = library[suite]()
    expected = "".join(line + "\n" for line in [*map(lastsquares.report_to_json, reports),
                                                 lastsquares.summary_to_json(reports)])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    argv = ["verify", suite, "--mmax", "30", "--enum-limit", "8", "--nmax", "6", "--format", "json"]
    assert run(capsys, *argv) == (0, expected, "")
    assert_no_child()


def test_patches_reach_the_forked_suites(capsys, monkeypatch, two_cpus):
    from lastsquares import verify

    def swapped(n, r):  # two summands of V swapped at (8, 3)
        terms = verify.terms_V(n, r)
        if (n, r) == (8, 3):
            terms[1], terms[2] = terms[2], terms[1]
        return terms

    rows = [(name, kind, swapped if terms is verify.terms_V else terms)
            for name, kind, terms in verify._STRATA_SUMMANDS]
    monkeypatch.setattr(verify, "_STRATA_SUMMANDS", tuple(rows))
    code, out, err = run(capsys, "verify", "all")
    assert (code, err) == (1, "")
    failed = [line.split()[1:4] for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == [["strata.last_black", "n=8", "r=3"]]
    assert_no_child()


def test_bad_size_guard_variable_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("LASTSQ_MAX_CELLS", "abc")
    code, out, err = run(capsys, "enumerate", "B", "5", "1", "--count")
    assert (code, out) == (2, "")
    assert "LASTSQ_MAX_CELLS" in err and "invalid literal" not in err


def test_bare_value_error_is_not_a_usage_error(capsys, monkeypatch):
    from lastsquares import cli

    def broken(*args, **kwargs):
        raise ValueError("a bug, not bad input")

    monkeypatch.setattr(cli, "count", broken)
    assert run(capsys, "enumerate", "B", "5", "1", "--count") == (
        4,
        "",
        "internal error: ValueError: a bug, not bad input\n",
    )


def test_non_ascii_digits_in_a_board_record_are_a_parse_error(capsys):
    code, out, err = run(capsys, "biject", "prop1", "m=\u00b2;chosen=1,2;marks=")
    assert (code, out) == (2, "")
    assert "offset 2" in err


def test_internal_error_exits_4_with_one_line(capsys, monkeypatch):
    from lastsquares import InternalInvariantViolation, enumeration

    def broken(*args):
        raise InternalInvariantViolation("layout sweep lost a member")

    monkeypatch.setattr(enumeration, "_count", broken)
    code, out, err = run(capsys, "enumerate", "B", "5", "1", "--count")
    assert (code, out) == (4, "")
    assert err == "internal error: layout sweep lost a member\n"


def test_non_integral_result_is_an_internal_error(capsys, monkeypatch):
    from lastsquares import NonIntegralResult, verify

    def broken(m, r):
        raise NonIntegralResult(f"rhs of moriarty({m}, {r}) is 3/2, not an integer")

    monkeypatch.setattr(verify, "moriarty", broken)
    code, out, err = run(capsys, "verify", "auxiliary")
    assert (code, out) == (4, "")
    assert err == "internal error: rhs of moriarty(1, 0) is 3/2, not an integer\n"


def read_one_byte_and_close(argv, **env):
    """Run `lastsq argv`, read one byte of its stdout and close it; returns (exit code, stderr)."""
    src = str(Path(lastsquares.__file__).resolve().parents[1])
    command = [sys.executable, "-m", "lastsquares.cli", *argv]
    env = {**os.environ, "PYTHONPATH": src, **env}
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.read(1)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    return proc.returncode, err


@pytest.mark.parametrize("argv", [["enumerate", "B", "14", "3"], ["verify", "all", "--format", "json"]])
def test_a_reader_that_closes_the_pipe_ends_the_command_quietly(argv):
    # both outputs are megabytes, far past a pipe's buffer: the writer meets the closed pipe
    assert read_one_byte_and_close(argv) == (141, b"")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_reader_gone_during_the_last_write_is_seen(unbuffered):
    # 201 lines, 1.7 MB: one block, whose one write the closed pipe cuts short;
    # an unbuffered stdout drops the rest without an error, so only the last
    # newline, written alone, meets the closed pipe
    assert read_one_byte_and_close(["table", "200"], PYTHONUNBUFFERED=unbuffered) == (141, b"")


# Every error class of the package: the arguments it is raised with, the exit
# code of `lastsq` and the label of its one stderr line.
ERROR_EXITS = {
    "LastSquaresError": (("unclassified",), 4, "internal error"),
    "_BadInput": (("bad input",), 2, "error"),
    "ParseError": (("expected key=value", 3), 2, "error"),
    "EmptyBoard": (("no cells",), 2, "error"),
    "FirstCellNotBlack": (("first cell",), 2, "error"),
    "LastCellBlack": (("last cell",), 2, "error"),
    "SizeLimitExceeded": ((30, 16), 2, "error"),
    "RangeError": (("out of range",), 2, "error"),
    "ParityMismatch": (("other parity",), 2, "error"),
    "NotPlusClass": (("minus class",), 3, "error"),
    "InternalInvariantViolation": (("invariant",), 4, "internal error"),
    "NonIntegralResult": (("3/2",), 4, "internal error"),
}


def test_every_error_class_has_its_exit_code(capsys, monkeypatch):
    from lastsquares import cli, errors

    classes = {
        name: cls
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.LastSquaresError)
    }
    assert sorted(classes) == sorted(ERROR_EXITS)
    for name, cls in classes.items():
        args, code, label = ERROR_EXITS[name]
        error = cls(*args)

        def broken(*_):
            raise error

        monkeypatch.setattr(cli, "count", broken)
        assert run(capsys, "enumerate", "B", "5", "1", "--count") == (code, "", f"{label}: {error}\n"), name
