"""Command-line behavior: outputs, formats, exit codes."""

import hashlib
import json

import pytest

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
    for nmax, bound in ((str(cli._TABLE_NMAX_LIMIT + 1), f"at most {cli._TABLE_NMAX_LIMIT}"), ("0", "at least 1")):
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
    ],
    ids=[
        "arabic-indic-m", "fullwidth-chosen", "superscript-mark", "long-m", "long-mark",
        "repeated-mark", "descending-marks", "mark-out-of-order",
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


def test_verify_mmax_bound_is_inclusive(capsys, monkeypatch):
    from lastsquares import cli

    # the suite table reads verify_all when it runs, so the patch applies
    calls = []
    monkeypatch.setattr(cli, "verify_all", lambda *limits: calls.append(limits) or [])
    assert run(capsys, "verify", "all", "--mmax", "400") == (0, "summary: passed=0 failed=0 skipped=0\n", "")
    assert calls == [(400, 12, 12)]


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
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "size guard" in err


def test_bad_size_guard_variable_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("LASTSQ_MAX_CELLS", "abc")
    code, out, err = run(capsys, "enumerate", "B", "5", "1", "--count")
    assert (code, out) == (2, "")
    assert "LASTSQ_MAX_CELLS" in err and "invalid literal" not in err


def test_bare_value_error_is_not_a_usage_error(monkeypatch):
    from lastsquares import cli

    def broken(*args, **kwargs):
        raise ValueError("a bug, not bad input")

    monkeypatch.setattr(cli, "count", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["enumerate", "B", "5", "1", "--count"])


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
