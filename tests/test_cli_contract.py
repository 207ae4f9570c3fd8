"""Property: every command line gets an exit code of the contract, never a crash.

Arguments are drawn from the parser's commands, options and values, with
random encodings, board records and stray text mixed in: mostly valid,
sometimes not. Whatever the input, `main` returns 0, 1, 2 or 3: never 4
(a bug of the package), never an exception, never a traceback. The size
guard is lowered to 8 cells and the verify limits are always given and
small, so that no example starts a large sweep.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lastsquares.cli import main

JUNK = st.text(max_size=6)


def mostly(good, bad):
    """good seven times in eight, else bad; plain lists are sampled from."""
    good, bad = (st.sampled_from(s) if isinstance(s, list) else s for s in (good, bad))
    return st.integers(0, 7).flatmap(lambda i: bad if i == 0 else good)


def ints(low, high):
    return mostly(st.integers(low, high).map(str), JUNK)


D_ENCODING = st.text(alphabet="bwd", max_size=7).map(lambda tail: "b" + tail)
B_ENCODING = st.tuples(st.text(alphabet="bwt", max_size=7), st.sampled_from("wt")).map("".join)


@st.composite
def board_records(draw):
    m = draw(st.integers(1, 8))
    chosen = sorted(draw(st.sets(st.integers(1, m), max_size=m)))
    marks = draw(st.sets(st.integers(0, len(chosen) // 2), max_size=3))
    record = f"m={m};chosen={','.join(map(str, chosen))};marks={','.join(map(str, sorted(marks)))}"
    return draw(mostly([record], st.sampled_from([record[: len(record) // 2], record + ";"]) | JUNK))


def optional(draw, flag, values=None):
    if not draw(st.booleans()):
        return []
    return [flag] if values is None else [flag, draw(values)]


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["compute", "table", "enumerate", "biject", "verify", "stray"]))
    if command == "compute":
        return ["compute", draw(mostly(list("STUVW"), ["Q"])), draw(ints(-1, 12)), draw(ints(-1, 6))]
    if command == "table":
        return ["table", draw(ints(-1, 12))] + optional(draw, "--format", mostly(["plain", "csv"], ["tsv"]))
    if command == "enumerate":
        argv = ["enumerate", draw(mostly(["D", "B"], ["X"])), draw(ints(1, 9)), draw(ints(0, 3))]
        argv += draw(mostly([[], ["--count"], ["--list"]], [["--count", "--list"]]))
        argv += optional(draw, "--render")
        argv += optional(draw, "--sign", mostly(["plus", "minus"], ["zero"]))
        if argv[1] != "D" or not draw(mostly([True], [False])):  # weights apply to family B
            argv += optional(draw, "--weight-parity", mostly(["even", "odd"], ["x"]))
            argv += optional(draw, "--weight", ints(0, 4))
        return argv
    if command == "biject":
        name = draw(mostly(["prop1", "prop1-inv", "prop5", "prop5-inv", "conjugate"], ["prop9"]))
        if name == "prop1":
            return ["biject", name, draw(board_records())]
        family = D_ENCODING if name in ("prop1-inv", "prop5") else B_ENCODING
        return ["biject", name, draw(mostly(family, st.text(alphabet="bwtdx", max_size=8) | JUNK))]
    if command == "verify":
        # every limit is given, so no example runs the default (full size) suite
        # (the auxiliary suite has fixed limits and takes ten times longer: drawn less often)
        suite = draw(mostly(["theorem", "lemma", "strata"], ["auxiliary", "all", "everything"]))
        argv = ["verify", suite]
        argv += ["--mmax", draw(ints(1, 14)), "--enum-limit", draw(ints(-1, 8)), "--nmax", draw(ints(0, 7))]
        return argv + optional(draw, "--format", mostly(["plain", "json"], ["xml"]))
    return draw(st.lists(JUNK, max_size=4))


@settings(
    max_examples=500,
    deadline=None,
    derandomize=True,  # the same examples on every run of the suite
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(argv=command_lines())
def test_every_command_line_gets_a_contract_exit_code(argv, capsys, monkeypatch):
    monkeypatch.setenv("LASTSQ_MAX_CELLS", "8")
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in out + err, argv
    if code == 2:
        assert err and out == "", argv
