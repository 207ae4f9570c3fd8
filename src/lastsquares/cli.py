"""Command-line front end.

Commands: compute, table, enumerate, biject, verify. Exit codes are 0
for success (verify: all checks passed), 1 for verification failures,
2 for usage, parse or range errors, 3 for domain violations such as
applying a plus-class map to a minus-class arrangement, and 4 for an
internal error: a broken invariant of the package or an exact quotient
that failed to reduce, a bug rather than bad input, reported as one
`internal error: ...` line.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Iterator, Optional

from .arrangements import (
    SignClass,
    decode_domino,
    decode_square,
    encode,
    render_ascii,
)
from .bijections import (
    ConjugationKind,
    ConjugationOutcome,
    MarkedColoredBoard,
    board_to_domino,
    conjugate,
    domino_to_board,
    domino_to_square,
    square_to_domino,
)
from .enumeration import ClassFilter, WeightParity, count, list_encodings
from .errors import (
    EmptyBoard,
    FirstCellNotBlack,
    InternalInvariantViolation,
    LastCellBlack,
    NonIntegralResult,
    NotPlusClass,
    ParityMismatch,
    ParseError,
    RangeError,
    SizeLimitExceeded,
)
from .formulas import eval_S, eval_T, eval_U, eval_V, eval_W
from .verify import (
    report_to_json,
    report_to_plain,
    summarize,
    summary_to_json,
    verify_all,
    verify_auxiliary,
    verify_lemma,
    verify_strata,
    verify_theorem,
)

_SUMS = {"S": eval_S, "T": eval_T, "U": eval_U, "V": eval_V, "W": eval_W}

# Largest size of `compute`: every value is below 3**size, and 3**9000 has
# 4,295 digits, within the interpreter's 4,300-digit limit on printing ints.
_COMPUTE_SIZE_LIMIT = 9000

# Largest m of a `biject prop1` record: 131,072 bytes is the longest single
# argument Linux passes, so no other map's input has more cells.
_PROP1_MAX_CELLS = 131072

# Largest nmax of `table`: its cost grows about as nmax**4 (400 takes seconds).
_TABLE_NMAX_LIMIT = 400

# Largest --mmax of `verify`: its cost grows about as mmax**3.5 (400 takes seconds).
_VERIFY_MMAX_LIMIT = 400

_USAGE_ERRORS = (
    ParseError,
    RangeError,
    EmptyBoard,
    FirstCellNotBlack,
    LastCellBlack,
    ParityMismatch,
    SizeLimitExceeded,
)


def _int_within(low: int, high: Optional[int] = None) -> Callable[[str], int]:
    """An argparse type: an integer no lower than low and, if given, no higher than high."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return parse


def cmd_compute(args: argparse.Namespace) -> int:
    print(_SUMS[args.sum](args.size, args.r))
    return 0


def _aligned(lines: list[list[str]]) -> Iterator[str]:
    """Right-aligned columns two spaces apart; a short line ends at its last cell."""
    widths = [max(len(line[c]) for line in lines if c < len(line)) for c in range(len(lines[0]))]
    return ("  ".join(map(str.rjust, line, widths)) for line in lines)


# The formats of `table`: each turns the header and the rows into text lines.
_TABLE_FORMATS = {"plain": _aligned, "csv": lambda lines: map(",".join, lines)}


def cmd_table(args: argparse.Namespace) -> int:
    lines = [["n\\r"] + [str(r) for r in range(args.nmax)]]
    lines += [[str(n)] + [str(eval_T(n, r)) for r in range(n)] for n in range(1, args.nmax + 1)]
    for line in _TABLE_FORMATS[args.format](lines):
        print(line)
    return 0


_SIGNS = {s.name.lower(): s for s in SignClass}
_PARITIES = {p.name.lower(): p for p in WeightParity}


# The families of `enumerate`, each with the decoder that --render draws.
_DECODERS = {"D": decode_domino, "B": decode_square}


def _build_filter(args: argparse.Namespace) -> Optional[ClassFilter]:
    sign = _SIGNS.get(args.sign)
    parity = _PARITIES.get(args.weight_parity)
    if sign is None and parity is None and args.weight is None:
        return None
    return ClassFilter(sign=sign, weight_parity=parity, exact_weight=args.weight)


def cmd_enumerate(args: argparse.Namespace) -> int:
    filt = _build_filter(args)
    if args.count_only:
        if args.render:
            raise RangeError("--render needs a listing, not --count")
        print(count(args.family, args.size, args.r, filt))
        return 0
    encodings = list_encodings(args.family, args.size, args.r, filt)
    decoder = _DECODERS[args.family]
    for enc in encodings:
        if args.render:
            print(f"{enc}  {render_ascii(decoder(enc))}")
        else:
            print(enc)
    return 0


def _bounded_board(text: str) -> MarkedColoredBoard:
    board = MarkedColoredBoard.parse(text)
    if board.m > _PROP1_MAX_CELLS:
        raise RangeError(f"prop1 takes boards of at most {_PROP1_MAX_CELLS} cells, got m={board.m}")
    return board


def _conjugation_text(outcome: ConjugationOutcome) -> str:
    if outcome.kind is ConjugationKind.OUTSIDE_DOMAIN:
        raise NotPlusClass(
            "conjugation is defined on odd-weight plus and even-weight minus arrangements only"
        )
    if outcome.kind is ConjugationKind.EXCEPTIONAL:
        return f"EXCEPTIONAL epsilon{outcome.epsilon.value}"
    return encode(outcome.result)


# The named maps of `biject`: input reader, map, output writer.
_MAPS = {
    "prop1": (_bounded_board, board_to_domino, encode),
    "prop1-inv": (decode_domino, domino_to_board, MarkedColoredBoard.serialize),
    "prop5": (decode_domino, domino_to_square, encode),
    "prop5-inv": (decode_square, square_to_domino, encode),
    "conjugate": (decode_square, conjugate, _conjugation_text),
}


def cmd_biject(args: argparse.Namespace) -> int:
    read, apply, write = _MAPS[args.map]
    print(write(apply(read(args.input))))
    return 0


# The suites of `verify`. Each row reads its function when it runs, so that
# wrappers put on this module's names (as the benchmark's traced run does) apply.
_SUITES = {
    "theorem": lambda args: verify_theorem(args.mmax, args.enum_limit),
    "lemma": lambda args: verify_lemma(args.nmax),
    "strata": lambda args: verify_strata(args.nmax),
    "auxiliary": lambda args: verify_auxiliary(),
    "all": lambda args: verify_all(args.mmax, args.enum_limit, args.nmax),
}


# The formats of `verify`: report writer, summary writer. Like _SUITES, each
# row reads its writers when it runs.
_VERIFY_FORMATS = {
    "plain": (
        lambda report: report_to_plain(report),
        lambda reports: "summary: passed={} failed={} skipped={}".format(*summarize(reports)),
    ),
    "json": (lambda report: report_to_json(report), lambda reports: summary_to_json(reports)),
}


# Report lines per write of `verify`: a write per line costs more than the
# formatting, and one write of a whole run holds megabytes of text at once.
_VERIFY_LINES_PER_WRITE = 256


def cmd_verify(args: argparse.Namespace) -> int:
    reports = _SUITES[args.suite](args)
    write_report, write_summary = _VERIFY_FORMATS[args.format]
    for i in range(0, len(reports), _VERIFY_LINES_PER_WRITE):
        block = reports[i : i + _VERIFY_LINES_PER_WRITE]
        sys.stdout.write("".join(f"{write_report(report)}\n" for report in block))
    print(write_summary(reports))
    return 1 if summarize(reports)[1] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lastsq",
        description=(
            "Exact enumeration, bijections and identity verification for "
            "two families of board tilings."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="evaluate one of the five sums exactly")
    p.add_argument("sum", choices=sorted(_SUMS))
    p.add_argument("size", type=_int_within(1, _COMPUTE_SIZE_LIMIT), help="board length: m for S, n for the others")
    p.add_argument("r", type=int, help="dominoes (S) or black cells (the others)")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("table", help="table of the plus-class counts T(n, r)")
    p.add_argument(
        "nmax",
        type=_int_within(1, _TABLE_NMAX_LIMIT),
        help=f"largest n, 1 to {_TABLE_NMAX_LIMIT}",
    )
    p.add_argument("--format", choices=list(_TABLE_FORMATS), default="plain")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("enumerate", help="list or count arrangements")
    p.add_argument("family", choices=list(_DECODERS))
    p.add_argument("size", type=int, help="board length in cells")
    p.add_argument("r", type=int, help="dominoes (D) or black cells (B)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--list", dest="list_out", action="store_true", help="one encoding per line (default)")
    group.add_argument("--count", dest="count_only", action="store_true", help="print the cardinality only")
    p.add_argument("--render", action="store_true", help="append an ASCII diagram to each line")
    p.add_argument("--sign", choices=list(_SIGNS))
    p.add_argument("--weight-parity", dest="weight_parity", choices=list(_PARITIES), help="family B only")
    p.add_argument("--weight", type=int, help="exact weight, family B only")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("biject", help="apply one of the named maps to an encoding")
    p.add_argument("map", choices=list(_MAPS))
    p.add_argument(
        "input",
        help=(
            "family D or B encoding; prop1 takes a marked-board record "
            "m=..;chosen=..,..;marks=.."
        ),
    )
    p.set_defaults(func=cmd_biject)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=list(_SUITES))
    p.add_argument(
        "--mmax",
        type=_int_within(2, _VERIFY_MMAX_LIMIT),
        default=200,
        help="theorem: largest family D board, at least 2",
    )
    p.add_argument(
        "--enum-limit",
        dest="enum_limit",
        type=_int_within(0),
        default=12,
        help="theorem: largest board checked against brute-force counts; 0 skips them",
    )
    p.add_argument(
        "--nmax",
        type=_int_within(1),
        default=12,
        help="lemma and strata: largest family B board, at least 1",
    )
    p.add_argument("--format", choices=list(_VERIFY_FORMATS), default="plain")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command; returns its exit code, 2 for usage errors and 0 for --help."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error or the help
        return exc.code
    try:
        return args.func(args)
    except NotPlusClass as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InternalInvariantViolation, NonIntegralResult) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
