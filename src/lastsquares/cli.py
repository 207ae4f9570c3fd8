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
from typing import Callable, Optional

from .arrangements import (
    SignClass,
    decode_domino,
    decode_square,
    encode,
    render_ascii,
)
from .bijections import (
    ConjugationKind,
    MarkedColoredBoard,
    board_to_domino,
    conjugate,
    domino_to_board,
    domino_to_square,
    square_to_domino,
)
from .enumeration import ENV_MAX_CELLS, ClassFilter, WeightParity, count, list_encodings
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

# Largest m of a `biject prop1` record: 131,072 bytes is the longest single
# argument Linux passes, so no other map's input has more cells.
_PROP1_MAX_CELLS = 131072

# Largest nmax of `table`: its cost grows about as nmax**4 (400 takes seconds).
_TABLE_NMAX_LIMIT = 400

_USAGE_ERRORS = (
    ParseError,
    RangeError,
    EmptyBoard,
    FirstCellNotBlack,
    LastCellBlack,
    ParityMismatch,
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


def _table_rows(n_max: int) -> list[list[int]]:
    return [[eval_T(n, r) for r in range(n)] for n in range(1, n_max + 1)]


def cmd_table(args: argparse.Namespace) -> int:
    rows = _table_rows(args.nmax)
    header = ["n\\r"] + [str(r) for r in range(args.nmax)]
    if args.format == "csv":
        print(",".join(header))
        for n, row in enumerate(rows, start=1):
            print(",".join([str(n)] + [str(v) for v in row]))
        return 0
    cells = [header] + [
        [str(n)] + [str(v) for v in row] + [""] * (args.nmax - len(row))
        for n, row in enumerate(rows, start=1)
    ]
    widths = [max(len(line[c]) for line in cells) for c in range(args.nmax + 1)]
    for line in cells:
        print("  ".join(v.rjust(w) for v, w in zip(line, widths)).rstrip())
    return 0


def _build_filter(args: argparse.Namespace) -> Optional[ClassFilter]:
    sign = None
    if args.sign == "plus":
        sign = SignClass.PLUS
    elif args.sign == "minus":
        sign = SignClass.MINUS
    parity = None
    if args.weight_parity == "even":
        parity = WeightParity.EVEN
    elif args.weight_parity == "odd":
        parity = WeightParity.ODD
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
    decoder = decode_square if args.family == "B" else decode_domino
    for enc in encodings:
        if args.render:
            print(f"{enc}  {render_ascii(decoder(enc))}")
        else:
            print(enc)
    return 0


def cmd_biject(args: argparse.Namespace) -> int:
    name = args.map
    if name == "prop1":
        board = MarkedColoredBoard.parse(args.input)
        if board.m > _PROP1_MAX_CELLS:
            raise RangeError(
                f"prop1 takes boards of at most {_PROP1_MAX_CELLS} cells, got m={board.m}"
            )
        print(encode(board_to_domino(board)))
        return 0
    if name == "prop1-inv":
        print(domino_to_board(decode_domino(args.input)).serialize())
        return 0
    if name == "prop5":
        print(encode(domino_to_square(decode_domino(args.input))))
        return 0
    if name == "prop5-inv":
        print(encode(square_to_domino(decode_square(args.input))))
        return 0
    outcome = conjugate(decode_square(args.input))
    if outcome.kind is ConjugationKind.OUTSIDE_DOMAIN:
        print(
            "error: conjugation is defined on odd-weight plus and "
            "even-weight minus arrangements only",
            file=sys.stderr,
        )
        return 3
    if outcome.kind is ConjugationKind.EXCEPTIONAL:
        suffix = "+" if outcome.epsilon is SignClass.PLUS else "-"
        print(f"EXCEPTIONAL epsilon{suffix}")
        return 0
    print(encode(outcome.result))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    suite = args.suite
    if suite == "theorem":
        reports = verify_theorem(args.mmax, args.enum_limit)
    elif suite == "lemma":
        reports = verify_lemma(args.nmax)
    elif suite == "strata":
        reports = verify_strata(args.nmax)
    elif suite == "auxiliary":
        reports = verify_auxiliary()
    else:
        reports = verify_all(args.mmax, args.enum_limit, args.nmax)
    to_line = report_to_json if args.format == "json" else report_to_plain
    for report in reports:
        print(to_line(report))
    passed, failed, skipped = summarize(reports)
    if args.format == "json":
        print(summary_to_json(reports))
    else:
        print(f"summary: passed={passed} failed={failed} skipped={skipped}")
    return 1 if failed else 0


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
    p.add_argument("size", type=int, help="board length: m for S, n for the others")
    p.add_argument("r", type=int, help="dominoes (S) or black cells (the others)")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("table", help="table of the plus-class counts T(n, r)")
    p.add_argument(
        "nmax",
        type=_int_within(1, _TABLE_NMAX_LIMIT),
        help=f"largest n, 1 to {_TABLE_NMAX_LIMIT}",
    )
    p.add_argument("--format", choices=["plain", "csv"], default="plain")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("enumerate", help="list or count arrangements")
    p.add_argument("family", choices=["D", "B"])
    p.add_argument("size", type=int, help="board length in cells")
    p.add_argument("r", type=int, help="dominoes (D) or black cells (B)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--list", dest="list_out", action="store_true", help="one encoding per line (default)")
    group.add_argument("--count", dest="count_only", action="store_true", help="print the cardinality only")
    p.add_argument("--render", action="store_true", help="append an ASCII diagram to each line")
    p.add_argument("--sign", choices=["plus", "minus"])
    p.add_argument("--weight-parity", dest="weight_parity", choices=["even", "odd"], help="family B only")
    p.add_argument("--weight", type=int, help="exact weight, family B only")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("biject", help="apply one of the named maps to an encoding")
    p.add_argument(
        "map", choices=["prop1", "prop1-inv", "prop5", "prop5-inv", "conjugate"]
    )
    p.add_argument(
        "input",
        help=(
            "family D or B encoding; prop1 takes a marked-board record "
            "m=..;chosen=..,..;marks=.."
        ),
    )
    p.set_defaults(func=cmd_biject)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=["theorem", "lemma", "strata", "auxiliary", "all"])
    p.add_argument(
        "--mmax",
        type=_int_within(2),
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
    p.add_argument("--format", choices=["plain", "json"], default="plain")
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
    except SizeLimitExceeded as exc:
        # max_cells is a library argument: name the variable alone here.
        remedy = f"the {ENV_MAX_CELLS} environment variable"
        print(f"error: {SizeLimitExceeded(exc.cells, exc.limit, remedy)}", file=sys.stderr)
        return 2
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
