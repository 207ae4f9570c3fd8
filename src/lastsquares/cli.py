"""Command-line front end: it parses the arguments and writes the lines.

Commands: compute, table, enumerate, biject, verify. Each returns its
output lines and its exit code; `main` alone writes the lines to stdout,
256 to a write. Exit codes are 0 for success (verify: all checks passed),
1 for verification failures, and otherwise the exit_code of the package
error that ends the command: 2 for usage, parse or range errors, 3 for
domain violations such as applying a plus-class map to a minus-class
arrangement, and 4 for an internal error, a bug rather than bad input, as
is any other exception. An error is reported as one line on stderr,
`error: ...`, or `internal error: ...` for exit 4. When the reader closes
stdout early, the command exits 141 (128 + SIGPIPE), silently.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional

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
from .enumeration import ClassFilter, WeightParity, _listing, count
from .errors import LastSquaresError, NotPlusClass, RangeError
from .formulas import eval_S, eval_T, eval_U, eval_V, eval_W
from .verify import _FORMATS, _SUITE_ORDER, _shared_queue, _units

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

# Largest --nmax of `verify`: the unit queue of `verify all` then fits one pipe buffer (verify._shared_queue).
_VERIFY_NMAX_LIMIT = 64

def _int_within(low: Optional[int] = None, high: Optional[int] = None) -> Callable[[str], int]:
    """An argparse type: an optional '-' and ASCII digits, within low and high where given."""

    def parse(text: str) -> int:
        digits = text[1:] if text.startswith("-") else text
        if not digits.isascii() or not digits.isdigit():
            raise argparse.ArgumentTypeError(f"expected an integer in ASCII digits, got {text!r}")
        try:
            value = int(text)
        except ValueError:  # more digits than the interpreter converts
            raise argparse.ArgumentTypeError(f"integer of {len(digits)} digits is too long") from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return parse


def cmd_compute(args: argparse.Namespace) -> tuple[Iterable[str], int]:
    return [str(_SUMS[args.sum](args.size, args.r))], 0


def _aligned(lines: list[list[str]]) -> Iterator[str]:
    """Right-aligned columns two spaces apart; a short line ends at its last cell."""
    widths = [max(len(line[c]) for line in lines if c < len(line)) for c in range(len(lines[0]))]
    return ("  ".join(map(str.rjust, line, widths)) for line in lines)


# The formats of `table`: each turns the header and the rows into text lines.
_TABLE_FORMATS = {"plain": _aligned, "csv": lambda lines: map(",".join, lines)}


def cmd_table(args: argparse.Namespace) -> tuple[Iterable[str], int]:
    lines = [["n\\r"] + [str(r) for r in range(args.nmax)]]
    lines += [[str(n)] + [str(eval_T(n, r)) for r in range(n)] for n in range(1, args.nmax + 1)]
    return _TABLE_FORMATS[args.format](lines), 0


_SIGNS = {s.name.lower(): s for s in SignClass}
_PARITIES = {p.name.lower(): p for p in WeightParity}


# The families of `enumerate`, each with the decoder that --render draws.
_DECODERS = {"D": decode_domino, "B": decode_square}


def cmd_enumerate(args: argparse.Namespace) -> tuple[Iterable[str], int]:
    filt = ClassFilter(
        sign=_SIGNS.get(args.sign), weight_parity=_PARITIES.get(args.weight_parity), exact_weight=args.weight
    )
    if args.count_only:
        if args.render:
            raise RangeError("--render needs a listing, not --count")
        return [str(count(args.family, args.size, args.r, filt))], 0
    lines = _listing(args.family, args.size, args.r, filt)  # checked now, listed as main writes
    if args.render:
        decoder = _DECODERS[args.family]
        lines = (f"{enc}  {render_ascii(decoder(enc))}" for enc in lines)
    return lines, 0


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


def cmd_biject(args: argparse.Namespace) -> tuple[Iterable[str], int]:
    read, apply, write = _MAPS[args.map]
    return [write(apply(read(args.input)))], 0


def cmd_verify(args: argparse.Namespace) -> tuple[Iterable[str], int]:
    write_report, write_summary = _FORMATS[args.format]
    lines, counts = _shared_queue(_units(args.suite, args.mmax, args.enum_limit, args.nmax), write_report)
    lines.append(write_summary(counts))
    return lines, 1 if counts[1] else 0


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
    p.add_argument("r", type=_int_within(), help="dominoes (S) or black cells (the others)")
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
    p.add_argument("size", type=_int_within(), help="board length in cells")
    p.add_argument("r", type=_int_within(), help="dominoes (D) or black cells (B)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--list", dest="list_out", action="store_true", help="one encoding per line (default)")
    group.add_argument("--count", dest="count_only", action="store_true", help="print the cardinality only")
    p.add_argument("--render", action="store_true", help="append an ASCII diagram to each line")
    p.add_argument("--sign", choices=list(_SIGNS))
    p.add_argument("--weight-parity", dest="weight_parity", choices=list(_PARITIES), help="family B only")
    p.add_argument("--weight", type=_int_within(), help="exact weight, family B only")
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
    p.add_argument("suite", choices=[*_SUITE_ORDER, "all"])
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
        type=_int_within(1, _VERIFY_NMAX_LIMIT),
        default=12,
        help="lemma and strata: largest family B board, at least 1",
    )
    p.add_argument("--format", choices=list(_FORMATS), default="plain")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command, write its lines; returns its exit code, 2 for usage errors, 0 for --help.

    A package error returns its exit_code; any other Exception returns 4; a
    closed stdout returns 141.
    """
    try:
        try:
            args = build_parser().parse_args(argv)
            lines, code = args.func(args)
        except SystemExit as exc:  # argparse has printed the usage error or the help
            lines, code = (), exc.code
        # One write per block of 256 lines, each block's last newline held back
        # for the next write, and the very last one written alone: an
        # unbuffered stdout drops the rest of a short write without a word, and
        # only a write after it meets the closed pipe.
        lines, end = iter(lines), ""
        while end is not None:
            block = list(islice(lines, 256))
            sys.stdout.write(end + "\n".join(block))
            end = "\n" if block else None
        sys.stdout.flush()  # a closed pipe raises here, not at the interpreter's exit
        return code
    except BrokenPipeError:  # the reader has gone: 128 + SIGPIPE, and no message
        with open(os.devnull, "w") as devnull:  # so that the exit flush of stdout is silent
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except LastSquaresError as exc:
        label = "internal error" if exc.exit_code == 4 else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # not an error of the package: a bug
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
