"""Executable bijections connecting the tiling families.

Three constructions, each invertible on its stated domain:

1. Marked colored boards to plus-class family D. Choosing an even number
   of cells on a length-m board induces an alternating coloring (black
   first, color flips after every chosen cell). Marking some of the
   white-to-black boundaries and laying a domino across each marked
   boundary produces a plus-class family-D arrangement, and the map is a
   bijection.

2. Plus-class family D to plus-class family B. Reading a family-D board
   as black and white intervals (a domino being a white cell followed by
   a black cell), mark each interval's first cell, turn marked squares
   into decorated ones and unmarked squares white, then delete the first
   cell and every domino's left half, turning each domino's right half
   black. The result lives on m - 1 - r cells with r black cells, in the
   plus class, and the map is a bijection.

3. Conjugation, a weight-parity-flipping and sign-flipping involution on
   the union of the odd-weight plus class and the even-weight minus
   class, undefined on exactly one arrangement (epsilon plus for odd r,
   epsilon minus for even r).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations
from operator import lt
from typing import Iterator, Optional

from .arrangements import (
    DominoArrangement,
    SignClass,
    SquareArrangement,
    _plus_b,
    _plus_d,
    decode_domino,
    decode_square,
    encode,
)
from .enumeration import DEFAULT_MAX_CELLS_D, _check_guard, _check_ints
from .errors import (
    InternalInvariantViolation,
    NotPlusClass,
    ParityMismatch,
    ParseError,
    RangeError,
)


@dataclass(frozen=True)
class MarkedColoredBoard:
    """A length-m board with 2i chosen cells and r marked boundaries.

    chosen must be strictly increasing 1-based cell indexes, of even
    count at least 2. Mark slot t stands for the boundary after chosen
    cell number 2t (the t-th white-to-black color change); slots run
    from 1 to i - 1, the final slot being excluded uniformly. That one
    rule covers both boundary situations: with the last cell chosen the
    i-th change sits off the board, and with it unchosen the i-th change
    is the forbidden one.
    """

    m: int
    chosen: tuple[int, ...]
    marks: frozenset[int]

    def __post_init__(self) -> None:
        if type(self.chosen) is not tuple:
            object.__setattr__(self, "chosen", tuple(self.chosen))
        if type(self.marks) is not frozenset:
            object.__setattr__(self, "marks", frozenset(self.marks))
        ch, marks = self.chosen, self.marks
        if self.m < 1:
            raise RangeError(f"board length must be positive, got {self.m}")
        if len(ch) < 2 or len(ch) % 2 != 0:
            raise RangeError("chosen cells must come in even count, at least 2")
        if not all(map(lt, ch, ch[1:])):
            raise RangeError("chosen cells must be strictly increasing")
        if ch[0] < 1 or ch[-1] > self.m:
            raise RangeError(f"chosen cells must lie in 1..{self.m}")
        i = len(ch) // 2
        if marks and (min(marks) < 1 or max(marks) > i - 1):
            bad = [t for t in marks if not 1 <= t <= i - 1]
            raise RangeError(f"mark slots must lie in 1..{i - 1}, got {sorted(bad)}")

    @property
    def i(self) -> int:
        """Half the number of chosen cells."""
        return len(self.chosen) // 2

    @property
    def r(self) -> int:
        """Number of marked boundaries."""
        return len(self.marks)

    def serialize(self) -> str:
        """Canonical one-line record, parse() round-trips it exactly."""
        chosen = ",".join(map(str, self.chosen))
        marks = ",".join(map(str, sorted(self.marks)))
        return f"m={self.m};chosen={chosen};marks={marks}"

    @classmethod
    def parse(cls, text: str) -> "MarkedColoredBoard":
        """Parse the record format m=..;chosen=..,..;marks=..,..

        Raises ParseError with the byte offset of the first offending
        character; structurally valid records that violate the board
        invariants raise RangeError.
        """
        parts = text.split(";")
        if len(parts) != 3:
            raise ParseError("expected three ';'-separated fields", 0)
        offset = 0
        fields = []
        for part in parts:
            if "=" not in part:
                raise ParseError("expected key=value", offset)
            key, value = part.split("=", 1)
            fields.append((key, value, offset + len(key) + 1))
            offset += len(part) + 1
        (k1, v1, o1), (k2, v2, o2), (k3, v3, o3) = fields
        if k1 != "m":
            raise ParseError("first field must be 'm'", 0)
        if k2 != "chosen":
            raise ParseError("second field must be 'chosen'", o1 + len(v1) + 1)
        if k3 != "marks":
            raise ParseError("third field must be 'marks'", o2 + len(v2) + 1)
        m = _parse_int(v1, o1)
        chosen = _parse_int_list(v2, o2)
        if not chosen:
            raise ParseError("chosen list must not be empty", o2)
        marks = _parse_int_list(v3, o3)
        return cls(m, tuple(chosen), frozenset(marks))


def _parse_int(text: str, offset: int) -> int:
    if not text.isascii() or not text.isdigit():
        raise ParseError(f"expected an unsigned integer, got {text!r}", offset)
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        raise ParseError(f"integer of {len(text)} digits is too long", offset) from None


def _parse_int_list(text: str, offset: int) -> list[int]:
    """The comma-separated integers of text, increasing.

    Each value must exceed the one before it, so that a list has one
    spelling; the first that does not is a ParseError.
    """
    if text == "":
        return []
    out = []
    pos = offset
    for piece in text.split(","):
        value = _parse_int(piece, pos)
        if out and value <= out[-1]:
            if value == out[-1]:
                raise ParseError(f"value {value} is repeated", pos)
            raise ParseError(f"value {value} comes after {out[-1]}; the values must increase", pos)
        out.append(value)
        pos += len(piece) + 1
    return out


class ConjugationKind(Enum):
    """What conjugation makes of an arrangement, at every stage."""

    CONJUGATE = "conjugate"
    EXCEPTIONAL = "exceptional"
    OUTSIDE_DOMAIN = "outside-domain"


# Read per member by the sweeps: a module global costs less than an Enum attribute.
_CONJUGATE, _OUTSIDE = ConjugationKind.CONJUGATE, ConjugationKind.OUTSIDE_DOMAIN


@dataclass(frozen=True)
class ConjugationOutcome:
    """Result of conjugate(). Exactly one of the payloads is meaningful.

    kind CONJUGATE carries the conjugate arrangement in result; kind
    EXCEPTIONAL carries which epsilon the input was (PLUS or MINUS) in
    epsilon; kind OUTSIDE_DOMAIN carries nothing.
    """

    kind: ConjugationKind
    result: Optional[SquareArrangement] = None
    epsilon: Optional[SignClass] = None


# conjugate() shares these values for the outcomes without an arrangement.
_OUTSIDE_DOMAIN = ConjugationOutcome(ConjugationKind.OUTSIDE_DOMAIN)
_EXCEPTIONAL = {s: ConjugationOutcome(ConjugationKind.EXCEPTIONAL, epsilon=s) for s in SignClass}


# ---------------------------------------------------------------------------
# Encoding-level transforms, wrapped by the object API below. The cores
# reading family D (_transfer_d_to_b, _board_of_d_enc) work on bit masks
# read with str.translate, faster than per-cell loops; the cores writing
# it (_transfer_b_to_d, _d_enc_of_board) stay on strings, where masks
# measured slower.
# ---------------------------------------------------------------------------

_BLACK_DIGITS = bytes.maketrans(b"bwt", b"100")
_DEC_DIGITS = bytes.maketrans(b"bwt", b"001")
_CELL_OF_DIGIT = bytes.maketrans(b"012", b"wbt")
# Family-D tiles, or cells once each domino is written "xb" (x its white half).
_WHITE_DIGITS = bytes.maketrans(b"bwdx", b"0101")
_DOMINO_DIGITS = bytes.maketrans(b"bwdx", b"0011")


def _masks_of_enc(enc: str) -> tuple[int, int]:
    """(black, decorated) masks of a family-B encoding, bit c for cell c."""
    digits = enc[::-1].encode()
    return int(digits.translate(_BLACK_DIGITS), 2), int(digits.translate(_DEC_DIGITS), 2)


def _cells_of_masks(n: int, black: int, dec: int) -> bytes:
    """n family-B cell characters with the given masks, highest bit first."""
    # Reading a mask's binary digits in base 16 gives each cell its own hex
    # digit: 0 white, 1 black, 2 decorated.
    digits = int(bin(black)[2:], 16) + 2 * int(bin(dec)[2:], 16)
    return (b"%0*x" % (n, digits)).translate(_CELL_OF_DIGIT)


def _enc_of_masks(n: int, black: int, dec: int) -> str:
    """Family-B encoding of n cells with the given masks, bit c for cell c."""
    return _cells_of_masks(n, black, dec)[::-1].decode()


def _coloring_of(m: int, chosen: tuple[int, ...]) -> str:
    """Cell colors of m cells flipping after each chosen cell (increasing, 1..m)."""
    parts = []
    cur, other = "b", "w"
    prev = 0
    for c in chosen:
        parts.append(cur * (c - prev))
        prev = c
        cur, other = other, cur
    parts.append(cur * (m - prev))  # empty when cell m is chosen
    return "".join(parts)


def _d_enc_of_board(m: int, chosen: tuple[int, ...], marks: frozenset[int]) -> str:
    col = _coloring_of(m, chosen)
    pieces = []
    prev = 0
    for t in sorted(marks):
        q = chosen[2 * t - 1]  # chosen cell number 2t, 1-based
        if q >= m or col[q - 1] != "w" or col[q] != "b":
            raise InternalInvariantViolation(f"mark slot {t} does not sit on a white-to-black boundary")
        pieces.append(col[prev : q - 1])
        prev = q + 1
    pieces.append(col[prev:])
    enc = "d".join(pieces)
    if not _plus_d(enc):
        raise InternalInvariantViolation(f"marked board mapped outside the plus class: {enc}")
    return enc


def _board_of_d_enc(enc: str) -> tuple[int, tuple[int, ...], frozenset[int]]:
    if not _plus_d(enc):
        raise NotPlusClass(f"{enc!r} is not a plus-class family-D arrangement")
    cells = enc.replace("d", "xb")[::-1].encode()
    col = int(cells.translate(_WHITE_DIGITS), 2)  # bit c: cell c (0-based) is white
    lefts = int(cells.translate(_DOMINO_DIGITS), 2)
    # Bit c of flips: cell c + 1 (1-based) is chosen, its color differing from
    # the next one's. Past the board counts as black: a chosen last cell is white.
    rest = flips = col ^ col >> 1
    chosen = []
    while rest:
        low = rest & -rest
        chosen.append(low.bit_length())
        rest ^= low
    marks = []
    while lefts:
        low = lefts & -lefts
        idx = (flips & ((low << 1) - 1)).bit_count()  # rank among the chosen cells
        if idx % 2 != 0:
            raise InternalInvariantViolation(
                f"domino middle of {enc!r} at cell {low.bit_length()} is not a white-to-black change"
            )
        marks.append(idx // 2)
        lefts ^= low
    i = len(chosen) // 2
    if marks and (min(marks) < 1 or max(marks) > i - 1):
        raise InternalInvariantViolation(f"recovered mark outside 1..{i - 1} for {enc!r}")
    return len(cells), tuple(chosen), frozenset(marks)


def _transfer_d_to_b(enc: str) -> str:
    if not _plus_d(enc):
        raise NotPlusClass(f"{enc!r} is not a plus-class family-D arrangement")
    # Masks over the tiles, the first tile (a black square, dropped) highest,
    # so the other tiles give the image's cells in order. Dominoes turn
    # black; a square is decorated when its color differs from the color
    # the previous tile ends on (white only after a white square).
    tiles = enc.encode()
    black = int(tiles.translate(_DOMINO_DIGITS), 2)
    white = int(tiles.translate(_WHITE_DIGITS), 2)
    dec = (white ^ white >> 1) & ~black
    result = _cells_of_masks(len(enc) - 1, black, dec).decode()
    if not _plus_b(result):
        raise InternalInvariantViolation(f"transfer of {enc!r} left the plus class: {result!r}")
    return result


def _transfer_b_to_d(enc: str) -> str:
    if not _plus_b(enc):
        raise NotPlusClass(f"{enc!r} is not a plus-class family-B arrangement")
    tiles = ["b"]  # new black square on the left end
    cur = "b"
    for ch in enc:
        if ch == "b":
            tiles.append("d")
            cur = "b"  # a domino ends on its black half
        elif ch == "t":
            cur = "w" if cur == "b" else "b"
            tiles.append(cur)  # the decorated cell takes the new color
        else:
            tiles.append(cur)
    result = "".join(tiles)
    if not _plus_d(result):
        raise InternalInvariantViolation(f"transfer of {enc!r} left the plus class: {result!r}")
    return result


def _epsilon_enc(n: int, r: int, plus: bool) -> str:
    return "w" * (n - 1 - r) + "b" * r + ("t" if plus else "w")


# Conjugation runs on a pair of cell masks: bit c of black is set when
# cell c (0-based) is black, bit c of dec when it is decorated, and every
# other cell is white. It runs in two stages. The layout stage
# (_conjugation_layout) takes the black mask alone and holds what every
# arrangement with those black cells shares: the weight, cell B, r, the
# highest black cell below B and the image's black mask when A is that
# cell, plus a cache of the image's black mask per decorated A. The
# member stage (_conjugate_member) takes one decorated mask, finds A,
# builds the image and runs every check on that one arrangement. A sweep
# builds one layout stage per layout; single calls share a bounded cache.


def _weight(n: int, black: int) -> int:
    """Weight of every n-cell arrangement with the given black mask."""
    # The weight's black run ends at cell n - 2 and stops below the
    # highest non-black cell among cells 0 .. n-2.
    return n - 1 - (~black & ((1 << (n - 1)) - 1)).bit_length()


def _image_shape(n: int, a: int, black: int) -> tuple[int, int, bool, int, int]:
    """What the images of the arrangements with cell A at mask a share.

    Returns (flip, black, odd weight, r, bit length of black): black is
    the image's black mask, and its decorated mask is dec ^ flip, since A
    swaps black and decorated and the last cell swaps white and decorated.
    """
    flip = a ^ 1 << (n - 1)
    return flip, black, _weight(n, black) % 2 == 1, black.bit_count(), black.bit_length()


def _conjugation_layout(n: int, black: int) -> tuple:
    """Layout stage: the constants of every n-cell arrangement with this black mask."""
    k = _weight(n, black)
    b = 1 << (n - 1 - k)  # cell B: first of the weight's black run, or the last cell
    below = black & (b - 1)
    hb = 1 << (below.bit_length() - 1) if below else 0  # highest black cell below B
    before = b >> 1  # the cell before B
    # A black A turns decorated while the cell before B turns black.
    black_image = _image_shape(n, hb, black ^ hb ^ before) if hb else None
    images = [None] * b.bit_length()  # per decorated A, by its bit length
    return n, black, k, k % 2 == 1, black.bit_count(), b - 1, hb, before, black_image, images


def _conjugate_member(layout: tuple, dec: int, plus: bool) -> tuple[ConjugationKind, object]:
    """Member stage: conjugate the arrangement of a layout with decorated mask dec.

    plus is its sign class, which callers already know. Returns the kind
    and its payload: (CONJUGATE, (black, dec, plus)) for the image,
    (EXCEPTIONAL, the epsilon's SignClass) or (OUTSIDE_DOMAIN, None).
    """
    n, black, k, odd, r, low, hb, before, black_image, images = layout
    if plus != odd:
        return _OUTSIDE, None
    left = dec & low  # decorated cells below B
    if left > hb:  # cell A: the highest decorated cell below B lies above hb
        if k < 1:
            # In the minus class every cell right of the last black one is
            # white, so A can only be decorated when B is a black cell.
            enc = _enc_of_masks(n, black, dec)
            raise InternalInvariantViolation(f"decorated A at weight 0 in {enc!r}")
        j = left.bit_length()
        image = images[j]
        if image is None:
            # A decorated A turns black while B turns white.
            a = 1 << (j - 1)
            image = images[j] = _image_shape(n, a, black ^ a ^ (low + 1))
    elif hb:  # cell A: the highest black cell below B
        if (black | dec) & before:
            enc = _enc_of_masks(n, black, dec)
            raise InternalInvariantViolation(
                f"cell before B in {enc!r} should be white"
            )
        image = black_image
    else:  # no square A
        if black != ((1 << r) - 1) << (n - 1 - r) or dec != plus << (n - 1):
            enc = _enc_of_masks(n, black, dec)
            expected = _epsilon_enc(n, r, plus)
            raise InternalInvariantViolation(
                f"no square A in {enc!r} yet it is not {expected!r}"
            )
        return ConjugationKind.EXCEPTIONAL, SignClass.PLUS if r % 2 == 1 else SignClass.MINUS
    flip, out_black, out_odd, out_r, out_len = image
    out_dec = dec ^ flip
    # plus means a decorated cell lies above the highest black cell
    out_plus = out_dec >> out_len != 0
    if out_r != r:
        what = "changed r"
    elif out_odd == odd:
        what = "kept the weight parity"
    elif out_plus == plus:
        what = "kept the sign class"
    else:
        return _CONJUGATE, (out_black, out_dec, out_plus)
    enc = _enc_of_masks(n, black, dec)
    out = _enc_of_masks(n, out_black, out_dec)
    raise InternalInvariantViolation(f"conjugation {what}: {enc!r} -> {out!r}")


# Single calls reuse the layout stages they have built: the 1023 layouts of
# all boards up to n = 10 fit.
_cached_layout = lru_cache(maxsize=1 << 10)(_conjugation_layout)


# ---------------------------------------------------------------------------
# Object API
# ---------------------------------------------------------------------------


def coloring_of(board: MarkedColoredBoard) -> str:
    """Cell colors induced by the chosen cells, as a 'b'/'w' string.

    The first cell is black and the color flips between cells c and c+1
    exactly when c is chosen; a flip after the last cell falls off the
    board and is ignored.
    """
    return _coloring_of(board.m, board.chosen)


def board_to_domino(board: MarkedColoredBoard) -> DominoArrangement:
    """Lay a domino across each marked boundary; other cells keep their color.

    The result is always a plus-class family-D arrangement with r equal
    to the number of marks.
    """
    return decode_domino(_d_enc_of_board(board.m, board.chosen, board.marks))


def domino_to_board(arr: DominoArrangement) -> MarkedColoredBoard:
    """Inverse of board_to_domino; requires a plus-class arrangement.

    Expanding dominoes into white and black cells recovers the coloring;
    the chosen cells are the visible color changes, completed with the
    last cell when their count is odd, and each domino middle recovers
    its mark slot.
    """
    m, chosen, marks = _board_of_d_enc(encode(arr))
    return MarkedColoredBoard(m, chosen, marks)


def domino_to_square(arr: DominoArrangement) -> SquareArrangement:
    """Interval transfer from plus-class family D to plus-class family B.

    The image has m - 1 - r cells and r black cells, one per domino.
    """
    return decode_square(_transfer_d_to_b(encode(arr)))


def square_to_domino(arr: SquareArrangement) -> DominoArrangement:
    """Inverse interval transfer; requires a plus-class arrangement.

    Each black cell becomes a domino, a black square is prepended, and
    colors are rebuilt left to right, flipping at each decorated cell.
    The image has n + 1 + r cells.
    """
    return decode_domino(_transfer_b_to_d(encode(arr)))


def conjugate(arr: SquareArrangement) -> ConjugationOutcome:
    """Conjugation on odd-weight plus and even-weight minus arrangements.

    Locates B, the first cell of the black run defining the weight (the
    last cell when the weight is 0), and A, the nearest non-white cell
    left of B. A decorated A turns black while B turns white; a black A
    turns decorated while the white cell before B turns black. The last
    cell then swaps white and decorated. The outcome has the same n and
    r, flipped weight parity and flipped sign class.

    Inputs outside the stated domain yield OUTSIDE_DOMAIN; the single
    arrangement per (n, r) with no square A yields EXCEPTIONAL. These
    outcomes carry no arrangement and are shared, immutable values.
    """
    enc = encode(arr)
    n = len(enc)
    black, dec = _masks_of_enc(enc)
    plus = dec >> black.bit_length() != 0
    kind, payload = _conjugate_member(_cached_layout(n, black), dec, plus)
    if kind is _CONJUGATE:
        return ConjugationOutcome(kind, result=decode_square(_enc_of_masks(n, payload[0], payload[1])))
    return _OUTSIDE_DOMAIN if payload is None else _EXCEPTIONAL[payload]


def epsilon_plus(n: int, r: int) -> SquareArrangement:
    """The unique conjugation-exceptional arrangement for odd r.

    White cells, then a black run of length r ending at the second-to-last
    cell, then a decorated last cell.
    """
    if not 0 <= r <= n - 1:
        raise RangeError(f"need 0 <= r <= n-1, got n={n} r={r}")
    if r % 2 != 1:
        raise ParityMismatch(f"epsilon_plus needs odd r, got {r}")
    return decode_square(_epsilon_enc(n, r, plus=True))


def epsilon_minus(n: int, r: int) -> SquareArrangement:
    """The unique conjugation-exceptional arrangement for even r.

    White cells, then a black run of length r ending at the second-to-last
    cell, then a white last cell; all white when r = 0.
    """
    if not 0 <= r <= n - 1:
        raise RangeError(f"need 0 <= r <= n-1, got n={n} r={r}")
    if r % 2 != 0:
        raise ParityMismatch(f"epsilon_minus needs even r, got {r}")
    return decode_square(_epsilon_enc(n, r, plus=False))


def enumerate_marked_boards(m: int, r: int) -> Iterator[MarkedColoredBoard]:
    """All marked colored boards on m cells with r marks.

    Their number equals the plus-class family-D count on m cells with r
    dominoes, stratum by stratum in the number of chosen cells, so the
    family-D size guard applies. The arguments and the guard are checked
    at the call (RangeError, SizeLimitExceeded), not at the first board.
    """
    _check_ints(m=m, r=r)
    if m < 1 or r < 0:
        raise RangeError(f"need m >= 1 and r >= 0, got m={m} r={r}")
    _check_guard(m, DEFAULT_MAX_CELLS_D)
    return (
        MarkedColoredBoard(m, chosen, frozenset(marks))
        for i in range(r + 1, m // 2 + 1)  # r marks need i - 1 >= r slots
        for chosen in combinations(range(1, m + 1), 2 * i)
        for marks in combinations(range(1, i), r)
    )


__all__ = [
    "MarkedColoredBoard",
    "ConjugationKind",
    "ConjugationOutcome",
    "coloring_of",
    "board_to_domino",
    "domino_to_board",
    "domino_to_square",
    "square_to_domino",
    "conjugate",
    "epsilon_plus",
    "epsilon_minus",
    "enumerate_marked_boards",
]
