"""Board arrangements for the two tiling families.

Family D tiles a 1 x m board with dominoes and single black or white
squares. A domino covers two cells, its white half always on the left,
and the first cell of the board is always covered by a black square.
With r dominoes the board carries m - 2r squares.

Family B tiles a 1 x n board with white squares, black squares, and
decorated squares (white squares carrying a triangle). Exactly r cells
are black and the last cell is never black.

Canonical text encodings use one character per tile:

    family D:  'b' black square, 'w' white square, 'd' domino (2 cells)
    family B:  'b' black square, 'w' white square, 't' decorated square

The encoding doubles as the canonical sort key: enumeration order
everywhere in this package is lexicographic on these strings.

Classifications follow the "last squares" viewpoint. In family D the
last squares are the squares to the right of the last domino; the
arrangement is plus if one of them is white, minus otherwise. In family
B the last squares are the squares to the right of the last black cell;
plus means one of them is decorated. When there is no domino (no black
cell), the boundary sits at position 0 and the whole board is scanned.
The weight of a family-B arrangement is the length of the run of black
cells ending at the second-to-last cell, or 0 if that cell is not black.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Union

from .errors import EmptyBoard, FirstCellNotBlack, LastCellBlack, ParseError


class TileKind(Enum):
    """One tile of family D. The enum value is the encoding character."""

    WHITE_SQUARE = "w"
    BLACK_SQUARE = "b"
    DOMINO = "d"

    @property
    def width(self) -> int:
        """Number of board cells the tile covers."""
        return 2 if self is TileKind.DOMINO else 1


class SquareKind(Enum):
    """One cell of family B. The enum value is the encoding character."""

    WHITE = "w"
    BLACK = "b"
    DECORATED = "t"


class SignClass(Enum):
    PLUS = "+"
    MINUS = "-"


@dataclass(frozen=True)
class DominoArrangement:
    """Immutable family-D arrangement, validated on construction."""

    tiles: tuple[TileKind, ...]
    _enc = None  # its encoding once known; not a field, see encode()

    def __post_init__(self) -> None:
        if not self.tiles:
            raise EmptyBoard("family D arrangement covers no cells")
        if self.tiles[0] is not TileKind.BLACK_SQUARE:
            raise FirstCellNotBlack(
                "the first cell must be covered by a black square"
            )

    @property
    def m(self) -> int:
        """Total number of cells covered."""
        return sum(t.width for t in self.tiles)

    @property
    def r(self) -> int:
        """Number of dominoes."""
        return sum(1 for t in self.tiles if t is TileKind.DOMINO)


@dataclass(frozen=True)
class SquareArrangement:
    """Immutable family-B arrangement, validated on construction."""

    cells: tuple[SquareKind, ...]
    _enc = None  # its encoding once known; not a field, see encode()

    def __post_init__(self) -> None:
        if not self.cells:
            raise EmptyBoard("family B arrangement covers no cells")
        if self.cells[-1] is SquareKind.BLACK:
            raise LastCellBlack("the last cell must not be black")

    @property
    def n(self) -> int:
        """Board length."""
        return len(self.cells)

    @property
    def r(self) -> int:
        """Number of black cells."""
        return sum(1 for c in self.cells if c is SquareKind.BLACK)


Arrangement = Union[DominoArrangement, SquareArrangement]


def validate_domino(tiles: Iterable[TileKind]) -> DominoArrangement:
    """Build a family-D arrangement from a tile sequence.

    Raises EmptyBoard or FirstCellNotBlack when the sequence violates the
    family invariants.
    """
    return DominoArrangement(tuple(tiles))


def validate_square(cells: Iterable[SquareKind]) -> SquareArrangement:
    """Build a family-B arrangement from a cell sequence.

    Raises EmptyBoard or LastCellBlack when the sequence violates the
    family invariants.
    """
    return SquareArrangement(tuple(cells))


def weight(arr: SquareArrangement) -> int:
    """Length of the black run ending at the second-to-last cell.

    Returns 0 when the board has a single cell or the second-to-last
    cell is not black. The result never exceeds r.
    """
    cells = arr.cells
    k = 0
    i = len(cells) - 2
    while i >= 0 and cells[i] is SquareKind.BLACK:
        k += 1
        i -= 1
    return k


def sign_class_square(arr: SquareArrangement) -> SignClass:
    """Plus when a decorated cell lies right of the last black cell.

    With r = 0 the boundary is position 0, so the whole board is
    scanned for a decorated cell.
    """
    return SignClass.PLUS if _plus_b(encode(arr)) else SignClass.MINUS


def sign_class_domino(arr: DominoArrangement) -> SignClass:
    """Plus when a white square lies right of the last domino.

    With r = 0 the boundary is position 0, so the whole board is
    scanned for a white square.
    """
    return SignClass.PLUS if _plus_d(encode(arr)) else SignClass.MINUS


def encode(arr: Arrangement) -> str:
    """Canonical text encoding, one character per tile; arr keeps it once known."""
    enc = arr._enc
    if enc is None:
        # _value_ is the member's value as a plain attribute; .value goes
        # through a descriptor, which costs several times more per cell.
        tiles = arr.tiles if isinstance(arr, DominoArrangement) else arr.cells
        enc = "".join([t._value_ for t in tiles])
        object.__setattr__(arr, "_enc", enc)
    return enc


_TILE_BY_CHAR = {t.value: t for t in TileKind}
_SQUARE_BY_CHAR = {s.value: s for s in SquareKind}


def _parse_error(text: str, table: dict, what: str) -> ParseError:
    """The ParseError for the first character of text not in table."""
    i = next(i for i, ch in enumerate(text) if ch not in table)
    return ParseError(f"invalid family {what} character {text[i]!r}", i)


def decode_domino(text: str) -> DominoArrangement:
    """Parse a family-D encoding. Inverse of encode on valid arrangements."""
    try:
        tiles = tuple([_TILE_BY_CHAR[ch] for ch in text])
    except KeyError:
        raise _parse_error(text, _TILE_BY_CHAR, "D tile") from None
    arr = DominoArrangement(tiles)
    if type(text) is str:  # arr keeps its text as its encoding
        object.__setattr__(arr, "_enc", text)
    return arr


def decode_square(text: str) -> SquareArrangement:
    """Parse a family-B encoding. Inverse of encode on valid arrangements."""
    try:
        cells = tuple([_SQUARE_BY_CHAR[ch] for ch in text])
    except KeyError:
        raise _parse_error(text, _SQUARE_BY_CHAR, "B cell") from None
    arr = SquareArrangement(cells)
    if type(text) is str:  # arr keeps its text as its encoding
        object.__setattr__(arr, "_enc", text)
    return arr


_RENDER_D = {"b": "[#]", "w": "[ ]", "d": "[o|#]"}
_RENDER_B = {"b": "[#]", "w": "[ ]", "t": "[^]"}


def render_ascii(arr: Arrangement) -> str:
    """One-line cell diagram. Presentation only, format not stable.

    Domino halves render as a joined pair [o|#]; decorated squares show
    their triangle as ^.
    """
    enc = encode(arr)
    table = _RENDER_D if isinstance(arr, DominoArrangement) else _RENDER_B
    return "".join(table[ch] for ch in enc)


# ---------------------------------------------------------------------------
# Encoding-level sign tests, behind the object-level sign classes above and
# the plus-class checks of the bijections.
# ---------------------------------------------------------------------------


def _plus_b(enc: str) -> bool:
    """True when a 't' occurs after the last 'b' (whole board if no 'b')."""
    return "t" in enc[enc.rfind("b") + 1 :]


def _plus_d(enc: str) -> bool:
    """True when a 'w' occurs after the last 'd' (whole board if no 'd')."""
    return "w" in enc[enc.rfind("d") + 1 :]
