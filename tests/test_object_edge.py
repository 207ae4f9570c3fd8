"""The object edge of the maps: kept encodings, shared outcomes, board checks, map cores.

Decoded arrangements keep their text as their encoding, conjugate()
shares its payload-free outcomes, MarkedColoredBoard validates without
converting what is already a tuple or frozenset, and two of the four
encoding-level map cores run on bit masks. These tests pin what callers
see: values, errors and messages, with per-cell reference versions of
the mask cores as the oracle.
"""

import copy
import dataclasses
import pickle

import pytest

from lastsquares import (
    ClassFilter,
    ConjugationKind,
    ConjugationOutcome,
    InternalInvariantViolation,
    MarkedColoredBoard,
    NotPlusClass,
    RangeError,
    SignClass,
    SquareArrangement,
    SquareKind,
    TileKind,
    conjugate,
    decode_domino,
    decode_square,
    domino_to_board,
    domino_to_square,
    encode,
    enumerate_B,
    enumerate_D,
    enumerate_marked_boards,
    epsilon_minus,
    epsilon_plus,
    list_encodings,
    square_to_domino,
    validate_domino,
    validate_square,
)
from lastsquares.bijections import (
    _board_of_d_enc,
    _d_enc_of_board,
    _transfer_b_to_d,
    _transfer_d_to_b,
)

PLUS = ClassFilter(sign=SignClass.PLUS)
MINUS = ClassFilter(sign=SignClass.MINUS)


def all_arrangements():
    """Every arrangement of B(n <= 9) and D(m <= 12), as decoded by the enumerators."""
    for n in range(1, 10):
        for r in range(n):
            yield from enumerate_B(n, r)
    for m in range(1, 13):
        for r in range((m - 1) // 2 + 1):
            yield from enumerate_D(m, r)


def rebuilt(arr):
    """The same arrangement built from its tiles, never decoded."""
    if isinstance(arr, SquareArrangement):
        return validate_square(arr.cells)
    return validate_domino(arr.tiles)


def joined(arr):
    tiles = arr.cells if isinstance(arr, SquareArrangement) else arr.tiles
    return "".join(t.value for t in tiles)


# -- decoded arrangements keep their text ------------------------------------


def test_encode_is_the_tile_join_decoded_or_built():
    seen = 0
    for arr in all_arrangements():
        built = rebuilt(arr)
        assert encode(arr) == joined(arr)
        assert encode(built) == joined(arr)
        assert encode(built) == joined(built)  # a second call returns the kept text
        seen += 1
    assert seen == 19682 + 23660


def test_kept_text_is_invisible_to_value_semantics():
    decoded = list(all_arrangements())
    built = [rebuilt(arr) for arr in decoded]
    assert decoded == built
    assert list(map(hash, decoded)) == list(map(hash, built))
    assert list(map(repr, decoded[::29])) == list(map(repr, built[::29]))  # repr is slow
    # pickling round trips whether the text is kept (decoded) or not yet (built)
    for arrs in (decoded, built):
        back = pickle.loads(pickle.dumps(arrs))
        assert back == decoded
        assert list(map(encode, back)) == list(map(joined, decoded))
    assert [f.name for f in dataclasses.fields(decode_square("bt"))] == ["cells"]
    assert [f.name for f in dataclasses.fields(decode_domino("bd"))] == ["tiles"]


def test_replace_and_copy_encode_their_own_tiles():
    arr = decode_square("bwt")
    other = dataclasses.replace(arr, cells=(SquareKind.DECORATED, SquareKind.WHITE))
    assert encode(other) == "tw" and encode(arr) == "bwt"
    arr = decode_domino("bdw")
    other = dataclasses.replace(arr, tiles=(TileKind.BLACK_SQUARE, TileKind.WHITE_SQUARE))
    assert encode(other) == "bw" and encode(arr) == "bdw"
    assert encode(copy.copy(arr)) == encode(copy.deepcopy(arr)) == "bdw"
    # one arrangement's text never reaches another
    assert [encode(decode_square(enc)) for enc in ("w", "tw", "bbt")] == ["w", "tw", "bbt"]
    assert encode(validate_square([SquareKind.WHITE])) == "w"


def test_only_text_is_kept():
    # decoding accepts any iterable of characters; only a str is kept as is
    for arr, enc in ((decode_square(["b", "t"]), "bt"), (decode_domino(iter("bdw")), "bdw")):
        assert type(encode(arr)) is str and encode(arr) == enc


def test_arrangements_stay_frozen():
    arr = decode_square("bt")
    encode(arr)
    with pytest.raises(dataclasses.FrozenInstanceError):
        arr.cells = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        arr._enc = "t"
    assert encode(arr) == "bt"


# -- shared outcomes ---------------------------------------------------------


def test_payload_free_outcomes_are_shared_frozen_values():
    outside = conjugate(decode_square("t"))
    assert outside == ConjugationOutcome(ConjugationKind.OUTSIDE_DOMAIN)
    assert conjugate(decode_square("bw")) is outside
    plus = conjugate(epsilon_plus(5, 3))
    assert plus == ConjugationOutcome(ConjugationKind.EXCEPTIONAL, epsilon=SignClass.PLUS)
    assert conjugate(epsilon_plus(2, 1)) is plus
    minus = conjugate(epsilon_minus(6, 2))
    assert minus == ConjugationOutcome(ConjugationKind.EXCEPTIONAL, epsilon=SignClass.MINUS)
    assert conjugate(epsilon_minus(1, 0)) is minus
    for out in (outside, plus, minus):
        assert out.result is None
        for name, value in (("kind", ConjugationKind.CONJUGATE), ("epsilon", None), ("result", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(out, name, value)
    assert (outside.kind, plus.epsilon, minus.epsilon) == (
        ConjugationKind.OUTSIDE_DOMAIN, SignClass.PLUS, SignClass.MINUS
    )
    # a conjugate is built per call
    first, second = conjugate(decode_square("bwbt")), conjugate(decode_square("bwbt"))
    assert first == second and first is not second and encode(first.result) == "tbbw"


# -- marked board validation -------------------------------------------------


@pytest.mark.parametrize(
    "m, chosen, marks, message",
    [
        (0, (1, 2), (), "board length must be positive, got 0"),
        (-3, (), (), "board length must be positive, got -3"),
        (4, (), (), "chosen cells must come in even count, at least 2"),
        (4, (1, 2, 3), (), "chosen cells must come in even count, at least 2"),
        (4, [1], [], "chosen cells must come in even count, at least 2"),
        (4, (2, 1, 3, 4), (), "chosen cells must be strictly increasing"),
        (4, (1, 1, 2, 3), (), "chosen cells must be strictly increasing"),
        (4, (1, 2, 4, 3), (1,), "chosen cells must be strictly increasing"),
        (3, (1, 4), (), "chosen cells must lie in 1..3"),
        (4, (0, 1), (), "chosen cells must lie in 1..4"),
        (4, (-2, 1), (), "chosen cells must lie in 1..4"),
        (4, (1, 2, 3, 4), (2,), "mark slots must lie in 1..1, got [2]"),
        (4, (1, 2), (1,), "mark slots must lie in 1..0, got [1]"),
        (8, (1, 2, 3, 4, 5, 6), (0, 3, 1, -1), "mark slots must lie in 1..2, got [-1, 0, 3]"),
        (8, [1, 2, 3, 4, 5, 6], {2, 9}, "mark slots must lie in 1..2, got [9]"),
    ],
)
def test_invalid_board_shapes(m, chosen, marks, message):
    with pytest.raises(RangeError) as exc:
        MarkedColoredBoard(m, chosen, marks)
    assert type(exc.value) is RangeError
    assert str(exc.value) == message


def test_board_fields_are_converted_once():
    b = MarkedColoredBoard(6, [1, 2, 3, 4], {1})
    assert type(b.chosen) is tuple and type(b.marks) is frozenset
    assert b == MarkedColoredBoard(6, (1, 2, 3, 4), frozenset({1}))
    assert MarkedColoredBoard(6, range(1, 5), iter([1])) == b
    chosen, marks = (1, 2, 3, 4), frozenset({1})
    b = MarkedColoredBoard(6, chosen, marks)
    assert b.chosen is chosen and b.marks is marks
    with pytest.raises(dataclasses.FrozenInstanceError):
        b.m = 7


# -- the four map cores ------------------------------------------------------


def expand_d(enc):
    """Cell colors of a family-D encoding plus 0-based domino left cells."""
    col, lefts = [], []
    for ch in enc:
        if ch == "d":
            lefts.append(len(col))
            col += ["w", "b"]
        else:
            col.append(ch)
    return "".join(col), lefts


def reference_d_to_b(enc):
    col, lefts = expand_d(enc)
    out = []
    for c in range(1, len(col)):  # cell 0 is dropped, so are domino left halves
        if c in lefts:
            continue
        if c - 1 in lefts:
            out.append("b")
        else:
            out.append("t" if col[c] != col[c - 1] else "w")
    return "".join(out)


def reference_board_of_d(enc):
    col, lefts = expand_d(enc)
    m = len(col)
    chosen = [c for c in range(1, m) if col[c - 1] != col[c]]
    if len(chosen) % 2 == 1:
        chosen.append(m)
    marks = frozenset((chosen.index(left + 1) + 1) // 2 for left in lefts)
    return m, tuple(chosen), marks


def reference_d_of_board(m, chosen, marks):
    col = []
    cur = "b"
    for cell in range(1, m + 1):
        col.append(cur)
        if cell in chosen:
            cur = "w" if cur == "b" else "b"
    starts = {chosen[2 * t - 1] for t in marks}
    tiles = []
    cell = 1
    while cell <= m:
        tiles.append("d" if cell in starts else col[cell - 1])
        cell += 2 if cell in starts else 1
    return "".join(tiles)


def board_key(board):
    m, chosen, marks = board
    return m, chosen, tuple(sorted(marks))


def test_map_cores_exhaustive():
    for m in range(2, 13):
        for r in range((m - 2) // 2 + 1):
            n = m - 1 - r
            d_plus = list_encodings("D", m, r, PLUS)
            images = [_transfer_d_to_b(e) for e in d_plus]
            assert images == [reference_d_to_b(e) for e in d_plus], (m, r)
            assert sorted(images) == list_encodings("B", n, r, PLUS), (m, r)
            assert [_transfer_b_to_d(b) for b in images] == d_plus, (m, r)
            boards = [_board_of_d_enc(e) for e in d_plus]
            assert boards == [reference_board_of_d(e) for e in d_plus], (m, r)
            assert all(type(b[1]) is tuple and type(b[2]) is frozenset for b in boards)
            assert [_d_enc_of_board(*b) for b in boards] == d_plus, (m, r)
            marked = [(b.m, b.chosen, b.marks) for b in enumerate_marked_boards(m, r)]
            assert sorted(map(board_key, boards)) == sorted(map(board_key, marked)), (m, r)
            assert [_d_enc_of_board(*b) for b in marked] == [
                reference_d_of_board(*b) for b in marked
            ], (m, r)


def test_map_cores_reject_the_minus_class_with_their_messages():
    d_minus = list_encodings("D", 8, 2, MINUS)
    b_minus = list_encodings("B", 8, 2, MINUS)
    assert (len(d_minus), len(b_minus)) == (49, 321)
    for enc in d_minus:
        message = f"{enc!r} is not a plus-class family-D arrangement"
        for core in (_transfer_d_to_b, _board_of_d_enc):
            with pytest.raises(NotPlusClass) as exc:
                core(enc)
            assert str(exc.value) == message
        for api in (domino_to_square, domino_to_board):
            with pytest.raises(NotPlusClass) as exc:
                api(decode_domino(enc))
            assert str(exc.value) == message
    for enc in b_minus:
        message = f"{enc!r} is not a plus-class family-B arrangement"
        with pytest.raises(NotPlusClass) as exc:
            _transfer_b_to_d(enc)
        assert str(exc.value) == message
        with pytest.raises(NotPlusClass) as exc:
            square_to_domino(decode_square(enc))
        assert str(exc.value) == message


def test_marked_board_core_checks_its_invariants():
    # unvalidated slots: past the board, and the final slot (a minus image)
    with pytest.raises(InternalInvariantViolation) as exc:
        _d_enc_of_board(4, (1, 2, 3, 4), frozenset({2}))
    assert str(exc.value) == "mark slot 2 does not sit on a white-to-black boundary"
    with pytest.raises(InternalInvariantViolation) as exc:
        _d_enc_of_board(4, (1, 2), frozenset({1}))
    assert str(exc.value) == "marked board mapped outside the plus class: bdb"
