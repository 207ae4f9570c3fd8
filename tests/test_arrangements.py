"""Domain types, classification and encoding round trips."""

import copy
import pickle
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lastsquares import (
    EmptyBoard,
    FirstCellNotBlack,
    LastCellBlack,
    ParseError,
    SignClass,
    SquareKind,
    TileKind,
    decode_domino,
    decode_square,
    encode,
    enumerate_B,
    enumerate_D,
    render_ascii,
    sign_class_domino,
    sign_class_square,
    validate_domino,
    validate_square,
    weight,
)

B_SQ = TileKind.BLACK_SQUARE
W_SQ = TileKind.WHITE_SQUARE
DOM = TileKind.DOMINO
WHITE = SquareKind.WHITE
BLACK = SquareKind.BLACK
DEC = SquareKind.DECORATED


def test_tile_widths():
    assert B_SQ.width == 1
    assert W_SQ.width == 1
    assert DOM.width == 2


def test_validate_domino_accepts_and_derives():
    arr = validate_domino([B_SQ, DOM, W_SQ])
    assert arr.m == 4
    assert arr.r == 1
    arr = validate_domino([B_SQ, W_SQ])
    assert (arr.m, arr.r) == (2, 0)


def test_validate_domino_rejects():
    with pytest.raises(EmptyBoard):
        validate_domino([])
    with pytest.raises(FirstCellNotBlack):
        validate_domino([W_SQ, B_SQ])
    with pytest.raises(FirstCellNotBlack):
        validate_domino([DOM, B_SQ])  # a domino starts with its white half


def test_validate_square_accepts_and_derives():
    arr = validate_square([BLACK, DEC])
    assert (arr.n, arr.r) == (2, 1)
    arr = validate_square([WHITE, WHITE])
    assert (arr.n, arr.r) == (2, 0)


def test_validate_square_rejects():
    with pytest.raises(EmptyBoard):
        validate_square([])
    with pytest.raises(LastCellBlack):
        validate_square([WHITE, BLACK])
    with pytest.raises(LastCellBlack):
        validate_square([BLACK])


def test_weight_examples():
    assert weight(decode_square("wbbw")) == 2
    assert weight(decode_square("tw")) == 0
    assert weight(decode_square("bt")) == 1
    assert weight(decode_square("w")) == 0  # single cell, nothing second-to-last


def test_sign_class_square_examples():
    assert sign_class_square(decode_square("bt")) is SignClass.PLUS
    assert sign_class_square(decode_square("wbbw")) is SignClass.MINUS
    # r = 0: the boundary is position 0 and the whole board is scanned
    assert sign_class_square(decode_square("ww")) is SignClass.MINUS
    assert sign_class_square(decode_square("tw")) is SignClass.PLUS


def test_sign_class_domino_examples():
    assert sign_class_domino(decode_domino("bdw")) is SignClass.PLUS
    assert sign_class_domino(decode_domino("bb")) is SignClass.MINUS
    assert sign_class_domino(decode_domino("bw")) is SignClass.PLUS
    assert sign_class_domino(decode_domino("bwd")) is SignClass.MINUS


def test_encode_examples():
    assert encode(validate_domino([B_SQ, DOM, W_SQ])) == "bdw"
    assert encode(validate_square([BLACK, DEC])) == "bt"


def test_decode_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as exc:
        decode_square("x")
    assert exc.value.offset == 0
    with pytest.raises(ParseError) as exc:
        decode_square("bxw")
    assert exc.value.offset == 1
    with pytest.raises(ParseError) as exc:
        decode_domino("bdt")  # 't' belongs to family B
    assert exc.value.offset == 2


def test_parse_errors_survive_pickle_and_copy():
    err = ParseError("bad", 3)
    for back in (pickle.loads(pickle.dumps(err)), copy.copy(err), copy.deepcopy(err)):
        assert type(back) is ParseError
        assert (str(back), back.offset) == ("bad (offset 3)", 3)


def test_decode_rejects_invalid_arrangements():
    with pytest.raises(LastCellBlack):
        decode_square("wb")
    with pytest.raises(FirstCellNotBlack):
        decode_domino("wb")
    with pytest.raises(EmptyBoard):
        decode_square("")


def test_round_trip_exhaustive_small_boards():
    # decode(encode(x)) = x for everything enumerable at n, m <= 12
    for n in range(1, 13):
        for r in range(0, n):
            for arr in enumerate_B(n, r):
                assert decode_square(encode(arr)) == arr
    for m in range(1, 13):
        for r in range(0, (m - 1) // 2 + 1):
            for arr in enumerate_D(m, r):
                assert decode_domino(encode(arr)) == arr


def test_weight_bounds_and_tightness():
    # weight <= r always; weight == r forces one consecutive black run
    # ending at the second-to-last cell
    for n in range(1, 9):
        for enc in ("".join(p) for p in product("bwt", repeat=n)):
            if enc[-1] == "b":
                continue
            arr = decode_square(enc)
            k = weight(arr)
            assert k <= arr.r
            if k == arr.r and arr.r > 0:
                assert enc[n - 1 - k : n - 1] == "b" * k
                assert "b" not in enc[: n - 1 - k]


def test_sign_depends_only_on_suffix_after_last_black():
    # any rewrite at or before the last black cell that keeps that cell
    # the last black one leaves the sign unchanged
    for n in range(2, 8):
        for enc in ("".join(p) for p in product("bwt", repeat=n)):
            if enc[-1] == "b" or "b" not in enc:
                continue
            p = enc.rfind("b")
            sign = sign_class_square(decode_square(enc))
            for i in range(p + 1):
                for ch in "bwt":
                    mutated = enc[:i] + ch + enc[i + 1 :]
                    if mutated.rfind("b") != p:
                        continue
                    assert sign_class_square(decode_square(mutated)) is sign


def test_render_ascii_never_empty_and_distinguishes_halves():
    assert render_ascii(decode_domino("bdw")) == "[#][o|#][ ]"
    assert render_ascii(decode_square("bt")) == "[#][^]"
    for enc in ("b", "bw", "bd", "bdd"):
        if enc == "bdd":
            assert render_ascii(decode_domino(enc)).count("[o|#]") == 2
        else:
            assert render_ascii(decode_domino(enc)) != ""


def test_arrangements_are_immutable_values():
    arr = decode_square("bt")
    with pytest.raises(AttributeError):
        arr.cells = ()
    assert decode_square("bt") == arr
    assert hash(decode_square("bt")) == hash(arr)


@st.composite
def square_encodings(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    body = [draw(st.sampled_from("bwt")) for _ in range(n - 1)]
    last = draw(st.sampled_from("wt"))
    return "".join(body) + last


@st.composite
def domino_encodings(draw, max_tiles=9):
    tail = draw(st.lists(st.sampled_from("bdw"), max_size=max_tiles - 1))
    return "b" + "".join(tail)


@given(square_encodings())
def test_square_round_trip_property(enc):
    assert encode(decode_square(enc)) == enc


@given(domino_encodings())
def test_domino_round_trip_property(enc):
    arr = decode_domino(enc)
    assert encode(arr) == enc
    assert arr.m == len(enc) + enc.count("d")
    assert arr.r == enc.count("d")
