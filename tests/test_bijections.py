"""The three constructions: marked boards, interval transfer, conjugation."""

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lastsquares import (
    ClassFilter,
    ConjugationKind,
    MarkedColoredBoard,
    NotPlusClass,
    ParityMismatch,
    ParseError,
    RangeError,
    SignClass,
    board_to_domino,
    coloring_of,
    conjugate,
    decode_domino,
    decode_square,
    domino_to_board,
    domino_to_square,
    encode,
    enumerate_marked_boards,
    epsilon_minus,
    epsilon_plus,
    eval_S,
    list_encodings,
    sign_class_square,
    square_to_domino,
    weight,
)

PLUS = ClassFilter(sign=SignClass.PLUS)


def board(m, chosen, marks=()):
    return MarkedColoredBoard(m, tuple(chosen), frozenset(marks))


# -- marked colored boards ---------------------------------------------------


def test_board_validation():
    board(4, [1, 2, 3, 4], [1])
    with pytest.raises(ValueError):
        board(2, [])  # chosen must have even size >= 2
    with pytest.raises(ValueError):
        board(4, [1, 2, 3])
    with pytest.raises(ValueError):
        board(4, [2, 1, 3, 4])
    with pytest.raises(ValueError):
        board(3, [1, 4])
    with pytest.raises(ValueError):
        board(4, [1, 2, 3, 4], [2])  # the final slot is never markable
    with pytest.raises(ValueError):
        board(4, [1, 2], [1])  # i = 1 leaves no slots at all


def test_board_serialization_round_trip():
    b = board(4, [1, 2, 3, 4], [1])
    assert b.serialize() == "m=4;chosen=1,2,3,4;marks=1"
    assert MarkedColoredBoard.parse(b.serialize()) == b
    empty = board(3, [1, 2])
    assert empty.serialize() == "m=3;chosen=1,2;marks="
    assert MarkedColoredBoard.parse(empty.serialize()) == empty
    marked = MarkedColoredBoard.parse("m=6;chosen=1,2,3,4;marks=1")
    assert (marked.i, marked.r) == (2, 1)


def test_board_parse_errors():
    with pytest.raises(ParseError):
        MarkedColoredBoard.parse("m=4;chosen=1,2")
    with pytest.raises(ParseError) as exc:
        MarkedColoredBoard.parse("m=x;chosen=1,2;marks=")
    assert exc.value.offset == 2
    with pytest.raises(ParseError):
        MarkedColoredBoard.parse("q=4;chosen=1,2;marks=")
    with pytest.raises(ParseError):
        MarkedColoredBoard.parse("m=4;chosen=1,a;marks=")
    with pytest.raises(ParseError) as exc:  # a repeated mark would name another board
        MarkedColoredBoard.parse("m=6;chosen=1,2,3,4,5,6;marks=1,2,2")
    assert (exc.value.message, exc.value.offset) == ("value 2 is repeated", 33)
    # marks out of order would give one board two records; the first such value is named
    descending = "value 1 comes after 2; the values must increase"
    for marks in ("2,1", "2,1,2", "2,1,1"):
        with pytest.raises(ParseError) as exc:
            MarkedColoredBoard.parse("m=6;chosen=1,2,3,4,5,6;marks=" + marks)
        assert (exc.value.message, exc.value.offset) == (descending, 31)
    with pytest.raises(ParseError) as exc:
        MarkedColoredBoard.parse("m=8;chosen=1,2,3,4,5,6,7,8;marks=1,3,2")
    assert (exc.value.message, exc.value.offset) == ("value 2 comes after 3; the values must increase", 37)
    for record, message in (
        ("m=4;chosen;marks=", "expected key=value (offset 4)"),
        ("m=4;chosn=1,2;marks=", "second field must be 'chosen' (offset 4)"),
        ("m=4;chosen=1,2;mark=", "third field must be 'marks' (offset 15)"),
    ):
        with pytest.raises(ParseError) as exc:
            MarkedColoredBoard.parse(record)
        assert str(exc.value) == message


def test_coloring_examples():
    assert coloring_of(board(4, [1, 2, 3, 4])) == "bwbw"
    assert coloring_of(board(3, [1, 2])) == "bwb"
    assert coloring_of(board(2, [1, 2])) == "bw"
    # a flip after the last cell falls off the board
    assert coloring_of(board(3, [2, 3])) == "bbw"


def test_board_to_domino_examples():
    assert encode(board_to_domino(board(4, [1, 2, 3, 4], [1]))) == "bdw"
    assert encode(board_to_domino(board(3, [1, 2]))) == "bwb"
    assert encode(board_to_domino(board(2, [1, 2]))) == "bw"


def test_domino_to_board_examples():
    assert domino_to_board(decode_domino("bdw")) == board(4, [1, 2, 3, 4], [1])
    # one visible change, odd count, so the last cell completes the parity
    assert domino_to_board(decode_domino("bw")) == board(2, [1, 2])
    with pytest.raises(NotPlusClass):
        domino_to_board(decode_domino("bb"))


def test_marked_board_bijection_exhaustive():
    for m in range(2, 11):
        for r in range(0, (m - 2) // 2 + 1):
            boards = list(enumerate_marked_boards(m, r))
            assert len(boards) == eval_S(m, r)
            images = [board_to_domino(b) for b in boards]
            encs = [encode(a) for a in images]
            assert len(set(encs)) == len(encs)
            assert sorted(encs) == list_encodings("D", m, r, PLUS)
            for b, img in zip(boards, images):
                assert domino_to_board(img) == b


def test_marked_boards_check_their_arguments_at_the_call():
    # like enumerate_B and enumerate_D, not at the first board
    for m, r in [(0, 0), (-1, 0), (5, -1)]:
        with pytest.raises(RangeError, match=f"got m={m} r={r}"):
            enumerate_marked_boards(m, r)
    with pytest.raises(RangeError) as exc:
        enumerate_marked_boards(6.0, 1)
    assert str(exc.value) == "m must be an int, got 6.0"
    assert list(enumerate_marked_boards(5, 2)) == []  # no room for two marks


# -- interval transfer -------------------------------------------------------


def test_transfer_examples():
    assert encode(domino_to_square(decode_domino("bdw"))) == "bt"
    assert encode(domino_to_square(decode_domino("bw"))) == "t"
    assert encode(domino_to_square(decode_domino("bwdw"))) == "tbt"
    assert encode(square_to_domino(decode_square("bt"))) == "bdw"
    assert encode(square_to_domino(decode_square("t"))) == "bw"


def test_transfer_rejects_minus_class():
    with pytest.raises(NotPlusClass):
        domino_to_square(decode_domino("bb"))
    with pytest.raises(NotPlusClass):
        square_to_domino(decode_square("w"))


def test_transfer_bijection_exhaustive():
    for m in range(2, 12):
        for r in range(0, (m - 2) // 2 + 1):
            n = m - 1 - r
            d_plus = list_encodings("D", m, r, PLUS)
            b_plus = list_encodings("B", n, r, PLUS)
            images = []
            for enc in d_plus:
                img = domino_to_square(decode_domino(enc))
                assert img.n == n and img.r == r
                assert sign_class_square(img) is SignClass.PLUS
                assert encode(square_to_domino(img)) == enc
                images.append(encode(img))
            assert len(set(images)) == len(images)
            assert sorted(images) == b_plus


# -- conjugation -------------------------------------------------------------


def outcome_of(enc):
    return conjugate(decode_square(enc))


def test_conjugate_examples():
    out = outcome_of("bwbt")
    assert out.kind is ConjugationKind.CONJUGATE
    assert encode(out.result) == "tbbw"
    back = conjugate(out.result)
    assert encode(back.result) == "bwbt"
    exc = outcome_of("bt")
    assert exc.kind is ConjugationKind.EXCEPTIONAL
    assert exc.epsilon is SignClass.PLUS
    # weight 0 but plus-class: outside the domain
    assert outcome_of("t").kind is ConjugationKind.OUTSIDE_DOMAIN


def test_conjugate_outside_domain_cases():
    # plus with even weight, and minus with odd weight
    assert outcome_of("wbbt").kind is ConjugationKind.OUTSIDE_DOMAIN
    assert outcome_of("bw").kind is ConjugationKind.OUTSIDE_DOMAIN
    # an epsilon shape of the wrong parity sits outside as well
    assert outcome_of("wwbbt").kind is ConjugationKind.OUTSIDE_DOMAIN


def test_epsilon_constructors():
    assert encode(epsilon_plus(4, 1)) == "wwbt"
    assert encode(epsilon_minus(4, 2)) == "wbbw"
    assert encode(epsilon_minus(3, 0)) == "www"
    assert encode(epsilon_minus(1, 0)) == "w"
    with pytest.raises(ParityMismatch):
        epsilon_plus(4, 2)
    with pytest.raises(ParityMismatch):
        epsilon_minus(4, 1)
    with pytest.raises(RangeError):
        epsilon_plus(3, 3)
    with pytest.raises(RangeError) as exc:
        epsilon_minus(3, 5)
    assert str(exc.value) == "need 0 <= r <= n-1, got n=3 r=5"


def test_epsilons_are_the_exceptional_inputs():
    assert conjugate(epsilon_plus(5, 3)).kind is ConjugationKind.EXCEPTIONAL
    assert conjugate(epsilon_minus(6, 2)).kind is ConjugationKind.EXCEPTIONAL
    assert conjugate(epsilon_minus(1, 0)).kind is ConjugationKind.EXCEPTIONAL


def in_domain(enc):
    k = 0
    i = len(enc) - 2
    while i >= 0 and enc[i] == "b":
        k += 1
        i -= 1
    plus = "t" in enc[enc.rfind("b") + 1 :]
    return (plus and k % 2 == 1) or (not plus and k % 2 == 0)


def test_conjugation_involution_exhaustive():
    for n in range(1, 11):
        for r in range(0, n):
            domain = [
                "".join(p)
                for p in product("btw", repeat=n)
                if p.count("b") == r and p[-1] != "b" and in_domain("".join(p))
            ]
            exceptional = []
            plus_odd = minus_even = 0
            for enc in domain:
                arr = decode_square(enc)
                w = weight(arr)
                is_plus = sign_class_square(arr) is SignClass.PLUS
                if is_plus:
                    plus_odd += 1
                else:
                    minus_even += 1
                out = conjugate(arr)
                if out.kind is ConjugationKind.EXCEPTIONAL:
                    exceptional.append(enc)
                    continue
                assert out.kind is ConjugationKind.CONJUGATE
                img = out.result
                assert img.n == n and img.r == r
                assert weight(img) % 2 != w % 2
                assert (sign_class_square(img) is SignClass.PLUS) != is_plus
                back = conjugate(img)
                assert back.kind is ConjugationKind.CONJUGATE
                assert back.result == arr
            expected = epsilon_plus(n, r) if r % 2 else epsilon_minus(n, r)
            assert exceptional == [encode(expected)]
            # the almost-bijection census
            assert plus_odd == minus_even + (-1) ** (r + 1)


@st.composite
def random_b_encodings(draw):
    n = draw(st.integers(2, 12))
    r = draw(st.integers(0, n - 1))
    cells = ["w"] * n
    positions = draw(st.permutations(range(n - 1)))
    for c in positions[:r]:
        cells[c] = "b"
    for c in range(n):
        if cells[c] != "b":
            cells[c] = draw(st.sampled_from("wt"))
    return "".join(cells)


@given(random_b_encodings())
def test_conjugation_round_trip_property(enc):
    out = outcome_of(enc)
    if out.kind is ConjugationKind.CONJUGATE:
        assert encode(conjugate(out.result).result) == enc
