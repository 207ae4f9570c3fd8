"""Reference computations made apart from the package under test.

Nothing here imports `lastsquares`. The counts come from small automata
run over the cells of a board, the sums from `math.comb`, and the
generating function from a plain integer recurrence, so that a wrong
answer from the package cannot be matched by the same mistake here.
"""

from __future__ import annotations

import math
from functools import lru_cache

# The published table of plus-class counts T(n, r), n = 1..10, r = 0..n-1.
PAPER_TABLE = (
    (1,),
    (3, 1),
    (7, 5, 1),
    (15, 17, 7, 1),
    (31, 49, 31, 9, 1),
    (63, 129, 111, 49, 11, 1),
    (127, 321, 351, 209, 71, 13, 1),
    (255, 769, 1023, 769, 351, 97, 15, 1),
    (511, 1793, 2815, 2561, 1471, 545, 127, 17, 1),
    (1023, 4097, 7423, 7937, 5503, 2561, 799, 161, 19, 1),
)


def comb(a: int, b: int) -> int:
    """C(a, b) with C(a, 0) = 1 for every a and 0 outside 0 <= b <= a."""
    if b == 0:
        return 1
    if b < 0 or a < b:
        return 0
    return math.comb(a, b)


# ---------------------------------------------------------------------------
# Automaton counts. Keys of the returned censuses are (plus, weight) for
# family B and plus for family D; values are member counts.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def census_b(n: int, r: int) -> dict[tuple[bool, int], int]:
    """Family-B members of length n with r black cells, by (plus, weight).

    The automaton reads cells left to right. Its state is the number of
    black cells so far, whether a decorated cell was read since the last
    black one, and the length of the trailing black run. The last cell
    is read apart, since it may not be black and the weight is the black
    run just before it.
    """
    states = {(0, False, 0): 1}
    for _ in range(n - 1):
        nxt: dict[tuple[int, bool, int], int] = {}
        for (k, seen_t, run), c in states.items():
            for key in ((k, seen_t, 0), (k, True, 0), (k + 1, False, run + 1)):
                if key[0] <= r:
                    nxt[key] = nxt.get(key, 0) + c
        states = nxt
    out: dict[tuple[bool, int], int] = {}
    for (k, seen_t, run), c in states.items():
        if k != r:
            continue
        for last_t in (False, True):
            key = (seen_t or last_t, run)
            out[key] = out.get(key, 0) + c
    return out


@lru_cache(maxsize=None)
def census_d(m: int, r: int) -> dict[bool, int]:
    """Family-D members of m cells with r dominoes, by plus class.

    The automaton is indexed by the cells covered so far. Its state is
    the number of dominoes and whether a white square was read since the
    last domino; the first tile is the forced black square.
    """
    by_cell: list[dict[tuple[int, bool], int]] = [{} for _ in range(m + 1)]
    by_cell[1][(0, False)] = 1
    for cell in range(1, m):
        for (k, seen_w), c in by_cell[cell].items():
            for width, key in ((1, (k, seen_w)), (1, (k, True)), (2, (k + 1, False))):
                if cell + width <= m and key[0] <= r:
                    slot = by_cell[cell + width]
                    slot[key] = slot.get(key, 0) + c
    out = {False: 0, True: 0}
    for (k, seen_w), c in by_cell[m].items():
        if k == r:
            out[seen_w] += c
    return out


def count_b(n: int, r: int, sign: str | None = None, parity: int | None = None,
            weight: int | None = None) -> int:
    """Members of B(n, r) passing a sign ('plus'/'minus') and weight filter."""
    total = 0
    for (plus, w), c in census_b(n, r).items():
        if sign is not None and plus != (sign == "plus"):
            continue
        if parity is not None and w % 2 != parity:
            continue
        if weight is not None and w != weight:
            continue
        total += c
    return total


def count_d(m: int, r: int, sign: str | None = None) -> int:
    """Members of D(m, r) in the given sign class, or all of them."""
    c = census_d(m, r)
    return c[True] + c[False] if sign is None else c[sign == "plus"]


def size_b(n: int, r: int) -> int:
    """Closed-form size of family B(n, r): C(n-1, r) 2^(n-r)."""
    return comb(n - 1, r) << (n - r)


def size_d(m: int, r: int) -> int:
    """Closed-form size of family D(m, r): C(m-r-1, r) 2^(m-1-2r)."""
    return comb(m - r - 1, r) << (m - 1 - 2 * r)


# ---------------------------------------------------------------------------
# The generating function x^(2r+2) / ((1-x) (1-2x)^(r+1)), expanded by
# the recurrence its denominator gives: sum_k p_k a_(m-k) = [m = 2r+2].
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def series(r: int, m_max: int) -> tuple[int, ...]:
    """Coefficients a_0 .. a_m_max of the generating function for r."""
    den = [1, -1]
    for _ in range(r + 1):
        den = [a - 2 * b for a, b in zip(den + [0], [0] + den)]
    coeffs: list[int] = []
    for m in range(m_max + 1):
        a = 1 if m == 2 * r + 2 else 0
        for k in range(1, min(m, len(den) - 1) + 1):
            a -= den[k] * coeffs[m - k]
        coeffs.append(a)
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# Stratum summands, keyed like lastsquares.stratify.
# ---------------------------------------------------------------------------


def strata(n: int, r: int, kind: str) -> dict[int, int]:
    """Summands of one census of B(n, r): kind is a StratumKind value."""
    if kind == "non-white":
        return {j: comb(n, j) * comb(j - 1, r) for j in range(r + 1, n + 1)}
    if kind == "last-decorated":
        return {j: comb(j - 1, r) << (j - 1 - r) for j in range(r + 1, n + 1)}
    if kind == "last-black":
        return {
            j: comb(n - 1 - j, r - 1) * ((1 << (n - r - j)) * ((1 << j) - 1))
            for j in range(1, n - r + 1)
        }
    if kind == "weight":
        return {2 * k: comb(n - 2 - 2 * k, r - 2 * k) << (n - r) for k in range(r // 2 + 1)}
    raise ValueError(f"unknown stratum kind {kind!r}")


# ---------------------------------------------------------------------------
# Classifier for single encodings, read from the right end.
# ---------------------------------------------------------------------------


def classify_b(enc: str) -> tuple[int, int, bool, int]:
    """(n, r, plus, weight) of a family-B encoding; ValueError if invalid."""
    if not enc or enc[-1] == "b" or set(enc) - set("btw"):
        raise ValueError(f"not a family-B encoding: {enc!r}")
    plus = False
    for ch in reversed(enc):
        if ch == "b":
            break
        plus = plus or ch == "t"
    w = len(enc[:-1]) - len(enc[:-1].rstrip("b"))
    return len(enc), enc.count("b"), plus, w


def classify_d(enc: str) -> tuple[int, int, bool]:
    """(m, r, plus) of a family-D encoding; ValueError if invalid."""
    if not enc or enc[0] != "b" or set(enc) - set("bdw"):
        raise ValueError(f"not a family-D encoding: {enc!r}")
    plus = False
    for ch in reversed(enc):
        if ch == "d":
            break
        plus = plus or ch == "w"
    r = enc.count("d")
    return len(enc) + r, r, plus


def epsilon(n: int, r: int) -> str:
    """The conjugation's exceptional member of B(n, r), as in the paper."""
    return "w" * (n - 1 - r) + "b" * r + ("t" if r % 2 else "w")


def self_test() -> None:
    """Check the counters against the paper's table and the family sizes."""
    for n, row in enumerate(PAPER_TABLE, start=1):
        for r, value in enumerate(row):
            got = (count_b(n, r, "plus"), count_d(n + 1 + r, r, "plus"),
                   series(r, n + 1 + r)[n + 1 + r],
                   sum(strata(n, r, "non-white").values()),
                   sum(strata(n, r, "last-decorated").values()))
            if any(g != value for g in got):
                raise AssertionError(f"T({n}, {r}) = {value}, reference gives {got}")
            if r >= 1 and sum(strata(n, r, "last-black").values()) != value:
                raise AssertionError(f"last-black summands of T({n}, {r})")
    if count_b(10, 4, "plus") != 5503:
        raise AssertionError("T(10, 4) != 5503")
    for n in range(1, 17):
        for r in range(n):
            if count_b(n, r) != size_b(n, r):
                raise AssertionError(f"|B({n}, {r})| != C(n-1, r) 2^(n-r)")
            even = sum(count_b(n, r, weight=k) for k in range(0, r + 1, 2))
            if even != sum(strata(n, r, "weight").values()):
                raise AssertionError(f"even-weight census of B({n}, {r})")
    for m in range(1, 25):
        for r in range((m - 1) // 2 + 1):
            if count_d(m, r) != size_d(m, r):
                raise AssertionError(f"|D({m}, {r})| != C(m-r-1, r) 2^(m-1-2r)")
