"""Exact evaluation of the five structured binomial sums and related identities.

The five sums share one value chain: for 0 <= r <= m/2 - 1 and
n = m - 1 - r,

    S(m, r) = T(n, r) = U(n, r) = V(n, r) = W(n, r).

S counts the plus-class family-D arrangements on m cells, the other four
count the plus-class family-B arrangements on n cells in four different
ways. W stands apart: its number of summands depends only on r, so it
acts as a closed form in m alone.

Everything here is exact. Counts are Python integers (arbitrary
precision), the one quotient that appears is handled with Fraction, and
no floating point is used anywhere.

Where the binomials come from:

- S and T read rows C(a, 0..a) of _pascal_row and columns C(r..hi, r)
  of _column; U and V read _column alone.
- W calls math.comb directly (binom at n = r + 1 only), and shares no
  table with the other four. So a fault in _pascal_row or _column breaks
  the five-way agreement instead of passing unseen.

Caches, all least-recently-used with a bound on the number of keys:

- _pascal_row: one row per a, at most 256 rows.
- _diagonal: the column of r that _column extends, at most 512 values of
  r. That covers every r of `lastsq table`, whose nmax goes up to 400 and
  whose row n reads the column of every r < n; a bound below nmax would
  evict each column before its next use and rebuild it on every call.
- _running_U: eval_U's running sums per r, at most 256 values of r. They
  are the same sums, extended term by term, not a closed form.
- _factors_V: eval_V's power factors per q = n - r, at most 512 values of
  q, which covers every q of `lastsq verify --mmax 400`.

The lists of _diagonal and _running_U only grow as far as the largest n
asked for; a smaller n reads a prefix. They grow under one reentrant
lock, taken only when a list is too short, so the sums may be called
from several threads: without it, two threads could append the same
entries and later reads would be wrong. Reads take no lock, since a list
only grows past the prefix a reader needs.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count, islice, repeat
from operator import lshift, mul
from typing import Iterator

from .errors import NonIntegralResult, RangeError


def binom(a: int, b: int) -> int:
    """Binomial coefficient under the convention used package-wide.

    C(a, 0) = 1 for every integer a, negatives included; C(a, b) = 0
    when b < 0, and also when b > 0 with a < 0 or a < b. For
    0 <= b <= a this is the ordinary binomial coefficient.

    The degenerate cases are forced by the sums below: W at n = 1 needs
    C(-1, 0) = 1, and W at n = r + 1 with r even needs C(0, 1) = 0.
    """
    if b == 0:
        return 1
    if b < 0 or a < 0 or a < b:
        return 0
    return math.comb(a, b)


@lru_cache(maxsize=256)
def _pascal_row(a: int) -> tuple[int, ...]:
    """C(a, 0), .., C(a, a) for a >= 0, by the multiplicative recurrence."""
    row = [1]
    c = 1
    for b in range(1, a + 1):
        c = c * (a - b + 1) // b
        row.append(c)
    return tuple(row)


# Held while _column or eval_U extends a cached list; reentrant, since
# eval_U's growth calls _column.
_GROWING = threading.RLock()


@lru_cache(maxsize=512)
def _diagonal(r: int) -> list[int]:
    """C(r, r), C(r + 1, r), .. as far as _column has needed them.

    Only _column touches the list, and it only appends to it.
    """
    return [1]


def _column(r: int, hi: int) -> list[int]:
    """C(r, r), C(r + 1, r), .. at least as far as C(hi, r), for r >= 0.

    Built by the multiplicative recurrence C(a, r) = C(a-1, r) * a / (a-r),
    extending the cached diagonal of r only by the entries not yet known.
    The result is that cached list itself, not a copy: callers bound their
    reads by another iterable or a slice, and never change it.
    """
    col = _diagonal(r)
    if len(col) <= hi - r:
        with _GROWING:
            c = col[-1]
            for a in range(r + len(col), hi + 1):
                c = c * a // (a - r)
                col.append(c)
    return col


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise RangeError(message)


def _require_b(n: int, r: int) -> None:
    _require(n >= 1 and 0 <= r <= n - 1, f"need n >= 1 and 0 <= r < n, got n={n} r={r}")


def eval_S(m: int, r: int) -> int:
    """Sum of C(m, 2i) * C(i-1, r) over i = r+1 .. floor(m/2).

    Counts the plus-class family-D arrangements on m cells with r
    dominoes. The sum is empty (value 0) when r + 1 > floor(m/2).
    """
    _require(m >= 1 and r >= 0, f"need m >= 1 and r >= 0, got m={m} r={r}")
    # C(m, 2i) for i = r+1, r+2, .. against C(i-1, r) for i-1 = r .. floor(m/2)-1
    return sum(map(mul, _pascal_row(m)[2 * r + 2 :: 2], _column(r, m // 2 - 1)))


def _terms_T(n: int, r: int) -> Iterator[int]:
    return map(mul, _pascal_row(n)[r + 1 :], _column(r, n - 1))


def terms_T(n: int, r: int) -> list[int]:
    """Summands C(n, j) * C(j-1, r) of eval_T, for j = r+1 .. n.

    Term j counts the plus-class family-B arrangements with j non-white
    cells.
    """
    _require_b(n, r)
    return list(_terms_T(n, r))


def eval_T(n: int, r: int) -> int:
    """Sum of C(n, j) * C(j-1, r) over j = r+1 .. n.

    Counts the plus-class family-B arrangements on n cells with r black
    cells, stratified by the number of non-white cells.
    """
    _require_b(n, r)
    return sum(_terms_T(n, r))


def _terms_U(n: int, r: int, start: int = 0) -> Iterator[int]:
    # the summands from j = r + 1 + start on
    return map(lshift, islice(_column(r, n - 1), start, None), range(start, n - r))


def terms_U(n: int, r: int) -> list[int]:
    """Summands C(j-1, r) * 2**(j-1-r) of eval_U, for j = r+1 .. n.

    Term j counts the plus-class arrangements whose last decorated
    square sits at cell j.
    """
    _require_b(n, r)
    return list(_terms_U(n, r))


@lru_cache(maxsize=256)
def _running_U(r: int) -> list[int]:
    """0, then the running sums of _terms_U's summands, as far as eval_U has needed them.

    Entry k is the sum of the first k summands. Only eval_U touches the
    list, and it only appends to it.
    """
    return [0]


def eval_U(n: int, r: int) -> int:
    """Sum of C(j-1, r) * 2**(j-1-r) over j = r+1 .. n.

    Same count as eval_T, stratified by the cell carrying the last
    decorated square. The sums are kept per r and extended only by the
    summands not yet added.
    """
    _require_b(n, r)
    sums = _running_U(r)
    if len(sums) <= n - r:
        with _GROWING:
            total = sums[-1]
            for term in _terms_U(n, r, len(sums) - 1):
                total += term
                sums.append(total)
    return sums[n - r]


@lru_cache(maxsize=512)
def _factors_V(q: int) -> tuple[int, ...]:
    """2**(q-j) * (2**j - 1), computed as 2**q - 2**(q-j), for j = 1 .. q."""
    return tuple((1 << q) - (1 << (q - j)) for j in range(1, q + 1))


def _terms_V(n: int, r: int) -> Iterator[int]:
    # C(n-1-j, r-1) for j = 1 .. n-r is C(n-2, r-1) .. C(r-1, r-1), the column read backwards
    return map(mul, _column(r - 1, n - 2)[n - 1 - r :: -1], _factors_V(n - r))


def terms_V(n: int, r: int) -> list[int]:
    """Summands C(n-1-j, r-1) * 2**(n-r-j) * (2**j - 1) of eval_V, j = 1 .. n-r.

    For r >= 1 term j counts the plus-class arrangements whose last
    black square sits at cell n - j. The power factor is computed as
    2**(n-r) - 2**(n-r-j), the same number. At r = 0 every summand
    vanishes under the binom convention, C(a, -1) = 0.
    """
    _require_b(n, r)
    if r == 0:
        return [0] * n
    return list(_terms_V(n, r))


def eval_V(n: int, r: int) -> int:
    """Sum of C(n-1-j, r-1) * 2**(n-r-j) * (2**j - 1) over j = 1 .. n-r.

    Same count as eval_T, stratified by the cell carrying the last black
    square. At r = 0 that stratification degenerates (there is no last
    black square) and the summand vanishes identically under the binom
    convention, so the value is pinned to 2**n - 1, the count it must
    represent: boards with no black cell and at least one decorated cell.
    """
    _require_b(n, r)
    if r == 0:
        return (1 << n) - 1
    return sum(_terms_V(n, r))


def _terms_W(n: int, r: int) -> Iterator[int]:
    # C(n-2-2k, r-2k) for k = 0 .. floor(r/2), from math.comb and no table shared
    # with the other sums. Only at n = r + 1 does a top fall below its bottom,
    # where the binom convention gives 0, or C(-1, 0) = 1 at the end for even r.
    comb = binom if n == r + 1 else math.comb
    binomials = map(comb, count(n - 2, -2), range(r, -1, -2))
    return map(lshift, binomials, repeat(n - r))


def terms_W(n: int, r: int) -> list[int]:
    """Summands 2**(n-r) * C(n-2-2k, r-2k) of eval_W, for k = 0 .. floor(r/2).

    Term k counts the family-B arrangements of weight 2k. The binomials
    use the binom convention: W at n = 1 needs C(-1, 0) = 1 and at
    n = r + 1 with r even C(0, 1) = 0.
    """
    _require_b(n, r)
    return list(_terms_W(n, r))


def eval_W(n: int, r: int) -> int:
    """2**(n-r) * sum of C(n-2-2k, r-2k) over k = 0 .. floor(r/2), minus (-1)**r.

    Same count as eval_T, derived from the even-weight census. The number
    of summands depends only on r.
    """
    _require_b(n, r)
    return sum(_terms_W(n, r)) + (-1) ** (r + 1)


def moriarty(m: int, r: int) -> tuple[int, int]:
    """Both sides of the identity obtained by replacing i-1 with i in eval_S.

    lhs = sum of C(m, 2i) * C(i, r) for i = r .. floor(m/2), and
    rhs = 2**(m-1-2r) * C(m-r, r) * m / (m-r), evaluated in exact
    rational arithmetic and asserted integral. Note the power of two is
    fractional at r = m/2; the product is an integer regardless.

    Raises NonIntegralResult if the rational rhs fails to reduce, which
    would mean an internal error, not bad input.
    """
    _require(
        m >= 1 and 0 <= r <= m // 2 and m > r,
        f"need m >= 1 and 0 <= r <= m/2 and m > r, got m={m} r={r}",
    )
    lhs = sum(binom(m, 2 * i) * binom(i, r) for i in range(r, m // 2 + 1))
    rhs = Fraction(2) ** (m - 1 - 2 * r) * binom(m - r, r) * Fraction(m, m - r)
    if rhs.denominator != 1:
        raise NonIntegralResult(f"rhs of moriarty({m}, {r}) is {rhs}, not an integer")
    return lhs, int(rhs)


def companion_identity(n: int, r: int) -> tuple[int, int]:
    """Both sides of the identity obtained by replacing j-1 with j in eval_T.

    lhs = sum of C(n, j) * C(j, r) for j = r .. n, rhs = 2**(n-r) * C(n, r).
    """
    _require(0 <= r <= n, f"need 0 <= r <= n, got n={n} r={r}")
    lhs = sum(binom(n, j) * binom(j, r) for j in range(r, n + 1))
    return lhs, binom(n, r) << (n - r)


def gf_coefficients(r: int, m_max: int) -> list[int]:
    """Coefficients of x**(2r+2) / ((1-x) (1-2x)**(r+1)) up to degree m_max.

    The result list is indexed by m, for m = 0 .. m_max, and its entries
    equal eval_S(m, r). 1/(1-2x)**(r+1) has coefficient C(j+r, r) * 2**j
    at x**j, the factor 1/(1-x) takes running sums and x**(2r+2) shifts
    them by 2r + 2. The sums add eval_U's summands but do not call it;
    eval_S, with which they are compared, is the other route.
    """
    _require(r >= 0 and m_max >= 2 * r + 2, f"need m_max >= 2r+2, got r={r} m_max={m_max}")
    d = m_max - (2 * r + 2)
    return [0] * (2 * r + 2) + list(accumulate(binom(j + r, r) << j for j in range(d + 1)))


def recurrence_residual(n: int) -> int:
    """Residual of the three-term recurrence satisfied by f(n) = eval_T(2n, n).

    Returns (24n**2+44n+16) f(n) + (21n**2+37n+14) f(n+1)
    - (3n**2+7n+2) f(n+2), which is expected to be exactly 0 for all
    n >= 1.
    """
    _require(n >= 1, f"need n >= 1, got n={n}")

    def f(k: int) -> int:
        return eval_T(2 * k, k)

    return (
        (24 * n * n + 44 * n + 16) * f(n)
        + (21 * n * n + 37 * n + 14) * f(n + 1)
        - (3 * n * n + 7 * n + 2) * f(n + 2)
    )


def oddness_and_divisibility(m: int, r: int) -> tuple[bool, bool]:
    """Check that eval_S(m, r) is odd and nearly a multiple of a 2-power.

    Returns (is_odd, divisibility_ok) where is_odd reports whether
    eval_S(m, r) is odd and divisibility_ok whether 2**(m-1-2r) divides
    eval_S(m, r) + (-1)**r. Both follow from the closed form of eval_W
    and are expected to be True throughout 0 <= r <= m/2 - 1.
    """
    _require(m >= 2 and 0 <= r and 2 * r <= m - 2, f"need 0 <= r <= m/2 - 1, got m={m} r={r}")
    s = eval_S(m, r)
    is_odd = s % 2 == 1
    divisibility_ok = (s + (-1) ** r) % (1 << (m - 1 - 2 * r)) == 0
    return is_odd, divisibility_ok
