"""Exhaustive generation and counting of both arrangement families.

This module is the trusted oracle of the package. Every arrangement is
constructed explicitly, by direct recursion that respects the family
invariants (never by filtering all 3**n cell strings), and classified
individually. There are deliberately no transfer-matrix or
dynamic-programming counting tricks here; closed forms live in
`formulas` and are checked against these counts, never substituted for
them.

Output order is always lexicographic on the canonical encoding
('b' < 'd' < 'w' for family D, 'b' < 't' < 'w' for family B), which
makes listings reproducible byte for byte, including under the optional
prefix-partitioned parallel mode.

Counting sweeps walk the same search space in a flattened form: one
layout of the black cells (or domino slots) at a time, then every
white/decorated (or white/black) filling of the remaining cells as a
bitmask. Each member is still visited individually; statistics that are
constant across a layout's fillings, such as the weight, are computed
once per layout.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterator, Literal, Optional

from .arrangements import (
    DominoArrangement,
    SignClass,
    SquareArrangement,
    _plus_b,
    _plus_d,
    _weight_b,
    decode_domino,
    decode_square,
)
from .errors import RangeError, SizeLimitExceeded

Family = Literal["D", "B"]

DEFAULT_MAX_CELLS_D = 24
DEFAULT_MAX_CELLS_B = 16
ENV_MAX_CELLS = "LASTSQ_MAX_CELLS"


class WeightParity(Enum):
    """Parity of the weight statistic. The enum value is the residue mod 2."""

    EVEN = 0
    ODD = 1


class StratumKind(Enum):
    """Classifying statistic for stratify().

    LAST_DECORATED, LAST_BLACK and NON_WHITE partition the plus class;
    WEIGHT partitions all of family B by even weight values.
    """

    LAST_DECORATED = "last-decorated"
    LAST_BLACK = "last-black"
    NON_WHITE = "non-white"
    WEIGHT = "weight"


@dataclass(frozen=True)
class ClassFilter:
    """Membership filter over sign class and weight.

    Weight constraints apply to family B only; family D has no weight
    statistic and rejects such filters with ValueError.
    """

    sign: Optional[SignClass] = None
    weight_parity: Optional[WeightParity] = None
    exact_weight: Optional[int] = None

    def __post_init__(self) -> None:
        if self.exact_weight is not None:
            if self.exact_weight < 0:
                raise ValueError("exact_weight must be nonnegative")
            if (
                self.weight_parity is not None
                and self.exact_weight % 2 != self.weight_parity.value
            ):
                raise ValueError("exact_weight and weight_parity are inconsistent")

    @property
    def constrains_weight(self) -> bool:
        return self.weight_parity is not None or self.exact_weight is not None

    def admits_weight(self, k: int) -> bool:
        if self.exact_weight is not None and k != self.exact_weight:
            return False
        if self.weight_parity is not None and k % 2 != self.weight_parity.value:
            return False
        return True

    def admits_plus(self, plus: bool) -> bool:
        if self.sign is None:
            return True
        return plus == (self.sign is SignClass.PLUS)

    def _admits_b_encoding(self, enc: str) -> bool:
        if not self.admits_plus(_plus_b(enc)):
            return False
        if self.constrains_weight and not self.admits_weight(_weight_b(enc)):
            return False
        return True

    def _admits_d_encoding(self, enc: str) -> bool:
        return self.admits_plus(_plus_d(enc))


def _validate_b(n: int, r: int) -> None:
    if n < 1 or r < 0 or r > n - 1:
        raise RangeError(f"family B needs n >= 1 and 0 <= r <= n-1, got n={n} r={r}")


def _validate_d(m: int, r: int) -> None:
    if m < 1 or r < 0 or 2 * r > m - 1:
        raise RangeError(f"family D needs m >= 1 and 0 <= 2r <= m-1, got m={m} r={r}")


def _env_max_cells() -> Optional[int]:
    """The size guard set by the environment, or None when unset."""
    env = os.environ.get(ENV_MAX_CELLS)
    if not env:
        return None
    try:
        limit = int(env)
    except ValueError:
        limit = 0  # rejected below, with the non-positive values
    if limit < 1:
        raise RangeError(f"{ENV_MAX_CELLS} must be a positive integer, got {env!r}")
    return limit


def _check_guard(cells: int, default: int, max_cells: Optional[int]) -> None:
    limit = max_cells
    if limit is None:
        limit = _env_max_cells() or default
    if cells > limit:
        raise SizeLimitExceeded(
            f"board of {cells} cells exceeds the size guard of {limit}; "
            f"raise it via max_cells or the {ENV_MAX_CELLS} environment variable"
        )


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise RangeError(f"jobs must be at least 1, got {jobs}")


def _reject_d_weight_filter(filt: Optional[ClassFilter]) -> None:
    if filt is not None and filt.constrains_weight:
        raise ValueError("weight filters apply to family B only")


# ---------------------------------------------------------------------------
# Lexicographic generators. Iterative stacks instead of nested generators
# keep the per-item overhead flat; entries are pushed in reverse character
# order so that pops emerge in lexicographic order.
# ---------------------------------------------------------------------------


def _b_encodings(n: int, r: int, prefix: str = "") -> Iterator[str]:
    """Family-B encodings with n cells and r black cells extending prefix."""
    stack = [(prefix, r - prefix.count("b"))]
    while stack:
        s, bl = stack.pop()
        pos = len(s)
        if pos == n:
            if bl == 0:
                yield s
            continue
        cap = n - 2 - pos  # positions after pos that may still hold a black cell
        if cap < 0:
            cap = 0
        if bl <= cap:
            stack.append((s + "w", bl))
            stack.append((s + "t", bl))
        if bl > 0 and pos <= n - 2 and bl - 1 <= n - 2 - pos:
            stack.append((s + "b", bl - 1))


def _d_encodings(m: int, r: int, prefix: str = "") -> Iterator[str]:
    """Family-D encodings with m cells and r dominoes extending prefix."""
    if prefix:
        stack = [(prefix, m - len(prefix) - prefix.count("d"), r - prefix.count("d"))]
    else:
        stack = [("b", m - 1, r)]  # the first cell is forced black
    while stack:
        s, left, dl = stack.pop()
        if left <= 0:
            if left == 0 and dl == 0:
                yield s
            continue
        square_ok = dl <= (left - 1) // 2  # remaining dominoes must still fit
        if square_ok:
            stack.append((s + "w", left - 1, dl))
        if dl > 0 and left >= 2 and dl - 1 <= (left - 2) // 2:
            stack.append((s + "d", left - 2, dl - 1))
        if square_ok:
            stack.append((s + "b", left - 1, dl))


def _iter_encodings(
    family: Family, size: int, r: int, filt: Optional[ClassFilter], prefix: str = ""
) -> Iterator[str]:
    if family == "B":
        it = _b_encodings(size, r, prefix)
        if filt is None:
            return it
        return (e for e in it if filt._admits_b_encoding(e))
    it = _d_encodings(size, r, prefix)
    if filt is None:
        return it
    return (e for e in it if filt._admits_d_encoding(e))


# ---------------------------------------------------------------------------
# Layout sweeps. A layout fixes the black cells (family B) or the domino
# slots (family D); the remaining cells form a bitmask of fillings. For
# family B a set bit means a decorated cell, for family D a white square.
# ---------------------------------------------------------------------------


def _run_weight(blacks: tuple[int, ...], n: int) -> int:
    """Weight shared by every filling of a black-cell layout (0-based cells)."""
    k = 0
    i = len(blacks) - 1
    pos = n - 2
    while i >= 0 and blacks[i] == pos:
        k += 1
        i -= 1
        pos -= 1
    return k


def _b_layouts(n: int, r: int) -> Iterator[tuple[int, int, list[int], int]]:
    """Yield (weight, last_black, nonblack_cells, suffix_mask) per layout.

    Cells are 0-based; last_black is -1 when r = 0. Bit j of a filling
    refers to nonblack_cells[j], so suffix_mask selects exactly the cells
    right of the last black cell and a filling is plus-class iff it
    intersects suffix_mask.
    """
    q = n - r
    for blacks in combinations(range(n - 1), r):
        w0 = _run_weight(blacks, n)
        lb = blacks[-1] if blacks else -1
        s = n - 1 - lb
        smask = ((1 << s) - 1) << (q - s)
        bset = set(blacks)
        nonblack = [c for c in range(n) if c not in bset]
        yield w0, lb, nonblack, smask


def _count_b(n: int, r: int, filt: Optional[ClassFilter]) -> int:
    q = n - r
    sign = None if filt is None else filt.sign
    weighted = filt is not None and filt.constrains_weight
    total = 0
    for w0, _, _, smask in _b_layouts(n, r):
        if weighted and not filt.admits_weight(w0):
            continue  # every filling of this layout has weight w0
        if sign is None:
            total += 1 << q
        elif sign is SignClass.PLUS:
            total += sum(1 for f in range(1 << q) if f & smask)
        else:
            total += sum(1 for f in range(1 << q) if not f & smask)
    return total


def _d_layouts(m: int, r: int) -> Iterator[int]:
    """Yield the suffix mask of each domino-slot layout of family D.

    Tile slots 1 .. m-r-1 follow the forced first black square; bit j of
    a filling refers to the j-th free square from the left, and a filling
    is plus-class iff it intersects the mask (set bit = white square).
    """
    tiles = m - r
    q = m - 1 - 2 * r
    for doms in combinations(range(tiles - 1), r):
        ld = doms[-1] if doms else -1
        s = tiles - 2 - ld  # free squares right of the last domino
        yield ((1 << s) - 1) << (q - s)


def _count_d(m: int, r: int, filt: Optional[ClassFilter]) -> int:
    q = m - 1 - 2 * r
    sign = None if filt is None else filt.sign
    total = 0
    for smask in _d_layouts(m, r):
        if sign is None:
            total += 1 << q
        elif sign is SignClass.PLUS:
            total += sum(1 for f in range(1 << q) if f & smask)
        else:
            total += sum(1 for f in range(1 << q) if not f & smask)
    return total


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def enumerate_B(
    n: int,
    r: int,
    filt: Optional[ClassFilter] = None,
    *,
    max_cells: Optional[int] = None,
) -> Iterator[SquareArrangement]:
    """All family-B arrangements with n cells and r black cells.

    Yields arrangements passing the filter, in lexicographic encoding
    order, without duplicates. Raises RangeError for impossible (n, r)
    and SizeLimitExceeded beyond the size guard.
    """
    _validate_b(n, r)
    _check_guard(n, DEFAULT_MAX_CELLS_B, max_cells)
    return (decode_square(e) for e in _iter_encodings("B", n, r, filt))


def enumerate_D(
    m: int,
    r: int,
    filt: Optional[ClassFilter] = None,
    *,
    max_cells: Optional[int] = None,
) -> Iterator[DominoArrangement]:
    """All family-D arrangements with m cells and r dominoes.

    Yields arrangements passing the filter, in lexicographic encoding
    order, without duplicates. Raises RangeError for impossible (m, r),
    SizeLimitExceeded beyond the size guard, and ValueError for filters
    with weight constraints, which do not apply to this family.
    """
    _validate_d(m, r)
    _check_guard(m, DEFAULT_MAX_CELLS_D, max_cells)
    _reject_d_weight_filter(filt)
    return (decode_domino(e) for e in _iter_encodings("D", m, r, filt))


def count(
    family: Family,
    size: int,
    r: int,
    filt: Optional[ClassFilter] = None,
    *,
    jobs: int = 1,
    max_cells: Optional[int] = None,
) -> int:
    """Number of arrangements the corresponding enumeration would yield.

    jobs must be at least 1; RangeError otherwise.
    """
    _check_jobs(jobs)
    if family == "B":
        _validate_b(size, r)
        _check_guard(size, DEFAULT_MAX_CELLS_B, max_cells)
        if jobs > 1:
            return _parallel_count(family, size, r, filt, jobs)
        return _count_b(size, r, filt)
    if family == "D":
        _validate_d(size, r)
        _check_guard(size, DEFAULT_MAX_CELLS_D, max_cells)
        _reject_d_weight_filter(filt)
        if jobs > 1:
            return _parallel_count(family, size, r, filt, jobs)
        return _count_d(size, r, filt)
    raise ValueError(f"unknown family {family!r}, expected 'D' or 'B'")


def stratify(
    n: int, r: int, kind: StratumKind, *, max_cells: Optional[int] = None
) -> dict[int, int]:
    """Census of family B under one classifying statistic.

    LAST_DECORATED: plus class by the 1-based cell of the last decorated
    square; keys r+1 .. n. LAST_BLACK: plus class by j = n - (cell of the
    last black square); keys 1 .. n-r, defined for r >= 1 only. NON_WHITE:
    plus class by the number of non-white cells; keys r+1 .. n. WEIGHT:
    all of family B by even weight values; keys 0, 2, .., members of odd
    weight belong to no stratum.

    The values of each plus-class census sum to the plus-class count.
    """
    _validate_b(n, r)
    _check_guard(n, DEFAULT_MAX_CELLS_B, max_cells)
    q = n - r
    if kind is StratumKind.WEIGHT:
        strata = {k: 0 for k in range(0, r + 1, 2)}
        for w0, _, _, _ in _b_layouts(n, r):
            if w0 % 2 == 0:
                strata[w0] += 1 << q  # every filling shares the layout's weight
        return strata
    if kind is StratumKind.LAST_BLACK:
        if r == 0:
            raise RangeError(
                "last-black stratification requires r >= 1; "
                "with r = 0 there is no last black cell"
            )
        strata = {j: 0 for j in range(1, n - r + 1)}
        for _, lb, _, smask in _b_layouts(n, r):
            strata[n - 1 - lb] += sum(1 for f in range(1 << q) if f & smask)
        return strata
    if kind is StratumKind.LAST_DECORATED:
        strata = {j: 0 for j in range(r + 1, n + 1)}
        for _, _, nonblack, smask in _b_layouts(n, r):
            for f in range(1 << q):
                if f & smask:
                    strata[nonblack[f.bit_length() - 1] + 1] += 1
        return strata
    if kind is StratumKind.NON_WHITE:
        strata = {j: 0 for j in range(r + 1, n + 1)}
        for _, _, _, smask in _b_layouts(n, r):
            for f in range(1 << q):
                if f & smask:
                    strata[r + f.bit_count()] += 1
        return strata
    raise ValueError(f"unknown stratum kind {kind!r}")


# ---------------------------------------------------------------------------
# Listing, with optional prefix-partitioned parallelism. Splitting the
# search space on encoding prefixes and concatenating worker results in
# prefix order reproduces the sequential lexicographic output exactly.
# ---------------------------------------------------------------------------


def _b_prefixes(n: int, r: int, depth: int) -> list[str]:
    out = [""]
    for _ in range(depth):
        nxt = []
        for p in out:
            pos = len(p)
            bl = r - p.count("b")
            cap = n - 2 - pos
            if cap < 0:
                cap = 0
            if bl > 0 and pos <= n - 2 and bl - 1 <= n - 2 - pos:
                nxt.append(p + "b")
            if bl <= cap:
                nxt.append(p + "t")
                nxt.append(p + "w")
        out = nxt
    return out


def _d_prefixes(m: int, r: int, depth: int) -> list[str]:
    out = [("b", m - 1, r)]
    for _ in range(depth - 1):
        nxt = []
        for s, left, dl in out:
            if left == 0:
                nxt.append((s, left, dl))  # complete string, keep as its own task
                continue
            square_ok = dl <= (left - 1) // 2
            if square_ok:
                nxt.append((s + "b", left - 1, dl))
            if dl > 0 and left >= 2 and dl - 1 <= (left - 2) // 2:
                nxt.append((s + "d", left - 2, dl - 1))
            if square_ok:
                nxt.append((s + "w", left - 1, dl))
        out = nxt
    return [s for s, _, _ in out]


def _prefix_tasks(
    family: Family, size: int, r: int, filt: Optional[ClassFilter]
) -> list[tuple[Family, int, int, Optional[ClassFilter], str]]:
    if family == "B":
        prefixes = _b_prefixes(size, r, min(2, size))
    else:
        prefixes = _d_prefixes(size, r, min(2, size - r))
    return [(family, size, r, filt, p) for p in prefixes]


def _list_worker(task: tuple) -> list[str]:
    family, size, r, filt, prefix = task
    return list(_iter_encodings(family, size, r, filt, prefix))


def _count_worker(task: tuple) -> int:
    family, size, r, filt, prefix = task
    return sum(1 for _ in _iter_encodings(family, size, r, filt, prefix))


def _parallel_count(
    family: Family, size: int, r: int, filt: Optional[ClassFilter], jobs: int
) -> int:
    tasks = _prefix_tasks(family, size, r, filt)
    with multiprocessing.Pool(processes=jobs) as pool:
        return sum(pool.map(_count_worker, tasks))


def list_encodings(
    family: Family,
    size: int,
    r: int,
    filt: Optional[ClassFilter] = None,
    *,
    jobs: int = 1,
    max_cells: Optional[int] = None,
) -> list[str]:
    """Canonical encodings of the enumeration, in lexicographic order.

    With jobs > 1 the prefix space is split across worker processes; the
    merged output is identical to the sequential one. jobs must be at
    least 1; RangeError otherwise.
    """
    _check_jobs(jobs)
    if family == "B":
        _validate_b(size, r)
        _check_guard(size, DEFAULT_MAX_CELLS_B, max_cells)
    elif family == "D":
        _validate_d(size, r)
        _check_guard(size, DEFAULT_MAX_CELLS_D, max_cells)
        _reject_d_weight_filter(filt)
    else:
        raise ValueError(f"unknown family {family!r}, expected 'D' or 'B'")
    if jobs == 1:
        return list(_iter_encodings(family, size, r, filt))
    tasks = _prefix_tasks(family, size, r, filt)
    with multiprocessing.Pool(processes=jobs) as pool:
        chunks = pool.map(_list_worker, tasks)
    out: list[str] = []
    for chunk in chunks:
        out.extend(chunk)
    return out
