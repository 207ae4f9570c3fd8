"""Exhaustive generation and counting of both arrangement families.

This module is the trusted oracle of the package. Every arrangement is
constructed explicitly (never by filtering all 3**n cell strings) and
classified individually. There are deliberately no transfer-matrix or
dynamic-programming counting tricks here; closed forms live in
`formulas` and are checked against these counts, never substituted for
them.

Counting, stratifying, listing and the lazy enumerators share one
layout sweep: one layout of the black cells (or domino slots) at a time,
then every filling of the remaining cells, each tested on its own;
values constant across a layout's fillings, such as the weight, are
computed once per layout. Listing and enumerating build one run per
layout with `itertools.product`: the layout's members in encoding
order. With jobs > 1 the layouts of a count or a listing are split
across worker processes by their first black cell (or domino slot).

Output is in lexicographic order of the canonical encoding ('b' < 'd' <
'w' for family D, 'b' < 't' < 'w' for family B). A listing sorts the
runs' members once at the end, so it is byte-identical for any number of
jobs; the lazy enumerators merge the runs with `heapq.merge`.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations, compress, product, repeat
from operator import and_, not_
from typing import Callable, Collection, Iterator, Literal, Optional

from .arrangements import (
    DominoArrangement,
    SignClass,
    SquareArrangement,
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
    statistic and rejects such filters with RangeError. An inconsistent
    filter raises RangeError.
    """

    sign: Optional[SignClass] = None
    weight_parity: Optional[WeightParity] = None
    exact_weight: Optional[int] = None

    def __post_init__(self) -> None:
        if self.exact_weight is not None:
            if self.exact_weight < 0:
                raise RangeError("exact_weight must be nonnegative")
            if (
                self.weight_parity is not None
                and self.exact_weight % 2 != self.weight_parity.value
            ):
                raise RangeError("exact_weight and weight_parity are inconsistent")

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
            cells, limit, f"max_cells or the {ENV_MAX_CELLS} environment variable"
        )


def _check_call(
    family: Family,
    size: int,
    r: int,
    filt: Optional[ClassFilter],
    max_cells: Optional[int],
) -> None:
    """The checks of every public entry point.

    Rejects an impossible (size, r), a board beyond the size guard, an
    unknown family and, for family D, a filter with weight constraints.
    """
    if family == "B":
        if size < 1 or r < 0 or r > size - 1:
            raise RangeError(
                f"family B needs n >= 1 and 0 <= r <= n-1, got n={size} r={r}"
            )
        _check_guard(size, DEFAULT_MAX_CELLS_B, max_cells)
    elif family == "D":
        if size < 1 or r < 0 or 2 * r > size - 1:
            raise RangeError(
                f"family D needs m >= 1 and 0 <= 2r <= m-1, got m={size} r={r}"
            )
        _check_guard(size, DEFAULT_MAX_CELLS_D, max_cells)
        if filt is not None and filt.constrains_weight:
            raise RangeError("weight filters apply to family B only")
    else:
        raise RangeError(f"unknown family {family!r}, expected 'D' or 'B'")


# ---------------------------------------------------------------------------
# Layout sweeps. A layout fixes the black cells (family B) or the domino
# slots (family D); the remaining cells form a bitmask of fillings. For
# family B a set bit means a decorated cell, for family D a white square.
# With first given, a sweep covers only the layouts whose first black
# cell (domino slot) is first: the unit of work of a parallel sweep.
# ---------------------------------------------------------------------------

_B_FREE = ("t", "w")  # a non-black cell: decorated (set bit) or white
_D_FREE = ("b", "w")  # a free square: black or white (set bit)


def _combos(k: int, r: int, first: Optional[int]) -> Iterator[tuple[int, ...]]:
    """r-subsets of range(k) in lexicographic order, all or those starting at first."""
    if first is None:
        return combinations(range(k), r)
    return ((first,) + rest for rest in combinations(range(first + 1, k), r - 1))


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


def _b_layouts(
    n: int, r: int, first: Optional[int] = None
) -> Iterator[tuple[int, int, list[int], int]]:
    """Yield (weight, last_black, nonblack_cells, suffix_mask) per layout.

    Cells are 0-based; last_black is -1 when r = 0. Bit j of a filling
    refers to nonblack_cells[j], so suffix_mask selects exactly the cells
    right of the last black cell and a filling is plus-class iff it
    intersects suffix_mask.
    """
    q = n - r
    for blacks in _combos(n - 1, r, first):
        w0 = _run_weight(blacks, n)
        lb = blacks[-1] if blacks else -1
        s = n - 1 - lb
        smask = ((1 << s) - 1) << (q - s)
        bset = set(blacks)
        nonblack = [c for c in range(n) if c not in bset]
        yield w0, lb, nonblack, smask


def _d_layouts(
    m: int, r: int, first: Optional[int] = None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (domino_slots, suffix_mask) per domino-slot layout of family D.

    Tile slots 1 .. m-r-1 follow the forced first black square; a domino
    in slot 0-based i is tile i + 1. Bit j of a filling refers to the
    j-th free square from the left, and a filling is plus-class iff it
    intersects the mask (set bit = white square).
    """
    tiles = m - r
    q = m - 1 - 2 * r
    for doms in _combos(tiles - 1, r, first):
        ld = doms[-1] if doms else -1
        s = tiles - 2 - ld  # free squares right of the last domino
        yield doms, ((1 << s) - 1) << (q - s)


def _tally(q: int, smask: int, sign: Optional[SignClass]) -> int:
    """Number of one layout's q-cell fillings in the sign class."""
    if sign is None:
        return 1 << q
    if sign is SignClass.PLUS:
        return len([f for f in range(1 << q) if f & smask])
    return len([f for f in range(1 << q) if not f & smask])


def _count_b(
    n: int, r: int, filt: Optional[ClassFilter], first: Optional[int] = None
) -> int:
    q = n - r
    sign = None if filt is None else filt.sign
    weighted = filt is not None and filt.constrains_weight
    total = 0
    for w0, _, _, smask in _b_layouts(n, r, first):
        if weighted and not filt.admits_weight(w0):
            continue  # every filling of this layout has weight w0
        total += _tally(q, smask, sign)
    return total


def _count_d(
    m: int, r: int, filt: Optional[ClassFilter], first: Optional[int] = None
) -> int:
    q = m - 1 - 2 * r
    sign = None if filt is None else filt.sign
    return sum(_tally(q, smask, sign) for _, smask in _d_layouts(m, r, first))


def _keep(
    members: Iterator[str], fillings: range, low: int, sign: Optional[SignClass]
) -> Iterator[str]:
    """The members of one layout in the sign class, each tested by its filling.

    fillings gives the members' fillings in product() order, read from
    the right: product() varies the rightmost free cell fastest, so bit j
    of the index is the j-th free cell from the right. low selects the
    cells right of the last black cell (domino); a member is plus-class
    iff its filling intersects low.
    """
    if sign is None:
        return members
    tails = map(and_, fillings, repeat(low))
    if sign is SignClass.PLUS:
        return compress(members, tails)
    return compress(members, map(not_, tails))


def _b_runs(
    n: int, r: int, filt: Optional[ClassFilter], first: Optional[int] = None
) -> Iterator[Iterator[str]]:
    """One run per layout of B(n, r): its members passing filt, in encoding order."""
    q = n - r
    sign = None if filt is None else filt.sign
    weighted = filt is not None and filt.constrains_weight
    # product() takes 't' (set bit) before 'w', so the member at index i
    # has the q-bit complement of i as its filling
    fillings = range((1 << q) - 1, -1, -1)
    for w0, _, nonblack, smask in _b_layouts(n, r, first):
        if weighted and not filt.admits_weight(w0):
            continue  # every filling of this layout has weight w0
        choices = [("b",)] * n
        for c in nonblack:
            choices[c] = _B_FREE
        low = (1 << smask.bit_count()) - 1
        yield _keep(map("".join, product(*choices)), fillings, low, sign)


def _d_runs(
    m: int, r: int, filt: Optional[ClassFilter], first: Optional[int] = None
) -> Iterator[Iterator[str]]:
    """One run per layout of D(m, r): its members passing filt, in encoding order."""
    q = m - 1 - 2 * r
    sign = None if filt is None else filt.sign
    fillings = range(1 << q)  # 'b' before 'w' (set bit): the member at index i has filling i
    for doms, smask in _d_layouts(m, r, first):
        choices = [("b",)] + [_D_FREE] * (m - r - 1)
        for i in doms:
            choices[i + 1] = ("d",)
        low = (1 << smask.bit_count()) - 1
        yield _keep(map("".join, product(*choices)), fillings, low, sign)


def _list_b(
    n: int, r: int, filt: Optional[ClassFilter], first: Optional[int] = None
) -> list[str]:
    """Members of B(n, r) passing filt, layout by layout (unsorted)."""
    return list(chain.from_iterable(_b_runs(n, r, filt, first)))


def _list_d(
    m: int, r: int, filt: Optional[ClassFilter], first: Optional[int] = None
) -> list[str]:
    """Members of D(m, r) passing filt, layout by layout (unsorted)."""
    return list(chain.from_iterable(_d_runs(m, r, filt, first)))


def _b_strata(
    n: int, r: int, kinds: Collection[StratumKind]
) -> dict[StratumKind, dict[int, int]]:
    """One sweep of B(n, r) taking the censuses of the requested kinds.

    Each plus-class member is tallied into lists indexed by the bit
    length of its filling (the last decorated cell) and its bit count
    (decorated cells); the weight census is taken per layout, since every
    filling of a layout shares its weight.
    """
    q = n - r
    by_weight = [0] * (r + 1)
    by_last_black = [0] * (n + 1)
    by_last_dec = [0] * (n + 1)
    by_decorated = [0] * (q + 1)
    plus_kinds = set(kinds) - {StratumKind.WEIGHT}
    for w0, lb, nonblack, smask in _b_layouts(n, r):
        by_weight[w0] += 1 << q
        if not plus_kinds:
            continue
        plus = [f for f in range(1 << q) if f & smask]
        by_last_black[n - 1 - lb] += len(plus)
        if StratumKind.LAST_DECORATED in plus_kinds:
            by_len = [0] * (q + 1)
            for f in plus:
                by_len[f.bit_length()] += 1
            for c, k in zip(nonblack, by_len[1:]):
                by_last_dec[c + 1] += k
        if StratumKind.NON_WHITE in plus_kinds:
            for f in plus:
                by_decorated[f.bit_count()] += 1
    census = {
        StratumKind.WEIGHT: {k: by_weight[k] for k in range(0, r + 1, 2)},
        StratumKind.LAST_BLACK: {j: by_last_black[j] for j in range(1, q + 1)},
        StratumKind.LAST_DECORATED: {j: by_last_dec[j] for j in range(r + 1, n + 1)},
        StratumKind.NON_WHITE: {j: by_decorated[j - r] for j in range(r + 1, n + 1)},
    }
    return {kind: census[kind] for kind in kinds}


# ---------------------------------------------------------------------------
# The parallel path. A task sweeps the layouts with one first black cell
# (domino slot); at r = 0 there is a single layout and a single task.
# ---------------------------------------------------------------------------


def _layout_firsts(family: Family, size: int, r: int) -> list[Optional[int]]:
    """The first black cell (domino slot) of each task of a parallel sweep."""
    if r == 0:
        return [None]
    positions = size - 1 if family == "B" else size - r - 1
    return list(range(positions - r + 1))


def _pool_size(jobs: int, tasks: int) -> int:
    return min(jobs, tasks, os.cpu_count() or 1)


def _sweep(
    family: Family,
    size: int,
    r: int,
    filt: Optional[ClassFilter],
    jobs: int,
    max_cells: Optional[int],
    sweeps: tuple[Callable, Callable],
) -> list:
    """Check a call, then run its family's sweep (sweeps: B, D) over all layouts.

    Returns the sweep's result per task: one for the whole family when
    the pool would have a single worker, else one per first black cell
    (domino slot), in task order.
    """
    if jobs < 1:
        raise RangeError(f"jobs must be at least 1, got {jobs}")
    _check_call(family, size, r, filt, max_cells)
    sweep = sweeps[0] if family == "B" else sweeps[1]
    firsts = _layout_firsts(family, size, r)
    workers = _pool_size(jobs, len(firsts))
    if workers == 1:
        return [sweep(size, r, filt)]
    with multiprocessing.Pool(processes=workers) as pool:
        return pool.starmap(sweep, [(size, r, filt, first) for first in firsts])


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
    order, without duplicates: the merge of the per-layout runs. Raises
    RangeError for impossible (n, r) and SizeLimitExceeded beyond the
    size guard.
    """
    _check_call("B", n, r, filt, max_cells)
    return map(decode_square, heapq.merge(*_b_runs(n, r, filt)))


def enumerate_D(
    m: int,
    r: int,
    filt: Optional[ClassFilter] = None,
    *,
    max_cells: Optional[int] = None,
) -> Iterator[DominoArrangement]:
    """All family-D arrangements with m cells and r dominoes.

    Yields arrangements passing the filter, in lexicographic encoding
    order, without duplicates: the merge of the per-layout runs. Raises
    RangeError for impossible (m, r) and for filters with weight
    constraints, which do not apply to this family, and
    SizeLimitExceeded beyond the size guard.
    """
    _check_call("D", m, r, filt, max_cells)
    return map(decode_domino, heapq.merge(*_d_runs(m, r, filt)))


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

    With jobs > 1 the layouts are split across at most
    min(jobs, tasks, cpu count) worker processes. jobs must be at least
    1; RangeError otherwise.
    """
    return sum(_sweep(family, size, r, filt, jobs, max_cells, (_count_b, _count_d)))


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
    _check_call("B", n, r, None, max_cells)
    if not isinstance(kind, StratumKind):
        raise RangeError(f"unknown stratum kind {kind!r}")
    if kind is StratumKind.LAST_BLACK and r == 0:
        raise RangeError(
            "last-black stratification requires r >= 1; "
            "with r = 0 there is no last black cell"
        )
    return _b_strata(n, r, (kind,))[kind]


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

    Members are built layout by layout and sorted once. With jobs > 1
    the layouts are split across at most min(jobs, tasks, cpu count)
    worker processes; the output is identical to the sequential one.
    jobs must be at least 1; RangeError otherwise.
    """
    chunks = _sweep(family, size, r, filt, jobs, max_cells, (_list_b, _list_d))
    return sorted(chain.from_iterable(chunks))
