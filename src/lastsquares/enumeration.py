"""Exhaustive generation and counting of both arrangement families.

This module is the trusted oracle of the package. Every arrangement is
constructed explicitly (never by filtering all 3**n cell strings) and
classified individually. There are deliberately no transfer-matrix or
dynamic-programming counting tricks here; closed forms live in
`formulas` and are checked against these counts, never substituted for
them.

Both families are built the same way, from one record per family
(`_FAMILIES`): r forced tiles (black cells in B, dominoes in D) fill r
of the slots after the fixed lead tiles, and every other position holds
one of two free tiles; the sign is read from the free positions right
of the last forced tile. Counting, stratifying, listing and the lazy
enumerators share one layout sweep over the record: one layout of the
forced slots at a time, then every filling of the free positions, each
tested on its own; values constant across a layout's fillings, such as
the weight, are computed once per layout. Every sweep runs in the
calling process.

Output is in lexicographic order of the canonical encoding ('b' < 'd' <
'w' for family D, 'b' < 't' < 'w' for family B). Listing and enumerating
read one lazy path: `itertools.product` builds each layout's members in
that order, and layouts are split on their next tile, taken in tile
order, until each group is small enough to sort on its own.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations, compress, product, repeat
from operator import and_, not_
from typing import Collection, Iterator, Literal, NamedTuple, Optional

from .arrangements import (
    DominoArrangement,
    SignClass,
    SquareArrangement,
    decode_domino,
    decode_square,
)
from .errors import ENV_MAX_CELLS, RangeError, SizeLimitExceeded

Family = Literal["D", "B"]

DEFAULT_MAX_CELLS_D = 24
DEFAULT_MAX_CELLS_B = 16


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
    statistic and rejects such filters with RangeError. A field of the
    wrong type, or an inconsistent filter, raises RangeError.
    """

    sign: Optional[SignClass] = None
    weight_parity: Optional[WeightParity] = None
    exact_weight: Optional[int] = None

    def __post_init__(self) -> None:
        if self.sign is not None and not isinstance(self.sign, SignClass):
            raise RangeError(f"sign must be a SignClass or None, got {self.sign!r}")
        if self.weight_parity is not None and not isinstance(self.weight_parity, WeightParity):
            raise RangeError(f"weight_parity must be a WeightParity or None, got {self.weight_parity!r}")
        if self.exact_weight is not None:
            if not isinstance(self.exact_weight, int) or isinstance(self.exact_weight, bool):
                raise RangeError(f"exact_weight must be an int or None, got {self.exact_weight!r}")
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


def _check_ints(**values: object) -> None:
    """Reject, by its name, a value that is not an int or is a bool."""
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise RangeError(f"{name} must be an int, got {value!r}")


def _check_guard(cells: int, default: int) -> None:
    """Reject a board of more cells than the guard: ENV_MAX_CELLS if set, else default.

    The variable must hold a positive integer in ASCII digits.
    """
    limit = default
    env = os.environ.get(ENV_MAX_CELLS)
    if env is not None:  # set but empty is an error too
        try:
            limit = int(env) if env.isascii() and env.isdigit() else 0
        except ValueError:  # more digits than int() converts
            limit = 0
        if limit < 1:
            raise RangeError(f"{ENV_MAX_CELLS} must be a positive integer, got {env!r}")
    if cells > limit:
        raise SizeLimitExceeded(cells, limit)


class _Family(NamedTuple):
    """How the members of one family are built.

    A member is the lead tiles, then tile positions: r of the first
    slots hold the forced tile and every other position, the trailing
    ones included, holds one of the two free tiles.
    """

    lead: str  # fixed lead tiles, one character each
    forced: str  # the forced tile
    width: int  # cells covered by the forced tile
    free: tuple[str, str]  # the free tiles in encoding order
    plus: int  # index in free of the plus tile: a set bit of a filling
    trail: int  # trailing free cells, after the slots
    max_cells: int  # default size guard
    weights: bool  # whether weight filters apply
    message: str  # range error, formatted with size and r

    def slots(self, size: int, r: int) -> int:
        """Positions open to the forced tiles of a board of size cells."""
        return size - len(self.lead) - self.trail - (self.width - 1) * r


_FAMILIES = {
    "B": _Family(
        "", "b", 1, ("t", "w"), 0, 1, DEFAULT_MAX_CELLS_B, True,
        "family B needs n >= 1 and 0 <= r <= n-1, got n={size} r={r}",
    ),
    "D": _Family(
        "b", "d", 2, ("b", "w"), 1, 0, DEFAULT_MAX_CELLS_D, False,
        "family D needs m >= 1 and 0 <= 2r <= m-1, got m={size} r={r}",
    ),
}


def _check_call(family: Family, size: int, r: int, filt: Optional[ClassFilter]) -> _Family:
    """The checks of every public entry point; returns the family's record.

    Rejects an unknown family, a size or r that is not an int, an
    impossible (size, r), a board beyond the size guard, a filter that is
    not a ClassFilter and, for a family without weights, a filter with
    weight constraints.
    """
    if not isinstance(family, str) or family not in _FAMILIES:
        raise RangeError(f"unknown family {family!r}, expected 'D' or 'B'")
    fam = _FAMILIES[family]
    _check_ints(size=size, r=r)
    if not 0 <= r <= fam.slots(size, r):
        raise RangeError(fam.message.format(size=size, r=r))
    _check_guard(size, fam.max_cells)
    if filt is not None and not isinstance(filt, ClassFilter):
        raise RangeError(f"filt must be a ClassFilter or None, got {filt!r}")
    if not fam.weights and filt is not None and filt.constrains_weight:
        raise RangeError("weight filters apply to family B only")
    return fam


# ---------------------------------------------------------------------------
# Layout sweeps. A layout fixes the forced slots: the black cells of family
# B, the domino slots of family D. The q free positions form a bitmask of
# fillings, bit j for the j-th free position from the left, a set bit for
# the plus tile (decorated in B, white in D).
# ---------------------------------------------------------------------------


def _layouts(
    fam: _Family, size: int, r: int, filt: Optional[ClassFilter] = None
) -> Iterator[tuple[int, list[int], int]]:
    """Yield (weight, free_positions, suffix_mask) per layout whose weight filt admits.

    Positions are 0-based and follow the lead; in family B they are the
    cells. The weight is the run of forced slots ending at the last slot,
    shared by every filling of the layout. suffix_mask selects the free
    positions right of the last forced slot, so a filling is plus-class
    iff it intersects suffix_mask.
    """
    slots = fam.slots(size, r)
    q = slots + fam.trail - r
    weighted = filt is not None and filt.constrains_weight
    for forced in combinations(range(slots), r):
        w = 0
        while w < r and forced[r - 1 - w] == slots - 1 - w:
            w += 1
        if weighted and not filt.admits_weight(w):
            continue
        s = q + r - 1 - (forced[-1] if forced else -1)
        taken = set(forced)
        free = [c for c in range(q + r) if c not in taken]
        yield w, free, ((1 << s) - 1) << (q - s)


def _signed(fillings: range, smask: int, plus: bool) -> list[int]:
    """The fillings of one layout in the plus class, or else the minus class.

    A filling is plus-class iff it intersects smask, the free cells right
    of the last forced tile.
    """
    if plus:
        return [f for f in fillings if f & smask]
    return [f for f in fillings if not f & smask]


def _count(fam: _Family, size: int, r: int, filt: Optional[ClassFilter]) -> int:
    sign = None if filt is None else filt.sign
    layouts = _layouts(fam, size, r, filt)
    if sign is None:
        return sum(1 << len(free) for _, free, _ in layouts)
    plus = sign is SignClass.PLUS
    total = 0
    for _, free, smask in layouts:
        end = 1 << len(free)
        if end <= _BUCKET:  # one block without the loop, which would cost small layouts ~5%
            total += len(_signed(range(end), smask, plus))
            continue
        for low in range(0, end, _BUCKET):
            total += len(_signed(range(low, min(low + _BUCKET, end)), smask, plus))
    return total


_BUCKET = 2**15  # the most fillings that _ordered sorts, or _count holds, at once
# A slice of a layout's run: the tile options of each position, the lead
# included, whose product() is its members in encoding order; their fillings
# in that order; and the mask of the cells right of the last forced tile.
_Slice = tuple[list[tuple[str, ...]], range, int]


def _keep(
    tiles: list[tuple[str, ...]], fillings: range, low: int, sign: Optional[SignClass]
) -> Iterator[str]:
    """The members of one slice in the sign class, each tested by its filling.

    A filling is read from the right: product() varies the rightmost free
    cell fastest, so bit j of the index is the j-th free cell from the
    right. A member is plus-class iff its filling intersects low.
    """
    members = map("".join, product(*tiles))
    if sign is None:
        return members
    tails = map(and_, fillings, repeat(low))
    if sign is SignClass.PLUS:
        return compress(members, tails)
    return compress(members, map(not_, tails))


def _ordered(slices: list[_Slice], depth: int, sign: Optional[SignClass]) -> Iterator[list[str]]:
    """The members of slices whose tiles agree before depth, in sorted buckets.

    More than _BUCKET fillings are split on the tile at depth: each slice's
    fillings are cut into one part per tile option, taken in tile order.
    """
    if sum(len(fillings) for _, fillings, _ in slices) <= _BUCKET:
        yield sorted(chain.from_iterable(_keep(*piece, sign) for piece in slices))
        return
    groups: dict[str, list[_Slice]] = {}
    for tiles, fillings, low in slices:
        part = len(fillings) // len(tiles[depth])
        for i, t in enumerate(tiles[depth]):
            fixed = tiles[:depth] + [(t,)] + tiles[depth + 1:]
            groups.setdefault(t, []).append((fixed, fillings[i * part:(i + 1) * part], low))
    for t in sorted(groups):
        yield from _ordered(groups[t], depth + 1, sign)


def _listing(family: Family, size: int, r: int, filt: Optional[ClassFilter]) -> Iterator[str]:
    """The encodings of the call in encoding order, lazily; the call is checked at once."""
    fam = _check_call(family, size, r, filt)
    runs = []  # one slice per layout, its whole run
    for _, free, smask in _layouts(fam, size, r, filt):
        q = len(free)
        # product() takes the free tiles in encoding order: the member at
        # index i has filling i when the plus tile comes second, else its
        # q-bit complement
        fillings = range(1 << q) if fam.plus else range((1 << q) - 1, -1, -1)
        tiles = [(t,) for t in fam.lead] + [(fam.forced,)] * (q + r)
        for c in free:
            tiles[len(fam.lead) + c] = fam.free
        runs.append((tiles, fillings, (1 << smask.bit_count()) - 1))
    return chain.from_iterable(_ordered(runs, 0, None if filt is None else filt.sign))


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
    for w0, nonblack, smask in _layouts(_FAMILIES["B"], n, r):
        by_weight[w0] += 1 << q
        if not plus_kinds:
            continue
        plus = _signed(range(1 << q), smask, True)
        by_last_black[smask.bit_count()] += len(plus)
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


def _check_jobs(jobs: int) -> None:
    """Reject jobs below 1. The keyword does nothing, but callers still pass it."""
    if jobs < 1:
        raise RangeError(f"jobs must be at least 1, got {jobs}")


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def enumerate_B(
    n: int,
    r: int,
    filt: Optional[ClassFilter] = None,
) -> Iterator[SquareArrangement]:
    """All family-B arrangements with n cells and r black cells.

    Yields arrangements passing the filter, in lexicographic encoding
    order, without duplicates: the listing's members, decoded as they are
    reached. Raises RangeError for impossible (n, r) and
    SizeLimitExceeded beyond the size guard.
    """
    return map(decode_square, _listing("B", n, r, filt))


def enumerate_D(
    m: int,
    r: int,
    filt: Optional[ClassFilter] = None,
) -> Iterator[DominoArrangement]:
    """All family-D arrangements with m cells and r dominoes.

    Yields arrangements passing the filter, in lexicographic encoding
    order, without duplicates: the listing's members, decoded as they are
    reached. Raises RangeError for impossible (m, r) and for filters with
    weight constraints, which do not apply to this family, and
    SizeLimitExceeded beyond the size guard.
    """
    return map(decode_domino, _listing("D", m, r, filt))


def count(
    family: Family,
    size: int,
    r: int,
    filt: Optional[ClassFilter] = None,
    *,
    jobs: int = 1,
) -> int:
    """Number of arrangements the corresponding enumeration would yield.

    jobs is accepted and checked, RangeError below 1, but has no effect:
    the sweep always runs in this process.
    """
    _check_jobs(jobs)
    return _count(_check_call(family, size, r, filt), size, r, filt)


def stratify(n: int, r: int, kind: StratumKind) -> dict[int, int]:
    """Census of family B under one classifying statistic.

    LAST_DECORATED: plus class by the 1-based cell of the last decorated
    square; keys r+1 .. n. LAST_BLACK: plus class by j = n - (cell of the
    last black square); keys 1 .. n-r, defined for r >= 1 only. NON_WHITE:
    plus class by the number of non-white cells; keys r+1 .. n. WEIGHT:
    all of family B by even weight values; keys 0, 2, .., members of odd
    weight belong to no stratum.

    The values of each plus-class census sum to the plus-class count.
    """
    _check_call("B", n, r, None)
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
) -> list[str]:
    """Canonical encodings of the enumeration, in lexicographic order.

    The list of the one lazy path that the enumerators decode. jobs is
    accepted and checked, RangeError below 1, but has no effect: the
    sweep always runs in this process.
    """
    _check_jobs(jobs)
    return list(_listing(family, size, r, filt))
