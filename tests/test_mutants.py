"""The mutant table: every verification report can fail.

Each row plants one fault with monkeypatch, runs `verify_all` at small
limits and names the reports that must fail: exactly those, no others.
Each mutant counts the calls in which it changed something, and the row
asserts that count before it reads the verdict. That catches a patch
that never runs: `verify._STRATA_SUMMANDS` binds the `terms_*` functions
at import, so a mutant set on `verify.terms_V` is never called and the
suite passes. A row whose patch target does not exist fails, since the
original is looked up before it is wrapped.

| Mutant | Reports that fail |
|---|---|
| `eval_S` one too high at (37, 5) | theorem.formulas, auxiliary.generating_function |
| `eval_T` one too high at (6, 2) | theorem.formulas, strata.even_count |
| one B(7, 3) layout dropped in the lemma sweep | lemma.cardinality |
| one conjugation image off by one cell | lemma.involution |
| the exceptional shape reversed at (7, 3) | lemma.exception |
| `_signed` loses one member | theorem.enumeration, lemma.cardinality, three strata.* |
| `_free` lists the free cells reversed, in `enumeration` only | strata.last_decorated |
| two `terms_V` summands swapped at (8, 3) | strata.last_black |
| one `terms_W` summand off at (8, 4) | strata.weight_even |
| one coefficient of `gf_coefficients` off | auxiliary.generating_function |
| the side identities, one value each | auxiliary.moriarty, .companion, .recurrence, .parity_divisibility |
| one column entry corrupted in the `formulas` store | theorem.formulas |
| `_d_enc_of_board` drops the marks (Prop 1) | none: `verify` never calls it |
| `_transfer_d_to_b` broken (Prop 5) | none: `verify` never calls it |

The last two rows are a known gap, kept in the table so that it shows:
the Prop 1 and Prop 5 maps are exercised by the tier-1 tests of
`bijections`, not by any report of `verify`.
"""

import importlib
import math
from typing import Callable, NamedTuple

import pytest

from lastsquares import Status, cli, formulas, verify, verify_all
from lastsquares.arrangements import decode_domino, encode
from lastsquares.bijections import _CONJUGATE, MarkedColoredBoard, board_to_domino, domino_to_square
from lastsquares.verify import CLAIM_REFS

# Small limits that still reach every mutated point below.
LIMITS = {"m_max": 40, "enum_limit": 8, "n_max": 8}


def wrap(mutate: Callable, *targets: str) -> Callable:
    """A row's patch: the function at each target replaced by mutate(original, hit)."""

    def apply(monkeypatch, hit):
        for target in targets:
            module, name = target.rsplit(".", 1)
            original = getattr(importlib.import_module(module), name)
            monkeypatch.setattr(target, mutate(original, hit))

    return apply


def changed_at(point, change=lambda value: value + 1):
    """A mutant that changes the value at the given arguments only, by default one up."""

    def mutate(original, hit):
        def mutant(*args, **keywords):
            value = original(*args, **keywords)
            if (*args, *keywords.values()) != point:
                return value
            hit()
            return change(value)

        return mutant

    return mutate


def drop_one_layout(original, hit):
    def mutant(fam, n, r, *rest):
        layouts = list(original(fam, n, r, *rest))
        if (n, r) == (7, 3):
            hit()
            del layouts[0]
        return iter(layouts)

    return mutant


def image_off_by_one_cell(original, hit):
    seen = []

    def mutant(layout, dec, plus):
        kind, image = original(layout, dec, plus)
        if kind is _CONJUGATE and layout[0] == 6 and not seen:
            seen.append(image)
            hit()
            out_black, out_dec, out_plus = image
            free = ~out_black & ((1 << 6) - 1)
            return kind, (out_black, out_dec ^ (free & -free), out_plus)
        return kind, image

    return mutant


def signed_loses_one(original, hit):
    def mutant(fillings, smask, plus):
        members = original(fillings, smask, plus)
        if (len(fillings), smask, plus) == (16, 0b1000, True):
            hit()
            members = members[:-1]
        return members

    return mutant


def free_reversed(original, hit):
    def mutant(forced, positions):
        free = original(forced, positions)
        if len(free) > 1:
            hit()
        return free[::-1]

    return mutant


def summands_swapped(original, hit):
    def mutant(n, r):
        terms = original(n, r)
        if (n, r) == (8, 3):
            hit()
            terms[1], terms[2] = terms[2], terms[1]
        return terms

    return mutant


def strata_term(name: str, mutate: Callable) -> Callable:
    """A row's patch: one summand function of verify._STRATA_SUMMANDS wrapped."""

    def apply(monkeypatch, hit):
        rows = [
            (label, kind, mutate(terms, hit) if terms.__name__ == name else terms)
            for label, kind, terms in verify._STRATA_SUMMANDS
        ]
        assert any(terms.__name__ == name for _, _, terms in verify._STRATA_SUMMANDS)
        monkeypatch.setattr(verify, "_STRATA_SUMMANDS", tuple(rows))

    return apply


class CountingList(list):
    """A stored table that counts its reads."""

    def __init__(self, entries, hit):
        super().__init__(entries)
        self.hit = hit

    def __iter__(self):
        self.hit()
        return super().__iter__()

    def __getitem__(self, index):
        self.hit()
        return super().__getitem__(index)


def corrupt_column(monkeypatch, hit):
    # C(5 + 27, 5) in the column of r = 5: T and U read it from n = 33 on,
    # within m_max = 40; V (this column at r = 6), S up to m = 60
    # (auxiliary), the strata and the recurrence stop short of it
    column = CountingList([math.comb(5 + k, 5) for k in range(40)], hit)
    column[27] += 1
    monkeypatch.setitem(formulas._TABLES, (formulas._diagonal, 5), column)


def drop_the_marks(original, hit):
    def mutant(m, chosen, marks):
        hit()
        return original(m, chosen, frozenset())

    return mutant


def break_transfer(original, hit):
    def mutant(enc):
        hit()
        return original(enc)[::-1]

    return mutant


class Mutant(NamedTuple):
    label: str
    apply: Callable  # apply(monkeypatch, hit) plants the fault
    killed: frozenset  # the reports that must fail, and no others


MUTANTS = [
    Mutant(
        "eval_S one too high at (37, 5)",
        wrap(changed_at((37, 5)), "lastsquares.verify.eval_S"),
        frozenset({"theorem.formulas", "auxiliary.generating_function"}),
    ),
    Mutant(
        "eval_T one too high at (6, 2)",
        wrap(changed_at((6, 2)), "lastsquares.verify.eval_T"),
        frozenset({"theorem.formulas", "strata.even_count"}),
    ),
    Mutant(
        "one B(7, 3) layout dropped in the lemma sweep",
        wrap(drop_one_layout, "lastsquares.verify._layouts"),
        frozenset({"lemma.cardinality"}),
    ),
    Mutant(
        "one conjugation image off by one cell",
        wrap(image_off_by_one_cell, "lastsquares.verify._conjugate_member"),
        frozenset({"lemma.involution"}),
    ),
    Mutant(
        "the exceptional shape reversed at (7, 3)",
        wrap(changed_at((7, 3, True), lambda enc: enc[::-1]), "lastsquares.verify._epsilon_enc"),
        frozenset({"lemma.exception"}),
    ),
    Mutant(
        "_signed loses one member",
        wrap(signed_loses_one, "lastsquares.enumeration._signed", "lastsquares.verify._signed"),
        frozenset(
            {
                "theorem.enumeration",
                "lemma.cardinality",
                "strata.non_white",
                "strata.last_decorated",
                "strata.last_black",
            }
        ),
    ),
    Mutant(
        "_free lists the free cells reversed",
        wrap(free_reversed, "lastsquares.enumeration._free"),
        frozenset({"strata.last_decorated"}),
    ),
    Mutant(
        "two terms_V summands swapped at (8, 3)",
        strata_term("terms_V", summands_swapped),
        frozenset({"strata.last_black"}),
    ),
    Mutant(
        "one terms_W summand off at (8, 4)",
        strata_term("terms_W", changed_at((8, 4), lambda terms: [terms[0] + 1, *terms[1:]])),
        frozenset({"strata.weight_even"}),
    ),
    Mutant(
        "one coefficient of gf_coefficients off",
        wrap(
            changed_at((3, 40), lambda coeffs: [*coeffs[:20], coeffs[20] + 1, *coeffs[21:]]),
            "lastsquares.verify.gf_coefficients",
        ),
        frozenset({"auxiliary.generating_function"}),
    ),
    Mutant(
        "moriarty's rhs one too high at (10, 2)",
        wrap(changed_at((10, 2), lambda sides: (sides[0], sides[1] + 1)), "lastsquares.verify.moriarty"),
        frozenset({"auxiliary.moriarty"}),
    ),
    Mutant(
        "the companion's rhs one too high at (10, 3)",
        wrap(
            changed_at((10, 3), lambda sides: (sides[0], sides[1] + 1)),
            "lastsquares.verify.companion_identity",
        ),
        frozenset({"auxiliary.companion"}),
    ),
    Mutant(
        "the recurrence residual nonzero at n = 5",
        wrap(changed_at((5,)), "lastsquares.verify.recurrence_residual"),
        frozenset({"auxiliary.recurrence"}),
    ),
    Mutant(
        "S(20, 3) reported even",
        wrap(
            changed_at((20, 3), lambda checks: (False, checks[1])),
            "lastsquares.verify.oddness_and_divisibility",
        ),
        frozenset({"auxiliary.parity_divisibility"}),
    ),
    Mutant(
        "one column entry corrupted in the formulas store",
        corrupt_column,
        frozenset({"theorem.formulas"}),
    ),
]


def failing(reports):
    return {report.check_name for report in reports if report.status is Status.FAIL}


@pytest.fixture
def clean_store():
    # a mutant of the sums must not leave wrong tables behind for later tests
    formulas._TABLES.clear()
    formulas._held_bytes = 0
    yield
    formulas._TABLES.clear()
    formulas._held_bytes = 0


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.label for m in MUTANTS])
def test_mutant_kills_exactly_its_reports(monkeypatch, clean_store, mutant):
    hits = []
    mutant.apply(monkeypatch, lambda: hits.append(1))
    reports = verify_all(**LIMITS)
    assert hits, "the mutant never ran"
    assert failing(reports) == mutant.killed


def test_every_report_can_fail():
    assert set().union(*(m.killed for m in MUTANTS)) == set(CLAIM_REFS)


def test_mutant_through_the_command_line(monkeypatch, capsys, tmp_path):
    # hits go to a file: on two CPUs the units that call the mutant may run in
    # the forked child, whose appends to a list this process would not see
    hits = tmp_path / "hits"
    wrap(changed_at((37, 5)), "lastsquares.verify.eval_S")(monkeypatch, lambda: hits.open("a").close())
    assert cli.main(["verify", "all"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert hits.exists()
    assert {line.split()[1] for line in out if line.startswith("FAIL")} == MUTANTS[0].killed
    assert out[-1].startswith("summary: ") and "failed=0" not in out[-1]


@pytest.mark.parametrize(
    "target, mutate, apply_map",
    [
        (
            "lastsquares.bijections._d_enc_of_board",
            drop_the_marks,
            lambda: encode(board_to_domino(MarkedColoredBoard.parse("m=6;chosen=1,2,3,4;marks=1"))),
        ),
        (
            "lastsquares.bijections._transfer_d_to_b",
            break_transfer,
            lambda: encode(domino_to_square(decode_domino("bwdbw"))),
        ),
    ],
    ids=["prop1", "prop5"],
)
def test_broken_map_is_not_seen_by_verify(monkeypatch, target, mutate, apply_map):
    # The Prop 1 or Prop 5 map is broken and live, yet every report passes:
    # verify never calls it.
    want = apply_map()
    hits = []
    wrap(mutate, target)(monkeypatch, lambda: hits.append(1))
    assert failing(verify_all(**LIMITS)) == set()
    assert not hits, "verify calls the map now; give its row the reports it kills"
    assert apply_map() != want
    assert hits
