"""Cross-checks tying the formulas, enumerations and bijections together.

Each check compares two independently computed values and yields a
structured report. Failures accumulate instead of aborting, so a single
run surfaces every downstream breakage; a full run over the default
limits is expected to produce zero failures.

Report lists are canonically ordered (check name, then parameters) and
serialize deterministically, byte for byte.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Union

from .arrangements import SignClass
from .bijections import (
    _CONJUGATE,
    ConjugationKind,
    _conjugate_member,
    _conjugation_layout,
    _enc_of_masks,
    _epsilon_enc,
)
from .enumeration import (
    _FAMILIES,
    ClassFilter,
    StratumKind,
    _b_strata,
    _check_call,
    _layouts,
    _signed,
    count,
)
from .errors import InternalInvariantViolation, RangeError
from .formulas import (
    companion_identity,
    eval_S,
    eval_T,
    eval_U,
    eval_V,
    eval_W,
    gf_coefficients,
    moriarty,
    oddness_and_divisibility,
    recurrence_residual,
    terms_T,
    terms_U,
    terms_V,
    terms_W,
)

Value = Union[int, list, None]


class Status(Enum):
    PASS = "pass"
    FAIL = "fail"
    SKIPPED = "skipped"


# Fixed reference table: every report cites the claim it checks.
CLAIM_REFS = {
    "theorem.formulas": "agreement of the five sum evaluations",
    "theorem.enumeration": "plus-class tiling counts match the sums",
    "lemma.cardinality": "odd-weight plus census vs even-weight minus census",
    "lemma.involution": "conjugation is a parity- and sign-flipping involution",
    "lemma.exception": "unique exceptional arrangement of the expected shape",
    "strata.non_white": "plus-class census by non-white cell count",
    "strata.last_decorated": "plus-class census by last decorated cell",
    "strata.last_black": "plus-class census by last black cell",
    "strata.weight_even": "whole-family census by even weight",
    "strata.even_count": "plus-class count vs even-weight census",
    "auxiliary.moriarty": "even-index binomial sum with its closed form",
    "auxiliary.companion": "double binomial sum with its closed form",
    "auxiliary.recurrence": "three-term recurrence of the central values",
    "auxiliary.generating_function": "series coefficients vs direct evaluation",
    "auxiliary.parity_divisibility": "odd values and the two-power divisibility",
}


@dataclass(frozen=True)
class VerificationReport:
    """One executed check with the two compared values.

    Failed reports always carry a counterexample in detail.
    """

    check_name: str
    params: dict
    status: Status
    lhs: Value
    rhs: Value
    paper_ref: str
    detail: Optional[str] = None

    def __post_init__(self) -> None:
        if self.status is Status.FAIL and not self.detail:
            raise InternalInvariantViolation(
                f"failed report {self.check_name} {self.params} lacks a detail"
            )


def _report(
    name: str,
    params: dict,
    status: Status,
    lhs: Value,
    rhs: Value,
    detail: Optional[str] = None,
) -> VerificationReport:
    return VerificationReport(name, params, status, lhs, rhs, CLAIM_REFS[name], detail)


def _verdict(
    name: str, params: dict, ok: bool, lhs: Value, rhs: Value, why: Callable[[], str]
) -> VerificationReport:
    """PASS when ok, else FAIL with the detail why(), formatted only then."""
    if ok:
        return _report(name, params, Status.PASS, lhs, rhs)
    return _report(name, params, Status.FAIL, lhs, rhs, detail=why())


def _compare(name: str, params: dict, lhs: Value, rhs: Value) -> VerificationReport:
    return _verdict(name, params, lhs == rhs, lhs, rhs, lambda: f"mismatch: {lhs} != {rhs}")


def _canonical(reports: list[VerificationReport]) -> list[VerificationReport]:
    return sorted(reports, key=lambda r: (r.check_name, sorted(r.params.items())))


def summarize(reports: list[VerificationReport]) -> tuple[int, int, int]:
    """(passed, failed, skipped) counts."""
    counts = Counter(r.status for r in reports)
    return counts[Status.PASS], counts[Status.FAIL], counts[Status.SKIPPED]


# One encoder for every record: json.dumps with options builds a new one per call.
_json_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def report_to_json(report: VerificationReport) -> str:
    """One-line JSON record; key order and spacing are fixed."""
    payload = {
        "check_name": report.check_name,
        "params": report.params,
        "status": report.status.value,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "paper_ref": report.paper_ref,
        "detail": report.detail,
    }
    return _json_line(payload)


def summary_to_json(reports: list[VerificationReport]) -> str:
    """The closing JSON record of a run: {"summary": {"failed", "passed", "skipped"}}."""
    return _counts_to_json(summarize(reports))


def _counts_to_json(counts: tuple[int, int, int]) -> str:
    """The closing JSON record of a run from its (passed, failed, skipped) counts."""
    passed, failed, skipped = counts
    return _json_line({"summary": {"passed": passed, "failed": failed, "skipped": skipped}})


def report_to_plain(report: VerificationReport) -> str:
    params = " ".join(f"{k}={v}" for k, v in sorted(report.params.items()))
    line = (
        f"{report.status.value.upper():<7} {report.check_name}"
        f" {params} lhs={report.lhs} rhs={report.rhs}"
    )
    if report.detail:
        line += f" detail: {report.detail}"
    return line


# ---------------------------------------------------------------------------
# theorem suite: the five sums agree, and at desk scale they equal the
# brute-force plus-class counts of both families.
# ---------------------------------------------------------------------------


def _check_theorem_limits(m_max: int, enum_limit: int) -> None:
    """Reject the theorem limits, or the largest D or B board they enumerate."""
    if m_max < 2:
        raise RangeError(f"need m_max >= 2, got {m_max}")
    if enum_limit < 0:
        raise RangeError(f"need enum_limit >= 0, got {enum_limit}")
    m_top = min(m_max, enum_limit)  # the largest D board enumerated
    n_top = min(m_top - 1, enum_limit - 2)  # the largest B board enumerated
    if m_top >= 2:
        _check_call("D", m_top, 0, None)
    if n_top >= 1:
        _check_call("B", n_top, 0, None)


def verify_theorem(m_max: int, enum_limit: int = 0) -> list[VerificationReport]:
    """Check the value chain S(m, r) = T = U = V = W at n = m - 1 - r.

    Runs over 2 <= m <= m_max and 0 <= r <= m/2 - 1. For m up to
    enum_limit the family-D plus-class count is compared too, and the
    family-B count whenever n = m - 1 - r stays within enum_limit - 2,
    so that both boards stay comparable in size. enum_limit = 0 skips
    the enumeration checks; a negative one is a RangeError. The limits
    only choose the boards: the enumeration's size guards apply, and the
    largest D and B boards are checked against them before any sum is
    evaluated (SizeLimitExceeded). The sums are evaluated from m_max down.
    """
    return _run(_units(m_max, enum_limit))


def _theorem_enumeration(m_max: int, enum_limit: int) -> list[VerificationReport]:
    """The theorem.enumeration reports: plus-class counts against S(m, r), m <= enum_limit."""
    plus = ClassFilter(sign=SignClass.PLUS)
    reports = []
    for m in range(2, min(m_max, enum_limit) + 1):
        for r in range(0, (m - 2) // 2 + 1):
            n = m - 1 - r
            s = eval_S(m, r)
            counts = [count("D", m, r, plus)]
            if n <= enum_limit - 2:
                counts.append(count("B", n, r, plus))
            reports.append(
                _verdict(
                    "theorem.enumeration",
                    {"m": m, "r": r},
                    all(c == s for c in counts),
                    counts,
                    s,
                    lambda: f"enumeration disagrees with the sums: {counts} vs {s}",
                )
            )
    return reports


def _theorem_formulas(m: int) -> list[VerificationReport]:
    """The theorem.formulas reports at m: S(m, r) against T, U, V and W at n = m - 1 - r."""
    reports = []
    for r in range(0, (m - 2) // 2 + 1):
        n = m - 1 - r
        s = eval_S(m, r)
        others = [eval_T(n, r), eval_U(n, r), eval_V(n, r), eval_W(n, r)]
        reports.append(
            _verdict(
                "theorem.formulas",
                {"m": m, "r": r},
                all(o == s for o in others),
                s,
                others,
                lambda: f"five-way agreement broken: {s} vs {others}",
            )
        )
    return reports


# ---------------------------------------------------------------------------
# lemma suite: conjugation properties and the almost-bijection census.
# ---------------------------------------------------------------------------


def _check_n_max(n_max: int) -> None:
    """Reject an n_max below 1 or past the family-B size guard."""
    if n_max < 1:
        raise RangeError(f"need n_max >= 1, got {n_max}")
    _check_call("B", n_max, 0, None)


class _Layouts(dict):
    """Conjugation layout stages of n-cell boards by black mask, built on first use."""

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n

    def __missing__(self, black: int) -> tuple:
        layout = self[black] = _conjugation_layout(self.n, black)
        return layout


def _lemma_reports(n: int, r: int) -> list[VerificationReport]:
    """Sweep the conjugation domain of B(n, r) once; its three lemma.* reports.

    It takes the census of both classes of the domain, the exceptional
    encodings and the number of members failing the involution round
    trip, with the first message. Each layout gets one conjugation layout
    stage, which serves its own members and the images landing in it.
    """
    q = n - r
    full = (1 << n) - 1
    stages = _Layouts(n)
    plus_odd = 0
    minus_even = 0
    exceptional: list[str] = []
    failures = 0
    first_failure: Optional[str] = None
    for w0, nonblack, smask in _layouts(_FAMILIES["B"], n, r):
        odd = w0 % 2 == 1
        # decorated[f] is the cell mask of filling f: bit j of f is cell nonblack[j]
        decorated = [0]
        for c in nonblack:
            bit = 1 << c
            decorated += [d | bit for d in decorated]
        black = full ^ decorated[-1]
        # the conjugation domain: odd-weight plus and even-weight minus members
        domain = [decorated[f] for f in _signed(range(1 << q), smask, odd)]
        if odd:
            plus_odd += len(domain)
        else:
            minus_even += len(domain)
        layout = stages[black]
        for dec in domain:
            try:
                kind, image = _conjugate_member(layout, dec, odd)
                if kind is _CONJUGATE:
                    out_black, out_dec, out_plus = image
                    back_kind, back = _conjugate_member(stages[out_black], out_dec, out_plus)
                    if back_kind is not _CONJUGATE or back[0] != black or back[1] != dec:
                        back_enc = back_kind.value
                        if back_kind is _CONJUGATE:
                            back_enc = _enc_of_masks(n, *back[:2])
                        raise InternalInvariantViolation(
                            f"round trip broke: {_enc_of_masks(n, black, dec)!r}"
                            f" -> {_enc_of_masks(n, out_black, out_dec)!r} -> {back_enc!r}"
                        )
                elif kind is ConjugationKind.EXCEPTIONAL:
                    exceptional.append(_enc_of_masks(n, black, dec))
                else:
                    enc = _enc_of_masks(n, black, dec)
                    raise InternalInvariantViolation(f"domain member {enc!r} reported {kind.value}")
            except InternalInvariantViolation as exc:
                failures += 1
                if first_failure is None:
                    first_failure = str(exc)
    params = {"n": n, "r": r}
    expected = _epsilon_enc(n, r, plus=(r % 2 == 1))
    ok = exceptional == [expected]
    return [
        _compare("lemma.cardinality", params, plus_odd, minus_even + (-1) ** (r + 1)),
        _verdict("lemma.involution", params, failures == 0, failures, 0, lambda: first_failure),
        _report(
            "lemma.exception",
            params,
            Status.PASS if ok else Status.FAIL,
            len(exceptional),
            1,
            detail=f"exception {expected}" if ok else f"expected [{expected}], got {exceptional}",
        ),
    ]


def verify_lemma(n_max: int) -> list[VerificationReport]:
    """Check the conjugation for all n <= n_max, r <= n - 1.

    Covers the census identity (the odd-weight plus class outnumbers the
    even-weight minus class by (-1)**(r+1)), the involution round trip
    with preserved n and r and flipped weight parity and sign, and the
    uniqueness and shape of the exceptional arrangement. n_max is
    checked against the family-B size guard before any sweep
    (SizeLimitExceeded).
    """
    _check_n_max(n_max)
    reports = []
    for n in range(1, n_max + 1):
        for r in range(0, n):
            reports.extend(_lemma_reports(n, r))
    return _canonical(reports)


# ---------------------------------------------------------------------------
# strata suite: every census stratum equals its summand, term by term.
# ---------------------------------------------------------------------------


# Each census of the strata sweep and the per-term summands it must equal.
_STRATA_SUMMANDS = (
    ("strata.non_white", StratumKind.NON_WHITE, terms_T),
    ("strata.last_decorated", StratumKind.LAST_DECORATED, terms_U),
    ("strata.last_black", StratumKind.LAST_BLACK, terms_V),
    ("strata.weight_even", StratumKind.WEIGHT, terms_W),
)


def verify_strata(n_max: int) -> list[VerificationReport]:
    """Check every stratum count against its summand for n <= n_max.

    The last-black census is reported as skipped at r = 0, where the
    statistic is undefined and the closed form uses a pinned value.
    n_max is checked against the family-B size guard before any sweep
    (SizeLimitExceeded).
    """
    _check_n_max(n_max)
    reports = []
    for n in range(1, n_max + 1):
        for r in range(0, n):
            census = _b_strata(n, r, tuple(StratumKind))
            params = {"n": n, "r": r}
            for name, kind, terms in _STRATA_SUMMANDS:
                if kind is StratumKind.LAST_BLACK and r == 0:
                    reports.append(
                        _report(
                            name,
                            params,
                            Status.SKIPPED,
                            None,
                            None,
                            detail=(
                                "skipped: no last black cell at r = 0; the closed "
                                "form pins this case to 2**n - 1"
                            ),
                        )
                    )
                else:
                    values = list(census[kind].values())
                    reports.append(_compare(name, params, values, terms(n, r)))
            reports.append(
                _compare(
                    "strata.even_count",
                    params,
                    eval_T(n, r),
                    sum(census[StratumKind.WEIGHT].values()) + (-1) ** (r + 1),
                )
            )
    return _canonical(reports)


# ---------------------------------------------------------------------------
# auxiliary suite: the side identities around the main chain.
# ---------------------------------------------------------------------------


# The fixed ranges of the auxiliary identities.
_MORIARTY_MAX, _COMPANION_MAX, _RECURRENCE_MAX = 30, 30, 12
_GF_R_MAX, _GF_M_MAX, _PARITY_MAX = 8, 40, 60


def verify_auxiliary() -> list[VerificationReport]:
    """Check the standalone identities over their fixed ranges."""
    reports = []
    for m in range(1, _MORIARTY_MAX + 1):
        for r in range(0, m // 2 + 1):
            if m > r:
                lhs, rhs = moriarty(m, r)
                reports.append(_compare("auxiliary.moriarty", {"m": m, "r": r}, lhs, rhs))
    for n in range(0, _COMPANION_MAX + 1):
        for r in range(0, n + 1):
            lhs, rhs = companion_identity(n, r)
            reports.append(_compare("auxiliary.companion", {"n": n, "r": r}, lhs, rhs))
    for n in range(1, _RECURRENCE_MAX + 1):
        reports.append(
            _compare("auxiliary.recurrence", {"n": n}, recurrence_residual(n), 0)
        )
    for r in range(0, _GF_R_MAX + 1):
        coeffs = gf_coefficients(r, _GF_M_MAX)
        # index 0 is the empty sum; eval_S is defined from m = 1 on
        direct = [0] + [eval_S(m, r) for m in range(1, _GF_M_MAX + 1)]
        reports.append(
            _compare("auxiliary.generating_function", {"r": r, "m_max": _GF_M_MAX}, coeffs, direct)
        )
    for m in range(2, _PARITY_MAX + 1):
        for r in range(0, (m - 2) // 2 + 1):
            is_odd, div_ok = oddness_and_divisibility(m, r)
            reports.append(
                _compare(
                    "auxiliary.parity_divisibility",
                    {"m": m, "r": r},
                    [int(is_odd), int(div_ok)],
                    [1, 1],
                )
            )
    return _canonical(reports)


def verify_all(
    m_max: int = 200,
    enum_limit: int = 12,
    n_max: int = 12,
) -> list[VerificationReport]:
    """Run every suite at the given limits, suites in fixed order.

    Every limit is checked before any suite starts. The suites' report
    units (see _units) run in this process, costliest first.
    """
    return _run(_units(m_max, enum_limit, n_max))


# A report unit: its position in the output, and the call returning its reports.
Unit = tuple[int, Callable[[], list[VerificationReport]]]


def _units(m_max: int, enum_limit: int, n_max: Optional[int] = None) -> list[Unit]:
    """Check every limit; the report units of the theorem suite, and of the rest given n_max.

    Each unit returns one contiguous run of the canonical output. In
    output order they are the theorem.enumeration reports, the
    theorem.formulas reports at each m from 2 to m_max, then the lemma,
    strata and auxiliary suites. They are listed costliest first: lemma,
    strata, the formulas units from m_max down (a sum's tables then grow
    once to their full length, not one entry per m), then the rest.
    Units share nothing but caches, so any order, in one
    process or several, gives the same reports. Each unit reads its
    function when it runs, so wrappers put on this module's names apply.
    """
    _check_theorem_limits(m_max, enum_limit)
    if n_max is not None:
        _check_n_max(n_max)
    enumeration = (0, lambda: _theorem_enumeration(m_max, enum_limit))
    formulas = [(m - 1, lambda m=m: _theorem_formulas(m)) for m in range(m_max, 1, -1)]
    if n_max is None:
        return [*formulas, enumeration]
    return [
        (m_max, lambda: verify_lemma(n_max)),
        (m_max + 1, lambda: verify_strata(n_max)),
        *formulas,
        enumeration,
        (m_max + 2, lambda: verify_auxiliary()),
    ]


def _run(units: list[Unit]) -> list[VerificationReport]:
    """Run the units in their order, in this process; their reports in output order."""
    runs: list[list[VerificationReport]] = [[]] * len(units)
    for position, unit in units:
        runs[position] = unit()
    return [report for run in runs for report in run]
