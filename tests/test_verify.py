"""Report structure, suite outcomes and deterministic serialization."""

import re

import pytest

from lastsquares import (
    InternalInvariantViolation,
    RangeError,
    SignClass,
    SizeLimitExceeded,
    Status,
    VerificationReport,
    report_to_json,
    report_to_plain,
    summarize,
    verify_all,
    verify_auxiliary,
    verify_lemma,
    verify_strata,
    verify_theorem,
)
from lastsquares import bijections, verify
from lastsquares.arrangements import decode_square, encode, sign_class_square, weight
from lastsquares.bijections import ConjugationKind, _enc_of_masks, conjugate
from lastsquares.enumeration import list_encodings
from lastsquares.verify import CLAIM_REFS


def fails(reports):
    return [r for r in reports if r.status is Status.FAIL]


def test_theorem_suite_passes():
    reports = verify_theorem(24, enum_limit=12)
    assert fails(reports) == []
    assert any(r.check_name == "theorem.formulas" for r in reports)
    assert any(r.check_name == "theorem.enumeration" for r in reports)
    # the largest tabulated value of the run rides along in its report
    big = [r for r in reports if r.check_name == "theorem.formulas" and r.params == {"m": 15, "r": 4}]
    assert big and big[0].lhs == 5503


def test_theorem_enum_tier_obeys_limits():
    reports = verify_theorem(20, enum_limit=8)
    enum_params = [r.params for r in reports if r.check_name == "theorem.enumeration"]
    assert enum_params and all(p["m"] <= 8 for p in enum_params)
    reports = verify_theorem(6, enum_limit=0)
    assert all(r.check_name == "theorem.formulas" for r in reports)
    with pytest.raises(RangeError):
        verify_theorem(1)


def test_theorem_rejects_a_negative_enum_limit(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a sum or a sweep started")

    monkeypatch.setattr(verify, "count", never)
    monkeypatch.setattr(verify, "eval_S", never)
    with pytest.raises(RangeError, match="enum_limit >= 0, got -5"):
        verify_theorem(10, enum_limit=-5)


def test_lemma_suite_passes():
    reports = verify_lemma(9)
    assert fails(reports) == []
    exception = [
        r
        for r in reports
        if r.check_name == "lemma.exception" and r.params == {"n": 4, "r": 2}
    ]
    assert exception and "wbbw" in exception[0].detail
    card = [
        r
        for r in reports
        if r.check_name == "lemma.cardinality" and r.params == {"n": 1, "r": 0}
    ]
    assert card and card[0].lhs == 0 and card[0].rhs == 0  # 0 = 1 + (-1)


def test_lemma_sweep_catches_a_corrupted_image(monkeypatch):
    real = verify._conjugate_member
    corrupted = []

    def faulty(layout, dec, plus):
        kind, image = real(layout, dec, plus)
        n, black = layout[0], layout[1]
        if kind is ConjugationKind.CONJUGATE and n == 5 and not corrupted:
            corrupted.append((black, dec))
            out_black, out_dec, out_plus = image
            # the last cell swaps white and decorated once more
            image = (out_black, out_dec ^ 1 << (n - 1), out_plus)
        return kind, image

    monkeypatch.setattr(verify, "_conjugate_member", faulty)
    bad = fails(verify_lemma(6))
    assert len(corrupted) == 1
    assert [(r.check_name, r.params["n"], r.lhs) for r in bad] == [("lemma.involution", 5, 1)]
    assert re.search(r"'[btw]{5}'", bad[0].detail)


def test_lemma_exception_reports_a_second_exceptional_member(monkeypatch):
    real = verify._conjugate_member
    extra = []

    def faulty(layout, dec, plus):
        kind, image = real(layout, dec, plus)
        n, black = layout[0], layout[1]
        if kind is ConjugationKind.CONJUGATE and n == 5 and not extra:
            extra.append(_enc_of_masks(n, black, dec))
            return ConjugationKind.EXCEPTIONAL, SignClass.PLUS
        return kind, image

    monkeypatch.setattr(verify, "_conjugate_member", faulty)
    bad = fails(verify_lemma(6))
    assert extra == ["bwwww"]
    assert bad == [
        VerificationReport(
            "lemma.exception",
            {"n": 5, "r": 1},
            Status.FAIL,
            2,
            1,
            CLAIM_REFS["lemma.exception"],
            "expected [wwwbt], got ['bwwww', 'wwwbt']",
        )
    ]


def test_lemma_sweep_fails_a_domain_member_reported_outside_domain(monkeypatch):
    real = verify._conjugate_member
    outside = []

    def faulty(layout, dec, plus):
        kind, image = real(layout, dec, plus)
        n, black = layout[0], layout[1]
        if kind is ConjugationKind.CONJUGATE and n == 5 and not outside:
            outside.append(_enc_of_masks(n, black, dec))
            return ConjugationKind.OUTSIDE_DOMAIN, None
        return kind, image

    monkeypatch.setattr(verify, "_conjugate_member", faulty)
    bad = fails(verify_lemma(6))
    assert len(outside) == 1
    assert [(r.check_name, r.params["n"], r.lhs) for r in bad] == [("lemma.involution", 5, 1)]
    assert bad[0].detail == f"domain member {outside[0]!r} reported outside-domain"


def test_lemma_sweep_counts_every_failing_member_and_keeps_the_first_message(monkeypatch):
    real = verify._conjugate_member
    raised = []

    def faulty(layout, dec, plus):
        n, black, r = layout[0], layout[1], layout[4]
        if (n, r) == (6, 2) and len(raised) < 2:
            raised.append(f"member stage broke on {_enc_of_masks(n, black, dec)!r}")
            raise InternalInvariantViolation(raised[-1])
        return real(layout, dec, plus)

    monkeypatch.setattr(verify, "_conjugate_member", faulty)
    bad = fails(verify_lemma(6))
    assert len(raised) == 2 and raised[0] != raised[1]
    assert bad == [
        VerificationReport(
            "lemma.involution",
            {"n": 6, "r": 2},
            Status.FAIL,
            2,
            0,
            CLAIM_REFS["lemma.involution"],
            raised[0],
        )
    ]


def test_lemma_sweep_stages_agree_with_fresh_conjugation(monkeypatch):
    # The sweep reuses one layout stage per layout, with its per-A images,
    # for its members and for the images landing in that layout; each
    # answer must equal a conjugation from a freshly built stage.
    real = verify._conjugate_member
    answers = []

    def recording(layout, dec, plus):
        out = real(layout, dec, plus)
        answers.append((layout[0], layout[1], dec, out))
        return out

    monkeypatch.setattr(verify, "_conjugate_member", recording)
    assert fails(verify_lemma(9)) == []
    members = set()
    for n, black, dec, (kind, payload) in answers:
        enc = _enc_of_masks(n, black, dec)
        members.add(enc)
        bijections._cached_layout.cache_clear()
        fresh = conjugate(decode_square(enc))
        if kind is ConjugationKind.CONJUGATE:
            fresh_payload = _enc_of_masks(n, payload[0], payload[1])
            assert (fresh.kind, encode(fresh.result)) == (kind, fresh_payload), enc
        else:
            assert (fresh.kind, fresh.epsilon) == (kind, payload), enc
    domain = set()
    for n in range(1, 10):
        for r in range(n):
            for enc in list_encodings("B", n, r):
                arr = decode_square(enc)
                if (weight(arr) % 2 == 1) == (sign_class_square(arr) is SignClass.PLUS):
                    domain.add(enc)
    assert members == domain


def test_verify_sweeps_check_the_size_guard_first(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a sweep started")

    monkeypatch.setattr(verify, "_lemma_reports", never)
    monkeypatch.setattr(verify, "_b_strata", never)
    monkeypatch.setattr(verify, "count", never)
    monkeypatch.setattr(verify, "eval_S", never)
    with pytest.raises(SizeLimitExceeded):
        verify_lemma(30)
    with pytest.raises(SizeLimitExceeded):
        verify_strata(17)
    with pytest.raises(SizeLimitExceeded):  # D board of 40 cells
        verify_theorem(40, enum_limit=40)
    with pytest.raises(SizeLimitExceeded):  # B boards up to n = 18
        verify_theorem(30, enum_limit=20)
    with pytest.raises(SizeLimitExceeded):  # B boards up to n = 17
        verify_theorem(30, enum_limit=19)
    # the limits choose the boards but never lift the guard
    monkeypatch.setenv("LASTSQ_MAX_CELLS", "8")
    with pytest.raises(SizeLimitExceeded):
        verify_lemma(9)
    with pytest.raises(SizeLimitExceeded):
        verify_strata(9)
    with pytest.raises(SizeLimitExceeded):
        verify_theorem(12, enum_limit=10)


def test_verify_sweeps_need_n_max_at_least_one():
    for sweep in (verify_lemma, verify_strata):
        with pytest.raises(RangeError) as exc:
            sweep(0)
        assert str(exc.value) == "need n_max >= 1, got 0"


def test_verify_limits_within_the_guard_run(monkeypatch):
    monkeypatch.setenv("LASTSQ_MAX_CELLS", "8")
    reports = verify_theorem(12, enum_limit=8) + verify_lemma(8) + verify_strata(8)
    assert fails(reports) == []
    enum_params = [r.params for r in reports if r.check_name == "theorem.enumeration"]
    assert max(p["m"] for p in enum_params) == 8


def test_strata_suite_passes_and_skips_degenerate_case():
    reports = verify_strata(8)
    assert fails(reports) == []
    skipped = [r for r in reports if r.status is Status.SKIPPED]
    assert all(r.check_name == "strata.last_black" and r.params["r"] == 0 for r in skipped)
    assert len(skipped) == 8  # one per board length
    assert all(r.detail for r in skipped)


def test_strata_termwise_values():
    reports = verify_strata(4)
    by_name = {
        (r.check_name, tuple(sorted(r.params.items()))): r for r in reports
    }
    u = by_name[("strata.last_decorated", (("n", 4), ("r", 1)))]
    assert u.lhs == [1, 4, 12] == u.rhs
    v = by_name[("strata.last_black", (("n", 4), ("r", 1)))]
    assert v.lhs == [4, 6, 7] == v.rhs
    w = by_name[("strata.weight_even", (("n", 4), ("r", 2)))]
    assert w.lhs == [4, 4] == w.rhs


def test_auxiliary_suite_passes():
    reports = verify_auxiliary()
    assert fails(reports) == []
    rec = [r for r in reports if r.check_name == "auxiliary.recurrence"]
    assert {r.params["n"] for r in rec} == set(range(1, 13))
    assert all(r.lhs == 0 for r in rec)


def test_full_run_produces_zero_failures():
    reports = verify_all(m_max=30, enum_limit=8, n_max=6)
    passed, failed, skipped = summarize(reports)
    assert failed == 0
    assert passed > 0
    assert skipped == 6  # last-black census at r = 0, one per board length


def test_reports_carry_fixed_references():
    reports = verify_all(m_max=10, enum_limit=4, n_max=3)
    for r in reports:
        assert r.paper_ref
        assert r.paper_ref == CLAIM_REFS[r.check_name]


# The suites in output order.
SUITES = ["theorem", "lemma", "strata", "auxiliary"]


def test_reports_are_canonically_ordered_and_deterministic():
    for suite in (
        lambda: verify_theorem(30, enum_limit=8),
        lambda: verify_lemma(6),
        lambda: verify_strata(6),
        verify_auxiliary,
        lambda: verify_all(m_max=30, enum_limit=8, n_max=6),
    ):
        first = suite()
        second = suite()
        assert [report_to_json(r) for r in first] == [report_to_json(r) for r in second]
        keys = [
            (SUITES.index(r.check_name.split(".")[0]), r.check_name, sorted(r.params.items()))
            for r in first
        ]
        assert keys == sorted(keys)
        assert len(set(map(repr, keys))) == len(keys)  # no report twice


def test_failed_reports_require_a_detail():
    with pytest.raises(InternalInvariantViolation):
        VerificationReport("x", {}, Status.FAIL, 1, 2, "ref", detail=None)
    ok = VerificationReport("x", {}, Status.FAIL, 1, 2, "ref", detail="mismatch")
    assert ok.detail == "mismatch"


def test_serialization_formats():
    report = VerificationReport(
        "demo.check", {"n": 3, "r": 1}, Status.PASS, 5, 5, "some claim"
    )
    line = report_to_json(report)
    assert line.startswith('{"check_name":"demo.check"')
    assert '"status":"pass"' in line
    assert "\n" not in line
    plain = report_to_plain(report)
    assert "PASS" in plain and "n=3 r=1" in plain and "lhs=5" in plain


def test_summarize_counts():
    reports = verify_strata(3)
    passed, failed, skipped = summarize(reports)
    assert passed + failed + skipped == len(reports)
    assert failed == 0 and skipped == 3
