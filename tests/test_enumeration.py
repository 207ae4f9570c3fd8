"""Exhaustive enumeration against independent brute force and closed forms."""

import os
import pickle
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

import lastsquares
from lastsquares import (
    ClassFilter,
    RangeError,
    SignClass,
    SizeLimitExceeded,
    StratumKind,
    WeightParity,
    binom,
    count,
    encode,
    enumerate_B,
    enumerate_D,
    enumerate_marked_boards,
    eval_S,
    eval_T,
    list_encodings,
    stratify,
)

PLUS = ClassFilter(sign=SignClass.PLUS)
MINUS = ClassFilter(sign=SignClass.MINUS)


# -- independent oracle: generate-then-filter over all cell strings --------


def brute_B(n, r):
    return sorted(
        "".join(p)
        for p in product("btw", repeat=n)
        if p.count("b") == r and p[-1] != "b"
    )


def brute_D(m, r):
    out = []

    def rec(s, cells):
        if cells == m:
            if s.count("d") == r:
                out.append(s)
            return
        if cells == 0:
            rec("b", 1)
            return
        for ch, width in (("b", 1), ("d", 2), ("w", 1)):
            if cells + width <= m:
                rec(s + ch, cells + width)

    rec("", 0)
    return sorted(out)


def brute_weight(enc):
    k = 0
    i = len(enc) - 2
    while i >= 0 and enc[i] == "b":
        k += 1
        i -= 1
    return k


def brute_plus_b(enc):
    return "t" in enc[enc.rfind("b") + 1 :]


def brute_plus_d(enc):
    return "w" in enc[enc.rfind("d") + 1 :]


def test_enumerate_B_matches_brute_force():
    for n in range(1, 8):
        for r in range(0, n):
            got = [encode(a) for a in enumerate_B(n, r)]
            want = brute_B(n, r)
            assert got == want  # same members, lexicographic, no duplicates


def test_enumerate_D_matches_brute_force():
    for m in range(1, 10):
        for r in range(0, (m - 1) // 2 + 1):
            got = [encode(a) for a in enumerate_D(m, r)]
            want = brute_D(m, r)
            assert got == want


def test_totals_match_closed_forms():
    for n in range(1, 13):
        for r in range(0, n):
            assert count("B", n, r) == binom(n - 1, r) * 2 ** (n - r)
    for m in range(1, 15):
        for r in range(0, (m - 1) // 2 + 1):
            assert count("D", m, r) == binom(m - 1 - r, r) * 2 ** (m - 1 - 2 * r)
    for m in range(1, 15):
        assert count("D", m, 0) == 2 ** (m - 1)


def test_enumeration_examples():
    assert list_encodings("D", 2, 0) == ["bb", "bw"]
    assert list_encodings("D", 4, 1, PLUS) == ["bdw"]
    assert count("D", 6, 1, PLUS) == 17 == eval_S(6, 1)
    assert list_encodings("B", 2, 0) == ["tt", "tw", "wt", "ww"]
    assert count("B", 2, 0) == 4
    assert count("B", 2, 0, PLUS) == 3 == eval_T(2, 0)
    assert count("B", 4, 1, PLUS) == 17 == eval_T(4, 1)
    assert count("B", 4, 1) == 24


def test_count_with_weight_filters():
    odd_plus = ClassFilter(sign=SignClass.PLUS, weight_parity=WeightParity.ODD)
    even_minus = ClassFilter(sign=SignClass.MINUS, weight_parity=WeightParity.EVEN)
    assert count("B", 2, 1, odd_plus) == 1  # only "bt"
    assert count("B", 2, 1, even_minus) == 0
    exact = ClassFilter(exact_weight=2)
    assert count("B", 4, 2, exact) == sum(
        1 for e in brute_B(4, 2) if brute_weight(e) == 2
    )


def test_filters_match_brute_force_classification():
    for n in range(1, 8):
        for r in range(0, n):
            encs = brute_B(n, r)
            assert count("B", n, r, PLUS) == sum(1 for e in encs if brute_plus_b(e))
            assert count("B", n, r, MINUS) == sum(
                1 for e in encs if not brute_plus_b(e)
            )
            for parity in (WeightParity.EVEN, WeightParity.ODD):
                filt = ClassFilter(weight_parity=parity)
                assert count("B", n, r, filt) == sum(
                    1 for e in encs if brute_weight(e) % 2 == parity.value
                )
    for m in range(1, 10):
        for r in range(0, (m - 1) // 2 + 1):
            encs = brute_D(m, r)
            assert count("D", m, r, PLUS) == sum(1 for e in encs if brute_plus_d(e))


def test_sign_classes_partition_everything():
    for n in range(1, 11):
        for r in range(0, n):
            assert count("B", n, r, PLUS) + count("B", n, r, MINUS) == count("B", n, r)
    for m in range(1, 13):
        for r in range(0, (m - 1) // 2 + 1):
            assert count("D", m, r, PLUS) + count("D", m, r, MINUS) == count("D", m, r)


def test_count_equals_enumeration_length():
    cases = [
        ("B", 7, 2, None),
        ("B", 7, 2, PLUS),
        ("B", 8, 3, ClassFilter(weight_parity=WeightParity.ODD)),
        ("B", 6, 1, ClassFilter(sign=SignClass.MINUS, exact_weight=0)),
        ("D", 9, 2, None),
        ("D", 9, 2, PLUS),
    ]
    for family, size, r, filt in cases:
        it = enumerate_B(size, r, filt) if family == "B" else enumerate_D(size, r, filt)
        assert count(family, size, r, filt) == sum(1 for _ in it)


def test_plus_counts_equal_sums_up_to_guard():
    for m in range(1, 21):
        for r in range(0, (m - 1) // 2 + 1):
            assert count("D", m, r, PLUS) == eval_S(m, r)
    for n in range(1, 15):
        for r in range(0, n):
            assert count("B", n, r, PLUS) == eval_T(n, r)


def test_stratify_examples():
    assert stratify(4, 1, StratumKind.LAST_DECORATED) == {2: 1, 3: 4, 4: 12}
    assert stratify(4, 1, StratumKind.LAST_BLACK) == {1: 4, 2: 6, 3: 7}
    assert stratify(4, 2, StratumKind.WEIGHT) == {0: 4, 2: 4}
    assert stratify(4, 1, StratumKind.NON_WHITE) == {
        j: binom(4, j) * binom(j - 1, 1) for j in (2, 3, 4)
    }
    assert stratify(3, 2, StratumKind.WEIGHT) == {0: 0, 2: 2}


def test_stratify_against_brute_force():
    for n in range(1, 9):
        for r in range(0, n):
            encs = brute_B(n, r)
            plus = [e for e in encs if brute_plus_b(e)]
            got = stratify(n, r, StratumKind.LAST_DECORATED)
            want = {j: 0 for j in range(r + 1, n + 1)}
            for e in plus:
                want[e.rfind("t") + 1] += 1
            assert got == want
            got = stratify(n, r, StratumKind.NON_WHITE)
            want = {j: 0 for j in range(r + 1, n + 1)}
            for e in plus:
                want[len(e) - e.count("w")] += 1
            assert got == want
            if r >= 1:
                got = stratify(n, r, StratumKind.LAST_BLACK)
                want = {j: 0 for j in range(1, n - r + 1)}
                for e in plus:
                    want[n - (e.rfind("b") + 1)] += 1
                assert got == want
            got = stratify(n, r, StratumKind.WEIGHT)
            want = {k: 0 for k in range(0, r + 1, 2)}
            for e in encs:
                w = brute_weight(e)
                if w % 2 == 0:
                    want[w] += 1
            assert got == want


def test_strata_partition_the_scoped_sets():
    for n in range(1, 11):
        for r in range(0, n):
            plus_total = count("B", n, r, PLUS)
            assert sum(stratify(n, r, StratumKind.LAST_DECORATED).values()) == plus_total
            assert sum(stratify(n, r, StratumKind.NON_WHITE).values()) == plus_total
            if r >= 1:
                assert sum(stratify(n, r, StratumKind.LAST_BLACK).values()) == plus_total
            odd_count = count("B", n, r, ClassFilter(weight_parity=WeightParity.ODD))
            assert (
                sum(stratify(n, r, StratumKind.WEIGHT).values()) + odd_count
                == count("B", n, r)
            )


def test_stratify_rejects_a_kind_given_as_text():
    with pytest.raises(RangeError) as exc:
        stratify(4, 1, "weight")
    assert str(exc.value) == "unknown stratum kind 'weight'"


def test_stratify_last_black_rejects_r_zero():
    with pytest.raises(RangeError):
        stratify(5, 0, StratumKind.LAST_BLACK)


def test_class_filter_consistency():
    with pytest.raises(ValueError):
        ClassFilter(weight_parity=WeightParity.EVEN, exact_weight=3)
    with pytest.raises(ValueError):
        ClassFilter(exact_weight=-1)
    ClassFilter(weight_parity=WeightParity.ODD, exact_weight=3)  # consistent
    # a field of the wrong type is named, not read as another filter
    for fields, message in (
        ({"sign": "plus"}, "sign must be a SignClass or None, got 'plus'"),
        ({"weight_parity": 1}, "weight_parity must be a WeightParity or None, got 1"),
        ({"exact_weight": 1.5}, "exact_weight must be an int or None, got 1.5"),
        ({"exact_weight": True}, "exact_weight must be an int or None, got True"),
    ):
        with pytest.raises(RangeError) as exc:
            ClassFilter(**fields)
        assert str(exc.value) == message


def test_weight_filters_rejected_for_family_D():
    filt = ClassFilter(weight_parity=WeightParity.EVEN)
    with pytest.raises(ValueError):
        count("D", 6, 1, filt)
    with pytest.raises(ValueError):
        list(enumerate_D(6, 1, filt))


def test_range_errors():
    with pytest.raises(RangeError):
        list(enumerate_B(0, 0))
    with pytest.raises(RangeError):
        list(enumerate_B(3, 3))
    with pytest.raises(RangeError):
        list(enumerate_D(4, 2))  # needs 2r <= m - 1
    with pytest.raises(RangeError):
        count("B", 2, -1)
    with pytest.raises(ValueError):
        count("X", 2, 0)


B_RANGE = "family B needs n >= 1 and 0 <= r <= n-1, got n={} r={}"
D_RANGE = "family D needs m >= 1 and 0 <= 2r <= m-1, got m={} r={}"


@pytest.mark.parametrize(
    "family, size, r, filt, message",
    [
        ("B", 0, 0, None, B_RANGE.format(0, 0)),
        ("B", 3, -1, None, B_RANGE.format(3, -1)),
        ("B", 3, 3, None, B_RANGE.format(3, 3)),
        ("D", 0, 0, None, D_RANGE.format(0, 0)),
        ("D", 4, 2, None, D_RANGE.format(4, 2)),
        ("D", 6, 3, PLUS, D_RANGE.format(6, 3)),
        ("X", 2, 0, None, "unknown family 'X', expected 'D' or 'B'"),
        ("D", 5, 1, ClassFilter(weight_parity=WeightParity.ODD), "weight filters apply to family B only"),
        ("D", 5, 1, ClassFilter(exact_weight=0), "weight filters apply to family B only"),
        # a filter of the wrong type, caught before any of its fields is read
        ("D", 5, 1, SignClass.PLUS, f"filt must be a ClassFilter or None, got {SignClass.PLUS!r}"),
        ("B", 5, 1, "plus", "filt must be a ClassFilter or None, got 'plus'"),
        # a size or r that is not an int, caught before any arithmetic
        ("B", True, 0, None, "size must be an int, got True"),
        ("D", 5, True, None, "r must be an int, got True"),
        ("B", 5.0, 1, None, "size must be an int, got 5.0"),
        ("D", 7, 1.0, PLUS, "r must be an int, got 1.0"),
        ("B", "5", 1, None, "size must be an int, got '5'"),
    ],
)
def test_range_error_messages(family, size, r, filt, message):
    calls = [
        lambda: count(family, size, r, filt),
        lambda: list_encodings(family, size, r, filt),
        lambda: list_encodings(family, size, r, filt, jobs=2),
    ]
    enumerator = {"B": enumerate_B, "D": enumerate_D}.get(family)
    if enumerator is not None:
        calls.append(lambda: enumerator(size, r, filt))
    for call in calls:
        with pytest.raises(RangeError) as exc:
            call()
        assert str(exc.value) == message


def test_stratify_rejects_a_size_that_is_not_an_int():
    with pytest.raises(RangeError) as exc:
        stratify(5.5, 1, StratumKind.WEIGHT)
    assert str(exc.value) == "size must be an int, got 5.5"


def test_size_guards_and_overrides(monkeypatch):
    with pytest.raises(SizeLimitExceeded):
        list(enumerate_B(17, 0))
    with pytest.raises(SizeLimitExceeded) as exc:
        count("D", 25, 0)
    assert (exc.value.cells, exc.value.limit) == (25, 24)
    assert str(exc.value) == (
        "board of 25 cells exceeds the size guard of 24; "
        "raise it via the LASTSQ_MAX_CELLS environment variable"
    )
    assert str(pickle.loads(pickle.dumps(exc.value))) == str(exc.value)
    # the environment override applies to both families
    monkeypatch.setenv("LASTSQ_MAX_CELLS", "18")
    assert count("B", 17, 16) == 2
    monkeypatch.setenv("LASTSQ_MAX_CELLS", "10")
    with pytest.raises(SizeLimitExceeded):
        count("B", 11, 0)


@pytest.mark.parametrize(
    "call, cells, limit",
    [
        (lambda: count("B", 17, 16), 17, 16),
        (lambda: list_encodings("D", 25, 12), 25, 24),
        (lambda: stratify(17, 16, StratumKind.LAST_DECORATED), 17, 16),
        (lambda: list(enumerate_B(17, 16)), 17, 16),
        (lambda: list(enumerate_D(25, 12)), 25, 24),
        (lambda: enumerate_marked_boards(25, 2), 25, 24),  # plus-class D(m, r), one by one
    ],
    ids=["count", "list_encodings", "stratify", "enumerate_B", "enumerate_D", "enumerate_marked_boards"],
)
def test_size_guard_at_every_entry_point(monkeypatch, call, cells, limit):
    monkeypatch.delenv("LASTSQ_MAX_CELLS", raising=False)
    with pytest.raises(SizeLimitExceeded) as exc:
        call()
    assert (exc.value.cells, exc.value.limit) == (cells, limit)
    assert str(exc.value) == (
        f"board of {cells} cells exceeds the size guard of {limit}; "
        "raise it via the LASTSQ_MAX_CELLS environment variable"
    )
    monkeypatch.setenv("LASTSQ_MAX_CELLS", str(cells))
    assert call()


@pytest.mark.parametrize(
    "value", ["abc", "1.5", "0", "-3", "1_7", "+17", " 17 ", "\uff11\uff17", ""]
)
def test_size_guard_variable_must_be_a_positive_integer(monkeypatch, value):
    monkeypatch.setenv("LASTSQ_MAX_CELLS", value)
    with pytest.raises(RangeError, match="LASTSQ_MAX_CELLS"):
        count("B", 5, 1)
    with pytest.raises(RangeError, match="LASTSQ_MAX_CELLS"):
        list_encodings("D", 5, 1)


def test_size_guard_variable_of_too_many_digits_names_the_variable(monkeypatch):
    value = "9" * 5000  # more digits than int() converts
    monkeypatch.setenv("LASTSQ_MAX_CELLS", value)
    with pytest.raises(RangeError) as exc:
        count("B", 5, 1)
    assert str(exc.value) == f"LASTSQ_MAX_CELLS must be a positive integer, got {value!r}"


def test_jobs_below_one_rejected():
    for jobs in (0, -3):
        with pytest.raises(RangeError):
            count("B", 5, 1, jobs=jobs)
        with pytest.raises(RangeError):
            list_encodings("B", 5, 1, jobs=jobs)


def test_determinism_two_runs_identical():
    first = list_encodings("B", 8, 2, PLUS)
    second = list_encodings("B", 8, 2, PLUS)
    assert first == second
    assert first == sorted(first)
    assert len(set(first)) == len(first)


def test_parallel_listing_matches_sequential():
    for family, size, r, filt in [
        ("B", 9, 2, None),
        ("B", 9, 2, PLUS),
        ("D", 10, 2, None),
        ("D", 10, 2, MINUS),
        ("B", 1, 0, None),
    ]:
        seq = list_encodings(family, size, r, filt, jobs=1)
        par = list_encodings(family, size, r, filt, jobs=3)
        assert par == seq
        assert count(family, size, r, filt, jobs=3) == len(seq)


# The filter shapes of the perfbench census workload; family D takes the first three.
CENSUS_FILTERS = [
    None,
    PLUS,
    MINUS,
    ClassFilter(weight_parity=WeightParity.EVEN),
    ClassFilter(weight_parity=WeightParity.ODD),
    ClassFilter(sign=SignClass.PLUS, weight_parity=WeightParity.ODD),
    ClassFilter(sign=SignClass.MINUS, weight_parity=WeightParity.EVEN),
    ClassFilter(exact_weight=1),
]


def brute_admits(filt, plus, w=None):
    if filt is None:
        return True
    return filt.admits_plus(plus) and (w is None or filt.admits_weight(w))


def check_listings_under_census_filters(jobs=1):
    for n in range(1, 9):
        for r in range(0, n):
            encs = brute_B(n, r)
            for filt in CENSUS_FILTERS:
                want = [
                    e for e in encs
                    if brute_admits(filt, brute_plus_b(e), brute_weight(e))
                ]
                assert list_encodings("B", n, r, filt, jobs=jobs) == want
                assert [encode(a) for a in enumerate_B(n, r, filt)] == want
                assert count("B", n, r, filt) == len(want)
    for m in range(1, 11):
        for r in range(0, (m - 1) // 2 + 1):
            encs = brute_D(m, r)
            for filt in CENSUS_FILTERS[:3]:
                want = [e for e in encs if brute_admits(filt, brute_plus_d(e))]
                assert list_encodings("D", m, r, filt, jobs=jobs) == want
                assert [encode(a) for a in enumerate_D(m, r, filt)] == want
                assert count("D", m, r, filt) == len(want)


@pytest.mark.parametrize("jobs", [1, 2])
def test_listings_match_brute_force_under_census_filters(jobs):
    check_listings_under_census_filters(jobs)


@pytest.mark.parametrize("bucket", [1, 3, 16])
def test_listings_split_into_small_buckets_match_brute_force(monkeypatch, bucket):
    # the default bucket sorts each of these listings whole; a small one
    # splits them down to single tiles
    monkeypatch.setattr("lastsquares.enumeration._BUCKET", bucket)
    check_listings_under_census_filters()


def test_listing_split_at_the_default_bucket():
    from lastsquares.enumeration import _BUCKET

    assert count("B", 12, 4) == 84480 > _BUCKET  # more than one bucket
    for filt in (None, PLUS, MINUS, ClassFilter(weight_parity=WeightParity.ODD)):
        encs = list_encodings("B", 12, 4, filt)
        assert len(encs) == count("B", 12, 4, filt)
        assert all(a < b for a, b in zip(encs, encs[1:]))
        for e in encs:
            assert len(e) == 12 and set(e) <= set("btw") and e.count("b") == 4 and e[-1] != "b"
            assert brute_admits(filt, brute_plus_b(e), brute_weight(e))


def test_enumerators_are_lazy():
    # A run holding a table over its 2**q fillings takes tens of MiB or more
    # here (q = 23 for D(24, 0)); the first member needs only the runs.
    for enumerator in (
        lambda: enumerate_D(24, 0),
        lambda: enumerate_D(24, 0, PLUS),
        lambda: enumerate_B(16, 0, MINUS),
        lambda: enumerate_B(16, 5),
    ):
        tracemalloc.start()
        try:
            next(enumerator())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def test_signed_count_holds_one_block_of_fillings():
    # D(22, 0) is one layout of 2**21 fillings: a list of all its plus-class
    # fillings peaks at about 80 MiB, a block of _BUCKET of them at about 1 MiB
    tracemalloc.start()
    try:
        value = count("D", 22, 0, PLUS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 2**21 - 1
    assert peak < 8 * 2**20


def test_single_worker_sweeps_run_in_process(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr("multiprocessing.Pool", no_pool)
    for jobs in (2, 4):
        assert list_encodings("B", 9, 3, PLUS, jobs=jobs) == list_encodings("B", 9, 3, PLUS)
        assert count("D", 14, 3, MINUS, jobs=jobs) == count("D", 14, 3, MINUS)


def test_importing_the_package_loads_no_multiprocessing():
    code = "import sys, lastsquares, lastsquares.cli; print('multiprocessing' in sys.modules)"
    src = str(Path(lastsquares.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def test_stratify_equals_the_strata_suite_census():
    from lastsquares.enumeration import _b_strata

    for n in range(1, 11):
        for r in range(0, n):
            census = _b_strata(n, r, tuple(StratumKind))
            for kind in StratumKind:
                if kind is StratumKind.LAST_BLACK and r == 0:
                    continue
                assert stratify(n, r, kind) == census[kind]


def test_enumerators_yield_valid_objects():
    for arr in enumerate_B(5, 2):
        assert arr.n == 5 and arr.r == 2
    for arr in enumerate_D(6, 2):
        assert arr.m == 6 and arr.r == 2
