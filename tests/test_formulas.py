"""Exact sum evaluation, the side identities and the series route."""

import math
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lastsquares import cli, formulas
from lastsquares import (
    RangeError,
    binom,
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
    summarize,
    terms_T,
    terms_U,
    terms_V,
    terms_W,
    verify_all,
)

# Plus-class counts T(n, r) for n = 1..10, transcribed from the published
# table; every other expected value in this file is derived from these or
# recomputed by independent summation.
T_TABLE = {
    1: [1],
    2: [3, 1],
    3: [7, 5, 1],
    4: [15, 17, 7, 1],
    5: [31, 49, 31, 9, 1],
    6: [63, 129, 111, 49, 11, 1],
    7: [127, 321, 351, 209, 71, 13, 1],
    8: [255, 769, 1023, 769, 351, 97, 15, 1],
    9: [511, 1793, 2815, 2561, 1471, 545, 127, 17, 1],
    10: [1023, 4097, 7423, 7937, 5503, 2561, 799, 161, 19, 1],
}


def test_binom_convention():
    assert binom(6, 4) == 15
    assert binom(-1, 0) == 1  # empty product, any a with b = 0
    assert binom(0, 1) == 0
    assert binom(-3, 2) == 0
    assert binom(5, -1) == 0
    assert binom(4, 7) == 0


def test_binom_matches_comb_in_ordinary_range():
    for a in range(0, 25):
        for b in range(0, a + 1):
            assert binom(a, b) == math.comb(a, b)


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_binom_total_and_consistent(a, b):
    value = binom(a, b)
    assert value >= 0
    if 0 <= b <= a:
        assert value == math.comb(a, b)
    elif b == 0:
        assert value == 1
    else:
        assert value == 0


def test_eval_examples():
    assert eval_S(6, 1) == 17  # 15*1 + 1*2
    assert eval_S(2, 0) == 1
    assert eval_S(15, 4) == 5503
    assert eval_T(9, 2) == 2815
    assert eval_U(4, 1) == 1 + 4 + 12
    assert eval_V(4, 1) == 4 + 6 + 7
    assert eval_W(9, 2) == 128 * (21 + 1) - 1


def test_eval_T_reproduces_published_table():
    for n, row in T_TABLE.items():
        assert [eval_T(n, r) for r in range(n)] == row


def test_eval_S_empty_sum_and_ranges():
    assert eval_S(2, 1) == 0  # r + 1 > floor(m/2) leaves no summands
    assert eval_S(1, 0) == 0
    with pytest.raises(RangeError):
        eval_S(0, 0)
    with pytest.raises(RangeError):
        eval_S(5, -1)


def test_eval_TUVW_range_errors():
    for fn in (eval_T, eval_U, eval_V, eval_W):
        with pytest.raises(RangeError):
            fn(0, 0)
        with pytest.raises(RangeError):
            fn(4, 4)
        with pytest.raises(RangeError):
            fn(4, -1)


def test_eval_V_pinned_case():
    for n in range(1, 12):
        assert eval_V(n, 0) == 2**n - 1


def test_eval_W_degenerate_binomials():
    assert eval_W(1, 0) == 1  # needs C(-1, 0) = 1
    assert eval_W(3, 2) == 1  # needs C(-1, 0) = 1 next to C(1, 2) = 0
    assert eval_W(2, 1) == 1  # needs C(0, 1) = 0


def comb0(a, b):
    """math.comb under the package convention: C(a, 0) = 1 for every a."""
    if b == 0:
        return 1
    return math.comb(a, b) if 0 <= b <= a else 0


def sample_r(n):
    """Every r < n on small boards; the edges and a few inner values on large ones."""
    if n <= 24:
        return range(n)
    return sorted({0, 1, 2, n // 3, n // 2, n - 2, n - 1})


BOARDS = list(range(1, 25)) + [99, 100, 101, 200, 201, 299, 300]


def test_eval_S_against_its_summand():
    for m in BOARDS:
        h = m // 2
        rs = range(h + 2) if m <= 24 else sorted({0, 1, h // 2, h - 1, h, h + 1})
        for r in rs:  # r >= floor(m/2) leaves the sum empty
            summands = [math.comb(m, 2 * i) * math.comb(i - 1, r) for i in range(r + 1, h + 1)]
            assert eval_S(m, r) == sum(summands), (m, r)


def test_terms_and_sums_against_their_summands():
    for n in BOARDS:
        for r in sample_r(n):  # includes r = 0 and n = r + 1
            t = [math.comb(n, j) * math.comb(j - 1, r) for j in range(r + 1, n + 1)]
            u = [math.comb(j - 1, r) * 2 ** (j - 1 - r) for j in range(r + 1, n + 1)]
            v = [
                comb0(n - 1 - j, r - 1) * 2 ** (n - r - j) * (2**j - 1)
                for j in range(1, n - r + 1)
            ]
            w = [2 ** (n - r) * comb0(n - 2 - 2 * k, r - 2 * k) for k in range(r // 2 + 1)]
            assert (terms_T(n, r), terms_U(n, r), terms_V(n, r), terms_W(n, r)) == (t, u, v, w)
            assert eval_T(n, r) == sum(t), (n, r)
            assert eval_U(n, r) == sum(u), (n, r)
            assert eval_V(n, r) == (sum(v) if r else 2**n - 1), (n, r)
            assert eval_W(n, r) == sum(w) + (-1) ** (r + 1), (n, r)


def clear_store():
    formulas._TABLES.clear()
    formulas._held_bytes = 0


def held_bytes():
    """The bytes the store holds, recounted; the store's own count must agree.

    Each table holds its entries, its list, its key's int and the fixed
    cost of its key tuple and its slot in the store.
    """
    held = sum(
        formulas._SLOT_BYTES + sys.getsizeof(key) + sys.getsizeof(table) + sum(map(sys.getsizeof, table))
        for (_, key), table in formulas._TABLES.items()
    )
    assert held == formulas._held_bytes
    return held


class CountingStore(dict):
    """A store that counts how often it drops every table."""

    drops = 0

    def clear(self):
        self.drops += 1
        super().clear()


def test_every_formulas_cache_is_bounded():
    # the store is the module's one cache, and its budget bounds bytes
    assert not [f for f in vars(formulas).values() if hasattr(f, "cache_parameters")]
    budget = formulas._TABLE_BUDGET_BYTES
    assert isinstance(budget, int) and budget > 0
    clear_store()
    for r in range(1000):  # empty sums store no table of their own
        assert eval_S(1, r) == 0
    assert list(formulas._TABLES) == [(formulas._pascal_row, 1)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        # each V table of q ~ 8000 holds about 9 MiB, more than half the budget
        calls = [(eval_V, 9000, 1), (eval_U, 9000, 10)] + [(eval_V, 8000 + k, 1) for k in range(4)]
        for f, n, r in calls:
            f(n, r)
            assert held_bytes() <= budget, (f.__name__, n, r)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the budget counts each table's list, key and slot in the store too
    assert retained <= budget + (1 << 20)
    clear_store()


def test_many_small_tables_stay_within_the_budget(monkeypatch):
    # two tables of one or two entries per r: their lists, keys and slots in
    # the store hold several times their entries, and the budget counts them
    budget = 1 << 20
    monkeypatch.setattr(formulas, "_TABLE_BUDGET_BYTES", budget)
    clear_store()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for r in range(1, 10001):
            eval_U(r + 1, r)
            eval_V(r + 1, r)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= budget + (1 << 19)
    assert held_bytes() <= budget
    clear_store()


@pytest.mark.parametrize("r", [0, 1, 6])
def test_cached_sums_in_any_order_of_n(r):
    # the tables grow with the largest n asked; smaller n must read a prefix
    # of them, and larger n extend them by the missing terms only
    top = 300
    ns = range(r + 1, top + 1)  # r = 0 includes n = 1; every r includes n = r + 1
    want = {}
    for n in ns:
        u = sum(math.comb(j - 1, r) * 2 ** (j - 1 - r) for j in range(r + 1, n + 1))
        v = sum(comb0(n - 1 - j, r - 1) * 2 ** (n - r - j) * (2**j - 1) for j in range(1, n - r + 1))
        w = sum(2 ** (n - r) * comb0(n - 2 - 2 * k, r - 2 * k) for k in range(r // 2 + 1))
        want[n] = (u, v if r else 2**n - 1, w + (-1) ** (r + 1))
    for order in ([top, *reversed(ns), *ns], list(ns)):
        clear_store()
        for n in order:
            assert (eval_U(n, r), eval_V(n, r), eval_W(n, r)) == want[n], (n, r)


class YieldingList(list):
    """A list that lets another thread run just before each append."""

    def append(self, value):
        time.sleep(0)
        super().append(value)


class YieldingStore(dict):
    """A store whose new columns and running sums, the tables grown in parts, are YieldingLists."""

    def setdefault(self, key, default):
        grown_in_parts = key[0] in (formulas._diagonal, formulas._running_U)
        return super().setdefault(key, YieldingList(default) if grown_in_parts else default)


def test_sums_from_several_threads(monkeypatch):
    # Threads share the stored tables. Here each table yields to another
    # thread between reading its length and appending, so a growth that two
    # threads run at once appends the same entries twice and every later
    # value shifts; with a tiny switch interval the yield always hands over.
    # eval_U grows its running sums and, from inside that growth, the
    # column; eval_T grows the column alone.
    monkeypatch.setattr(formulas, "_TABLES", YieldingStore())
    monkeypatch.setattr(formulas, "_held_bytes", 0)
    r = 3
    ns = range(r + 1, 400)
    want = [sum(math.comb(j - 1, r) << (j - 1 - r) for j in range(r + 1, n + 1)) for n in ns]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for first, second in [(eval_U, eval_T), (eval_T, eval_U)]:
            clear_store()
            start = threading.Barrier(4)
            got = []

            def sweep():
                start.wait()
                got.append(([first(n, r) for n in ns], [second(n, r) for n in ns]))

            threads = [threading.Thread(target=sweep) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert got == [(want, want)] * 4, (first.__name__, second.__name__)
            held_bytes()
    finally:
        sys.setswitchinterval(interval)


def test_diagonal_cache_covers_every_table_column(monkeypatch, capsys):
    # `lastsq table nmax` reads the column of every r < nmax; at the largest
    # nmax the store keeps every one of them, with no table dropped
    store = CountingStore()
    monkeypatch.setattr(formulas, "_TABLES", store)
    monkeypatch.setattr(formulas, "_held_bytes", 0)
    assert cli.main(["table", str(cli._TABLE_NMAX_LIMIT)]) == 0
    capsys.readouterr()
    assert store.drops == 0
    assert all((formulas._diagonal, r) in store for r in range(cli._TABLE_NMAX_LIMIT))
    assert held_bytes() <= formulas._TABLE_BUDGET_BYTES


def test_verify_all_keeps_every_table(monkeypatch):
    store = CountingStore()
    monkeypatch.setattr(formulas, "_TABLES", store)
    monkeypatch.setattr(formulas, "_held_bytes", 0)
    assert summarize(verify_all())[1] == 0
    assert store.drops == 0
    assert 0 < held_bytes() <= formulas._TABLE_BUDGET_BYTES


def test_five_way_agreement_medium_range():
    for m in range(2, 61):
        for r in range(0, (m - 2) // 2 + 1):
            n = m - 1 - r
            s = eval_S(m, r)
            assert s == eval_T(n, r) == eval_U(n, r) == eval_V(n, r) == eval_W(n, r)


def test_eval_S_strictly_increasing_in_m():
    # every series coefficient is positive from m = 2r + 2 on
    for r in range(0, 9):
        for m in range(2 * r + 2, 61):
            assert eval_S(m + 1, r) > eval_S(m, r)


def test_moriarty_examples():
    assert moriarty(6, 1) == (48, 48)
    assert moriarty(2, 1) == (1, 1)  # rhs passes through the fraction 2**-1
    for m in range(1, 12):
        assert moriarty(m, 0) == (2 ** (m - 1), 2 ** (m - 1))


def test_moriarty_full_range():
    for m in range(1, 31):
        for r in range(0, m // 2 + 1):
            if m > r:
                lhs, rhs = moriarty(m, r)
                assert lhs == rhs


def test_moriarty_range_errors():
    with pytest.raises(RangeError):
        moriarty(0, 0)
    with pytest.raises(RangeError):
        moriarty(4, 3)
    with pytest.raises(RangeError):
        moriarty(1, 1)  # m > r fails


def test_companion_examples():
    assert companion_identity(4, 1) == (32, 32)
    assert companion_identity(3, 0) == (8, 8)
    for n in range(0, 10):
        assert companion_identity(n, n) == (1, 1)


def test_companion_full_range():
    for n in range(0, 31):
        for r in range(0, n + 1):
            lhs, rhs = companion_identity(n, r)
            assert lhs == rhs
    with pytest.raises(RangeError):
        companion_identity(3, 4)


def test_gf_coefficients_examples():
    assert gf_coefficients(0, 4) == [0, 0, 1, 3, 7]
    assert gf_coefficients(1, 6)[6] == eval_S(6, 1) == 17
    assert gf_coefficients(4, 15)[15] == 5503
    with pytest.raises(RangeError):
        gf_coefficients(2, 5)  # m_max below the leading power 2r + 2


def test_gf_coefficients_match_direct_evaluation():
    for r in range(0, 5):
        coeffs = gf_coefficients(r, 25)
        assert coeffs[0] == 0
        for m in range(1, 26):
            assert coeffs[m] == eval_S(m, r)


def test_recurrence_inputs_and_residuals():
    assert [eval_T(2 * k, k) for k in range(1, 5)] == [1, 7, 49, 351]
    # n = 1 term by term: 84*1 + 72*7 - 12*49 = 0
    assert (84 * 1, 72 * 7, -12 * 49) == (84, 504, -588)
    for n in range(1, 13):
        assert recurrence_residual(n) == 0
    with pytest.raises(RangeError):
        recurrence_residual(0)


def test_oddness_and_divisibility_examples():
    assert oddness_and_divisibility(6, 1) == (True, True)  # 17 - 1 = 16, 8 | 16
    assert oddness_and_divisibility(2, 0) == (True, True)  # 1 + 1 = 2, 2 | 2
    assert oddness_and_divisibility(15, 4) == (True, True)  # 5504 = 64 * 86
    with pytest.raises(RangeError):
        oddness_and_divisibility(5, 2)


def test_oddness_and_divisibility_medium_range():
    for m in range(2, 41):
        for r in range(0, (m - 2) // 2 + 1):
            assert oddness_and_divisibility(m, r) == (True, True)
