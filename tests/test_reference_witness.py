"""A third witness: the benchmark's automaton counters against the sums.

`perfbench/reference.py` counts both families with small automata over
the cells of a board and imports nothing from the package. Its counts
are compared here with the closed forms on every (m, r) with m <= 60,
far past the boards that brute-force enumeration can reach.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import reference as R  # noqa: E402

from lastsquares import eval_S, eval_T, terms_W  # noqa: E402

M_MAX = 60


def pairs():
    """(m, r, n) with 2 <= m <= M_MAX, 0 <= r <= (m - 2) / 2 and n = m - 1 - r."""
    return [(m, r, m - 1 - r) for m in range(2, M_MAX + 1) for r in range((m - 2) // 2 + 1)]


def test_grid_has_900_pairs():
    assert len(pairs()) == 900


def test_sums_match_the_automaton_counts():
    for m, r, n in pairs():
        assert eval_S(m, r) == R.count_d(m, r, "plus"), (m, r)
        assert eval_T(n, r) == R.count_b(n, r, "plus"), (n, r)
        # term k of W counts all of B(n, r) at weight 2k
        even = [R.count_b(n, r, weight=w) for w in range(0, r + 1, 2)]
        assert terms_W(n, r) == even, (n, r)


def test_lemma_gap_holds_in_the_automaton_counts():
    for _, r, n in pairs():
        odd_plus = R.count_b(n, r, "plus", parity=1)
        even_minus = R.count_b(n, r, "minus", parity=0)
        assert odd_plus == even_minus + (-1) ** (r + 1), (n, r)
