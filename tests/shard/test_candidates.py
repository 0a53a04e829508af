"""Boundary candidates: the largest-first expansion equals all subsets."""

from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard.candidates import CutWindows, boundary_candidates


def _all_subsets_expansion(windows):
    """Every non-empty subset of every cross-cut intersection."""
    candidates = set()
    for window in windows:
        for _, left in window.left:
            for _, right in window.right:
                common = sorted(left & right)
                for size in range(1, len(common) + 1):
                    candidates.update(
                        frozenset(subset)
                        for subset in combinations(common, size)
                    )
    return candidates


_itemsets = st.frozensets(st.sampled_from("abcdefg"), min_size=1)
_rows = st.lists(st.tuples(st.integers(0, 50), _itemsets), max_size=6)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.builds(CutWindows, st.integers(0, 50), _rows, _rows), max_size=4
    )
)
def test_matches_all_subsets_expansion(windows):
    assert boundary_candidates(windows) == _all_subsets_expansion(windows)


def test_nested_and_repeated_intersections():
    windows = [
        CutWindows(5, ((4, frozenset("ab")), (5, frozenset("abc"))),
                   ((6, frozenset("abcd")), (7, frozenset("a")))),
        CutWindows(9, ((9, frozenset("abc")),), ((10, frozenset("bc")),)),
    ]
    assert boundary_candidates(windows) == {
        frozenset(items)
        for items in ("a", "b", "c", "ab", "ac", "bc", "abc")
    }
