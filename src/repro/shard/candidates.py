"""Boundary-window candidate enumeration for the shard merge.

Per-shard mining (even at the relaxed ``min_rec = 1`` the pipeline
uses) can only surface patterns with at least one interesting interval
*inside* some shard.  A pattern whose every interesting interval spans
a cut — each fragment individually below ``min_ps`` — is invisible to
every shard and must be recovered from the cut neighbourhoods.

The key localization fact: if a periodic run of pattern ``X`` spans the
cut ``c``, its two occurrences adjacent to the cut satisfy
``t_left <= c < t_right`` and ``t_right - t_left <= per`` (Definition 4),
so **both lie within ``per`` of the cut**: ``t_left in (c - per, c]``
and ``t_right in (c, c + per]``.  The run itself may extend arbitrarily
far into either side, but the *patterns able to span the cut* are fully
determined by the transactions inside this ``2·per`` window: ``X`` must
be a subset of one transaction on each side, i.e. a subset of some
pairwise itemset intersection across the cut.

:class:`BoundaryWindowCollector` retains exactly those window
transactions while the shards stream past (bounded by the data density
within ``per`` of each cut, independent of total input size), and
:func:`boundary_candidates` expands the pairwise intersections into the
candidate itemsets the verification pass must re-check globally.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, FrozenSet, Iterable, List, NamedTuple, Set, Tuple

__all__ = ["BoundaryWindowCollector", "CutWindows", "boundary_candidates"]

#: One transaction kept in a window: ``(ts, itemset)``.
WindowRow = Tuple[float, FrozenSet]


class CutWindows(NamedTuple):
    """The transactions within ``per`` of one cut, split by side."""

    cut: float
    left: Tuple[WindowRow, ...]   # ts in (cut - per, cut]
    right: Tuple[WindowRow, ...]  # ts in (cut, cut + per]


class _OpenWindow:
    __slots__ = ("cut", "left", "right")

    def __init__(self, cut: float, left: List[WindowRow]):
        self.cut = cut
        self.left = left
        self.right: List[WindowRow] = []


class BoundaryWindowCollector:
    """Streams transactions once, retaining only the cut neighbourhoods.

    Call :meth:`observe` for every transaction in time order and
    :meth:`cut` at each shard boundary (after the boundary shard's last
    transaction, before the next shard's first).  Memory is bounded by
    the number of transactions within ``per`` of the most recent
    timestamp plus any still-open right windows — never by the input
    size.
    """

    def __init__(self, per: float):
        self.per = per
        self._recent: Deque[WindowRow] = deque()
        self._open: List[_OpenWindow] = []
        self._closed: List[CutWindows] = []

    def observe(self, ts: float, items: FrozenSet) -> None:
        """Feed one transaction, in timestamp order.

        The itemset lands in the trailing ``(ts - per, ts]`` buffer
        (the *left* window of a future cut) and in the right window of
        every still-open cut within ``per`` behind it.
        """
        still_open = []
        for window in self._open:
            if ts <= window.cut + self.per:
                window.right.append((ts, items))
                still_open.append(window)
            else:
                self._close(window)
        self._open = still_open
        self._recent.append((ts, items))
        while self._recent and self._recent[0][0] <= ts - self.per:
            self._recent.popleft()

    def cut(self, cut: float) -> None:
        """Declare a shard boundary at ``cut`` (the last ts of a shard).

        Freezes the current trailing buffer as the cut's left window
        ``(cut - per, cut]`` and opens its right window ``(cut, cut + per]``
        for the transactions that follow.
        """
        left = [row for row in self._recent if cut - self.per < row[0] <= cut]
        self._open.append(_OpenWindow(cut, left))

    def _close(self, window: _OpenWindow) -> None:
        self._closed.append(
            CutWindows(window.cut, tuple(window.left), tuple(window.right))
        )

    def finish(self) -> List[CutWindows]:
        """Close any still-open windows and return all cut windows."""
        for window in self._open:
            self._close(window)
        self._open = []
        return list(self._closed)


def boundary_candidates(
    windows: Iterable[CutWindows],
) -> Set[FrozenSet]:
    """Every itemset that could have a periodic run spanning some cut.

    For each cut, the candidates are the non-empty subsets of the
    pairwise intersections ``items(t_left) & items(t_right)`` across
    the cut — a pattern occurring on both sides within ``per`` is a
    subset of at least one such intersection.  Subset expansion is
    exponential in the *intersection* size, which is small in practice
    (and bounded by the narrowest transaction of the pair), the same
    enumeration scale the QA streaming relations already rely on.

    A cut's intersections expand largest first, and one already in the
    candidate set is skipped: only the expansion of a superset can have
    added it, and that expansion emitted all of its subsets too.
    """
    candidates: Set[FrozenSet] = set()
    for window in windows:
        intersections: Set[FrozenSet] = set()
        for _, left_items in window.left:
            for _, right_items in window.right:
                common = left_items & right_items
                if common:
                    intersections.add(frozenset(common))
        for common in sorted(intersections, key=len, reverse=True):
            if common in candidates:
                continue
            members = list(common)
            for mask in range(1, 1 << len(members)):
                candidates.add(
                    frozenset(
                        members[index]
                        for index in range(len(members))
                        if mask >> index & 1
                    )
                )
    return candidates
