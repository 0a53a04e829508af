"""Stitching verified shard runs into the global result, shard by shard.

The merge rests on the split/merge reading of the paper's model (the
``concat-disjoint`` metamorphic relation, Definitions 5 and 8): shards
partition the time axis, so a pattern's global point sequence is the
concatenation of its per-shard point sequences, and every *maximal*
periodic run of the global sequence is either (a) a maximal run inside
one shard, or (b) a chain of per-shard fragments whose adjacent
endpoints are within ``per`` of each other across a cut.

A shard therefore only has to report, per candidate pattern
(:class:`ShardRuns`): its support, its *first* and *last* maximal run,
and its *interior* runs with ``ps >= min_ps``.  Inside a shard two
consecutive maximal runs are more than ``per`` apart, so an interior
run can never stitch; one below ``min_ps`` can neither stitch nor
become an interval, and dropping it changes no output.

:class:`StitchAccumulator` folds the shards in time order as they are
verified.  Per candidate it keeps the summed support, the one *open*
run (the last run seen, which the next shard's first run may extend),
the stitch count, and the closed interesting intervals.  Thresholds are
applied to the *stitched* runs only in :meth:`StitchAccumulator.finish`,
so a pattern whose interesting intervals exist only across cuts is
recovered exactly, and a fragment that only looked interesting in
isolation is not double-counted.  Retained state is
O(candidates + interesting intervals), whatever the number of shards.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.core.model import (
    PeriodicInterval,
    RecurringPattern,
    RecurringPatternSet,
)
from repro.exceptions import ParameterError

__all__ = ["MergeStats", "ShardRuns", "StitchAccumulator"]

#: Exact-integer range of float64: integer and float timestamps may
#: share one accumulator column only while the integers stay below it.
_FLOAT64_EXACT_BOUND = 2 ** 53


class MergeStats(NamedTuple):
    """What the merge actually did (telemetry and QA counters)."""

    patterns_considered: int
    stitched_runs: int
    boundary_patterns: int


class ShardRuns(NamedTuple):
    """The verified runs of every candidate present in one shard.

    Row ``i`` of the per-candidate arrays describes candidate
    ``candidate[i]`` (indices into the candidate list, each at most
    once): its shard-local support, its first run ``head_*`` and its
    last run ``tail_*`` (the same run when ``multi[i]`` is false).  The
    ``interior_*`` arrays list, in time order per candidate, every
    other run with ``ps >= min_ps``.
    """

    candidate: np.ndarray
    support: np.ndarray
    head_start: np.ndarray
    head_end: np.ndarray
    head_ps: np.ndarray
    tail_start: np.ndarray
    tail_end: np.ndarray
    tail_ps: np.ndarray
    multi: np.ndarray
    interior_candidate: np.ndarray
    interior_start: np.ndarray
    interior_end: np.ndarray
    interior_ps: np.ndarray


class StitchAccumulator:
    """Running per-candidate stitch state, fed one shard at a time.

    ``min_ps`` must already be an absolute count resolved against the
    *full* database size (fractional thresholds resolve before
    sharding, or each shard would move the bar).  Shards must be
    folded in time order.
    """

    def __init__(
        self, candidates: Sequence, *, per: float, min_ps: int, min_rec: int
    ):
        self.candidates = candidates
        self.per = per
        self.min_ps = min_ps
        self.min_rec = min_rec
        count = len(candidates)
        self.support = np.zeros(count, dtype=np.int64)
        self.stitches = np.zeros(count, dtype=np.int64)
        # ps == 0 marks "no open run yet".
        self.open_ps = np.zeros(count, dtype=np.int64)
        self.open_start = np.zeros(count, dtype=np.int64)
        self.open_end = np.zeros(count, dtype=np.int64)
        self._closed: List[Tuple[np.ndarray, ...]] = []
        self._float_seen = False
        self._int_magnitude = 0

    def fold(self, runs: ShardRuns) -> None:
        """Stitch one shard's runs onto the open runs, in time order."""
        self._admit(runs.head_start, runs.tail_end)
        c = runs.candidate
        self.support[c] += runs.support
        has_open = self.open_ps[c] > 0
        # Only a cut can separate runs closer than per: the open run is
        # the pattern's last run in an earlier shard (a chain may hop
        # over shards where the pattern is absent).
        stitch = has_open & (runs.head_start - self.open_end[c] <= self.per)
        self._close_open(c[has_open & ~stitch])
        joined = c[stitch]
        self.open_end[joined] = runs.head_end[stitch]
        self.open_ps[joined] += runs.head_ps[stitch]
        self.stitches[joined] += 1
        fresh = ~stitch
        self._set_open(
            c[fresh],
            runs.head_start[fresh],
            runs.head_end[fresh],
            runs.head_ps[fresh],
        )
        # With more than one run in the shard the head chain ends here,
        # the interior runs are final, and the tail becomes the open run.
        multi = runs.multi
        self._close_open(c[multi])
        self._close(
            runs.interior_candidate,
            runs.interior_start,
            runs.interior_end,
            runs.interior_ps,
        )
        self._set_open(
            c[multi],
            runs.tail_start[multi],
            runs.tail_end[multi],
            runs.tail_ps[multi],
        )

    def finish(self) -> Tuple[RecurringPatternSet, MergeStats]:
        """Close the open runs and apply ``min_rec`` — the exact result."""
        self._close_open(np.flatnonzero(self.open_ps))
        if self._closed:
            candidate, start, end, ps = (
                np.concatenate(column) for column in zip(*self._closed)
            )
        else:
            candidate = np.zeros(0, dtype=np.int64)
            start = end = ps = candidate
        # Closings were appended in time order per candidate; a stable
        # sort by candidate keeps that order inside each group.
        order = np.argsort(candidate, kind="stable")
        candidate = candidate[order]
        counts = np.bincount(candidate, minlength=len(self.candidates))
        bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
        starts = start[order].tolist()
        ends = end[order].tolist()
        supports = ps[order].tolist()
        patterns = []
        for index in np.flatnonzero(counts >= self.min_rec).tolist():
            lo, hi = bounds[index], bounds[index + 1]
            patterns.append(
                RecurringPattern(
                    items=self.candidates[index],
                    support=int(self.support[index]),
                    intervals=tuple(
                        PeriodicInterval(s, e, p)
                        for s, e, p in zip(
                            starts[lo:hi], ends[lo:hi], supports[lo:hi]
                        )
                    ),
                )
            )
        stats = MergeStats(
            patterns_considered=int(np.count_nonzero(self.support)),
            stitched_runs=int(self.stitches.sum()),
            boundary_patterns=int(np.count_nonzero(self.stitches)),
        )
        return RecurringPatternSet(patterns), stats

    def _close_open(self, candidate: np.ndarray) -> None:
        self._close(
            candidate,
            self.open_start[candidate],
            self.open_end[candidate],
            self.open_ps[candidate],
        )

    def _close(self, candidate, start, end, ps) -> None:
        keep = ps >= self.min_ps
        if keep.any():
            self._closed.append(
                (candidate[keep], start[keep], end[keep], ps[keep])
            )

    def _set_open(self, candidate, start, end, ps) -> None:
        self.open_start[candidate] = start
        self.open_end[candidate] = end
        self.open_ps[candidate] = ps

    def _admit(self, first: np.ndarray, last: np.ndarray) -> None:
        """Widen the open-run columns to the shard's timestamp dtype.

        Shards of one input may differ in dtype (integer timestamps in
        one, a float in another).  Integers join a float column exactly
        only below ``2**53``; beyond that the mix is refused, as the
        in-memory columnar kernel refuses it.
        """
        if first.size == 0:
            return
        if first.dtype.kind == "f":
            self._float_seen = True
        else:
            self._int_magnitude = max(
                self._int_magnitude,
                abs(int(first.min())),
                abs(int(last.max())),
            )
        if self._float_seen and self._int_magnitude > _FLOAT64_EXACT_BOUND:
            raise ParameterError(
                "integer timestamps above 2**53 mixed with float "
                "timestamps would be silently rounded; use a uniform "
                "integer timebase instead"
            )
        if self._float_seen and self.open_start.dtype.kind != "f":
            self.open_start = self.open_start.astype(np.float64)
            self.open_end = self.open_end.astype(np.float64)
