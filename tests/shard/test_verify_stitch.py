"""Batched verify + incremental stitch against a plain reference.

The reference is the per-candidate formulation: every candidate's full
point sequence per shard (``timestamps_of``), all of its maximal runs
(``_iter_runs``), and a merge that concatenates the run lists in shard
order, stitches runs across cuts and only then applies the thresholds.
The batched pass keeps only the first, last and interesting runs of a
shard and folds shards one at a time; both must give the same pattern
set and the same merge counters.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.intervals import _iter_runs
from repro.core.model import (
    PeriodicInterval,
    RecurringPattern,
    RecurringPatternSet,
)
from repro.exceptions import ParameterError
from repro.shard.merge import MergeStats, StitchAccumulator
from repro.shard.miner import _CandidateBatches, _verify_shard
from repro.shard.planner import plan_with_cuts
from repro.timeseries.database import TransactionalDatabase

ITEMS = "abcde"


def _reference(shards, candidates, per, min_ps, min_rec):
    runs_by_pattern, support = {}, {}
    for shard in shards:
        for items in candidates:
            timestamps = shard.timestamps_of(items)
            if timestamps:
                runs_by_pattern.setdefault(items, []).extend(
                    _iter_runs(timestamps, per)
                )
                support[items] = support.get(items, 0) + len(timestamps)
    patterns, stitched_runs, boundary_patterns = [], 0, 0
    for items, runs in runs_by_pattern.items():
        merged, stitched_here = [], 0
        for run in runs:
            if merged and run[0] - merged[-1][1] <= per:
                start, _, ps = merged[-1]
                merged[-1] = (start, run[1], ps + run[2])
                stitched_here += 1
            else:
                merged.append(run)
        stitched_runs += stitched_here
        boundary_patterns += bool(stitched_here)
        intervals = tuple(
            PeriodicInterval(start, end, ps)
            for start, end, ps in merged
            if ps >= min_ps
        )
        if len(intervals) >= min_rec:
            patterns.append(
                RecurringPattern(items, support[items], intervals)
            )
    stats = MergeStats(len(runs_by_pattern), stitched_runs, boundary_patterns)
    return RecurringPatternSet(patterns), stats


def _batched(shards, candidates, per, min_ps, min_rec):
    batches = _CandidateBatches(candidates)
    accumulator = StitchAccumulator(
        candidates, per=per, min_ps=min_ps, min_rec=min_rec
    )
    for shard in shards:
        accumulator.fold(_verify_shard(shard, batches, per, min_ps))
    return accumulator.finish()


def _typed(pattern_set):
    """Pattern set with timestamp *types*, which ``==`` ignores."""
    return [
        (p.sorted_items(), p.support,
         [(type(i.start), type(i.end)) for i in p.intervals])
        for p in pattern_set
    ]


@st.composite
def _cases(draw):
    """A database whose items each live in a random time window (so
    items vanish from whole shards), cuts anywhere — inside runs too —
    and candidates over the whole alphabet, absent items included."""
    scale = draw(st.sampled_from([1, 0.5, "mixed"]))
    windows = {
        item: sorted(draw(st.lists(st.integers(0, 60), min_size=2,
                                   max_size=2)))
        for item in ITEMS[:-1]  # the last item never occurs
    }
    ticks = draw(st.sets(st.integers(0, 60), min_size=1, max_size=40))
    rows = []
    for tick in sorted(ticks):
        live = [item for item, (lo, hi) in windows.items() if lo <= tick <= hi]
        itemset = draw(st.sets(st.sampled_from(live))) if live else set()
        if not itemset:
            continue
        if scale == "mixed":
            ts = tick if tick % 3 else tick + 0.5
        else:
            ts = tick * scale
        rows.append((ts, "".join(sorted(itemset))))
    database = TransactionalDatabase(rows)
    timestamps = [row.ts for row in database] or [0]
    cuts = draw(st.lists(st.sampled_from(timestamps), max_size=6))
    candidates = list(draw(st.sets(
        st.frozensets(st.sampled_from(ITEMS), min_size=1), min_size=1,
    )))
    per = draw(st.sampled_from([0.5, 1, 2, 3, 5, 60]))
    min_ps = draw(st.integers(1, 5))
    min_rec = draw(st.integers(1, 3))
    return database, cuts, candidates, per, min_ps, min_rec


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_cases())
def test_batched_verify_and_stitch_match_reference(case):
    database, cuts, candidates, per, min_ps, min_rec = case
    if len(database) == 0:
        return
    shards = list(plan_with_cuts([t.ts for t in database], cuts).slices(
        database
    ))
    expected, expected_stats = _reference(
        shards, candidates, per, min_ps, min_rec
    )
    found, stats = _batched(shards, candidates, per, min_ps, min_rec)
    assert found == expected
    assert stats == expected_stats
    if all(isinstance(t.ts, int) for t in database):
        assert _typed(found) == _typed(expected)


def test_chain_hops_shards_and_single_run_shards():
    # "a" every tick 1..12 except 5..6; per=3 joins it all into one run.
    # Cuts at 4, 6 and 9 leave a middle shard without "a" and shards
    # holding a single run each.
    rows = [(t, "a") for t in range(1, 13) if t not in (5, 6)]
    rows += [(5, "b"), (6, "b")]
    database = TransactionalDatabase(rows)
    shards = list(plan_with_cuts([t.ts for t in database], [4, 6, 9])
                  .slices(database))
    candidates = [frozenset("a"), frozenset("b"), frozenset("ab")]
    expected = _reference(shards, candidates, 3, 10, 1)
    found = _batched(shards, candidates, 3, 10, 1)
    assert found == expected
    assert found[1] == MergeStats(2, 2, 1)
    (pattern,) = found[0]
    assert pattern.intervals == (PeriodicInterval(1, 12, 10),)


def test_huge_integers_mixed_with_floats_are_refused():
    big = 2 ** 60
    shards = [
        TransactionalDatabase([(0.5, "a")]),
        TransactionalDatabase([(big, "a"), (big + 1, "a")]),
    ]
    batches = _CandidateBatches([frozenset("a")])
    accumulator = StitchAccumulator(
        [frozenset("a")], per=1, min_ps=1, min_rec=1
    )
    with pytest.raises(ParameterError, match="2\\*\\*53"):
        for shard in shards:
            accumulator.fold(_verify_shard(shard, batches, 1, 1))
