"""Out-of-core, time-sharded mining (plan → mine shards → verify → merge).

The pipeline turns the split/merge theorem into an execution path whose
output is byte-identical to in-memory mining while never holding more
than one shard (plus output-sized candidate state) in memory:

1. **Plan** — :class:`~repro.shard.planner.ShardPlanner` cuts the time
   axis into bounded shards (never splitting a timestamp).
2. **Mine** — every shard mines independently through the existing
   engine / ParallelMiner / resilience stack at the caller's ``per``
   and ``min_ps`` but relaxed ``min_rec = 1``: any pattern with an
   interesting interval wholly inside some shard becomes a candidate.
   Meanwhile a :class:`~repro.shard.candidates.BoundaryWindowCollector`
   retains the transactions within ``per`` of each cut, from which the
   cut-spanning candidates are enumerated — together the two candidate
   sources form a proven superset of the true result (see
   ``docs/performance.md``).
3. **Verify** — a second pass over the shards verifies every candidate
   of a shard in one batched NumPy pass: candidates grouped by length
   AND the shard's packed item-occurrence rows in batches bounded by
   :data:`VERIFY_CELL_BUDGET`, and one segmented diff/RLE splits the
   runs.  Per candidate it keeps only what the stitch can use: the
   support, the first and last run (the only runs that can join a run
   across a cut) and the interior runs with ``ps >= min_ps``.
4. **Merge** — each verified shard is folded straight into a
   :class:`~repro.shard.merge.StitchAccumulator`, which stitches runs
   across cuts as the shards stream past; the ``shard-merge`` step
   closes the open runs and applies the real thresholds.

Entry points: :func:`mine_sharded_database` (shard an in-memory
database — the façade's ``shards=`` / ``max_events_in_memory=`` path
and the QA relation's adversarial-cuts path) and
:func:`mine_sharded_file` (true out-of-core: both passes stream the
file through :func:`~repro.timeseries.io.iter_database_chunks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro._validation import Number, check_count, resolve_count_threshold
from repro.core.accel import _segmented_interval_stats, as_timestamp_array
from repro.core.model import MiningParameters, RecurringPatternSet
from repro.exceptions import ParameterError
from repro.obs.counters import MiningStats
from repro.obs.spans import span
from repro.shard.candidates import (
    BoundaryWindowCollector,
    boundary_candidates,
)
from repro.shard.merge import MergeStats, ShardRuns, StitchAccumulator
from repro.shard.planner import ShardPlan, ShardPlanner, plan_with_cuts
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.io import (
    PathOrFile,
    iter_database_chunks,
    stream_transaction_rows,
)

__all__ = [
    "DEFAULT_MAX_TRANSACTIONS",
    "ShardRunReport",
    "mine_sharded_database",
    "mine_sharded_file",
    "mine_sharded_file_request",
    "mine_sharded_request",
]

#: Default per-shard transaction bound for the file-based path.
DEFAULT_MAX_TRANSACTIONS = 100_000


@dataclass(frozen=True)
class ShardRunReport:
    """What one sharded run did — attached to telemetry as ``extra``."""

    shard_count: int
    sizes: Tuple[int, ...]
    cuts: Tuple[float, ...]
    local_candidates: int
    boundary_candidates: int
    merge: MergeStats

    def as_dict(self) -> dict:
        """JSON-ready view, published as ``telemetry.extra["shards"]``."""
        return {
            "shard_count": self.shard_count,
            "sizes": list(self.sizes),
            "cuts": list(self.cuts),
            "local_candidates": self.local_candidates,
            "boundary_candidates": self.boundary_candidates,
            "stitched_runs": self.merge.stitched_runs,
            "boundary_patterns": self.merge.boundary_patterns,
            "patterns_considered": self.merge.patterns_considered,
        }


#: The full result bundle: (patterns, merged stats, fault log, report).
ShardedOutcome = Tuple[
    RecurringPatternSet, MiningStats, List, ShardRunReport
]


def mine_sharded_database(
    database: TransactionalDatabase,
    per: Number,
    min_ps: Union[int, float],
    min_rec: int = 1,
    engine: str = "rp-growth",
    *,
    jobs: int = 1,
    resilience=None,
    monitor=None,
    shards: Optional[int] = None,
    max_transactions: Optional[int] = None,
    cuts: Optional[Sequence[float]] = None,
) -> ShardedOutcome:
    """Mine an in-memory database through the sharded pipeline.

    Exactly one of ``shards``, ``max_transactions`` and ``cuts`` picks
    the plan; ``cuts`` places boundaries explicitly (the QA relations
    use it to cut inside recurrence runs).  The result is byte-identical
    to ``mine_recurring_patterns(database, ...)`` for any plan.
    """
    timestamps = [transaction.ts for transaction in database]
    given = [
        value for value in (shards, max_transactions, cuts)
        if value is not None
    ]
    if len(given) != 1:
        raise ParameterError(
            "exactly one of shards, max_transactions and cuts must be set"
        )
    if cuts is not None:
        plan = plan_with_cuts(timestamps, cuts)
    else:
        plan = ShardPlanner(
            shards=shards, max_transactions=max_transactions
        ).plan(timestamps)
    return _mine_sharded(
        lambda: plan.slices(database),
        total=len(database),
        plan=plan,
        per=per,
        min_ps=min_ps,
        min_rec=min_rec,
        engine=engine,
        jobs=jobs,
        resilience=resilience,
        monitor=monitor,
    )


def mine_sharded_request(
    database: TransactionalDatabase,
    request,
    *,
    monitor=None,
    cuts: Optional[Sequence[float]] = None,
) -> ShardedOutcome:
    """Mine an in-memory database as described by a ``MiningRequest``.

    The request-object spelling of :func:`mine_sharded_database`:
    thresholds, engine, jobs, resilience and the shard plan all come
    from one :class:`~repro.core.request.MiningRequest`.  ``cuts``
    overrides the plan with explicit boundaries (the QA relations'
    hook); otherwise exactly one of ``request.shards`` /
    ``request.max_events_in_memory`` must be set.
    """
    return mine_sharded_database(
        database,
        request.per,
        request.min_ps,
        request.min_rec,
        request.engine,
        jobs=request.jobs,
        resilience=request.resilience,
        monitor=monitor,
        shards=None if cuts is not None else request.shards,
        max_transactions=(
            None if cuts is not None else request.max_events_in_memory
        ),
        cuts=cuts,
    )


def mine_sharded_file_request(
    source: PathOrFile,
    request,
    *,
    monitor=None,
    use_mmap: bool = False,
) -> ShardedOutcome:
    """Mine a time-sorted file as described by a ``MiningRequest``.

    The request-object spelling of :func:`mine_sharded_file`; the
    per-shard bound comes from ``request.max_events_in_memory``
    (falling back to :data:`DEFAULT_MAX_TRANSACTIONS`).
    """
    return mine_sharded_file(
        source,
        request.per,
        request.min_ps,
        request.min_rec,
        request.engine,
        jobs=request.jobs,
        resilience=request.resilience,
        monitor=monitor,
        max_transactions=(
            request.max_events_in_memory
            if request.max_events_in_memory is not None
            else DEFAULT_MAX_TRANSACTIONS
        ),
        use_mmap=use_mmap,
    )


def mine_sharded_file(
    source: PathOrFile,
    per: Number,
    min_ps: Union[int, float],
    min_rec: int = 1,
    engine: str = "rp-growth",
    *,
    jobs: int = 1,
    resilience=None,
    monitor=None,
    max_transactions: int = DEFAULT_MAX_TRANSACTIONS,
    use_mmap: bool = False,
) -> ShardedOutcome:
    """Mine a time-sorted transaction file without ever loading it.

    Three sequential passes stream the file through the chunked reader
    (:func:`~repro.timeseries.io.iter_database_chunks`): a counting
    pass (fractional ``min_ps`` resolves against the full transaction
    count, exactly as in-memory mining resolves it), the mining pass
    and the verification pass.  Peak memory is bounded by
    ``max_transactions`` plus output-sized candidate state, independent
    of the input length.  ``source`` must be a path when the passes
    need to reopen it (an open handle only supports a single pass) or
    when ``use_mmap`` is set.
    """
    if hasattr(source, "read"):
        raise ParameterError(
            "mine_sharded_file needs a re-readable path, not an open "
            "handle — the pipeline streams the input more than once"
        )
    check_count(max_transactions, "max_transactions")
    total = 0
    previous_ts = None
    for ts, _ in stream_transaction_rows(source, use_mmap=use_mmap):
        if ts != previous_ts:
            total += 1
            previous_ts = ts
    shard_count = -(-total // max_transactions) if total else 0
    return _mine_sharded(
        lambda: iter_database_chunks(
            source, max_transactions, use_mmap=use_mmap
        ),
        total=total,
        plan=None,
        per=per,
        min_ps=min_ps,
        min_rec=min_rec,
        engine=engine,
        jobs=jobs,
        resilience=resilience,
        monitor=monitor,
        shard_count_hint=shard_count,
    )


# ----------------------------------------------------------------------
# The pipeline core
# ----------------------------------------------------------------------
def _mine_sharded(
    provider: Callable[[], Iterator[TransactionalDatabase]],
    *,
    total: int,
    plan: Optional[ShardPlan],
    per: Number,
    min_ps: Union[int, float],
    min_rec: int,
    engine: str,
    jobs: int,
    resilience,
    monitor,
    shard_count_hint: Optional[int] = None,
) -> ShardedOutcome:
    from repro.core.miner import _run_engine
    from repro.core.request import resolve_jobs

    MiningParameters(per=per, min_ps=min_ps, min_rec=min_rec)
    jobs = resolve_jobs(jobs, engine)
    if total == 0:
        empty = ShardRunReport(0, (), (), 0, 0, MergeStats(0, 0, 0))
        return RecurringPatternSet(), MiningStats(), [], empty
    min_ps_abs = resolve_count_threshold(min_ps, "min_ps", total)
    expected_shards = (
        plan.shard_count if plan is not None else shard_count_hint
    )
    registry = monitor.registry if monitor is not None else None

    stats = MiningStats()
    faults: List = []
    candidates: Set[FrozenSet] = set()
    collector = BoundaryWindowCollector(per)
    sizes: List[int] = []
    cut_timestamps: List[float] = []

    if monitor is not None:
        monitor.phase_started("shard-mine", units=expected_shards)
    try:
        with span("shard-mine"):
            previous_end: Optional[float] = None
            for index, shard_db in enumerate(provider()):
                if previous_end is not None:
                    collector.cut(previous_end)
                    cut_timestamps.append(previous_end)
                with span(f"shard[{index}]"):
                    found, shard_stats, shard_faults = _run_engine(
                        shard_db, per, min_ps_abs, 1, engine, jobs,
                        resilience, monitor=monitor,
                    )
                stats.merge(shard_stats)
                faults.extend(shard_faults)
                for pattern in found:
                    candidates.add(pattern.items)
                for ts, itemset in shard_db:
                    collector.observe(ts, itemset)
                sizes.append(len(shard_db))
                previous_end = shard_db.end
                if monitor is not None:
                    monitor.unit_done(index)
    finally:
        if monitor is not None:
            monitor.phase_finished()

    local_count = len(candidates)
    with span("shard-candidates"):
        spanning = boundary_candidates(collector.finish())
    candidates |= spanning

    candidate_list = list(candidates)
    batches = _CandidateBatches(candidate_list)
    accumulator = StitchAccumulator(
        candidate_list, per=per, min_ps=min_ps_abs, min_rec=min_rec
    )
    if monitor is not None:
        monitor.phase_started("shard-verify", units=len(sizes))
    try:
        with span("shard-verify"):
            for index, shard_db in enumerate(provider()):
                accumulator.fold(
                    _verify_shard(shard_db, batches, per, min_ps_abs)
                )
                if monitor is not None:
                    monitor.unit_done(index)
    finally:
        if monitor is not None:
            monitor.phase_finished()

    with span("shard-merge"):
        result, merge_stats = accumulator.finish()

    # The per-shard engine counters summed above describe the relaxed
    # candidate mines; re-point the headline fields at the merged run.
    stats.patterns_found = len(result)
    stats.candidate_patterns += len(candidates)
    stats.recurrence_evaluations += merge_stats.patterns_considered

    report = ShardRunReport(
        shard_count=len(sizes),
        sizes=tuple(sizes),
        cuts=tuple(cut_timestamps),
        local_candidates=local_count,
        boundary_candidates=len(spanning),
        merge=merge_stats,
    )
    if registry is not None:
        registry.counter("repro_shard_runs_total").inc()
        registry.counter("repro_shard_mined_total").inc(len(sizes))
        registry.counter("repro_shard_transactions_total").inc(total)
        registry.counter("repro_shard_candidates_total").inc(
            len(candidates)
        )
        registry.counter("repro_shard_boundary_candidates_total").inc(
            len(spanning)
        )
        registry.counter("repro_shard_stitched_runs_total").inc(
            merge_stats.stitched_runs
        )
    return result, stats, faults, report


# ----------------------------------------------------------------------
# Batched verification
# ----------------------------------------------------------------------
#: Most candidate × transaction cells one verify batch ANDs at once,
#: and most occurrences one segmented RLE call splits into runs.  It
#: bounds the transient memory of verification whatever the candidate
#: count and shard size.
VERIFY_CELL_BUDGET = 1 << 18


class _CandidateBatches:
    """The candidate list as item-id matrices, one per pattern length.

    ``groups`` holds ``(positions, item_ids)`` pairs: the candidates of
    one length ``k`` as indices into the candidate list and as an
    ``(m, k)`` matrix of ids from ``item_ids``.
    """

    def __init__(self, candidates: Sequence[FrozenSet]):
        self.item_ids: Dict = {}
        by_length: Dict[int, Tuple[List[int], List[List[int]]]] = {}
        assign = self.item_ids.setdefault
        for position, items in enumerate(candidates):
            row = [assign(item, len(self.item_ids)) for item in items]
            positions, rows = by_length.setdefault(len(row), ([], []))
            positions.append(position)
            rows.append(row)
        self.groups = [
            (
                np.array(positions, dtype=np.int64),
                np.array(rows, dtype=np.int64),
            )
            for _, (positions, rows) in sorted(by_length.items())
        ]


def _verify_shard(
    shard_db: TransactionalDatabase,
    batches: _CandidateBatches,
    per: Number,
    min_ps: int,
) -> ShardRuns:
    """Every candidate's support and stitchable/interesting runs in a shard.

    One pass over the transactions builds a packed bit row per
    candidate item present in the shard.  Batches of same-length
    candidates AND their item rows (at most :data:`VERIFY_CELL_BUDGET`
    cells per batch) and unpack the set bits into occurrence columns;
    one segmented RLE (:func:`~repro.core.accel._segmented_interval_stats`)
    per budget's worth of occurrences then splits them into runs.
    """
    n = len(shard_db)
    ts = as_timestamp_array([transaction.ts for transaction in shard_db])
    itemsets = [itemset for _, itemset in shard_db]
    widths = [len(itemset) for itemset in itemsets]
    ids = np.fromiter(
        map(
            batches.item_ids.get,
            chain.from_iterable(itemsets),
            repeat(-1),
        ),
        dtype=np.int64,
        count=sum(widths),
    )
    tx = np.repeat(np.arange(n, dtype=np.int64), widths)
    found = ids >= 0
    ids, tx = ids[found], tx[found]
    universe = len(batches.item_ids)
    present = np.flatnonzero(np.bincount(ids, minlength=universe))
    local_of = np.full(universe, -1, dtype=np.int64)
    local_of[present] = np.arange(present.size)
    width = (n + 7) >> 3
    packed = np.zeros(present.size * width, dtype=np.uint8)
    np.bitwise_or.at(
        packed,
        local_of[ids] * width + (tx >> 3),
        (128 >> (tx & 7)).astype(np.uint8),
    )
    packed = packed.reshape(present.size, width)

    batch = max(1, VERIFY_CELL_BUDGET // max(n, 1))
    parts: List[ShardRuns] = []
    pending: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    pending_size = 0
    for positions, item_rows in batches.groups:
        local = local_of[item_rows]
        complete = (local >= 0).all(axis=1)
        positions, local = positions[complete], local[complete]
        for lo in range(0, positions.size, batch):
            rows = local[lo:lo + batch]
            bits = packed[rows[:, 0]]
            for column in range(1, rows.shape[1]):
                bits &= packed[rows[:, column]]
            # Most candidates are absent from most shards, and the rest
            # are sparse: unpack only the non-zero bytes of hit rows.
            hit = bits.any(axis=1)
            bits = bits[hit]
            row, byte = np.nonzero(bits)
            offset, bit = np.nonzero(
                np.unpackbits(bits[row, byte][:, None], axis=1)
            )
            if pending_size + offset.size > VERIFY_CELL_BUDGET:
                parts.append(_summarise(pending, ts, per, min_ps))
                pending, pending_size = [], 0
            pending.append(
                (
                    positions[lo:lo + batch][hit],
                    np.bincount(row[offset], minlength=bits.shape[0]),
                    byte[offset] * 8 + bit,
                )
            )
            pending_size += offset.size
    parts.append(_summarise(pending, ts, per, min_ps))
    return ShardRuns(*(np.concatenate(column) for column in zip(*parts)))


def _summarise(
    pending: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    ts: np.ndarray,
    per: Number,
    min_ps: int,
) -> ShardRuns:
    """Run summary of verified batches, one segmented RLE for all.

    Each pending batch holds the candidates it found, their supports
    and their occurrence columns laid end to end in candidate order.
    """
    if pending:
        candidate, support, column = (
            np.concatenate(part) for part in zip(*pending)
        )
    else:
        candidate = support = column = np.zeros(0, dtype=np.int64)
    seq = ts[column]
    first = np.zeros(candidate.size, dtype=np.int64)
    np.cumsum(support[:-1], out=first[1:])
    last = first + support - 1
    _, _, run_seg, run_first, run_last, head_last, tail_first = (
        _segmented_interval_stats(seq, first, per, min_ps, edges=True)
    )
    interior = (run_first != first[run_seg]) & (run_last != last[run_seg])
    run_first, run_last = run_first[interior], run_last[interior]
    return ShardRuns(
        candidate=candidate,
        support=support,
        head_start=seq[first],
        head_end=seq[head_last],
        head_ps=head_last - first + 1,
        tail_start=seq[tail_first],
        tail_end=seq[last],
        tail_ps=last - tail_first + 1,
        multi=tail_first != first,
        interior_candidate=candidate[run_seg[interior]],
        interior_start=seq[run_first],
        interior_end=seq[run_last],
        interior_ps=run_last - run_first + 1,
    )
