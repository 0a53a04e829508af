"""The multiprocess mining wrapper.

:class:`ParallelMiner` mines the same model as the serial engines by
partitioning the search space along its first explored dimension
(:mod:`repro.parallel.partition`), fanning the resulting sub-problems
out to a ``concurrent.futures.ProcessPoolExecutor`` and merging the
workers' patterns, counters and spans back into one result:

* the pattern set is **identical** to the serial run's — the partition
  covers the serial search space exactly, and
  :class:`~repro.core.model.RecurringPatternSet` orders patterns
  deterministically regardless of arrival order;
* the merged :class:`~repro.obs.counters.MiningStats` equals the
  serial counters exactly (the counters are additive over the
  partition);
* worker span trees are grafted under the parent's ``mine`` span, so
  ``--profile`` tables and ``repro-run/v1`` traces stay coherent.

Chunk execution is supervised by :mod:`repro.parallel.resilience`: a
crashed, hung or misbehaving worker costs a retry (and, after
``max_retries``, an in-process serial re-mine or a
:class:`~repro.exceptions.ChunkFailedError`), never the whole run.

See ``docs/performance.md`` for the partitioning scheme, the chunking
policy, when ``jobs > 1`` actually helps, and the "Failure handling"
section for the retry/fallback semantics.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence, Tuple, Union

from repro._validation import Number
from repro.core.engines import PARALLEL_ENGINES, get_engine
from repro.core.model import (
    MiningParameters,
    RecurringPattern,
    RecurringPatternSet,
)
from repro.core.options import ResilienceOptions
from repro.core.rp_list import build_rp_list
from repro.core.rp_tree import build_rp_tree
from repro.exceptions import ChunkFailedError, ParameterError
from repro.obs.counters import MiningStats
from repro.obs.spans import Span, span
from repro.parallel import partition as _partition
from repro.parallel import worker as _worker
from repro.parallel.faults import FaultPlan
from repro.parallel.resilience import (
    FALLBACK_MODES,
    FaultEvent,
    RetryPolicy,
    start_context,
    supervise,
)
from repro.timeseries.database import TransactionalDatabase

__all__ = ["ParallelMiner", "PARALLEL_ENGINES", "default_jobs"]

# PARALLEL_ENGINES is re-exported from the engine registry
# (repro.core.engines): the live view over every engine whose spec has
# ``supports_jobs``.  ``naive`` lacks the capability by design: it
# exists to be an obviously-correct reference, and a partitioned
# reference is no longer obviously correct.


def default_jobs() -> int:
    """Default worker count: one per available CPU (at least 1)."""
    return os.cpu_count() or 1


class ParallelMiner:
    """Shared-nothing multiprocess front end over the serial engines.

    Parameters
    ----------
    per, min_ps, min_rec:
        Model thresholds, exactly as for the serial engines.
    engine:
        One of :data:`PARALLEL_ENGINES`.
    jobs:
        Worker process count; ``None`` means one per CPU.  ``jobs=1``
        delegates to the serial engine in-process — no pool, no pickling,
        byte-identical behaviour.
    chunks_per_job:
        Target chunk count per worker (default 4).  More chunks means
        finer-grained load balancing but more IPC; the default keeps
        the straggler tail short without measurable overhead.
    mp_context:
        A :mod:`multiprocessing` context or start-method name; the
        default (``None``) is
        :func:`~repro.parallel.resilience.start_context`'s choice,
        ``fork`` where available and ``spawn`` elsewhere.
    pruning, max_length, item_order:
        Forwarded to the underlying engine (``pruning`` to RP-eclat,
        ``item_order`` to RP-growth's tree build).
    timeout:
        Per-chunk deadline in seconds (measured from submission to the
        pool).  ``None`` (default) disables deadlines.  An expired
        chunk is treated like a crashed one: retried, then handled by
        ``fallback``.
    max_retries:
        Failed executions a chunk may accumulate before ``fallback``
        applies (default 2; the first execution is not a retry).
    fallback:
        What to do with a chunk whose retries are exhausted:
        ``"serial"`` (default) re-mines it in-process with the serial
        engine so the run always completes; ``"raise"`` raises
        :class:`~repro.exceptions.ChunkFailedError` naming the missing
        prefixes and carrying the partial pattern set.
    retry_backoff:
        Base delay in seconds before the first retry of a chunk
        (doubles per retry, deterministic jitter added; ``0`` retries
        immediately).
    fault_plan:
        A :class:`~repro.parallel.faults.FaultPlan` injected into the
        pool workers — deterministic failure for tests.  ``None``
        (default, production) injects nothing.
    resilience:
        A :class:`~repro.core.options.ResilienceOptions` bundling
        ``timeout`` / ``max_retries`` / ``fallback`` / ``fault_plan``
        — the same object the façade and the sweep engine accept.
        Mutually exclusive with passing those four knobs flat.
    supervised:
        ``False`` bypasses the resilience layer entirely (raw PR-2
        fan-out: one ``future.result()`` per chunk, a worker crash
        aborts the run).  Exists so the scaling bench can measure
        supervision overhead; production code should leave it ``True``.
    monitor:
        A :class:`~repro.obs.progress.MiningMonitor` receiving live
        progress: one weighted phase per mine (unit = chunk, weight =
        its LPT cost estimate, so the ETA respects unequal chunks),
        per-worker heartbeat gauges and stale-worker reports from the
        supervisor.  ``None`` (default) reports nothing.  Ignored when
        ``supervised=False`` (the bench baseline measures the bare
        pool).

    Examples
    --------
    >>> from repro.datasets import paper_running_example
    >>> miner = ParallelMiner(per=2, min_ps=3, min_rec=2, jobs=2)
    >>> len(miner.mine(paper_running_example()))
    8
    """

    def __init__(
        self,
        per: Number,
        min_ps: Union[int, float],
        min_rec: int,
        engine: str = "rp-growth",
        *,
        jobs: Optional[int] = None,
        chunks_per_job: int = 4,
        mp_context: Union[str, object, None] = None,
        pruning: str = "erec",
        max_length: Optional[int] = None,
        item_order: str = "support-desc",
        timeout: Optional[float] = None,
        max_retries: int = 2,
        fallback: str = "serial",
        retry_backoff: float = 0.05,
        fault_plan: Optional[FaultPlan] = None,
        resilience: Optional[ResilienceOptions] = None,
        supervised: bool = True,
        monitor=None,
    ):
        if engine not in PARALLEL_ENGINES:
            raise ParameterError(
                f"engine {engine!r} is not parallel-capable; "
                f"expected one of {PARALLEL_ENGINES}"
            )
        if resilience is not None:
            flat = {
                "timeout": (timeout, None),
                "max_retries": (max_retries, 2),
                "fallback": (fallback, "serial"),
                "fault_plan": (fault_plan, None),
            }
            conflicts = sorted(
                name
                for name, (value, default) in flat.items()
                if value != default
            )
            if conflicts:
                raise ParameterError(
                    f"pass either resilience=ResilienceOptions(...) or "
                    f"the flat keyword(s) {conflicts} — not both"
                )
            timeout = resilience.timeout
            max_retries = resilience.max_retries
            fallback = resilience.fallback
            fault_plan = resilience.fault_plan
        if jobs is None:
            jobs = default_jobs()
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise ParameterError(f"jobs must be a positive int, got {jobs!r}")
        if chunks_per_job < 1:
            raise ParameterError(
                f"chunks_per_job must be >= 1, got {chunks_per_job!r}"
            )
        if fallback not in FALLBACK_MODES:
            raise ParameterError(
                f"fallback must be one of {FALLBACK_MODES}, got {fallback!r}"
            )
        self.params = MiningParameters(per=per, min_ps=min_ps, min_rec=min_rec)
        self.engine = engine
        self.jobs = jobs
        self.chunks_per_job = chunks_per_job
        self.mp_context = mp_context
        self.pruning = pruning
        self.max_length = max_length
        self.item_order = item_order
        # Validates timeout / max_retries / backoff eagerly.
        self.retry_policy = RetryPolicy(
            timeout=timeout, max_retries=max_retries, backoff=retry_backoff
        )
        self.fallback = fallback
        self.fault_plan = fault_plan
        self.supervised = supervised
        self.monitor = monitor
        self.last_stats: Optional[MiningStats] = None
        #: Fault log of the most recent ``mine()`` call — one
        #: :class:`~repro.parallel.resilience.FaultEvent` per retry or
        #: fallback, in occurrence order.  Empty for clean runs.
        self.last_faults: List[FaultEvent] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def mine(self, database: TransactionalDatabase) -> RecurringPatternSet:
        """Mine ``database``, identical in result to the serial engine."""
        self.last_faults = []
        if self.jobs == 1:
            # Serial delegation still reports: a single-unit phase plus
            # the in-process heartbeat, so progress/metrics never go
            # silent just because jobs=1 (see docs/observability.md).
            if self.monitor is not None:
                self.monitor.phase_started(f"mine[{self.engine}]", units=1)
            try:
                serial = self._serial_engine()
                result = serial.mine(database)
                if self.monitor is not None:
                    self.monitor.unit_done(0)
                    self.monitor.serial_beat()
            finally:
                if self.monitor is not None:
                    self.monitor.phase_finished()
            self.last_stats = serial.last_stats
            return result
        stats = MiningStats()
        self.last_stats = stats
        if len(database) == 0:
            return RecurringPatternSet()
        params = self.params.resolve(len(database))
        if get_engine(self.engine).family == "growth":
            return self._mine_growth(database, params, stats)
        return self._mine_vertical(database, params, stats)

    # ------------------------------------------------------------------
    # Engine-specific orchestration
    # ------------------------------------------------------------------
    def _mine_vertical(self, database, params, stats) -> RecurringPatternSet:
        serial = self._serial_engine()
        with span("first_scan"):
            candidates = serial._first_scan(database, params, stats)
        if not candidates:
            return RecurringPatternSet()
        # Task i is the lattice subtree rooted at candidates[i]; its
        # point-sequence length is the documented cost proxy.
        sizes = [len(ts_list) for _, ts_list in candidates]
        chunks = _partition.plan_chunks(
            sizes,
            max_chunks=self.jobs * self.chunks_per_job,
        )
        found: List[RecurringPattern] = []
        with span("mine") as mine_span:
            self._run_pool(
                initializer=_worker.init_vertical_worker,
                initargs=(
                    self.engine, params, self.pruning, self.max_length,
                    candidates, getattr(serial, "parallel_context", None),
                ),
                chunk_fn=_worker.mine_vertical_chunk,
                chunks=chunks,
                found=found,
                stats=stats,
                mine_span=mine_span,
                chunk_prefixes=[
                    [str(candidates[index][0]) for index in chunk]
                    for chunk in chunks
                ],
                chunk_weights=[
                    float(sum(sizes[index] for index in chunk))
                    for chunk in chunks
                ],
            )
        return RecurringPatternSet(found)

    def _mine_growth(self, database, params, stats) -> RecurringPatternSet:
        with span("first_scan"):
            rp_list = build_rp_list(database, params)
        stats.candidate_items = len(rp_list.candidates)
        stats.pruned_items = len(rp_list.entries) - len(rp_list.candidates)
        if not rp_list.candidates:
            return RecurringPatternSet()
        with span("tree_build"):
            tree, _ = build_rp_tree(
                database, params, rp_list, item_order=self.item_order
            )
        stats.initial_tree_nodes = tree.node_count()
        found: List[RecurringPattern] = []
        with span("mine") as mine_span:
            with span("partition"):
                tasks = _partition.collect_growth_tasks(
                    tree, params, found, stats, self.max_length
                )
            if tasks:
                sizes = [
                    _partition.growth_task_size(task) for task in tasks
                ]
                chunks = _partition.plan_chunks(
                    sizes,
                    max_chunks=self.jobs * self.chunks_per_job,
                )
                payload_chunks = [
                    [tasks[index] for index in chunk] for chunk in chunks
                ]
                self._run_pool(
                    initializer=_worker.init_growth_worker,
                    initargs=(params, tree.order, self.max_length),
                    chunk_fn=_worker.mine_growth_chunk,
                    chunks=payload_chunks,
                    found=found,
                    stats=stats,
                    mine_span=mine_span,
                    chunk_prefixes=[
                        [str(item) for item, _ in chunk]
                        for chunk in payload_chunks
                    ],
                    chunk_weights=[
                        float(sum(sizes[index] for index in chunk))
                        for chunk in chunks
                    ],
                )
        return RecurringPatternSet(found)

    # ------------------------------------------------------------------
    # Pool plumbing
    # ------------------------------------------------------------------
    def _run_pool(
        self,
        initializer,
        initargs: tuple,
        chunk_fn,
        chunks: Sequence[object],
        found: List[RecurringPattern],
        stats: MiningStats,
        mine_span: Optional[Span],
        chunk_prefixes: Sequence[Sequence[str]],
        chunk_weights: Optional[Sequence[float]] = None,
    ) -> None:
        """Fan ``chunks`` out to a supervised pool and merge the results.

        ``chunk_prefixes[i]`` names the search-space prefixes chunk
        ``i`` covers (first items for the vertical engines, suffix
        items for RP-growth) — the vocabulary of
        :class:`~repro.exceptions.ChunkFailedError`.
        ``chunk_weights[i]`` is chunk ``i``'s LPT cost estimate; the
        monitor's progress fraction and ETA are weight-based, so the
        bar is honest even when the chunk plan is deliberately uneven.
        """
        workers = min(self.jobs, len(chunks))
        if not self.supervised:
            self._run_pool_unsupervised(
                initializer, initargs, chunk_fn, chunks, found, stats,
                mine_span, workers,
            )
            return
        if self.monitor is not None:
            self.monitor.phase_started(
                f"mine[{self.engine}]",
                weights=chunk_weights,
                units=len(chunks),
            )
        try:
            results, events, failed = supervise(
                workers=workers,
                mp_context=start_context(self.mp_context),
                initializer=initializer,
                initargs=initargs,
                chunk_fn=chunk_fn,
                payloads=chunks,
                policy=self.retry_policy,
                fallback=self.fallback,
                fault_plan=self.fault_plan,
                monitor=self.monitor,
            )
        finally:
            if self.monitor is not None:
                self.monitor.phase_finished()
        self.last_faults = list(events)
        stats.chunks_retried += sum(
            1 for event in events if event.action == "retry"
        )
        stats.chunks_fallback += sum(
            1 for event in events if event.action == "fallback-serial"
        )
        for triple in results:
            if triple is None:  # terminally failed, fallback="raise"
                continue
            chunk_found, chunk_stats, chunk_spans = triple
            found.extend(chunk_found)
            stats.merge(chunk_stats)
            if mine_span is not None:
                mine_span.children.extend(
                    Span.from_dict(record) for record in chunk_spans
                )
        if failed:
            prefixes = [
                prefix
                for chunk_id in sorted(failed)
                for prefix in chunk_prefixes[chunk_id]
            ]
            raise ChunkFailedError(
                f"{len(failed)} of {len(chunks)} parallel chunk(s) failed "
                f"after {self.retry_policy.max_retries} retries; missing "
                f"search-space prefixes: {', '.join(prefixes)}",
                failed_prefixes=prefixes,
                partial=RecurringPatternSet(found),
                events=events,
            )

    def _run_pool_unsupervised(
        self,
        initializer,
        initargs: tuple,
        chunk_fn,
        chunks: Sequence[object],
        found: List[RecurringPattern],
        stats: MiningStats,
        mine_span: Optional[Span],
        workers: int,
    ) -> None:
        """PR 2's raw fan-out, kept as the bench baseline for measuring
        supervision overhead (``supervised=False``).  A worker failure
        here surfaces as a bare ``BrokenProcessPool``."""
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=start_context(self.mp_context),
            initializer=initializer,
            initargs=initargs,
        ) as pool:
            futures = [
                pool.submit(chunk_fn, chunk_id, chunk)
                for chunk_id, chunk in enumerate(chunks)
            ]
            for future in futures:
                chunk_found, chunk_stats, chunk_spans = future.result()
                found.extend(chunk_found)
                stats.merge(chunk_stats)
                if mine_span is not None:
                    mine_span.children.extend(
                        Span.from_dict(record) for record in chunk_spans
                    )

    def _serial_engine(self):
        # The registry factory accepts the union of engine options and
        # forwards only what the concrete engine understands.
        return get_engine(self.engine).factory(
            self.params.per, self.params.min_ps, self.params.min_rec,
            item_order=self.item_order, pruning=self.pruning,
            max_length=self.max_length,
        )
