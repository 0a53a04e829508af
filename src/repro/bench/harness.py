"""Parameter-grid sweeps reproducing the paper's evaluation artefacts.

Three entry points, one per artefact family:

* :func:`sweep_pattern_counts` — the count grids of Table 5 and the
  series of Figure 7;
* :func:`sweep_runtime` — the runtime grids of Table 7 and the series
  of Figure 9;
* :func:`compare_models` — the model comparison of Table 8
  (periodic-frequent vs recurring vs p-patterns, counts and longest
  pattern).

Both sweeps run on the shared-scan sweep engine
(:func:`repro.sweep.run_sweep`): the transform and the vertical scan
are paid once per grid, and the count sweep additionally derives every
tighter-``minRec`` cell from its column's loosest cell (the
derivation theorem — see :mod:`repro.sweep.engine`).  The runtime
sweep keeps ``derive_min_rec=False`` so each reported cell is a real,
measured mine, comparable across the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro._validation import Number
from repro.baselines.pf_growth import mine_periodic_frequent_patterns
from repro.baselines.ppattern import mine_p_patterns
from repro.bench.reporting import format_series, format_table
from repro.core.miner import mine_recurring_patterns
from repro.core.options import ObservabilityOptions, ResilienceOptions
from repro.obs.counters import MiningStats
from repro.sweep import SweepPlan, SweepResult, run_sweep
from repro.timeseries.database import TransactionalDatabase

__all__ = [
    "GridResult",
    "ComparisonResult",
    "sweep_pattern_counts",
    "sweep_runtime",
    "compare_models",
]

GridKey = Tuple[Number, Union[int, float], int]  # (per, min_ps, min_rec)


@dataclass
class GridResult:
    """One sweep over a (per, minPS, minRec) grid.

    ``cells`` maps each parameter combination to the measured value —
    a pattern count for :func:`sweep_pattern_counts`, seconds for
    :func:`sweep_runtime`.  Runtime sweeps additionally record, per
    cell, the per-phase breakdown (transform / first scan / tree build
    / mining spans) of the best run in ``phases``.
    """

    dataset: str
    metric: str
    pers: Tuple[Number, ...]
    min_ps_values: Tuple[Union[int, float], ...]
    min_recs: Tuple[int, ...]
    cells: Dict[GridKey, float] = field(default_factory=dict)
    phases: Dict[GridKey, Dict[str, float]] = field(default_factory=dict)
    stats: Dict[GridKey, "MiningStats"] = field(default_factory=dict)

    def value(
        self, per: Number, min_ps: Union[int, float], min_rec: int
    ) -> float:
        """The measured value of one grid cell."""
        return self.cells[(per, min_ps, min_rec)]

    def phase_breakdown(
        self, per: Number, min_ps: Union[int, float], min_rec: int
    ) -> Dict[str, float]:
        """Seconds per phase of one cell's best run (runtime sweeps)."""
        return dict(self.phases.get((per, min_ps, min_rec), {}))

    def as_table(self) -> str:
        """Render in the layout of Tables 5/7: one row per minPS, one
        column per (minRec, per) combination."""
        headers = ["minPS"] + [
            f"rec={min_rec},per={per:g}"
            for min_rec in self.min_recs
            for per in self.pers
        ]
        rows: List[List[object]] = []
        for min_ps in self.min_ps_values:
            row: List[object] = [_format_threshold(min_ps)]
            for min_rec in self.min_recs:
                for per in self.pers:
                    value = self.cells[(per, min_ps, min_rec)]
                    row.append(int(value) if self.metric == "count" else value)
            rows.append(row)
        return format_table(
            headers, rows, title=f"{self.dataset}: {self.metric}"
        )

    def as_figure(self, min_rec: int) -> str:
        """Render one Figure 7/9 panel: value vs minPS, a series per per."""
        series = {
            f"per={per:g}": [
                (
                    int(self.cells[(per, min_ps, min_rec)])
                    if self.metric == "count"
                    else self.cells[(per, min_ps, min_rec)]
                )
                for min_ps in self.min_ps_values
            ]
            for per in self.pers
        }
        return format_series(
            "minPS",
            [_format_threshold(v) for v in self.min_ps_values],
            series,
            title=f"{self.dataset}: {self.metric} (minRec={min_rec})",
        )


def sweep_pattern_counts(
    database: TransactionalDatabase,
    dataset: str,
    pers: Sequence[Number],
    min_ps_values: Sequence[Union[int, float]],
    min_recs: Sequence[int],
    engine: str = "rp-growth",
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
    observability: Optional[ObservabilityOptions] = None,
) -> GridResult:
    """Count recurring patterns over the full parameter grid (Table 5).

    Runs on the shared-scan sweep engine: the transform and the
    vertical scan are computed once, and each ``(per, minPS)`` column
    is mined only at its loosest ``minRec`` — the tighter cells are
    derived by the recurrence filter (byte-identical by the derivation
    theorem, so the counts are exactly what per-cell mining reports).
    Each cell's engine counters are kept in ``result.stats`` so the
    ablation benches and ``repro-mine bench --trace-out`` can report
    pruning effectiveness without re-mining.  With ``jobs > 1`` a grid
    with two or more ``(per, minPS)`` columns mines its columns' cells
    in parallel, one whole cell per worker of one supervised pool, and
    ``resilience`` carries the per-cell timeout/retry/fallback knobs; a
    one-column grid gives ``jobs`` to its one mined cell instead
    (per-chunk supervision).
    ``observability`` is forwarded to :func:`repro.sweep.run_sweep`
    verbatim — live progress/metrics on a long grid included.
    """
    sweep = run_sweep(
        database,
        SweepPlan(
            pers=tuple(pers),
            min_ps_values=tuple(min_ps_values),
            min_recs=tuple(min_recs),
            engine=engine,
            jobs=jobs,
            resilience=resilience or ResilienceOptions(),
        ),
        dataset=dataset,
        observability=observability,
    )
    return _as_grid(sweep, metric="count")


def sweep_runtime(
    database: TransactionalDatabase,
    dataset: str,
    pers: Sequence[Number],
    min_ps_values: Sequence[Union[int, float]],
    min_recs: Sequence[int],
    engine: str = "rp-growth",
    repeats: int = 1,
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
    observability: Optional[ObservabilityOptions] = None,
) -> GridResult:
    """Measure mining wall-clock over the parameter grid (Table 7).

    The best of ``repeats`` runs is recorded, as is conventional for
    runtime tables.  Timing is span-based (:mod:`repro.obs.spans`), so
    every cell also carries the phase breakdown of its best run —
    see :meth:`GridResult.phase_breakdown`.  Because this sweep exists
    to *measure* mining, it keeps ``derive_min_rec=False``: every cell
    is genuinely mined (sharing only the threshold-independent
    transform/scan work), so its wall-clock is comparable across the
    grid instead of collapsing to a filter for derived cells.
    With ``jobs > 1`` and two or more cells, the cells are mined
    concurrently, each serially in a worker of the sweep's one pool:
    a cell's seconds are then the serial engine's, measured in the
    worker (pool start-up is paid once per sweep and falls outside
    every cell), and cells sharing the CPUs can slow each other.  A
    single-cell grid times the in-cell parallel layer instead.
    ``observability`` is forwarded to :func:`repro.sweep.run_sweep`
    verbatim; note a progress reporter writes to stderr, never into
    the timed mining spans.
    """
    sweep = run_sweep(
        database,
        SweepPlan(
            pers=tuple(pers),
            min_ps_values=tuple(min_ps_values),
            min_recs=tuple(min_recs),
            engine=engine,
            jobs=jobs,
            derive_min_rec=False,
            repeats=max(1, repeats),
            resilience=resilience or ResilienceOptions(),
        ),
        dataset=dataset,
        observability=observability,
    )
    return _as_grid(sweep, metric="seconds")


def _as_grid(sweep: SweepResult, metric: str) -> GridResult:
    """Project a :class:`SweepResult` onto the tabular GridResult."""
    plan = sweep.plan
    result = GridResult(
        dataset=sweep.dataset or "",
        metric=metric,
        pers=plan.pers,
        min_ps_values=plan.min_ps_values,
        min_recs=plan.min_recs,
    )
    for key in plan.cells():
        if metric == "count":
            result.cells[key] = float(len(sweep.patterns[key]))
        else:
            result.cells[key] = sweep.seconds_by_cell[key]
        result.phases[key] = sweep.phase_breakdown(*key)
        result.stats[key] = sweep.stats[key]
    return result


@dataclass
class ComparisonResult:
    """The Table 8 comparison on one dataset.

    For each model: number of patterns found ('I' in the paper) and the
    longest pattern length ('II').
    """

    dataset: str
    counts: Dict[str, int]
    max_lengths: Dict[str, int]

    MODELS = ("periodic-frequent", "recurring", "p-pattern")

    def as_table(self) -> str:
        """Render the comparison in the paper's Table 8 layout."""
        rows = [
            [model, self.counts[model], self.max_lengths[model]]
            for model in self.MODELS
        ]
        return format_table(
            ["model", "patterns (I)", "max length (II)"],
            rows,
            title=f"{self.dataset}: model comparison (Table 8)",
        )


def compare_models(
    database: TransactionalDatabase,
    dataset: str,
    per: Number,
    min_sup: Union[int, float],
    min_ps: Union[int, float],
    min_rec: int = 1,
) -> ComparisonResult:
    """Reproduce one Table 8 row group.

    Following Section 5.4: ``per`` is shared by all three models
    (maximum periodicity for periodic-frequent patterns, periodic gap
    threshold for recurring and p-patterns); ``min_sup`` parameterises
    the PF and p-pattern miners; ``min_ps``/``min_rec`` the recurring
    miner.
    """
    pf = mine_periodic_frequent_patterns(database, min_sup, per)
    recurring = mine_recurring_patterns(
        database, per, min_ps, min_rec, engine="rp-growth"
    )
    p_patterns = mine_p_patterns(database, per, min_sup)
    return ComparisonResult(
        dataset=dataset,
        counts={
            "periodic-frequent": len(pf),
            "recurring": len(recurring),
            "p-pattern": len(p_patterns),
        },
        max_lengths={
            "periodic-frequent": pf.max_length(),
            "recurring": recurring.max_length(),
            "p-pattern": p_patterns.max_length(),
        },
    )


def _format_threshold(value: Union[int, float]) -> str:
    if isinstance(value, float):
        return f"{value * 100:g}%"
    return str(value)
