"""Which parallel path a ``jobs > 1`` sweep takes, and its resilience.

A sweep that mines two or more cells fans the *cells* out to one
supervised pool (each cell mined serially in a worker); a sweep that
mines a single cell hands ``jobs`` to that cell's in-cell
``ParallelMiner``.  Both must stay byte-identical to ``jobs=1``.  The
fault tests inject a :class:`~repro.parallel.faults.FaultPlan` whose
chunk ids are indices into ``plan.mined_cells()``.
"""

import io
import multiprocessing

import pytest

from repro.core.options import ObservabilityOptions, ResilienceOptions
from repro.datasets import paper_running_example
from repro.exceptions import ChunkFailedError
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import MiningMonitor, ProgressReporter
from repro.parallel import FaultPlan
from repro.qa.differential import canonical
from repro.sweep import SweepPlan, run_sweep

#: Two (per, min_ps) columns: two mined cells, two derived ones.
TWO_COLUMNS = dict(pers=(1, 2), min_ps_values=(3,), min_recs=(1, 2))


def _span_names(result):
    return [
        span.name
        for roots in result.span_trees.values()
        for root in roots
        for _, span in root.walk()
    ]


def _mining_counters(stats) -> dict:
    """The engine counters, minus the resilience bookkeeping."""
    counters = stats.as_dict()
    counters.pop("chunks_retried")
    counters.pop("chunks_fallback")
    return counters


def _assert_same_cells(result, serial):
    for key in serial.plan.cells():
        assert canonical(result.patterns[key]) == canonical(
            serial.patterns[key]
        ), key
        assert _mining_counters(result.stats[key]) == _mining_counters(
            serial.stats[key]
        ), key


@pytest.mark.parametrize("engine", ["rp-growth", "rp-eclat-vec"])
def test_one_column_sweep_keeps_the_in_cell_pool(engine):
    result = run_sweep(
        paper_running_example(),
        SweepPlan(
            pers=(2,), min_ps_values=(3,), min_recs=(1, 2),
            engine=engine, jobs=2,
        ),
    )
    assert result.cells_mined == 1
    assert result.cells_fanned_out == 0
    assert any(name.startswith("chunk[") for name in _span_names(result))


@pytest.mark.parametrize("engine", ["rp-growth", "rp-eclat-vec"])
def test_multi_column_sweep_fans_cells_out(engine):
    database = paper_running_example()
    serial = run_sweep(database, SweepPlan(engine=engine, **TWO_COLUMNS))
    result = run_sweep(
        database, SweepPlan(engine=engine, jobs=2, **TWO_COLUMNS)
    )
    assert result.cells_mined == 2
    assert result.cells_fanned_out == 2
    assert result.cells_derived == 2
    assert not any(
        name.startswith("chunk[") for name in _span_names(result)
    )
    for key in serial.plan.cells():
        assert result.stats[key].as_dict() == serial.stats[key].as_dict()
        assert canonical(result.patterns[key]) == canonical(
            serial.patterns[key]
        )
    mined = [k for k in result.plan.cells() if not result.derived_from[k]]
    for key in mined:
        assert result.seconds_by_cell[key] > 0
        assert set(result.phases[key]) == {
            root.name for root in result.span_trees[key]
        }
    record = result.as_record()
    assert record["counters"]["cells_fanned_out"] == 2
    assert serial.as_record()["counters"]["cells_fanned_out"] == 0


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the slowed first execution is patched in before the fork",
)
def test_no_derive_repeats_fan_out_every_cell_and_keep_the_best(
    monkeypatch,
):
    import repro.sweep.engine as sweep_engine

    original = sweep_engine.run_request
    seen = set()

    def first_execution_is_slow(database, request, **kwargs):
        # Each worker process inherits its own copy of ``seen``; a
        # cell runs in one worker, so its first repeat is the slow one.
        if request.cache_key("d") not in seen:
            seen.add(request.cache_key("d"))
            import time

            time.sleep(0.3)
        return original(database, request, **kwargs)

    monkeypatch.setattr(sweep_engine, "run_request", first_execution_is_slow)
    database = paper_running_example()
    plan = SweepPlan(
        jobs=2, derive_min_rec=False, repeats=2, **TWO_COLUMNS
    )
    result = run_sweep(database, plan)
    assert result.cells_mined == plan.cell_count == 4
    assert result.cells_fanned_out == 4
    for key in plan.cells():
        assert result.derived_from[key] is None
        assert 0 < result.seconds_by_cell[key] < 0.3
    monkeypatch.setattr(sweep_engine, "run_request", original)
    serial = run_sweep(
        database, SweepPlan(derive_min_rec=False, **TWO_COLUMNS)
    )
    _assert_same_cells(result, serial)


def test_fanned_out_sweep_tracks_memory():
    result = run_sweep(
        paper_running_example(),
        SweepPlan(jobs=2, **TWO_COLUMNS),
        observability=ObservabilityOptions(track_memory=True),
    )
    assert result.cells_fanned_out == 2
    assert result.memory_peak_bytes is not None
    assert result.memory_peak_bytes > 0
    assert result.as_record()["memory_peak_bytes"] == (
        result.memory_peak_bytes
    )


def test_fan_out_reports_progress_and_metrics():
    progress = io.StringIO()
    registry = MetricsRegistry()
    monitor = MiningMonitor(
        reporter=ProgressReporter(progress, min_interval=0.0),
        registry=registry,
    )
    run_sweep(
        paper_running_example(),
        SweepPlan(jobs=2, **TWO_COLUMNS),
        observability=ObservabilityOptions(monitor=monitor),
    )
    monitor.close()
    out = progress.getvalue()
    assert "cells[rp-growth]: 2/2 (100%)" in out
    assert "sweep: 4/4 (100%)" in out
    counter = registry.counter(
        "repro_sweep_cells_fanned_out_total", {"engine": "rp-growth"}
    )
    assert counter.value == 2


# ----------------------------------------------------------------------
# Cell-level resilience
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("kind", ["crash", "poison", "hang"])
def test_cell_faults_recover_the_serial_result(kind):
    database = paper_running_example()
    serial = run_sweep(database, SweepPlan(**TWO_COLUMNS))
    resilience = ResilienceOptions(
        timeout=1.0 if kind == "hang" else None,
        fault_plan=FaultPlan.single(
            kind, chunk=0, seconds=5.0 if kind == "hang" else 0.2
        ),
    )
    result = run_sweep(
        database,
        SweepPlan(jobs=2, resilience=resilience, **TWO_COLUMNS),
    )
    assert result.cells_fanned_out == 2
    _assert_same_cells(result, serial)
    first = result.plan.mined_cells()[0]
    assert result.stats[first].chunks_retried == 1
    assert all(stats.chunks_fallback == 0 for stats in result.stats.values())


@pytest.mark.slow
def test_persistent_cell_fault_falls_back_to_serial():
    database = paper_running_example()
    serial = run_sweep(database, SweepPlan(**TWO_COLUMNS))
    resilience = ResilienceOptions(
        max_retries=1,
        fault_plan=FaultPlan.single("poison", chunk=1, execution=None),
    )
    result = run_sweep(
        database,
        SweepPlan(jobs=2, resilience=resilience, **TWO_COLUMNS),
    )
    _assert_same_cells(result, serial)
    first, second = result.plan.mined_cells()
    assert result.stats[second].chunks_retried == 1
    assert result.stats[second].chunks_fallback == 1
    assert result.stats[first].chunks_retried == 0
    assert result.stats[first].chunks_fallback == 0
    # A derived cell reports the counters of the mine that served it.
    assert result.stats[(2, 3, 2)].chunks_fallback == 1


@pytest.mark.slow
def test_raise_mode_names_the_failed_cells():
    resilience = ResilienceOptions(
        max_retries=0,
        fallback="raise",
        fault_plan=FaultPlan.single("poison", chunk=1, execution=None),
    )
    with pytest.raises(ChunkFailedError) as caught:
        run_sweep(
            paper_running_example(),
            SweepPlan(jobs=2, resilience=resilience, **TWO_COLUMNS),
        )
    error = caught.value
    assert error.failed_prefixes == ("cell(per=2, min_ps=3, min_rec=1)",)
    assert [event.action for event in error.events] == ["raise"]
    assert error.events[0].chunk == 1
