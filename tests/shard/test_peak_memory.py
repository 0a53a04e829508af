"""Peak memory of out-of-core mining stays flat as the input grows.

The workload is a long strictly-periodic file (``ts<TAB>a b`` every
tick): pattern count and candidate state are constant, so the only
thing that grows with the input is the data itself.  In-memory mining
must hold it all; ``mine_sharded_file`` at a fixed
``max_transactions`` must not — its peak is bounded by one shard plus
output-sized state, whatever the file length.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from repro.core.miner import mine_recurring_patterns
from repro.obs.memory import peak_memory
from repro.shard import mine_sharded_file
from repro.shard.miner import (
    VERIFY_CELL_BUDGET,
    _CandidateBatches,
    _verify_shard,
)
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.io import load_transactional_database

#: Per-shard transaction bound used by every measurement.
SHARD_BOUND = 500

#: Absolute slack (bytes) masking allocator noise on tiny peaks.
SLACK = 256 * 1024


def _write_periodic(path, transactions: int) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for ts in range(1, transactions + 1):
            handle.write(f"{ts}\ta b\n")


def _write_short_runs(path, transactions: int) -> None:
    """``c`` every tick; ``a b`` in 2-tick bursts 5 ticks apart.

    With per=1 and min_ps=n every ``a``/``b`` run is far below min_ps,
    and every shard holds hundreds of them — none can become an
    interval, so none may stay in memory.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for ts in range(1, transactions + 1):
            handle.write(f"{ts}\tc a b\n" if ts % 5 < 2 else f"{ts}\tc\n")


#: Per file layout: its writer, the patterns mining must find and the
#: number of candidates the merge must have verified.
LAYOUTS = {
    "periodic": (_write_periodic, {("a",), ("b",), ("a", "b")}, 3),
    # Every cut lands in a burst: all 7 subsets of {a, b, c} are checked.
    "short-runs": (_write_short_runs, {("c",)}, 7),
}


def _sharded_peak(path, transactions: int, layout: str) -> int:
    with peak_memory() as measured:
        found, _, _, report = mine_sharded_file(
            path, 1, transactions, 1, max_transactions=SHARD_BOUND
        )
    # per=1, min_ps=n, min_rec=1: the single full-length run must
    # survive stitching across every shard boundary.
    assert {p.sorted_items() for p in found} == LAYOUTS[layout][1]
    assert report.merge.patterns_considered == LAYOUTS[layout][2]
    return measured.bytes


def _run_scaling_check(small: int, big: int, layout: str = "periodic") -> None:
    import tempfile
    import os

    write = LAYOUTS[layout][0]
    with tempfile.TemporaryDirectory() as workdir:
        small_path = os.path.join(workdir, "small.tsv")
        big_path = os.path.join(workdir, "big.tsv")
        write(small_path, small)
        write(big_path, big)
        peak_small = _sharded_peak(small_path, small, layout)
        peak_big = _sharded_peak(big_path, big, layout)
    ratio = big / small
    assert peak_big <= 1.5 * peak_small + SLACK, (
        f"out-of-core peak grew with input size: {peak_small} -> "
        f"{peak_big} bytes over a {ratio:g}x input"
    )


def test_peak_memory_flat_at_3x():
    _run_scaling_check(2_000, 6_000)


@pytest.mark.slow
def test_peak_memory_flat_at_10x():
    _run_scaling_check(3_000, 30_000)


def test_short_runs_below_min_ps_leave_peak_flat_at_10x():
    _run_scaling_check(2_000, 20_000, layout="short-runs")


def test_verify_batches_stay_within_the_cell_budget():
    """Candidates x shard size far above the cell budget, dense rows.

    Every candidate occurs in every transaction, so an unbatched pass
    would hold one cell per candidate and transaction.  The batched
    pass must peak the same with 1 or 88 budgets' worth of cells.
    """
    n, items = 10_000, [f"i{index}" for index in range(24)]
    shard = TransactionalDatabase([(ts, items) for ts in range(n)])
    peaks = []
    for size in (1, 3):
        candidates = [
            frozenset(combo)
            for length in range(1, size + 1)
            for combo in combinations(items, length)
        ]
        batches = _CandidateBatches(candidates)
        with peak_memory() as measured:
            runs = _verify_shard(shard, batches, 1, 1)
        assert runs.support.tolist() == [n] * len(candidates)
        peaks.append(measured.bytes)
    assert len(candidates) * n > 80 * VERIFY_CELL_BUDGET
    assert peaks[1] <= 1.5 * peaks[0] + SLACK, (
        f"verify peak grew with the candidate count: {peaks}"
    )


@pytest.mark.slow
def test_in_memory_peak_grows_but_sharded_does_not(tmp_path):
    """The contrast measurement: same inputs, both pipelines.

    In-memory mining's peak must scale roughly with the input (sanity
    check that the workload *can* expose growth), while the sharded
    peak stays within the flat-profile gate.
    """
    sizes = (2_000, 20_000)
    in_memory, sharded = [], []
    for size in sizes:
        path = tmp_path / f"p{size}.tsv"
        _write_periodic(path, size)
        with peak_memory() as measured:
            database = load_transactional_database(path)
            mine_recurring_patterns(database, 1, size, 1)
        in_memory.append(measured.bytes)
        del database
        sharded.append(_sharded_peak(path, size, "periodic"))
    assert in_memory[1] >= 4 * in_memory[0], (
        "workload failed to stress memory; in-memory peaks: "
        f"{in_memory}"
    )
    assert sharded[1] <= 1.5 * sharded[0] + SLACK, (
        f"sharded peaks grew: {sharded}"
    )
