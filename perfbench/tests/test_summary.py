"""The tail-percentile rule and the sample statistics."""

import numpy as np
import pytest

from summary import metric, percentile, quartiles, tail_percentile


@pytest.mark.parametrize(
    "count, expected",
    [
        (1, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0),
        (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0),
        (1000, 99.0), (9999, 99.0), (10000, 99.9),
    ],
)
def test_tail_percentile_leaves_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


@pytest.mark.parametrize(
    "count, ceiling, expected",
    [(5000, 95.0, 95.0), (150, 75.0, 75.0), (39, 75.0, 50.0), (150, 95.0, 90.0)],
)
def test_tail_percentile_stays_at_the_workload_ceiling(count, ceiling, expected):
    assert tail_percentile(count, ceiling) == expected


def test_tail_percentile_has_ten_beyond_whenever_possible():
    for count in range(20, 3000, 7):
        pct = tail_percentile(count)
        assert count * (1 - pct / 100) >= 10 - 1e-9


@pytest.mark.parametrize("pct", [0, 25, 50, 75, 90, 95, 99, 100])
def test_percentile_matches_numpy(pct):
    values = list(np.random.default_rng(3).exponential(size=57))
    assert percentile(values, pct) == pytest.approx(np.percentile(values, pct))


def test_metric_records_count_and_quartiles():
    record = metric(2.0, "ms", [1.0, 2.0, 3.0, 4.0, 5.0])
    assert record["n"] == 5 and record["unit"] == "ms"
    assert record["q1"] == pytest.approx(2.0)
    assert record["q3"] == pytest.approx(4.0)
    single = metric(7.0, "MiB")
    assert single["n"] == 1 and "q1" not in single
    assert quartiles([1.0]) is None
