"""Times are scaled by the host-speed probe taken next to them."""

import pytest

import speed
from measure import run_loop
from run import run_scale, scale_between, scaled, untraced_metrics


class SleepRunner:
    """Each op sleeps ``request["sleep"]`` seconds and returns ``ok``."""

    def op(self, request, client):
        import time

        time.sleep(request["sleep"])
        return "ok"

    def output(self, value):
        return value.encode("utf-8")


def test_probe_times_fixed_work():
    samples = speed.probe(3)
    assert len(samples) == 3 and all(0 < took < 5 for took in samples)


def test_every_slice_is_bracketed_by_probes():
    requests = [{"sleep": 0.002}]
    expected = {'{"sleep": 0.002}': b"ok"}
    single = run_loop(SleepRunner(), [requests], True, expected,
                      seconds=0.05, trace=False)
    assert len(single["pauses"]) == len(single["ops"]) + 1
    assert [op["slice"] for op in single["ops"]] == list(range(len(single["ops"])))
    pair = run_loop(SleepRunner(), [requests, requests], True, expected,
                    seconds=0.05, trace=False, slice_s=0.02, probes_per_pause=2)
    slices = {op["slice"] for op in pair["ops"]}
    assert len(pair["pauses"]) == max(slices) + 2
    assert all(len(pause) == 2 for pause in pair["pauses"])


def test_scale_uses_the_probes_around_a_slice():
    reference = speed.REFERENCE_S
    pauses = [[reference], [reference / 2], [reference / 2, reference / 4]]
    assert scale_between(pauses, 0) == pytest.approx(reference / (0.75 * reference))
    assert scale_between(pauses, 1) == pytest.approx(2.0)


def test_run_scale_weights_ops_by_latency():
    ops = [{"latency_s": 3.0}, {"latency_s": 1.0}]
    assert run_scale(ops, [1.0, 2.0]) == pytest.approx(5.0 / 4.0)


def test_untraced_metrics_scale_times_but_not_memory():
    ops = [
        {"latency_s": 0.1, "ok": True, "done_s": 0.1 * (index + 1)}
        for index in range(4)
    ]
    child = {"ops": ops, "elapsed_s": 0.4, "cpu_s": 0.4, "check_cpu_s": 0.0,
             "peak_rss_mb": 50.0}
    raw = untraced_metrics(child, [1.0, 1.0, 1.0], 95.0)
    half = untraced_metrics(child, [1.0, 1.0, 1.0], 95.0, [0.5] * 4, [2.0] * 3)
    assert half["latency_p50_ms"]["value"] == pytest.approx(
        raw["latency_p50_ms"]["value"] / 2)
    assert half["cpu_ms_per_op"]["value"] == pytest.approx(
        raw["cpu_ms_per_op"]["value"] / 2)
    assert half["throughput_ops_s"]["value"] == pytest.approx(
        raw["throughput_ops_s"]["value"] * 2)
    assert half["setup_s"]["value"] == pytest.approx(2.0)
    assert half["peak_rss_mb"] == raw["peak_rss_mb"]


def test_scaled_layer_metrics_leave_counts_alone():
    metrics = {"a_ms": {"value": 4.0, "unit": "ms", "n": 1},
               "b": {"value": 4.0, "unit": "count", "n": 1}}
    out = scaled(metrics, 0.5)
    assert out["a_ms"]["value"] == 2.0 and out["b"]["value"] == 4.0
