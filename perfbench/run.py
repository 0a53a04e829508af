"""The repository benchmark: one workload, one run, every output checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mine-file --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer metrics from a run whose ops alternate traced and untraced.
Time metrics are scaled to the reference speed of the host-speed
probe timed next to each op and each set-up (see ``perfbench/speed.py``);
the record keeps the raw values too.
The human-readable report comes first; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full record (provenance, quartiles, sample counts,
the layer breakdown) and, for traced runs, every span tree are written
under ``.perfbench/results/``.  The exit code is 0 only when every op's
output matched its reference.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5

#: Probes before the first set-up and after each; the two pauses
#: around a set-up scale it.
SETUP_PROBES = 4

#: The extra time a run may take beyond its measuring window.
CHILD_GRACE_S = 120


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="tiny datasets, for the benchmark's own smoke tests",
    )
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        record = run(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trees = record.pop("trees", None)
    if trees is not None:
        with open(results / f"{stem}.spans.jsonl", "w", encoding="utf-8") as out:
            for tree in trees:
                out.write(json.dumps(tree) + "\n")
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2))
    print_report(record)
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


def run(workload, args, workdir: Path) -> Dict[str, object]:
    """Set up, compute references, measure in a child, summarise."""
    import speed
    import summary

    setup_times = []
    setup_pauses = [speed.probe(SETUP_PROBES)]
    plan = None
    try:
        for repeat in range(SETUP_REPEATS):
            if plan is not None:
                workload.teardown(plan)
            repdir = workdir / f"setup{repeat}"
            repdir.mkdir(parents=True)
            started = time.perf_counter()
            plan = workload.setup(repdir, args.seed, args.tiny,
                                  int(args.seconds), bool(args.trace))
            workload.warm_up(plan)
            setup_times.append(time.perf_counter() - started)
            setup_pauses.append(speed.probe(SETUP_PROBES))
        started = time.perf_counter()
        expected = workload.references(plan)
        references_s = time.perf_counter() - started
        child = measure_in_child(workload, args, plan, expected, workdir)
        child_s = time.perf_counter() - started - references_s
    finally:
        started = time.perf_counter()
        if plan is not None:
            workload.teardown(plan)
        teardown_s = time.perf_counter() - started
    record = {
        "schema": "perfbench/v1",
        "workload": workload.name,
        "describe": workload.describe(args.tiny),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "provenance": summary.provenance(ROOT),
        "setup_s": setup_times,
        "probe_reference_s": speed.REFERENCE_S,
        "probe_s": {"setup": setup_pauses, "measure": child["pauses"]},
        "references_s": references_s,
        "measuring_process_s": child_s,
        "ready_s": child["ready_s"],
        "teardown_s": teardown_s,
    }
    ops = child["ops"]
    failed = [op for op in ops if not op["ok"]]
    record["failures"] = [
        {"op_id": op["op_id"], "key": op["key"], "error": op.get("error")}
        for op in failed[:20]
    ]
    op_scales = [scale_between(child["pauses"], op["slice"]) for op in ops]
    record["measure_scale"] = run_scale(ops, op_scales)
    if args.trace:
        metrics, extra = traced_metrics(child, plan, expected)
        record.update(extra)
        record["raw_metrics"] = metrics
        metrics = scaled(metrics, record["measure_scale"])
    else:
        setup_scales = [
            scale_between(setup_pauses, index) for index in range(len(setup_times))
        ]
        record["raw_metrics"] = untraced_metrics(
            child, setup_times, workload.tail_percentile,
        )
        metrics = untraced_metrics(
            child, setup_times, workload.tail_percentile,
            op_scales, setup_scales,
        )
        record["ops"] = [
            {"key": op["key"], "client": op["client"],
             "latency_ms": op["latency_s"] * 1000.0, "scale": by,
             "ok": op["ok"]}
            for op, by in zip(ops, op_scales)
        ]
    record["metrics"] = metrics
    record["failed_frac"] = len(failed) / len(ops) if ops else 1.0
    record["result"] = {
        "correct": bool(ops) and not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            name: {"value": item["value"], "unit": item["unit"]}
            for name, item in metrics.items()
        },
    }
    return record


def measure_in_child(workload, args, plan, expected, workdir: Path):
    """Run ``measure.py`` on the plan; its parsed result."""
    refdir = workdir / "refs"
    refdir.mkdir()
    references = {}
    for index, (key, data) in enumerate(sorted(expected.items())):
        path = refdir / f"{index}.tsv"
        path.write_bytes(data)
        references[key] = str(path)
    daemon = plan.get("daemon")
    child_plan = {
        "workload": workload.name,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "workdir": str(workdir),
        "files": plan["files"],
        "streams": plan["streams"],
        "cycle": plan["cycle"],
        "references": references,
        "daemon": {"pid": daemon["pid"], "port": daemon["port"]} if daemon else None,
        "result_path": str(workdir / "result.json"),
    }
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(child_plan))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    process = subprocess.Popen(
        [sys.executable, str(HERE / "measure.py"), str(plan_path)],
        cwd=ROOT, env=env,
    )
    try:
        code = process.wait(timeout=args.seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise RuntimeError("the measuring process did not finish in time")
    if code != 0:
        raise RuntimeError(f"the measuring process failed with exit code {code}")
    return json.loads(Path(child_plan["result_path"]).read_text())


# ----------------------------------------------------------------------
# End-to-end metrics (untraced run)
# ----------------------------------------------------------------------
def untraced_metrics(child, setup_times, tail_ceiling, op_scales=None,
                     setup_scales=None) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics; each op's and set-up's time multiplied by
    its scale (1 when none is given: the raw metrics)."""
    from summary import metric, percentile, tail_percentile

    ops = child["ops"]
    op_scales = op_scales or [1.0] * len(ops)
    setup_scales = setup_scales or [1.0] * len(setup_times)
    good = [(op, by) for op, by in zip(ops, op_scales) if op["ok"]]
    if not good:
        raise RuntimeError("no op produced the expected output")
    latencies = [op["latency_s"] * by * 1000.0 for op, by in good]
    # Loop time and CPU time scale by the run's time-weighted scale.
    loop_scale = run_scale(ops, op_scales)
    elapsed = child["elapsed_s"] * loop_scale
    pct = tail_percentile(len(latencies), tail_ceiling)
    setups = [took * by for took, by in zip(setup_times, setup_scales)]
    rates = window_rates([op for op, _ in good], child["elapsed_s"])
    return {
        "throughput_ops_s": metric(
            len(good) / elapsed, "1/s", [rate / loop_scale for rate in rates],
        ),
        "latency_p50_ms": metric(
            statistics.median(latencies), "ms", latencies,
        ),
        "latency_tail_ms": metric(
            percentile(latencies, pct), "ms", latencies, percentile=pct,
        ),
        "cpu_ms_per_op": metric(
            (child["cpu_s"] - child["check_cpu_s"]) * loop_scale * 1000.0
            / len(ops),
            "ms",
        ),
        "peak_rss_mb": metric(child["peak_rss_mb"], "MiB"),
        "setup_s": metric(statistics.median(setups), "s", setups),
    }


def scale_between(pauses, index: int) -> float:
    """The scale of what ran between ``pauses[index]`` and the next."""
    import speed

    return speed.factor(pauses[index] + pauses[index + 1])


def run_scale(ops, op_scales) -> float:
    """The ops' scales weighted by their latency: scaled time / raw time."""
    raw = sum(op["latency_s"] for op in ops)
    if not raw:
        return 1.0
    return sum(op["latency_s"] * by for op, by in zip(ops, op_scales)) / raw


def scaled(metrics, scale: float):
    """Per-layer metrics at the probe's reference speed: ``ms`` values
    multiplied by ``scale``, other units left alone."""
    return {
        name: {key: value * scale if item["unit"] == "ms"
               and key in ("value", "q1", "q3") else value
               for key, value in item.items()}
        for name, item in metrics.items()
    }


def window_rates(ops, elapsed: float, windows: int = 5) -> List[float]:
    """Completions per second in equal windows of the run."""
    width = elapsed / windows
    counts = Counter(min(int(op["done_s"] / width), windows - 1) for op in ops)
    return [counts[index] / width for index in range(windows)]


# ----------------------------------------------------------------------
# Per-layer metrics (traced run)
# ----------------------------------------------------------------------
PER_LAYER_UNITS = {
    "io.parse_ms": "ms", "io.parse_bytes": "bytes",
    "database.digest_ms": "ms", "columnar.build_ms": "ms",
    "engine.first_scan_ms": "ms", "engine.mine_ms": "ms",
    "engine.tree_build_ms": "ms", "engine.candidates": "count",
    "engine.patterns_found": "count", "engine.yield": "ratio",
    "miner.self_ms": "ms",
    "patterns_io.save_ms": "ms", "patterns_io.bytes_written": "bytes",
    "sweep.transform_ms": "ms", "sweep.cell_mined_ms": "ms",
    "sweep.cell_derived_ms": "ms", "sweep.derived_share": "ratio",
    "parallel.chunk_busy_ms": "ms", "parallel.mine_self_ms": "ms",
    "parallel.partition_ms": "ms", "parallel.efficiency": "ratio",
    "parallel.chunks_retried": "count",
    "service.submit_ms": "ms", "service.result_ms": "ms",
    "service.polls_per_job": "count", "service.wait_ms": "ms",
    "service.exec_hit_ms": "ms", "service.exec_miss_ms": "ms",
    "service.cache_served_share": "ratio", "service.miss_mine_ms": "ms",
    "shard.mine_ms": "ms", "shard.candidates_ms": "ms",
    "shard.verify_ms": "ms", "shard.merge_ms": "ms",
    "shard.boundary_candidates": "count", "shard.yield": "ratio",
    "tracing.overhead_frac": "ratio",
    "trace.op_wall_ms": "ms", "trace.residual_ms": "ms",
    "trace.residual_frac": "ratio",
}


def traced_metrics(child, plan, expected):
    """Per-layer metrics from the traced ops; plus the breakdown."""
    import layers
    from summary import metric

    ops = [op for op in child["ops"] if op["ok"]]
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    if not traced or not untraced:
        raise RuntimeError("a traced run needs both traced and untraced ops")
    trees = [op["tree"] for op in traced]
    count = len(traced)
    per_op_ms = {
        name: seconds * 1000.0 / count
        for name, seconds in layers.breakdown(trees).items()
    }
    totals_ms = {
        name: seconds * 1000.0 / count
        for name, seconds in layers.totals_by_name(trees).items()
    }
    notes = [op["notes"] for op in traced]
    first_notes = {}
    for op in traced:
        first_notes.setdefault(op["key"], op["notes"])
    distinct = list(first_notes.values())

    def layer(name: str) -> float:
        return per_op_ms.get(name, 0.0)

    def mean_note(field: str) -> float:
        return statistics.fmean(note.get(field, 0) for note in notes)

    def distinct_sum(field: str) -> int:
        return sum(int(note.get(field, 0)) for note in distinct)

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    wall_ms = statistics.fmean(tree["seconds"] for tree in trees) * 1000.0
    traced_p50 = statistics.median(op["latency_s"] for op in traced)
    untraced_p50 = statistics.median(op["latency_s"] for op in untraced)
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    values.update({
        "io.parse_ms": layer("io.parse"),
        "io.parse_bytes": mean_note("parse_bytes"),
        "database.digest_ms": layer("database.digest"),
        "columnar.build_ms": layer("columnar.build"),
        "engine.first_scan_ms": layer("engine.first_scan"),
        "engine.mine_ms": layer("engine.mine"),
        "engine.tree_build_ms": layer("engine.tree_build"),
        "engine.candidates": distinct_sum("candidates"),
        "engine.patterns_found": distinct_sum("patterns_found"),
        "engine.yield": ratio(distinct_sum("patterns_found"),
                              distinct_sum("candidates")),
        "miner.self_ms": layer("miner.self"),
        "patterns_io.save_ms": layer("patterns_io.save"),
        "patterns_io.bytes_written": mean_note("bytes_written"),
        "sweep.transform_ms": layer("sweep.transform"),
        "sweep.cell_mined_ms": totals_ms.get("cell", 0.0),
        "sweep.cell_derived_ms": totals_ms.get("derive", 0.0),
        "sweep.derived_share": ratio(
            sum(note.get("cells_derived", 0) for note in notes),
            sum(note.get("cells_derived", 0) + note.get("cells_mined", 0)
                for note in notes),
        ),
        "parallel.chunk_busy_ms": totals_ms.get("chunk", 0.0),
        "parallel.mine_self_ms": layer("parallel.mine_self"),
        "parallel.partition_ms": layer("parallel.partition"),
        "parallel.efficiency": parallel_efficiency(trees),
        "parallel.chunks_retried": sum(
            note.get("chunks_retried", 0) for note in notes
        ),
        "shard.mine_ms": totals_ms.get("shard-mine", 0.0),
        "shard.candidates_ms": totals_ms.get("shard-candidates", 0.0),
        "shard.verify_ms": totals_ms.get("shard-verify", 0.0),
        "shard.merge_ms": totals_ms.get("shard-merge", 0.0),
        "shard.boundary_candidates": distinct_sum("boundary_candidates"),
        "shard.yield": ratio(distinct_sum("patterns_found"),
                             distinct_sum("patterns_considered")),
        "tracing.overhead_frac": (traced_p50 - untraced_p50) / untraced_p50,
        "trace.op_wall_ms": wall_ms,
        "trace.residual_ms": layer("residual"),
        "trace.residual_frac": layer("residual") / wall_ms,
    })
    extra: Dict[str, object] = {}
    if plan.get("daemon"):
        service = service_layers(child, plan, expected, traced, per_op_ms)
        values.update(service)
    metrics = {
        name: metric(value, PER_LAYER_UNITS[name], n=count)
        for name, value in values.items()
    }
    extra["breakdown_ms_per_op"] = dict(sorted(per_op_ms.items()))
    extra["breakdown_sum_ms"] = sum(per_op_ms.values())
    extra["traced_ops"] = count
    extra["untraced_ops"] = len(untraced)
    extra["trees"] = [
        {"op_id": op["op_id"], "client": op["client"], "key": op["key"],
         "latency_s": op["latency_s"], "notes": op["notes"], "spans": op["tree"]}
        for op in traced
    ]
    return metrics, extra


def parallel_efficiency(trees) -> float:
    """Chunk busy time / (workers x wall time of the parallel mines)."""
    import layers

    busy = wall = 0.0
    for tree in trees:
        for current, _ in layers.walk(tree):
            if current["lanes"] > 1:
                wall += current["lanes"] * current["seconds"]
                busy += sum(child["seconds"] for child in current["children"]
                            if child["start"] is None)
    return busy / wall if wall else 0.0


def service_layers(child, plan, expected, traced, per_op_ms):
    """The service-only layer metrics (client spans, daemon records)."""
    from workloads import replay_daemon_io

    notes = [op["notes"] for op in traced]
    hits = [n["exec_s"] * 1000.0 for n in notes if n["cache"] != "miss"]
    misses = [n["exec_s"] * 1000.0 for n in notes if n["cache"] == "miss"]
    before = prometheus_counters(child["service"]["metrics_before"])
    after = prometheus_counters(child["service"]["metrics_after"])
    delta = {name: after.get(name, 0.0) - before.get(name, 0.0) for name in after}
    served = (delta.get("repro_service_cache_hit_total", 0.0)
              + delta.get("repro_service_cache_derived_total", 0.0))
    missed = delta.get("repro_service_cache_miss_total", 0.0)
    # Every daemon execution parses, digests and serialises; the daemon
    # has no span for those, so time the same calls on the same inputs.
    first_key = {}
    for op in traced:
        first_key.setdefault(op["notes"]["file"], op["key"])
    replay = replay_daemon_io(
        {name: plan["files"][name] for name in first_key},
        {name: expected[key] for name, key in first_key.items()},
    )
    files = [n["file"] for n in notes]
    return {
        "service.submit_ms": per_op_ms.get("service.submit", 0.0),
        "service.result_ms": per_op_ms.get("service.result", 0.0),
        "service.wait_ms": per_op_ms.get("service.wait", 0.0),
        "service.polls_per_job": statistics.fmean(n["polls"] for n in notes),
        "service.exec_hit_ms": statistics.fmean(hits) if hits else 0.0,
        "service.exec_miss_ms": statistics.fmean(misses) if misses else 0.0,
        "service.cache_served_share": served / (served + missed)
        if served + missed else 0.0,
        "service.miss_mine_ms": daemon_miss_mine_ms(plan.get("daemon_trace")),
        "io.parse_ms": statistics.fmean(replay[f]["parse_s"] for f in files) * 1000.0,
        "io.parse_bytes": statistics.fmean(replay[f]["bytes"] for f in files),
        "database.digest_ms": statistics.fmean(replay[f]["digest_s"] for f in files) * 1000.0,
        "patterns_io.save_ms": statistics.fmean(replay[f]["save_s"] for f in files) * 1000.0,
    }


def prometheus_counters(text: str) -> Dict[str, float]:
    """``name value`` samples of a Prometheus exposition (labels kept)."""
    counters = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            try:
                counters[name] = float(value)
            except ValueError:
                continue
    return counters


def daemon_miss_mine_ms(trace_path) -> float:
    """Mean mining span time of the daemon's cache misses.

    The first record is the set-up warm-up job, not part of the mix.
    """
    if not trace_path or not Path(trace_path).exists():
        return 0.0
    records = [
        json.loads(line)
        for line in Path(trace_path).read_text().splitlines()
        if line.strip()
    ][1:]
    mines = [
        sum(root["seconds"] for root in record.get("spans", ()))
        for record in records
        if record.get("kind") == "run" and record.get("cache") == "miss"
    ]
    return statistics.fmean(mines) * 1000.0 if mines else 0.0


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def print_report(record) -> None:
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} seconds={record['seconds']}")
    prov = record["provenance"]
    print(f"  cpu_count={prov['cpu_count']} affinity={prov['cpu_affinity']} "
          f"python={prov['python']} numpy={prov['numpy']} "
          f"git={prov['git_revision'][:12]} src={prov['source_digest'][:12]}")
    result = record["result"]
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={record['failed_frac']:.4f}")
    for failure in record["failures"][:5]:
        print(f"  FAILED {failure['op_id']}: {failure['error']}")
    for name, item in record["metrics"].items():
        spread = ""
        if "q1" in item:
            spread = f"  q1={item['q1']:.4g} q3={item['q3']:.4g}"
        if "percentile" in item:
            spread += f"  p{item['percentile']:g}"
        print(f"  {name:28s} {item['value']:14.6g} {item['unit']:6s} "
              f"n={item['n']}{spread}")
    if "breakdown_ms_per_op" in record:
        print("  layer breakdown (ms per traced op; sums to op wall):")
        for name, value in record["breakdown_ms_per_op"].items():
            print(f"    {name:28s} {value:12.4f}")
        print(f"    {'sum':28s} {record['breakdown_sum_ms']:12.4f}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
