"""The measuring process: one closed loop over one workload's requests.

Started by ``run.py`` as ``python measure.py PLAN.json`` with the
repository's ``src`` on ``PYTHONPATH``, so its resource usage and peak
memory are those of the program under test, not of data generation or
reference computation.  It warms the path with one op, runs the loop
for ``seconds`` of measuring time, and writes one result file.  The
loop measures in slices; between two slices, with every client idle,
it times the host-speed probe of :mod:`speed`.

With ``trace`` on, ops alternate between untraced and traced (the
parity flips every cycle of a cycled stream, so each request is traced
as often as not).  A traced op runs under its own
:class:`~repro.obs.spans.SpanCollector` inside a root ``op`` span; its
span tree stays in memory and leaves the process once, in the result.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import layers
import speed
from repro.obs.spans import SpanCollector, span
from workloads import SWEEP_JOBS, WORKLOADS, request_key


def run_loop(
    runner,
    streams: List[List[Dict[str, object]]],
    cycle: bool,
    expected: Dict[str, bytes],
    seconds: float,
    trace: bool,
    slice_s: float = 0.0,
    probes_per_pause: int = 1,
) -> Dict[str, object]:
    """Run one client per stream for ``seconds``; check every op.

    The loop runs in slices of ``slice_s`` seconds (at least one op per
    client each) and times ``probes_per_pause`` host-speed probes
    before the first slice and after every slice, with every client
    idle.  ``pauses[k]`` and ``pauses[k + 1]`` bracket slice ``k``; each
    op records its slice.  Probing is not part of ``seconds``,
    ``elapsed_s``, ``cpu_s`` or any op's ``done_s``.
    """
    records: List[List[Dict[str, object]]] = [[] for _ in streams]
    counts = [0] * len(streams)
    check_cpu = [0.0] * len(streams)
    pauses = [speed.probe(probes_per_pause)]
    paused = probe_cpu = 0.0
    current = 0  # the slice running
    started = time.perf_counter()

    def client(index: int, slice_end: float) -> None:
        stream = streams[index]
        done = records[index]
        while True:
            count = counts[index]
            if not cycle and count >= len(stream):
                break
            request = stream[count % len(stream)]
            # Alternate traced and untraced ops; over an even-length
            # cycle, flip the parity every lap so every request is
            # traced as often as not.
            lap = count // len(stream) if len(stream) % 2 == 0 else 0
            traced = trace and (count + lap) % 2 == 1
            record = one_op(runner, request, index, traced)
            check_started = time.thread_time()
            check(runner, record, expected)
            check_cpu[index] += time.thread_time() - check_started
            record.update(op_id=f"{index}-{count}", client=index,
                          done_s=time.perf_counter() - started - paused,
                          slice=current)
            done.append(record)
            counts[index] = count + 1
            if time.perf_counter() >= slice_end:
                break

    def exhausted() -> bool:
        return not cycle and all(
            count >= len(stream) for count, stream in zip(counts, streams)
        )

    usage_before = _cpu_seconds()
    while time.perf_counter() - started - paused < seconds and not exhausted():
        slice_end = time.perf_counter() + slice_s
        if len(streams) == 1:
            client(0, slice_end)
        else:
            threads = [
                threading.Thread(target=client, args=(index, slice_end),
                                 daemon=True)
                for index in range(len(streams))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        pause_started = time.perf_counter()
        cpu_started = time.thread_time()
        pauses.append(speed.probe(probes_per_pause))
        probe_cpu += time.thread_time() - cpu_started
        paused += time.perf_counter() - pause_started
        current += 1
    return {
        "ops": [record for done in records for record in done],
        "elapsed_s": time.perf_counter() - started - paused,
        "cpu_s": _cpu_seconds() - usage_before - probe_cpu,
        "check_cpu_s": sum(check_cpu),
        "pauses": pauses,
        "exhausted": exhausted(),
    }


def one_op(runner, request, client: int, traced: bool) -> Dict[str, object]:
    """Time one op; a raised error is a failed op, not a crash."""
    record: Dict[str, object] = {"key": request_key(request), "traced": traced}
    notes: Dict[str, object] = {}
    collector: Optional[SpanCollector] = SpanCollector() if traced else None
    started = time.perf_counter()
    try:
        if collector is None:
            value = runner.op(request, client)
        else:
            with collector, span("op"):
                value = runner.traced_op(request, client, notes)
    except Exception as error:  # counted toward failed_frac
        record.update(latency_s=time.perf_counter() - started,
                      error=f"{type(error).__name__}: {error}")
        return record
    record["latency_s"] = time.perf_counter() - started
    record["value"] = value
    if collector is not None:
        record["tree"] = layers.from_span(collector.roots[0], started, SWEEP_JOBS)
        record["notes"] = notes
    return record


def check(runner, record: Dict[str, object], expected: Dict[str, bytes]) -> None:
    """Compare the op's output with its reference, byte for byte."""
    if "error" in record:
        record["ok"] = False
        return
    value = record.pop("value")
    try:
        got = runner.output(value)
    except Exception as error:  # an unreadable output is a wrong one
        record.update(ok=False, error=f"{type(error).__name__}: {error}")
        return
    record["ok"] = got == expected.get(record["key"])
    if not record["ok"]:
        record["error"] = "output differs from the reference"


def _cpu_seconds() -> float:
    """CPU of this process and its reaped children (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def process_cpu_seconds(pid: int) -> float:
    """utime + stime of another process, from ``/proc/<pid>/stat``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of another process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def measure(plan: Dict[str, object]) -> Dict[str, object]:
    """Set up the runner, warm it, run the loop; the result record."""
    ready_started = time.perf_counter()
    workload = WORKLOADS[plan["workload"]]
    expected = {
        key: Path(path).read_bytes() for key, path in plan["references"].items()
    }
    runner = workload.runner(plan)
    warm = one_op(runner, workload.warm_request(plan), 0, traced=False)
    check(runner, warm, expected)
    if not warm["ok"]:
        raise RuntimeError(f"warm-up op failed: {warm.get('error')}")
    speed.probe(1)
    ready_s = time.perf_counter() - ready_started

    daemon = plan.get("daemon")
    service = {}
    if daemon:
        daemon_cpu = process_cpu_seconds(daemon["pid"])
        service["metrics_before"] = runner.clients[0].metrics()
    result = run_loop(
        runner, plan["streams"], plan["cycle"], expected,
        plan["seconds"], plan["trace"],
        workload.slice_s, workload.probes_per_pause,
    )
    if daemon:
        result["cpu_s"] += process_cpu_seconds(daemon["pid"]) - daemon_cpu
        result["peak_rss_mb"] = process_peak_rss_mb(daemon["pid"])
        service["metrics_after"] = runner.clients[0].metrics()
        result["service"] = service
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["peak_rss_mb"] = peak_kib / 1024.0
    result["ready_s"] = ready_s
    return result


def main(argv: List[str]) -> int:
    plan = json.loads(Path(argv[1]).read_text())
    result = measure(plan)
    Path(plan["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
