"""The four benchmark workloads: inputs, references and one op each.

Every workload is a closed loop.  Its data comes from the
:mod:`repro.bench.workloads` generators at the seed given on the
command line, written to transaction files; the program under test
receives only those files and the request stream.

A workload has two halves:

* the **parent side** (:meth:`Workload.setup`, :meth:`Workload.warm_up`,
  :meth:`Workload.references`) generates the inputs, warms the path
  and computes each request's expected output bytes by a different
  path than the op takes;
* the **child side** (:meth:`Workload.runner`) lives in the measuring
  process and performs one op, untraced or traced.  A traced op opens
  a span per layer call with :func:`repro.obs.spans.span` and hangs
  the spans the program records itself beneath them.
"""

from __future__ import annotations

import http.client
import io
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro
from repro.bench.workloads import WORKLOADS as GENERATORS
from repro.core.miner import mine_recurring_patterns
from repro.core.options import ObservabilityOptions
from repro.core.request import DatasetRef, MiningRequest
from repro.obs.spans import Span, span
from repro.patterns_io import load_patterns, save_patterns
from repro.service.client import ServiceClient
from repro.shard import mine_sharded_file
from repro.sweep import SweepPlan, run_sweep
from repro.timeseries.io import (
    load_transactional_database,
    save_transactional_database,
)

#: The vectorised engine the one-shot paths pin, and its cross-check.
VEC, GROWTH = "rp-eclat-vec", "rp-growth"

#: Dataset name -> (generator, scale, scale under ``--tiny``).
MINE_FILE_DATA = {
    "quest": ("quest", 0.02, 0.005),
    "shop14": ("clickstream", 0.1, 0.05),
    "twitter": ("twitter", 0.03, 0.03),  # the generator's 4-day minimum
}

#: (per, minPS, minRec) triples mined on each mine-file dataset.
MINE_FILE_TRIPLES = {
    "quest": ((360, 0.005, 1), (240, 0.005, 2), (360, 0.01, 1)),
    "shop14": ((360, 0.02, 1), (720, 0.01, 1), (720, 0.01, 2)),
    "twitter": ((360, 0.02, 1), (720, 0.01, 1), (360, 0.01, 2)),
}

SWEEP_DATA = {"quest": ("quest", 0.01, 0.005)}
SWEEP_GRID = {"pers": (240, 360), "min_ps_values": (0.01,), "min_recs": (1, 2, 3)}
SWEEP_JOBS = 2

#: Two independent copies of each dataset (the second at seed + 7919)
#: and three cut sets per file: the cost of a sharded mine depends on
#: the data around each cut, and one file cut one way varied the op
#: cost by up to 2x between seeds.
OOC_COPIES = 2
OOC_DATA = {
    f"{name}-{copy}": (generator, scale, tiny, 7919 * copy)
    for name, generator, scale, tiny in (
        ("quest", "quest", 0.04, 0.005), ("twitter", "twitter", 0.05, 0.03),
    )
    for copy in range(OOC_COPIES)
}
#: (dataset, per, minPS, minRec, max_transactions, tiny max_transactions)
OOC_REQUESTS = tuple(
    (f"{name}-{copy}", per, min_ps, 1, full, tiny)
    for copy in range(OOC_COPIES)
    for name, per, min_ps, fulls, tinies in (
        ("quest", 30, 0.005, (400, 500, 600), (100, 150, 200)),
        ("twitter", 15, 0.02, (1200, 1500, 1800), (600, 800, 1000)),
    )
    for full, tiny in zip(fulls, tinies)
)

#: Service mix: per-dataset base period and minPS of new (miss) keys.
#: The thresholds keep every miss to tens of milliseconds of mining, so
#: the latency tail is one dense cluster, not a sparse spread of slow keys.
SERVICE_MISS = {"quest": (360, 0.03), "shop14": (360, 0.01), "twitter": (360, 0.03)}
SERVICE_CLIENTS = 2
SERVICE_WORKERS = 2
#: The datasets the repeats of one block use.  With the 50 ms status
#: polling, latency comes in steps of one poll.  Hits on the two small
#: files take one or two polls, twitter hits two or three.  One repeat
#: per dataset put the median on a step, and p50 moved by a third
#: between runs; these weights keep it off the step at most speeds.
SERVICE_REPEATS = ("quest", "quest", "shop14")
#: In every block of this many ops exactly one asks for new thresholds.
SERVICE_BLOCK = len(SERVICE_REPEATS) + 1
#: Repeats draw from the client's most recent keys, so the daemon's
#: 64-entry LRU cache never evicts a key a client still repeats.
SERVICE_RECENT = 8
#: Ops pre-generated per client and second of run time.
SERVICE_OPS_PER_SECOND = 25


def request_key(request: Dict[str, object]) -> str:
    """Canonical identity of one request (references are keyed by it)."""
    return json.dumps(request, sort_keys=True)


def tsv_bytes(patterns) -> bytes:
    """A pattern set as the bytes :func:`save_patterns` writes."""
    buffer = io.StringIO()
    save_patterns(patterns, buffer)
    return buffer.getvalue().encode("utf-8")


def generate(data: Dict[str, tuple], workdir: Path,
             seed: int, tiny: bool) -> Dict[str, str]:
    """Generate each dataset and write it as a TSV file.

    ``data`` maps a name to ``(generator, scale, tiny scale)`` and an
    optional seed offset, for independent copies of one generator.
    """
    files = {}
    for name, (generator, scale, tiny_scale, *offset) in sorted(data.items()):
        factory = GENERATORS[generator]
        factory.cache_clear()  # setup time must include generation
        database = factory(tiny_scale if tiny else scale, seed + sum(offset))
        path = workdir / f"{name}.tsv"
        save_transactional_database(database, path)
        files[name] = str(path)
    return files


def describe_data(data, tiny: bool) -> Dict[str, Dict[str, object]]:
    return {
        name: {"generator": generator, "scale": tiny_scale if tiny else scale,
               "seed_offset": sum(offset)}
        for name, (generator, scale, tiny_scale, *offset) in data.items()
    }


class Workload:
    """Base class: one named workload (see the subclasses)."""

    name = ""
    why = ""
    clients = 1
    cycle = True
    #: The tail percentile: the highest rung of the ladder in summary.py
    #: that leaves 10 samples beyond it at the op count the workload was
    #: sized for (see summary.tail_percentile).
    tail_percentile = 95.0
    #: Measuring slice and host-speed probes after it (see
    #: measure.run_loop): one client probes after every op, so each
    #: op's scale comes from probes taken next to it in time.
    slice_s = 0.0
    probes_per_pause = 1
    data: Dict[str, Tuple[str, float, float]] = {}

    def describe(self, tiny: bool) -> Dict[str, object]:
        return {
            "why": self.why,
            "loop": "closed",
            "clients": self.clients,
            "tail_percentile": self.tail_percentile,
            "datasets": describe_data(self.data, tiny),
        }

    # -- parent side ---------------------------------------------------
    def setup(self, workdir: Path, seed: int, tiny: bool, seconds: int,
              trace: bool) -> Dict[str, object]:
        """Generate and write the inputs; build the request streams."""
        files = generate(self.data, workdir, seed, tiny)
        return {
            "workdir": str(workdir),
            "files": files,
            "streams": self.streams(random.Random(seed), tiny, seconds),
            "cycle": self.cycle,
        }

    def streams(self, rng, tiny, seconds) -> List[List[Dict[str, object]]]:
        """One request list per client (cycled when ``self.cycle``)."""
        raise NotImplementedError

    def warm_request(self, plan: Dict[str, object]) -> Dict[str, object]:
        """The request both warm-ups run (the first of the mix)."""
        return plan["streams"][0][0]

    def warm_up(self, plan: Dict[str, object]) -> None:
        """One op in the parent: part of set-up, like the OS page cache."""
        runner = self.runner(plan)
        runner.output(runner.op(self.warm_request(plan), 0))

    def references(self, plan: Dict[str, object]) -> Dict[str, bytes]:
        """Expected output bytes of every distinct request."""
        databases = {
            name: load_transactional_database(path)
            for name, path in plan["files"].items()
        }
        expected = {}
        for stream in plan["streams"] + [[self.warm_request(plan)]]:
            for request in stream:
                key = request_key(request)
                if key not in expected:
                    expected[key] = self.reference(
                        databases[request["file"]], request
                    )
        return expected

    def reference(self, database, request) -> bytes:
        """The expected bytes, by another path than the op's (in-memory
        ``rp-eclat-vec`` unless a subclass says otherwise)."""
        return tsv_bytes(
            mine_recurring_patterns(
                database, request["per"], request["min_ps"],
                request["min_rec"], engine=VEC,
            )
        )

    def teardown(self, plan: Dict[str, object]) -> None:
        """Stop whatever :meth:`setup` started (nothing by default)."""

    # -- child side ----------------------------------------------------
    def runner(self, plan: Dict[str, object]):
        raise NotImplementedError


# ----------------------------------------------------------------------
# mine-file: parse -> vec mine -> TSV, one client
# ----------------------------------------------------------------------
class MineFile(Workload):
    name = "mine-file"
    why = (
        "one-shot batch path: parse, columnar, vec mine, TSV save; "
        "non-kernel layers dominate; parallel, sweep, service, shard untouched"
    )
    data = MINE_FILE_DATA

    def describe(self, tiny):
        record = super().describe(tiny)
        record["engine"] = VEC
        record["mix"] = {
            name: [list(triple) for triple in triples]
            for name, triples in MINE_FILE_TRIPLES.items()
        }
        record["order"] = "the nine requests cycled, datasets taking turns"
        return record

    def streams(self, rng, tiny, seconds):
        # Datasets take turns in a fixed order: a seeded order moved
        # the peak RSS by a fifth between seeds (heap reuse depends on
        # which op follows which), so only the data varies by seed.
        return [[
            {"file": name, "per": per, "min_ps": min_ps, "min_rec": min_rec}
            for triples in zip(*(
                [(name, *triple) for triple in MINE_FILE_TRIPLES[name]]
                for name in sorted(MINE_FILE_TRIPLES)
            ))
            for name, per, min_ps, min_rec in triples
        ]]

    def reference(self, database, request):
        return tsv_bytes(
            mine_recurring_patterns(
                database, request["per"], request["min_ps"],
                request["min_rec"], engine=GROWTH,
            )
        )

    def runner(self, plan):
        return MineFileRunner(plan)


class MineFileRunner:
    def __init__(self, plan):
        self.files = plan["files"]
        self.out = Path(plan["workdir"]) / "mine-file-out.tsv"

    def op(self, request, client):
        database = load_transactional_database(self.files[request["file"]])
        found = mine_recurring_patterns(
            database, request["per"], request["min_ps"], request["min_rec"],
            engine=VEC,
        )
        save_patterns(found, self.out)
        return self.out

    def traced_op(self, request, client, notes):
        path = self.files[request["file"]]
        with span("io.parse"):
            database = load_transactional_database(path)
        # collect_stats digests the database; digesting first keeps
        # that cost in its own layer instead of the façade's.
        with span("database.digest"):
            database.digest()
        with span("columnar.build"):
            database.columnar()
        with span("miner") as miner:
            found, telemetry = mine_recurring_patterns(
                database, request["per"], request["min_ps"],
                request["min_rec"], engine=VEC,
                observability=ObservabilityOptions(collect_stats=True),
            )
            miner.children.extend(telemetry.spans)
        with span("patterns_io.save"):
            save_patterns(found, self.out)
        notes.update(
            parse_bytes=os.path.getsize(path),
            bytes_written=os.path.getsize(self.out),
            candidates=telemetry.stats.candidate_patterns,
            patterns_found=len(found),
        )
        return self.out

    def output(self, value):
        return Path(value).read_bytes()


# ----------------------------------------------------------------------
# sweep-grid: run_sweep with rp-growth and a 2-process pool
# ----------------------------------------------------------------------
class SweepGrid(Workload):
    name = "sweep-grid"
    why = (
        "the paper's RP-growth over a threshold grid with jobs=2: process "
        "pool and min_rec derivation do the work; parse and TSV do none"
    )
    data = SWEEP_DATA
    tail_percentile = 75.0

    def describe(self, tiny):
        record = super().describe(tiny)
        record.update(
            engine=GROWTH, jobs=SWEEP_JOBS,
            grid={key: list(value) for key, value in SWEEP_GRID.items()},
            order="the same grid every op; the quest file is loaded once",
        )
        return record

    def streams(self, rng, tiny, seconds):
        return [[{"file": "quest", **{k: list(v) for k, v in SWEEP_GRID.items()}}]]

    @staticmethod
    def plan_of(request) -> SweepPlan:
        return SweepPlan(
            pers=tuple(request["pers"]),
            min_ps_values=tuple(request["min_ps_values"]),
            min_recs=tuple(request["min_recs"]),
            engine=GROWTH,
            jobs=SWEEP_JOBS,
        )

    def reference(self, database, request):
        return b"".join(
            cell_header(cell) + tsv_bytes(
                mine_recurring_patterns(database, *cell, engine=VEC)
            )
            for cell in self.plan_of(request).cells()
        )

    def runner(self, plan):
        return SweepRunner(plan)


def cell_header(cell) -> bytes:
    return ("# cell %r %r %r\n" % tuple(cell)).encode("utf-8")


class SweepRunner:
    def __init__(self, plan):
        self.database = load_transactional_database(plan["files"]["quest"])

    def op(self, request, client):
        return run_sweep(self.database, SweepGrid.plan_of(request))

    def traced_op(self, request, client, notes):
        with span("sweep") as sweep:
            result = run_sweep(self.database, SweepGrid.plan_of(request))
        # The sweep records its transform and each cell under
        # collectors of its own; the cells ran one after another.
        sweep.children.append(
            Span("transform", started=0.0, seconds=result.transform_seconds)
        )
        for cell in result.plan.cells():
            seconds = result.seconds_by_cell[cell]
            if result.derived_from[cell] is None:
                sweep.children.append(Span(
                    "cell", started=0.0, seconds=seconds,
                    children=list(result.span_trees[cell]),
                ))
            else:
                sweep.children.append(
                    Span("derive", started=0.0, seconds=seconds)
                )
        mined = [
            result.stats[cell] for cell in result.plan.cells()
            if result.derived_from[cell] is None
        ]
        notes.update(
            cells_mined=result.cells_mined,
            cells_derived=result.cells_derived,
            candidates=sum(stats.candidate_patterns for stats in mined),
            patterns_found=sum(stats.patterns_found for stats in mined),
            chunks_retried=sum(stats.chunks_retried for stats in mined),
        )
        return result

    def output(self, result):
        return b"".join(
            cell_header(cell) + tsv_bytes(result.pattern_set(*cell))
            for cell in result.plan.cells()
        )


# ----------------------------------------------------------------------
# service-mix: two clients against `repro-mine serve --workers 2`
# ----------------------------------------------------------------------
class ServiceMix(Workload):
    name = "service-mix"
    why = (
        "2 clients vs the daemon (2 workers), 3/4 cache hits or derived "
        "min_rec, 1/4 new thresholds: HTTP, queue, polling, cache, digest"
    )
    data = MINE_FILE_DATA
    clients = SERVICE_CLIENTS
    cycle = False
    # Two clients overlap, so they probe together between 2 s slices,
    # when the daemon is idle, not around each op.
    slice_s = 2.0
    probes_per_pause = 4

    def describe(self, tiny):
        record = super().describe(tiny)
        record.update(
            engine="unset (the library default)",
            daemon=f"repro-mine serve --workers {SERVICE_WORKERS}, "
                   "fresh per run",
            mix={
                "new_thresholds": f"1 op in every {SERVICE_BLOCK} "
                                  "(seeded position), datasets in turn",
                "repeats": "the others: a recent key of each of "
                           f"{list(SERVICE_REPEATS)}; every other one at "
                           "min_rec 2 or 3 (derived)",
                "miss_keys": {name: {"per_from": per, "min_ps": min_ps}
                              for name, (per, min_ps) in SERVICE_MISS.items()},
            },
        )
        return record

    def setup(self, workdir, seed, tiny, seconds, trace):
        plan = super().setup(workdir, seed, tiny, seconds, trace)
        plan["daemon_trace"] = str(workdir / "daemon-trace.jsonl") if trace else None
        plan["daemon"] = start_daemon(workdir, plan["daemon_trace"])
        return plan

    def streams(self, rng, tiny, seconds):
        return [
            service_stream(random.Random(rng.getrandbits(64)), client,
                           length=SERVICE_OPS_PER_SECOND * seconds)
            for client in range(self.clients)
        ]

    def warm_request(self, plan):
        # A key outside the mix, so the measured cache starts empty.
        return {"file": "shop14", "per": 999, "min_ps": 0.05, "min_rec": 1}

    def references(self, plan):
        """One in-memory mine per (file, per, minPS) column at min_rec 1;
        a tighter min_rec keeps the lines with enough intervals."""
        databases = {
            name: load_transactional_database(path)
            for name, path in plan["files"].items()
        }
        columns: Dict[str, bytes] = {}
        expected = {}
        for request in sum(plan["streams"], [self.warm_request(plan)]):
            column = request_key({**request, "min_rec": 1})
            if column not in columns:
                columns[column] = self.reference(
                    databases[request["file"]], {**request, "min_rec": 1}
                )
            expected[request_key(request)] = keep_recurrence(
                columns[column], request["min_rec"]
            )
        return expected

    def teardown(self, plan):
        stop_daemon(plan["daemon"])

    def runner(self, plan):
        return ServiceRunner(plan)


def keep_recurrence(tsv: bytes, min_rec: int) -> bytes:
    """The lines of a pattern TSV whose pattern has >= ``min_rec``
    intervals (the third column is a comma-separated interval list)."""
    header, *lines = tsv.splitlines(keepends=True)
    return header + b"".join(
        line for line in lines
        if line.rstrip(b"\n").split(b"\t")[2].count(b",") + 1 >= min_rec
    )


def service_stream(rng: random.Random, client: int, length: int):
    """One client's seeded request stream (see ``ServiceMix.describe``).

    It opens with one new key per dataset.  After that, every block of
    ``SERVICE_BLOCK`` ops holds one new key (datasets in turn) and a
    repeat of a recent key for each of ``SERVICE_REPEATS``, in a seeded
    order.  Every other repeat asks for a tighter ``min_rec``.  The mix
    of datasets, hits and misses is therefore the same for every seed;
    only the data and the order vary.
    """
    names = sorted(SERVICE_MISS)
    rng.shuffle(names)
    mined: Dict[str, List[Dict[str, object]]] = {name: [] for name in names}
    stream: List[Dict[str, object]] = []

    def new_key(name: str) -> Dict[str, object]:
        per, min_ps = SERVICE_MISS[name]
        # Distinct per across clients and blocks: a key never seen.
        count = sum(len(keys) for keys in mined.values())
        request = {"file": name, "per": per + 2 * count + client,
                   "min_ps": min_ps, "min_rec": 1}
        mined[name].append(request)
        return request

    stream.extend(new_key(name) for name in names)
    block = 0
    while len(stream) < length:
        ops = []
        for offset, name in enumerate(SERVICE_REPEATS):
            request = dict(rng.choice(mined[name][-SERVICE_RECENT:]))
            if (block + offset) % 2:
                request["min_rec"] = rng.choice((2, 3))
            ops.append(request)
        rng.shuffle(ops)
        ops.insert(rng.randrange(SERVICE_BLOCK), new_key(names[block % len(names)]))
        stream.extend(ops)
        block += 1
    return stream[:length]


def service_request(request, files) -> MiningRequest:
    return MiningRequest(
        per=request["per"], min_ps=request["min_ps"],
        min_rec=request["min_rec"],
        source=DatasetRef.file(files[request["file"]]),
    )


def start_daemon(workdir: Path, trace_out: Optional[str]) -> Dict[str, object]:
    """Start ``repro-mine serve`` on a free port; wait for ``/healthz``."""
    log_path = workdir / "daemon.log"
    command = [
        sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1",
        "--port", "0", "--workers", str(SERVICE_WORKERS),
    ]
    if trace_out:
        command += ["--trace-out", trace_out]
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with open(log_path, "w", encoding="utf-8") as log:
        process = subprocess.Popen(
            command, stdout=subprocess.DEVNULL, stderr=log, cwd=workdir,
            env=env,
        )
    handle = {"pid": process.pid, "port": None, "_process": process}
    deadline = time.monotonic() + 60
    try:
        while handle["port"] is None:
            if process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    "daemon did not start: " + log_path.read_text()
                )
            text = log_path.read_text()
            if "listening on http://" in text:
                address = text.split("listening on http://", 1)[1].split()[0]
                handle["port"] = int(address.rsplit(":", 1)[1])
            else:
                time.sleep(0.01)
        while not _healthy(handle["port"]):
            if process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("daemon never answered /healthz")
            time.sleep(0.01)
    except BaseException:
        stop_daemon(handle)
        raise
    return handle


def _healthy(port: int) -> bool:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        connection.request("GET", "/healthz")
        return connection.getresponse().status == 200
    except OSError:
        return False
    finally:
        connection.close()


def stop_daemon(handle: Dict[str, object]) -> None:
    """Interrupt the daemon and wait until it has exited."""
    process = handle["_process"]
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


class CountingClient(ServiceClient):
    """A :class:`ServiceClient` that counts its status polls."""

    polls = 0

    def status(self, job_id):
        self.polls += 1
        return super().status(job_id)


class ServiceRunner:
    def __init__(self, plan):
        self.files = plan["files"]
        port = plan["daemon"]["port"]
        self.clients = [CountingClient(port=port) for _ in range(SERVICE_CLIENTS)]

    def _finish(self, client, job, status):
        if status["status"] != "done":
            raise RuntimeError(f"job {job} ended {status['status']}: "
                               f"{status.get('error')}")
        return client.result(job)

    def op(self, request, client_index):
        client = self.clients[client_index]
        job = client.submit(service_request(request, self.files))
        return self._finish(client, job, client.wait(job))

    def traced_op(self, request, client_index, notes):
        client = self.clients[client_index]
        polls = client.polls
        with span("service.submit"):
            job = client.submit(service_request(request, self.files))
        with span("service.wait") as wait:
            status = client.wait(job)
        served = "miss" if status["cache"] == "miss" else "hit"
        # The job's own execution time: the rest of the wait is queue
        # wait plus poll slack.
        wait.children.append(Span(
            f"service.exec_{served}", started=0.0,
            seconds=float(status["seconds"] or 0.0),
        ))
        with span("service.result"):
            body = self._finish(client, job, status)
        notes.update(
            file=request["file"], cache=status["cache"],
            exec_s=status["seconds"], polls=client.polls - polls,
            bytes_written=len(body["patterns_tsv"]),
        )
        return body

    def output(self, body):
        return str(body["patterns_tsv"]).encode("utf-8")


# ----------------------------------------------------------------------
# out-of-core: mine_sharded_file with bounded shards
# ----------------------------------------------------------------------
class OutOfCore(Workload):
    name = "out-of-core"
    why = (
        "the only path through repro.shard: files several times larger "
        "than max_transactions, sharded vec mine; peak_rss_mb is its point"
    )
    data = OOC_DATA
    tail_percentile = 75.0

    def describe(self, tiny):
        record = super().describe(tiny)
        record.update(
            engine=VEC,
            mix=[
                {"file": name, "per": per, "min_ps": min_ps,
                 "min_rec": min_rec,
                 "max_transactions": tiny_max if tiny else max_tx}
                for name, per, min_ps, min_rec, max_tx, tiny_max in OOC_REQUESTS
            ],
            order="the requests cycled in a fixed order",
        )
        return record

    def streams(self, rng, tiny, seconds):
        # A fixed order, as for mine-file: only the data varies by seed.
        return [[
            {"file": name, "per": per, "min_ps": min_ps, "min_rec": min_rec,
             "max_transactions": tiny_max if tiny else max_tx}
            for name, per, min_ps, min_rec, max_tx, tiny_max in OOC_REQUESTS
        ]]

    def runner(self, plan):
        return OutOfCoreRunner(plan)


class OutOfCoreRunner:
    def __init__(self, plan):
        self.files = plan["files"]

    def _mine(self, request):
        return mine_sharded_file(
            self.files[request["file"]], request["per"], request["min_ps"],
            request["min_rec"], engine=VEC,
            max_transactions=request["max_transactions"],
        )

    def op(self, request, client):
        return self._mine(request)[0]

    def traced_op(self, request, client, notes):
        with span("shard"):
            found, stats, _, report = self._mine(request)
        notes.update(
            boundary_candidates=report.boundary_candidates,
            patterns_considered=report.merge.patterns_considered,
            candidates=stats.candidate_patterns,
            patterns_found=len(found),
        )
        return found

    def output(self, found):
        return tsv_bytes(found)


WORKLOADS = {
    workload.name: workload
    for workload in (MineFile(), SweepGrid(), ServiceMix(), OutOfCore())
}


def replay_daemon_io(files: Dict[str, str], patterns_tsv: Dict[str, bytes],
                     repeats: int = 3) -> Dict[str, Dict[str, float]]:
    """Time, per dataset, the parse, digest and TSV save every daemon
    execution performs (the daemon records no span for them)."""
    timings = {}
    for name, path in files.items():
        parse, digest, save = [], [], []
        patterns = load_patterns(io.StringIO(patterns_tsv[name].decode("utf-8")))
        for _ in range(repeats):
            started = time.perf_counter()
            database = load_transactional_database(path)
            parsed = time.perf_counter()
            database.digest()
            digested = time.perf_counter()
            tsv_bytes(patterns)
            saved = time.perf_counter()
            parse.append(parsed - started)
            digest.append(digested - parsed)
            save.append(saved - digested)
        timings[name] = {
            "parse_s": min(parse), "digest_s": min(digest),
            "save_s": min(save), "bytes": os.path.getsize(path),
        }
    return timings
