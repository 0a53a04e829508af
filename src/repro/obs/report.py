"""Run telemetry and its sinks: summary table, logging, JSON-lines.

:class:`MiningTelemetry` bundles everything one mining run measured —
engine, parameters, the shared :class:`~repro.obs.counters.MiningStats`
counters, the span tree and (optionally) peak memory.  Three sinks
consume it:

* :meth:`MiningTelemetry.summary_table` — the human-readable phase
  table the CLI prints with ``--profile``;
* :meth:`MiningTelemetry.log` — one stdlib-``logging`` record per
  phase plus a run summary;
* :class:`TraceWriter` — a JSON-lines trace file: one ``span`` record
  per span (depth-first) and a final ``run`` record.

The ``run`` record is the repo's machine-readable benchmark currency:
``BENCH_*.json`` files embed exactly these records (schema
``repro-run/v1``, validated by :func:`validate_run_record`; see
``docs/observability.md`` for the field-by-field contract).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import (
    IO,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.obs.counters import MiningStats
from repro.obs.spans import Span, SpanCollector, span

__all__ = [
    "QA_SCHEMA",
    "RUN_SCHEMA",
    "STREAM_SCHEMA",
    "SWEEP_SCHEMA",
    "MiningTelemetry",
    "TraceWriter",
    "iter_trace",
    "profile_call",
    "read_trace",
    "validate_qa_record",
    "validate_run_record",
    "validate_stream_record",
    "validate_sweep_record",
]

logger = logging.getLogger("repro.obs")

#: Schema tag carried by every run record.
RUN_SCHEMA = "repro-run/v1"

#: Schema tag carried by every ``repro qa`` gate report.
QA_SCHEMA = "repro-qa/v1"

#: Schema tag carried by every shared-scan sweep record.
SWEEP_SCHEMA = "repro-sweep/v1"

#: Schema tag carried by every streaming-checkpoint record.
STREAM_SCHEMA = "repro-stream/v1"

#: Keys a ``repro-stream/v1`` header record must carry, with types.
_STREAM_HEADER_REQUIRED: Tuple[Tuple[str, type], ...] = (
    ("schema", str),
    ("kind", str),
    ("shards", int),
    ("params", dict),
    ("streams", int),
    ("active", int),
    ("evicted", int),
    ("lru", list),
    ("watched", list),
)

#: Keys a ``repro-stream/v1`` per-stream record must carry, with types.
_STREAM_STATE_REQUIRED: Tuple[Tuple[str, type], ...] = (
    ("schema", str),
    ("kind", str),
    ("shard", int),
    ("state", dict),
)

#: Top-level keys every ``repro-qa/v1`` record must carry, with types.
_QA_REQUIRED: Tuple[Tuple[str, type], ...] = (
    ("schema", str),
    ("kind", str),
    ("passed", bool),
    ("seconds", float),
    ("budget_seconds", float),
    ("seed", int),
    ("skipped", list),
    ("relations", dict),
    ("golden", dict),
    ("differential", dict),
)

#: Keys every ``repro-run/v1`` record must carry, with their types.
_RUN_REQUIRED: Tuple[Tuple[str, type], ...] = (
    ("schema", str),
    ("kind", str),
    ("engine", str),
    ("params", dict),
    ("patterns_found", int),
    ("seconds", float),
    ("counters", dict),
    ("spans", list),
)


@dataclass
class MiningTelemetry:
    """Everything measured about one mining run."""

    engine: str
    params: Dict[str, object]
    stats: MiningStats
    spans: Tuple[Span, ...]
    patterns_found: int
    seconds: float
    memory_peak_bytes: Optional[int] = None
    dataset: Optional[str] = None
    extra: Dict[str, object] = field(default_factory=dict)

    # -- derived views -------------------------------------------------
    def phase_seconds(self) -> Dict[str, float]:
        """Summed seconds per span name, in first-seen order."""
        totals: Dict[str, float] = {}
        for root in self.spans:
            for _, item in root.walk():
                totals[item.name] = totals.get(item.name, 0.0) + item.seconds
        return totals

    def as_run_record(self) -> Dict[str, object]:
        """The ``repro-run/v1`` record (see docs/observability.md)."""
        record: Dict[str, object] = {
            "schema": RUN_SCHEMA,
            "kind": "run",
            "engine": self.engine,
            "params": dict(self.params),
            "patterns_found": self.patterns_found,
            "seconds": self.seconds,
            "counters": self.stats.as_dict(),
            "spans": [root.as_dict() for root in self.spans],
        }
        if self.memory_peak_bytes is not None:
            record["memory_peak_bytes"] = self.memory_peak_bytes
        if self.dataset is not None:
            record["dataset"] = self.dataset
        record.update(self.extra)
        return record

    # -- sinks ---------------------------------------------------------
    def summary_table(self) -> str:
        """Phase timings and counters as a fixed-width table."""
        from repro.bench.reporting import format_table  # avoid cycle

        rows: List[List[object]] = []
        for root in self.spans:
            for depth, item in root.walk():
                memory = (
                    _format_bytes(item.memory_peak_bytes)
                    if item.memory_peak_bytes is not None
                    else ""
                )
                rows.append(
                    ["  " * depth + item.name, f"{item.seconds:.6f}", memory]
                )
        rows.append(["total", f"{self.seconds:.6f}",
                     _format_bytes(self.memory_peak_bytes)
                     if self.memory_peak_bytes is not None else ""])
        phase_table = format_table(
            ["phase", "seconds", "peak mem"],
            rows,
            title=f"{self.engine}: {self.patterns_found} patterns",
        )
        counter_rows = [
            [name, value]
            for name, value in self.stats.as_dict().items()
        ]
        counter_table = format_table(["counter", "value"], counter_rows)
        return phase_table + "\n\n" + counter_table

    def log(
        self,
        target: Optional[logging.Logger] = None,
        level: int = logging.INFO,
    ) -> None:
        """Emit the telemetry through stdlib logging."""
        sink = target if target is not None else logger
        sink.log(
            level,
            "run engine=%s patterns=%d seconds=%.6f",
            self.engine,
            self.patterns_found,
            self.seconds,
        )
        for name, seconds in self.phase_seconds().items():
            sink.log(level, "phase %s seconds=%.6f", name, seconds)


def validate_run_record(record: Mapping[str, object]) -> None:
    """Raise ``ValueError`` unless ``record`` is a valid run record.

    Examples
    --------
    >>> validate_run_record({"schema": "bogus"})
    Traceback (most recent call last):
        ...
    ValueError: run record schema 'bogus' != 'repro-run/v1'
    """
    schema = record.get("schema")
    if schema != RUN_SCHEMA:
        raise ValueError(f"run record schema {schema!r} != {RUN_SCHEMA!r}")
    for key, expected in _RUN_REQUIRED:
        if key not in record:
            raise ValueError(f"run record missing required key {key!r}")
        value = record[key]
        if expected is float and isinstance(value, int):
            value = float(value)
        if not isinstance(value, expected):
            raise ValueError(
                f"run record key {key!r} must be {expected.__name__}, "
                f"got {type(value).__name__}"
            )
    if record["kind"] != "run":
        raise ValueError(f"run record kind {record['kind']!r} != 'run'")
    counters = record["counters"]
    for name in MiningStats.field_names():
        if name not in counters:  # type: ignore[operator]
            raise ValueError(f"run record counters missing {name!r}")
    if "faults" in record:
        faults = record["faults"]
        if not isinstance(faults, dict):
            raise ValueError(
                f"run record 'faults' must be dict, "
                f"got {type(faults).__name__}"
            )
        for key in ("chunks_retried", "chunks_fallback", "events"):
            if key not in faults:
                raise ValueError(f"run record faults missing {key!r}")
        if not isinstance(faults["events"], list):
            raise ValueError("run record faults 'events' must be a list")


#: Keys every ``repro-sweep/v1`` record must carry, with their types.
_SWEEP_REQUIRED: Tuple[Tuple[str, type], ...] = (
    ("schema", str),
    ("kind", str),
    ("engine", str),
    ("grid", dict),
    ("jobs", int),
    ("seconds", float),
    ("counters", dict),
    ("cells", list),
)

#: Reuse counters every sweep record's ``counters`` section must carry.
_SWEEP_COUNTERS = (
    "cells_total",
    "cells_mined",
    "cells_derived",
    "scans_shared",
    "cells_fanned_out",
)


def validate_sweep_record(record: Mapping[str, object]) -> None:
    """Raise ``ValueError`` unless ``record`` is a valid sweep record.

    The ``repro-sweep/v1`` schema is the machine-readable output of the
    shared-scan threshold-sweep engine (:mod:`repro.sweep`); it is
    written through the same :class:`TraceWriter` sink as
    ``repro-run/v1`` records and consumed the same way by
    ``BENCH_sweep.json``.  See ``docs/observability.md`` for the
    field-by-field contract.

    Examples
    --------
    >>> validate_sweep_record({"schema": "bogus"})
    Traceback (most recent call last):
        ...
    ValueError: sweep record schema 'bogus' != 'repro-sweep/v1'
    """
    schema = record.get("schema")
    if schema != SWEEP_SCHEMA:
        raise ValueError(
            f"sweep record schema {schema!r} != {SWEEP_SCHEMA!r}"
        )
    for key, expected in _SWEEP_REQUIRED:
        if key not in record:
            raise ValueError(f"sweep record missing required key {key!r}")
        value = record[key]
        if expected is float and isinstance(value, int) \
                and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, expected) or (
            expected is int and isinstance(value, bool)
        ):
            raise ValueError(
                f"sweep record key {key!r} must be {expected.__name__}, "
                f"got {type(value).__name__}"
            )
    if record["kind"] != "sweep":
        raise ValueError(
            f"sweep record kind {record['kind']!r} != 'sweep'"
        )
    grid = record["grid"]
    for axis in ("pers", "min_ps_values", "min_recs"):
        if axis not in grid:  # type: ignore[operator]
            raise ValueError(f"sweep record grid missing {axis!r}")
        if not isinstance(grid[axis], list):  # type: ignore[index]
            raise ValueError(f"sweep record grid {axis!r} must be a list")
    counters = record["counters"]
    for name in _SWEEP_COUNTERS:
        if name not in counters:  # type: ignore[operator]
            raise ValueError(f"sweep record counters missing {name!r}")
        value = counters[name]  # type: ignore[index]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(
                f"sweep record counter {name!r} must be int, "
                f"got {type(value).__name__}"
            )
    cells = record["cells"]
    expected_cells = counters["cells_total"]  # type: ignore[index]
    if len(cells) != expected_cells:  # type: ignore[arg-type]
        raise ValueError(
            f"sweep record has {len(cells)} cells "  # type: ignore[arg-type]
            f"but counters.cells_total = {expected_cells}"
        )
    for cell in cells:  # type: ignore[union-attr]
        for key in (
            "params", "patterns_found", "seconds", "derived",
            "counters", "spans",
        ):
            if key not in cell:
                raise ValueError(f"sweep record cell missing {key!r}")
        if not isinstance(cell["derived"], bool):
            raise ValueError("sweep record cell 'derived' must be bool")
        params = cell["params"]
        for key in ("per", "min_ps", "min_rec"):
            if key not in params:
                raise ValueError(
                    f"sweep record cell params missing {key!r}"
                )
        if cell["derived"] and not cell.get("derived_from"):
            raise ValueError(
                "sweep record derived cell must name 'derived_from'"
            )
        if not isinstance(cell["spans"], list):
            raise ValueError("sweep record cell 'spans' must be a list")


def validate_qa_record(record: Mapping[str, object]) -> None:
    """Raise ``ValueError`` unless ``record`` is a valid qa record.

    The ``repro-qa/v1`` schema is the machine-readable output of the
    ``repro qa`` conformance gate (:mod:`repro.qa.gate`); CI consumes
    it the way benchmarks consume ``repro-run/v1`` records.  See
    ``docs/observability.md`` for the field-by-field contract.

    Examples
    --------
    >>> validate_qa_record({"schema": "bogus"})
    Traceback (most recent call last):
        ...
    ValueError: qa record schema 'bogus' != 'repro-qa/v1'
    """
    schema = record.get("schema")
    if schema != QA_SCHEMA:
        raise ValueError(f"qa record schema {schema!r} != {QA_SCHEMA!r}")
    for key, expected in _QA_REQUIRED:
        if key not in record:
            raise ValueError(f"qa record missing required key {key!r}")
        value = record[key]
        if expected is float and isinstance(value, int) \
                and not isinstance(value, bool):
            value = float(value)
        if expected is bool:
            if not isinstance(value, bool):
                raise ValueError(
                    f"qa record key {key!r} must be bool, "
                    f"got {type(value).__name__}"
                )
            continue
        if not isinstance(value, expected) or (
            expected is int and isinstance(value, bool)
        ):
            raise ValueError(
                f"qa record key {key!r} must be {expected.__name__}, "
                f"got {type(value).__name__}"
            )
    if record["kind"] != "qa":
        raise ValueError(f"qa record kind {record['kind']!r} != 'qa'")
    relations = record["relations"]
    for key in ("matrix_complete", "checks", "violations"):
        if key not in relations:  # type: ignore[operator]
            raise ValueError(f"qa record relations missing {key!r}")
    if not isinstance(relations["checks"], list):  # type: ignore[index]
        raise ValueError("qa record relations 'checks' must be a list")
    if not isinstance(relations["violations"], list):  # type: ignore[index]
        raise ValueError("qa record relations 'violations' must be a list")
    for check in relations["checks"]:  # type: ignore[index]
        for key in ("relation", "engine", "jobs", "cases", "violations"):
            if key not in check:
                raise ValueError(
                    f"qa record relation check missing {key!r}"
                )
    golden = record["golden"]
    if "checks" not in golden:  # type: ignore[operator]
        raise ValueError("qa record golden missing 'checks'")
    if not isinstance(golden["checks"], list):  # type: ignore[index]
        raise ValueError("qa record golden 'checks' must be a list")
    for check in golden["checks"]:  # type: ignore[index]
        for key in ("name", "engine", "status"):
            if key not in check:
                raise ValueError(f"qa record golden check missing {key!r}")
    differential = record["differential"]
    for key in ("cases", "checks", "failures"):
        if key not in differential:  # type: ignore[operator]
            raise ValueError(f"qa record differential missing {key!r}")
    if not isinstance(differential["failures"], list):  # type: ignore[index]
        raise ValueError("qa record differential 'failures' must be a list")


def validate_stream_record(record: Mapping[str, object]) -> None:
    """Raise ``ValueError`` unless ``record`` is a valid stream record.

    The ``repro-stream/v1`` schema is the checkpoint format of the
    sharded streaming registry (:mod:`repro.streaming`): one
    ``stream-checkpoint`` header line followed by one ``stream-state``
    line per stream, all written through the same :class:`TraceWriter`
    sink as ``repro-run/v1`` records.  See ``docs/streaming.md`` for
    the field-by-field contract.

    Examples
    --------
    >>> validate_stream_record({"schema": "bogus"})
    Traceback (most recent call last):
        ...
    ValueError: stream record schema 'bogus' != 'repro-stream/v1'
    """
    schema = record.get("schema")
    if schema != STREAM_SCHEMA:
        raise ValueError(
            f"stream record schema {schema!r} != {STREAM_SCHEMA!r}"
        )
    kind = record.get("kind")
    if kind == "stream-checkpoint":
        required = _STREAM_HEADER_REQUIRED
    elif kind == "stream-state":
        required = _STREAM_STATE_REQUIRED
    else:
        raise ValueError(
            f"stream record kind {kind!r} is not one of "
            f"'stream-checkpoint', 'stream-state'"
        )
    for key, expected in required:
        if key not in record:
            raise ValueError(f"stream record missing required key {key!r}")
        value = record[key]
        if not isinstance(value, expected) or (
            expected is int and isinstance(value, bool)
        ):
            raise ValueError(
                f"stream record key {key!r} must be {expected.__name__}, "
                f"got {type(value).__name__}"
            )
    if kind == "stream-checkpoint":
        if record["shards"] < 1:  # type: ignore[operator]
            raise ValueError("stream record 'shards' must be >= 1")
        for key in ("min_ps", "min_rec"):
            if key not in record["params"]:  # type: ignore[operator]
                raise ValueError(f"stream record params missing {key!r}")
    else:
        if "stream" not in record:
            raise ValueError("stream record missing required key 'stream'")
        state_kind = record["state"].get("kind")  # type: ignore[union-attr]
        if state_kind not in ("monitor", "calendar-monitor"):
            raise ValueError(
                f"stream record state kind {state_kind!r} is not one of "
                f"'monitor', 'calendar-monitor'"
            )


class TraceWriter:
    """JSON-lines trace sink.

    Each span becomes one ``{"kind": "span", ...}`` line (depth-first,
    with its dotted ``path``); each completed run contributes a final
    ``{"kind": "run", ...}`` record.  Every line is a complete JSON
    document, so a trace interrupted mid-run is still parseable.

    Examples
    --------
    >>> import io
    >>> handle = io.StringIO()
    >>> writer = TraceWriter(handle)
    >>> writer.write_record({"kind": "note", "text": "hi"})
    >>> handle.getvalue()
    '{"kind": "note", "text": "hi"}\\n'
    """

    def __init__(self, target: Union[str, IO[str]]):
        if hasattr(target, "write"):
            self._handle: IO[str] = target  # type: ignore[assignment]
            self._owns_handle = False
        else:
            self._handle = open(target, "w", encoding="utf-8")
            self._owns_handle = True

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Close the underlying file if this writer opened it."""
        if self._owns_handle:
            self._handle.close()

    def write_record(self, record: Mapping[str, object]) -> None:
        """Write one record as a single JSON line (flushed)."""
        self._handle.write(json.dumps(record, sort_keys=False) + "\n")
        self._handle.flush()

    def write_spans(self, spans: Tuple[Span, ...]) -> None:
        """One line per span, depth-first, with the dotted path."""
        for root in spans:
            self._write_span_tree(root, prefix="")

    def _write_span_tree(self, item: Span, prefix: str) -> None:
        path = f"{prefix}.{item.name}" if prefix else item.name
        record: Dict[str, object] = {
            "kind": "span",
            "path": path,
            "name": item.name,
            "seconds": item.seconds,
        }
        if item.memory_peak_bytes is not None:
            record["memory_peak_bytes"] = item.memory_peak_bytes
        self.write_record(record)
        for child in item.children:
            self._write_span_tree(child, prefix=path)

    def write_run(self, telemetry: MiningTelemetry) -> None:
        """A full trace of one run: span lines then the run record."""
        self.write_spans(telemetry.spans)
        self.write_record(telemetry.as_run_record())


def iter_trace(
    source: Union[str, IO[str]]
) -> Iterator[Dict[str, object]]:
    """Stream a JSON-lines trace one record at a time.

    Blank lines are ignored; anything else must be valid JSON.  Memory
    use is O(longest line), never O(file) — a nightly sweep trace with
    thousands of snapshot records costs the same as a two-line one.
    Given a path the file is opened lazily and closed when the
    generator is exhausted or dropped; given a handle, the caller keeps
    ownership and the handle is read from its current position.
    """
    if hasattr(source, "read"):
        for line in source:  # type: ignore[union-attr]
            if line.strip():
                yield json.loads(line)
        return
    with open(source, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                yield json.loads(line)


def read_trace(source: Union[str, IO[str]]) -> List[Dict[str, object]]:
    """Parse a whole JSON-lines trace into a list of records.

    Convenience eager form of :func:`iter_trace`; prefer the iterator
    for anything that might be large (the trace CLI does).
    """
    return list(iter_trace(source))


def profile_call(
    fn: Callable[[], object],
    engine: str,
    params: Optional[Dict[str, object]] = None,
    dataset: Optional[str] = None,
    track_memory: bool = False,
    stats: Optional[MiningStats] = None,
    count: Callable[[object], int] = lambda result: len(result),  # type: ignore[arg-type]
) -> Tuple[object, MiningTelemetry]:
    """Run ``fn`` under a fresh collector and package the telemetry.

    This is the generic profiling wrapper for code paths that do not go
    through ``mine_recurring_patterns`` (baseline miners, the
    noise-tolerant miner): any :func:`~repro.obs.spans.span` calls made
    inside ``fn`` are captured as the phase breakdown.

    ``count`` extracts ``patterns_found`` from the result (``len`` by
    default); ``stats`` supplies counters when the callee populates
    them, otherwise an empty :class:`MiningStats` is attached.
    """
    collector = SpanCollector(track_memory=track_memory)
    with collector:
        with span("run") as run_span:
            result = fn()
    run_stats = stats if stats is not None else MiningStats()
    if run_stats.patterns_found == 0:
        run_stats.patterns_found = count(result)
    telemetry = MiningTelemetry(
        engine=engine,
        params=dict(params or {}),
        stats=run_stats,
        spans=collector.spans,
        patterns_found=count(result),
        seconds=run_span.seconds,
        memory_peak_bytes=collector.memory_peak_bytes,
        dataset=dataset,
    )
    return result, telemetry


def _format_bytes(value: Optional[int]) -> str:
    if value is None:
        return ""
    if value >= 1 << 20:
        return f"{value / (1 << 20):.1f} MiB"
    if value >= 1 << 10:
        return f"{value / (1 << 10):.1f} KiB"
    return f"{value} B"
