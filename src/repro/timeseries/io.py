"""Plain-text readers and writers for event sequences and databases.

Two line-oriented formats are supported, both friendly to shell tools:

* **event format** — one event per line: ``<ts><TAB><item>``;
* **transaction format** — one transaction per line:
  ``<ts><TAB><item> <item> ...`` (items separated by single spaces).

Timestamps are parsed as ``int`` when possible, otherwise ``float``.
Blank lines and lines starting with ``#`` are ignored.  Malformed lines
raise :class:`~repro.exceptions.DataFormatError` with the line number.

:func:`load_transactional_database` reads a transaction file by path
in a few bulk passes straight into the columnar arrays
(:class:`~repro.timeseries.columnar.ColumnarTDB`) of the vertical
engine: the text is split on ``"\\n"`` only, each line on its tab and
its items column on whitespace; items get codes through one dict and
ranks by ``repr``; a sort of the line timestamps merges duplicate
timestamps and one integer sort of ``(item, transaction)`` keys merges
duplicate items.  The database answers ``len()``, ``columnar()`` and
``digest()`` from those arrays and builds its row tuple and item index
on first use, exactly as the row parser would have.  The bulk path
takes only files whose timestamps all parse as ``int`` with magnitude
below ``2**62``.  Any other source — float or huge timestamps, any
malformed or undecodable line, an open handle — goes through the row
parser, which stays the one source of line-numbered errors.

Besides the eager loaders, the transaction format has a *streaming*
surface for out-of-core work (:mod:`repro.shard`):

* :func:`stream_transaction_rows` lazily yields parsed ``(ts, items)``
  rows — optionally via ``mmap`` — without materializing the file;
* :func:`load_transactional_database_streaming` builds a database from
  that stream (byte-identical to :func:`load_transactional_database`);
* :func:`iter_database_chunks` cuts a *time-sorted* file into bounded
  :class:`~repro.timeseries.database.TransactionalDatabase` chunks,
  merging rows that share a timestamp and never splitting one across
  chunks.
"""

from __future__ import annotations

import mmap as _mmap
import os
from typing import IO, Dict, Iterator, List, Optional, Tuple, Union

from repro.exceptions import DataFormatError
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.events import EventSequence

PathOrFile = Union[str, "os.PathLike[str]", IO[str]]

__all__ = [
    "load_event_sequence",
    "save_event_sequence",
    "load_transactional_database",
    "save_transactional_database",
    "load_transactional_database_streaming",
    "stream_transaction_rows",
    "iter_database_chunks",
    "load_spmf_transactions",
    "save_spmf_transactions",
]


def load_event_sequence(source: PathOrFile) -> EventSequence:
    """Read an event sequence from ``source`` (path or open text file)."""
    pairs = []
    for line_no, line in _lines(source):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[1]:
            raise DataFormatError(
                f"line {line_no}: expected '<ts>\\t<item>', got {line!r}"
            )
        pairs.append((parts[1], _parse_ts(parts[0], line_no)))
    return EventSequence(pairs)


def save_event_sequence(events: EventSequence, target: PathOrFile) -> None:
    """Write an event sequence in event format.

    Items whose string form contains a tab or newline cannot be
    represented in the format and raise
    :class:`~repro.exceptions.DataFormatError` (silent corruption would
    be worse).
    """
    tab_or_newline = "\t\n"
    with _open_for_write(target) as handle:
        for event in events:
            item_text = _checked_item(event.item, separators=tab_or_newline)
            handle.write(f"{_format_ts(event.ts)}\t{item_text}\n")


def load_transactional_database(source: PathOrFile) -> TransactionalDatabase:
    """Read a transactional database from ``source``.

    A path whose timestamps are all ``int`` with magnitude below
    ``2**62`` is parsed in bulk straight into the columnar arrays (see
    the module docstring); any other source takes the row parser.  The
    result is the same database either way.
    """
    if not hasattr(source, "read"):
        database = _load_columnar(source)
        if database is not None:
            return database
    rows: List[Tuple[float, List[str]]] = []
    for line_no, line in _lines(source):
        rows.append(_parse_transaction_line(line_no, line))
    return TransactionalDatabase(rows)


def stream_transaction_rows(
    source: PathOrFile, *, use_mmap: bool = False
) -> Iterator[Tuple[float, List[str]]]:
    """Lazily yield ``(ts, items)`` rows of a transaction-format source.

    The generator parses one line at a time, so the file is never
    materialized: blank lines and ``#`` comments are skipped exactly as
    the eager loader skips them, and a malformed line raises
    :class:`~repro.exceptions.DataFormatError` *when the iterator
    reaches it*, carrying the same line number the eager loader would
    report.

    With ``use_mmap=True`` (paths only) the file is memory-mapped and
    lines are decoded straight from the mapping — the OS pages the data
    in and out instead of the Python heap holding it.
    """
    for line_no, line in _lines(source, use_mmap=use_mmap):
        yield _parse_transaction_line(line_no, line)


def load_transactional_database_streaming(
    source: PathOrFile, *, use_mmap: bool = False
) -> TransactionalDatabase:
    """Build a database by streaming ``source`` row by row.

    Byte-identical to :func:`load_transactional_database` on any input
    (same parsing, same grouping, same errors); only the peak memory
    profile differs — no intermediate row list is ever built.
    """
    return TransactionalDatabase(
        stream_transaction_rows(source, use_mmap=use_mmap)
    )


def iter_database_chunks(
    source: PathOrFile, max_transactions: int, *, use_mmap: bool = False
) -> Iterator[TransactionalDatabase]:
    """Cut a *time-sorted* transaction file into bounded database chunks.

    Yields :class:`~repro.timeseries.database.TransactionalDatabase`
    chunks of at most ``max_transactions`` transactions each.  Rows
    sharing a timestamp are merged into one transaction (exactly like
    the eager loader's constructor pass) and are never split across a
    chunk boundary, so concatenating the chunks reproduces the eager
    database transaction for transaction.

    Timestamps must be non-decreasing in file order — chunking an
    unsorted file by position would not partition the *time* axis, so a
    timestamp regression raises
    :class:`~repro.exceptions.DataFormatError` with the offending line
    number.  This is the reader that feeds the out-of-core sharded
    miner (:mod:`repro.shard`); chunk boundaries are deterministic, so
    repeated passes over the same file see identical chunks.
    """
    if isinstance(max_transactions, bool) or not isinstance(
        max_transactions, int
    ) or max_transactions < 1:
        raise DataFormatError(
            f"max_transactions must be a positive int, "
            f"got {max_transactions!r}"
        )
    rows: List[Tuple[float, List[str]]] = []
    distinct = 0
    previous_ts: float = float("-inf")
    for line_no, line in _lines(source, use_mmap=use_mmap):
        ts, items = _parse_transaction_line(line_no, line)
        if ts < previous_ts:
            raise DataFormatError(
                f"line {line_no}: timestamps must be non-decreasing for "
                f"chunked reading, saw {previous_ts!r} then {ts!r}"
            )
        if ts != previous_ts:
            if distinct == max_transactions:
                yield TransactionalDatabase(rows)
                rows = []
                distinct = 0
            distinct += 1
            previous_ts = ts
        rows.append((ts, items))
    if rows:
        yield TransactionalDatabase(rows)


def save_transactional_database(
    database: TransactionalDatabase, target: PathOrFile
) -> None:
    """Write a database in transaction format (items sorted per line).

    Items whose string form contains whitespace cannot be represented
    (the format separates items with spaces) and raise
    :class:`~repro.exceptions.DataFormatError`.
    """
    with _open_for_write(target) as handle:
        for ts, itemset in database:
            items = " ".join(
                _checked_item(item, separators=" \t\n")
                for item in sorted(itemset, key=repr)
            )
            handle.write(f"{_format_ts(ts)}\t{items}\n")


def load_spmf_transactions(
    source: PathOrFile, start_ts: int = 1
) -> TransactionalDatabase:
    """Read an SPMF-style transaction file.

    The SPMF library (whose format much of the periodic-pattern-mining
    ecosystem shares) writes one transaction per line as space-separated
    items, with ``@``-prefixed metadata lines and ``%`` comments.  The
    format has no timestamps, so — exactly like the paper does for
    T10I4D100K — consecutive integer timestamps starting at
    ``start_ts`` are assigned in file order.

    Lines containing the sequence markers ``-1``/``-2`` are rejected:
    that is SPMF's *sequence* format, which holds ordering information
    this loader would silently discard.
    """
    rows: List[Tuple[float, List[str]]] = []
    ts = start_ts
    for line_no, line in _lines(source):
        stripped = line.strip()
        if stripped.startswith("@") or stripped.startswith("%"):
            continue
        items = stripped.split()
        if "-1" in items or "-2" in items:
            raise DataFormatError(
                f"line {line_no}: SPMF sequence markers found; this is a "
                "sequence file, not a transaction file"
            )
        rows.append((ts, items))
        ts += 1
    return TransactionalDatabase(rows)


def save_spmf_transactions(
    database: TransactionalDatabase, target: PathOrFile
) -> None:
    """Write a database as SPMF transactions (timestamps are dropped).

    Items are sorted per line for determinism.  The temporal structure
    beyond transaction order is lost — that is inherent to the format,
    and precisely the limitation of symbolic-sequence mining the paper
    discusses.
    """
    with _open_for_write(target) as handle:
        for _, itemset in database:
            items = " ".join(
                _checked_item(item, separators=" \t\n")
                for item in sorted(itemset, key=repr)
            )
            handle.write(items + "\n")


# ----------------------------------------------------------------------
# Internal helpers
# ----------------------------------------------------------------------
def _lines(
    source: PathOrFile, *, use_mmap: bool = False
) -> Iterator[Tuple[int, str]]:
    """Yield (line_number, stripped_line), skipping blanks and comments."""
    if hasattr(source, "read"):
        yield from _iter_handle(source)  # type: ignore[arg-type]
    elif use_mmap:
        yield from _iter_mmap(source)
    else:
        with open(source, "r", encoding="utf-8") as handle:
            yield from _iter_handle(handle)


def _iter_handle(handle: IO[str]) -> Iterator[Tuple[int, str]]:
    for line_no, raw in enumerate(handle, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        yield line_no, line


def _iter_mmap(path: Union[str, "os.PathLike[str]"]) -> Iterator[Tuple[int, str]]:
    """Line iterator over a memory-mapped file.

    Matches :func:`_iter_handle` on ``\\n``- and ``\\r\\n``-terminated
    files (lone-``\\r`` line endings need the buffered reader, which
    applies universal-newline translation).
    """
    with open(path, "rb") as handle:
        if os.fstat(handle.fileno()).st_size == 0:
            return
        with _mmap.mmap(
            handle.fileno(), 0, access=_mmap.ACCESS_READ
        ) as mapped:
            line_no = 0
            while True:
                raw = mapped.readline()
                if not raw:
                    return
                line_no += 1
                line = raw.decode("utf-8").rstrip("\r\n")
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                yield line_no, line


def _load_columnar(
    path: Union[str, "os.PathLike[str]"]
) -> Optional[TransactionalDatabase]:
    """Bulk-parse a transaction file into a database born columnar.

    Returns ``None`` — the caller then runs the row parser, the one
    source of line-numbered errors — unless every non-blank,
    non-comment line is ``<int><TAB><items>`` with ``|int| < 2**62``.  A
    line is classified only when it fails to parse: a line that parses
    is not blank (its items column is not) and not a comment (``int()``
    refuses a leading ``#``).
    """
    import numpy as np

    from repro.core.accel import INT64_SAFE_BOUND
    from repro.timeseries.columnar import ColumnarTDB, index_dtype

    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError:
        return None
    stamps: List[int] = []
    counts: List[int] = []
    words: List[str] = []
    # Split on "\n" only: file iteration does not end lines at \x0b,
    # \x1c or \u2028 either (str.splitlines() would).
    for line in text.split("\n"):
        parts = line.split("\t")
        if len(parts) == 2:
            items = parts[1].split()
            if items:
                try:
                    stamps.append(int(parts[0].strip()))
                except ValueError:
                    pass
                else:
                    counts.append(len(items))
                    words += items
                    continue
        if line.strip() and not line.lstrip().startswith("#"):
            return None
    if not stamps:
        return TransactionalDatabase()
    if max(stamps) >= INT64_SAFE_BOUND or min(stamps) <= -INT64_SAFE_BOUND:
        return None

    # Items get codes in order of first appearance, then ranks by repr.
    by_code = tuple(dict.fromkeys(words))
    code_of = dict(zip(by_code, range(len(by_code))))
    codes = np.fromiter(
        map(code_of.__getitem__, words), dtype=np.int64, count=len(words)
    )
    reprs = [repr(item) for item in by_code]
    order = sorted(range(len(by_code)), key=reprs.__getitem__)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))

    # One sort merges duplicate timestamps (lines -> transaction ids),
    # one more merges duplicate (item, transaction) pairs and leaves
    # them item-major: the CSR index of the columnar view.
    timestamps, tids = np.unique(
        np.array(stamps, dtype=np.int64), return_inverse=True
    )
    n_rows = timestamps.size
    keys = np.sort(rank[codes] * n_rows + np.repeat(tids, counts))
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    entry_item, entry_row = np.divmod(keys, n_rows)
    indptr = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(np.bincount(entry_item, minlength=len(order)), out=indptr[1:])
    column = ColumnarTDB(
        timestamps,
        tuple(by_code[code] for code in order),
        indptr,
        entry_row.astype(index_dtype(n_rows)),
    )
    bounds = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return TransactionalDatabase._from_columnar(
        column, (tids, bounds, codes, by_code)
    )


def _parse_transaction_line(
    line_no: int, line: str
) -> Tuple[float, List[str]]:
    """Parse one transaction-format line (shared by eager and streaming)."""
    parts = line.split("\t")
    if len(parts) != 2 or not parts[1].strip():
        raise DataFormatError(
            f"line {line_no}: expected '<ts>\\t<items>', got {line!r}"
        )
    return _parse_ts(parts[0], line_no), parts[1].split()


class _WriteContext:
    """Context manager that opens paths but leaves open handles alone."""

    def __init__(self, target: PathOrFile):
        self._target = target
        self._owned = not hasattr(target, "write")
        self._handle: IO[str] = None  # type: ignore[assignment]

    def __enter__(self) -> IO[str]:
        if self._owned:
            self._handle = open(self._target, "w", encoding="utf-8")
        else:
            self._handle = self._target  # type: ignore[assignment]
        return self._handle

    def __exit__(self, *exc_info: object) -> None:
        if self._owned:
            self._handle.close()


def _open_for_write(target: PathOrFile) -> _WriteContext:
    return _WriteContext(target)


def _parse_ts(text: str, line_no: int) -> float:
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError as exc:
        raise DataFormatError(
            f"line {line_no}: unparsable timestamp {text!r}"
        ) from exc


def _checked_item(item: object, separators: str) -> str:
    """Stringify ``item``, refusing strings the format cannot hold."""
    text = str(item)
    if not text or any(ch in text for ch in separators):
        raise DataFormatError(
            f"item {text!r} cannot be written: it is empty or contains "
            "a separator character of the file format"
        )
    return text


def _format_ts(ts: float) -> str:
    if isinstance(ts, int) or (isinstance(ts, float) and ts.is_integer()):
        return str(int(ts))
    return repr(ts)
