"""Temporally ordered transactional databases (Section 3 of the paper).

A transaction is a pair ``(ts, Y)`` of a timestamp and an itemset.  A
transactional database is a timestamp-ordered set of transactions with
*unique* timestamps — the construction from a time series groups all
events sharing a timestamp into one transaction, so the point sequence
of every pattern in the database equals its point sequence in the
original series (no temporal information is lost).
"""

from __future__ import annotations

import bisect
import math
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.exceptions import DataFormatError, EmptyDatabaseError
from repro.timeseries.events import Event, EventSequence, Item

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import numpy as np

    from repro.timeseries.columnar import ColumnarTDB

__all__ = ["Transaction", "TransactionalDatabase"]

#: Parsed file lines of a database born columnar: per line its
#: transaction id, the ``codes`` offsets of its items (one more than
#: lines), the item codes in file order, and the items by code.
_Lines = Tuple["np.ndarray", "np.ndarray", "np.ndarray", Tuple[Item, ...]]


class Transaction(NamedTuple):
    """One timestamped itemset."""

    ts: float
    items: FrozenSet[Item]


class TransactionalDatabase:
    """A timestamp-ordered transactional database with unique timestamps.

    The constructor validates, merges and orders its input:

    * timestamps must be finite numbers;
    * transactions are sorted by timestamp;
    * transactions sharing a timestamp are merged (itemset union), which
      is exactly the grouping step of the paper's time-series-to-TDB
      transformation;
    * empty itemsets are dropped (a timestamp with no events does not
      produce a transaction — cf. timestamps 8 and 13 of the paper's
      running example).

    Parameters
    ----------
    transactions:
        Iterable of ``(ts, items)`` pairs; ``items`` is any iterable of
        hashable items.  **Note**: a plain string is an iterable of
        characters — ``(1, "abg")`` means the three items a, b, g
        (handy for compact examples); a single multi-character item
        must be wrapped, ``(1, ["beat"])``.

    Examples
    --------
    >>> db = TransactionalDatabase([(1, "ab"), (2, "a"), (1, "g")])
    >>> len(db)
    2
    >>> sorted(db[0].items)
    ['a', 'b', 'g']
    """

    __slots__ = (
        "_transactions", "_lines", "_item_index", "_columnar", "_digest"
    )

    def __init__(self, transactions: Iterable[Tuple[float, Iterable[Item]]] = ()):
        self._transactions: Optional[Tuple[Transaction, ...]] = _canonical(
            transactions
        )
        self._lines: Optional[_Lines] = None
        self._item_index: Optional[Dict[Item, Tuple[float, ...]]] = None
        self._columnar: Optional["ColumnarTDB"] = None
        self._digest: Optional[str] = None

    @classmethod
    def _from_columnar(
        cls, column: "ColumnarTDB", lines: _Lines
    ) -> "TransactionalDatabase":
        """A database born columnar (the bulk file loader's result).

        ``column`` is the finished columnar view and ``lines`` the
        parsed file (see ``_Lines``).  The row tuple is derived from
        ``lines`` on first use, through the same merge as the
        constructor, so every frozenset (and hence
        :meth:`item_timestamps` order) is the one the row parser would
        have produced.
        """
        database = cls.__new__(cls)
        database._transactions = None
        database._lines = lines
        database._item_index = None
        database._columnar = column
        database._digest = None
        return database

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if self._transactions is None:
            return self._columnar.n_transactions
        return len(self._transactions)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.transactions)

    def __getitem__(self, index: int) -> Transaction:
        return self.transactions[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransactionalDatabase):
            return NotImplemented
        return self.transactions == other.transactions

    def __hash__(self) -> int:
        return hash(self.transactions)

    def __repr__(self) -> str:
        if not len(self):
            return "TransactionalDatabase(empty)"
        return (
            f"TransactionalDatabase({len(self)} transactions, "
            f"{len(self.items())} items, span=[{self.start}, {self.end}])"
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def transactions(self) -> Tuple[Transaction, ...]:
        """All transactions in timestamp order.

        A database born columnar builds this tuple on first use (see
        :meth:`_from_columnar`) and caches it.
        """
        if self._transactions is None:
            tids, bounds, codes, by_code = self._lines
            stamps = self._columnar.timestamps.tolist()
            items = [by_code[code] for code in codes.tolist()]
            bounds = bounds.tolist()
            self._transactions = _canonical(
                (stamps[tid], items[lo:hi])
                for tid, lo, hi in zip(tids.tolist(), bounds, bounds[1:])
            )
        return self._transactions

    @property
    def start(self) -> float:
        """Timestamp of the first transaction."""
        self._require_non_empty()
        return self.transactions[0].ts

    @property
    def end(self) -> float:
        """Timestamp of the last transaction."""
        self._require_non_empty()
        return self.transactions[-1].ts

    @property
    def span(self) -> float:
        """``end - start``; zero for a single-transaction database."""
        return self.end - self.start

    def items(self) -> FrozenSet[Item]:
        """The set of distinct items appearing in the database."""
        return frozenset(self.item_timestamps())

    # ------------------------------------------------------------------
    # Point-sequence access
    # ------------------------------------------------------------------
    def item_timestamps(self) -> Dict[Item, Tuple[float, ...]]:
        """Mapping of every item to its ordered occurrence timestamps.

        Built lazily on first use and cached; the database is immutable
        so the cache never goes stale.
        """
        if self._item_index is None:
            index: Dict[Item, List[float]] = {}
            for ts, itemset in self.transactions:
                for item in itemset:
                    index.setdefault(item, []).append(ts)
            self._item_index = {
                item: tuple(ts_list) for item, ts_list in index.items()
            }
        return self._item_index

    def columnar(self) -> "ColumnarTDB":
        """Array-backed vertical view (see :mod:`repro.timeseries.columnar`).

        A database that
        :func:`~repro.timeseries.io.load_transactional_database` read
        from an integer-timestamped file holds it from birth; any other
        database builds it from :meth:`item_timestamps` on first use.
        Either way it is cached — the database is immutable, so the
        cache never goes stale — and repeated mines and sweep columns
        over the same database share one materialisation.
        """
        if self._columnar is None:
            from repro.timeseries.columnar import ColumnarTDB

            self._columnar = ColumnarTDB.from_database(self)
        return self._columnar

    def digest(self) -> str:
        """Stable content hash of the database (hex SHA-256, 64 chars).

        The hash covers the canonical line encoding the TSV writer
        uses — one ``<ts>\\t<item> <item> ...`` line per transaction in
        timestamp order, items in sorted-by-repr order — except that
        items are ``repr``-escaped so the digest is defined even for
        items the TSV format itself refuses (whitespace, tabs).  Two
        databases have equal digests iff they compare equal, because
        the constructor already canonicalises (sorts, merges, drops
        empties) and the encoding is injective on that canonical form.

        Built on first use and cached like :meth:`columnar`; the
        database is immutable so the cache never goes stale.  A database
        born columnar hashes straight from the columnar arrays, without
        building its rows: transposing the item-major index lists each
        transaction's items by rank, and items are ranked by ``repr``,
        so that is the sorted order of their reprs.  This is the
        ``dataset_digest`` of the service result cache and of
        ``repro-run/v1`` records.

        Examples
        --------
        >>> a = TransactionalDatabase([(1, "ab"), (2, "a")])
        >>> b = TransactionalDatabase([(2, "a"), (1, "ba")])
        >>> a.digest() == b.digest()
        True
        >>> len(a.digest())
        64
        """
        if self._digest is None:
            import hashlib

            if self._transactions is None:
                lines = _columnar_lines(self._columnar)
            else:
                lines = (
                    _ts_text(ts) + "\t" + " ".join(sorted(map(repr, itemset)))
                    for ts, itemset in self._transactions
                )
            hasher = hashlib.sha256()
            for line in lines:
                hasher.update((line + "\n").encode("utf-8"))
            self._digest = hasher.hexdigest()
        return self._digest

    def timestamps_of(self, pattern: Iterable[Item]) -> Tuple[float, ...]:
        """``TS^X``: ordered timestamps of transactions containing ``pattern``.

        Implemented by intersecting the per-item timestamp lists,
        starting from the rarest item.
        """
        items = list(set(pattern))
        if not items:
            raise ValueError("pattern must contain at least one item")
        index = self.item_timestamps()
        try:
            lists = sorted((index[item] for item in items), key=len)
        except KeyError:
            return ()
        result = set(lists[0])
        for ts_list in lists[1:]:
            result.intersection_update(ts_list)
            if not result:
                return ()
        return tuple(sorted(result))

    def support(self, pattern: Iterable[Item]) -> int:
        """``Sup(X)``: number of transactions containing ``pattern``."""
        return len(self.timestamps_of(pattern))

    # ------------------------------------------------------------------
    # Derived databases
    # ------------------------------------------------------------------
    def restrict_items(self, keep: Iterable[Item]) -> "TransactionalDatabase":
        """Database with every transaction projected onto ``keep``."""
        keep_set = set(keep)
        return TransactionalDatabase(
            (ts, itemset & keep_set) for ts, itemset in self.transactions
        )

    def window(self, start: float, end: float) -> "TransactionalDatabase":
        """Transactions with ``start <= ts <= end``."""
        if end < start:
            raise ValueError(f"window end {end} precedes start {start}")
        ts_values = [ts for ts, _ in self.transactions]
        lo = bisect.bisect_left(ts_values, start)
        hi = bisect.bisect_right(ts_values, end)
        return TransactionalDatabase(self.transactions[lo:hi])

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_events(cls, events: EventSequence) -> "TransactionalDatabase":
        """Group a time series into a transactional database.

        This is the paper's (lossless) transformation: all events that
        share a timestamp become one transaction.
        """
        return cls((event.ts, (event.item,)) for event in events)

    def to_events(self) -> EventSequence:
        """Flatten the database back into an event sequence.

        Items within a transaction are emitted in sorted-by-repr order
        so the output is deterministic.
        """
        pairs: List[Tuple[Item, float]] = []
        for ts, itemset in self.transactions:
            for item in sorted(itemset, key=repr):
                pairs.append((item, ts))
        return EventSequence(pairs)

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _require_non_empty(self) -> None:
        if not len(self):
            raise EmptyDatabaseError("the database has no transactions")


def _canonical(
    transactions: Iterable[Tuple[float, Iterable[Item]]]
) -> Tuple[Transaction, ...]:
    """Validate, merge and order ``(ts, items)`` rows (see the class)."""
    merged: Dict[float, set] = {}
    for raw in transactions:
        try:
            ts, items = raw
        except (TypeError, ValueError) as exc:
            raise DataFormatError(
                f"transaction must be a (ts, items) pair, got {raw!r}"
            ) from exc
        if isinstance(ts, bool) or not isinstance(ts, (int, float)):
            raise DataFormatError(
                f"transaction timestamp must be a number, got {ts!r}"
            )
        if not math.isfinite(ts):
            raise DataFormatError(
                f"transaction timestamp must be finite, got {ts!r}"
            )
        itemset = set(items)
        if not itemset:
            continue
        merged.setdefault(ts, set()).update(itemset)
    return tuple(
        Transaction(ts, frozenset(merged[ts])) for ts in sorted(merged)
    )


def _ts_text(ts: float) -> str:
    # int-valued floats print the way the TSV writer prints them, so 3
    # and 3.0 (equal timestamps) hash equally.
    if isinstance(ts, float) and ts.is_integer():
        return str(int(ts))
    return repr(ts)


def _columnar_lines(column: "ColumnarTDB") -> Iterator[str]:
    """The digest lines of an integer-timestamped columnar view."""
    import numpy as np

    words = [repr(item) for item in column.items]
    entry_item = np.repeat(np.arange(len(words)), np.diff(column.indptr))
    by_row = np.argsort(column.indices, kind="stable")
    row_words = [words[item] for item in entry_item[by_row].tolist()]
    bounds = np.zeros(column.n_transactions + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(column.indices, minlength=column.n_transactions),
        out=bounds[1:],
    )
    bounds = bounds.tolist()
    for ts, lo, hi in zip(column.timestamps.tolist(), bounds, bounds[1:]):
        yield f"{ts}\t{' '.join(row_words[lo:hi])}"
