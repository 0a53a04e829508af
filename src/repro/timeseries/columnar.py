"""Columnar (vertical, array-backed) view of a transactional database.

The pure-python :class:`~repro.timeseries.database.TransactionalDatabase`
stores transactions as tuples of frozensets and per-item point sequences
as tuples of numbers — ideal for correctness, hostile to NumPy.  This
module materialises the same information once as flat arrays, the
backbone of the ``rp-eclat-vec`` engine (:mod:`repro.core.rp_eclat_vec`):

* ``timestamps`` — one sorted ``int64`` (or ``float64``) array with the
  timestamp of every transaction; position in this array is the
  *transaction id*;
* ``items`` / ``indptr`` / ``indices`` — a CSR-style index: item ``i``
  (in deterministic sorted-by-``repr`` order) occurs in the transactions
  ``indices[indptr[i]:indptr[i + 1]]``, each row strictly increasing.

Ts-lists become integer index arrays into ``timestamps``, so set
intersection is array intersection and interval extraction is one
``np.diff`` sweep over a gather (see ``docs/performance.md``,
"Columnar kernel").

A database read from an integer-timestamped transaction file is born
with this view: :func:`~repro.timeseries.io.load_transactional_database`
parses the file straight into these arrays and builds the row tuple
only if something asks for it.  Any other database builds the view on
first use (:meth:`ColumnarTDB.from_database`, from
:meth:`~repro.timeseries.database.TransactionalDatabase.item_timestamps`).
Either way the view is cached on the database
(:meth:`~repro.timeseries.database.TransactionalDatabase.columnar`), so
repeated mines and sweep columns share one materialisation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Tuple

import numpy as np

from repro.timeseries.events import Item

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.timeseries.database import TransactionalDatabase

__all__ = ["ColumnarTDB"]


def index_dtype(n_transactions: int) -> type:
    """The dtype of transaction ids: ``int32`` unless they need more."""
    return np.int32 if n_transactions < 2 ** 31 else np.int64


class ColumnarTDB(NamedTuple):
    """Immutable columnar view of a :class:`TransactionalDatabase`.

    Examples
    --------
    >>> from repro.timeseries.database import TransactionalDatabase
    >>> db = TransactionalDatabase([(1, "ab"), (3, "a"), (4, "ab")])
    >>> column = db.columnar()
    >>> column.timestamps
    array([1, 3, 4])
    >>> column.items
    ('a', 'b')
    >>> column.item_rows(1)  # transaction ids containing 'b'
    array([0, 2], dtype=int32)
    """

    timestamps: np.ndarray
    items: Tuple[Item, ...]
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_database(cls, database: "TransactionalDatabase") -> "ColumnarTDB":
        """Materialise the columnar view of ``database``.

        Raises
        ------
        ParameterError
            If timestamps overflow int64, sit in the diff-unsafe range
            (|ts| >= 2**62), or mix large integers into a float column
            (see :func:`repro.core.accel.as_timestamp_array`).
        """
        from repro.core.accel import as_timestamp_array

        timestamps = as_timestamp_array(
            [transaction.ts for transaction in database.transactions]
        )
        index = database.item_timestamps()
        items = tuple(sorted(index, key=repr))
        ids = index_dtype(timestamps.size)
        indptr = np.zeros(len(items) + 1, dtype=np.int64)
        rows = []
        for position, item in enumerate(items):
            row = np.searchsorted(timestamps, np.asarray(index[item]))
            rows.append(row.astype(ids, copy=False))
            indptr[position + 1] = indptr[position] + row.size
        if rows:
            indices = np.concatenate(rows)
        else:
            indices = np.zeros(0, dtype=ids)
        return cls(timestamps, items, indptr, indices)

    @property
    def n_transactions(self) -> int:
        """Number of transactions (the id universe for ``indices``)."""
        return self.timestamps.size

    def item_rows(self, position: int) -> np.ndarray:
        """Transaction ids containing item ``position`` (a view, not a copy)."""
        return self.indices[self.indptr[position] : self.indptr[position + 1]]
