"""The bulk transaction-file loader against the row parser.

:func:`~repro.timeseries.io.load_transactional_database` parses an
integer-timestamped file in bulk straight into the columnar arrays and
builds the row tuple only on first use; every other file goes through
the row parser.  Whichever path runs, the database must be the one the
row parser builds — rows, frozenset iteration order, item index order,
columnar arrays and digest — and a bad file must fail with the row
parser's exception and message.
"""

import io
import os
import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.miner import mine_recurring_patterns
from repro.exceptions import DataFormatError, ParameterError
from repro.patterns_io import save_patterns
from repro.sweep import SweepPlan, run_sweep
from repro.timeseries import database as database_module
from repro.timeseries.columnar import ColumnarTDB
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.io import (
    load_transactional_database,
    load_transactional_database_streaming,
    save_transactional_database,
    stream_transaction_rows,
)

#: Items whose repr order differs from their str order (quotes,
#: backslashes), non-ASCII items, and plain ones.
ITEMS = ("a", "b", "Z", "a'b", '"q"', "x\\y", "\\", "é", "ß", "日本", "q")
#: Whitespace that separates items inside the items column: file
#: iteration does not end a line at \x0b, \x1c or \u2028, but
#: ``str.split()`` splits items there.
SEPARATORS = (" ", "  ", "\x0b", "\x1c", "\u2028", " \x0c ")


def _write(tmp_dir, content: str) -> str:
    """Write ``content`` verbatim (CRLF kept) and return the path."""
    handle, path = tempfile.mkstemp(suffix=".tsv", dir=tmp_dir)
    with os.fdopen(handle, "wb") as out:
        out.write(content.encode("utf-8"))
    return path


def _row_database(path) -> TransactionalDatabase:
    """The reference: the row parser's rows through the constructor."""
    return TransactionalDatabase(stream_transaction_rows(path))


def _tsv(patterns) -> str:
    buffer = io.StringIO()
    save_patterns(patterns, buffer)
    return buffer.getvalue()


def _assert_columnar_equal(left: ColumnarTDB, right: ColumnarTDB) -> None:
    assert left.items == right.items
    for name in ("timestamps", "indptr", "indices"):
        a, b = getattr(left, name), getattr(right, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def _assert_same_database(bulk, reference, set_order=True) -> None:
    """Equal on every surface, array-backed answers checked first.

    ``set_order=False`` skips the frozenset iteration order, which
    unpickling rebuilds (for any database, however it was loaded).
    """
    assert len(bulk) == len(reference)
    assert bulk.digest() == reference.digest()
    _assert_columnar_equal(bulk.columnar(), reference.columnar())
    assert bulk.transactions == reference.transactions
    # Same frozensets built the same way: same iteration order, so the
    # item index (and every engine's first scan) sees the same order.
    if set_order:
        assert [list(t.items) for t in bulk] == [
            list(t.items) for t in reference
        ]
    assert list(bulk.item_timestamps().items()) == list(
        reference.item_timestamps().items()
    )
    assert bulk == reference
    assert hash(bulk) == hash(reference)


# ----------------------------------------------------------------------
# Differential property: bulk loader vs row parser
# ----------------------------------------------------------------------
@st.composite
def _data_lines(draw):
    ts = draw(st.integers(-6, 6))
    items = draw(st.lists(st.sampled_from(ITEMS), min_size=1, max_size=5))
    separators = draw(
        st.lists(
            st.sampled_from(SEPARATORS),
            min_size=len(items) - 1, max_size=len(items) - 1,
        )
    )
    column = items[0] + "".join(
        sep + item for sep, item in zip(separators, items[1:])
    )
    pad = draw(st.sampled_from(("", " ", "\x0b")))
    ts_text = draw(st.sampled_from((str(ts), f" {ts} ", f"{ts}\x0c")))
    return f"{ts_text}\t{pad}{column}{pad}"


_other_lines = st.sampled_from(
    ("", " ", "\t", " \t ", "\x0b", "# comment", "  #\ta\tb", "#1\ta")
)


@st.composite
def _files(draw):
    lines = draw(
        st.lists(
            st.one_of(_data_lines(), _data_lines(), _other_lines),
            min_size=0, max_size=12,
        )
    )
    newline = draw(st.sampled_from(("\n", "\r\n")))
    trailing = draw(st.booleans())
    return newline.join(lines) + (newline if trailing else "")


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(content=_files())
def test_bulk_loader_matches_row_parser(tmp_path, content):
    path = _write(tmp_path, content)
    bulk = load_transactional_database(path)
    reference = _row_database(path)
    if len(reference):
        # Born columnar; digest and columnar() answer from the arrays.
        assert bulk._transactions is None
        bulk.digest()
        bulk.columnar()
        assert bulk._transactions is None
    _assert_same_database(bulk, reference)
    _assert_same_database(load_transactional_database_streaming(path), bulk)


def test_duplicate_timestamps_and_items_merge(tmp_path):
    path = _write(tmp_path, "3\tb a\n-1\ta a\n3\ta c\r\n# x\n3\tb\n")
    bulk = load_transactional_database(path)
    column = bulk.columnar()
    assert column.timestamps.tolist() == [-1, 3]
    assert column.items == ("a", "b", "c")
    assert column.indices.tolist() == [0, 1, 1, 1]
    assert column.indptr.tolist() == [0, 2, 3, 4]
    _assert_same_database(bulk, _row_database(path))


def test_planted_workload_round_trip(tmp_path, planted_workload):
    path = tmp_path / "planted.tsv"
    save_transactional_database(planted_workload.database, path)
    bulk = load_transactional_database(path)
    assert bulk._transactions is None
    _assert_same_database(bulk, _row_database(path))
    assert bulk == planted_workload.database


# ----------------------------------------------------------------------
# Fallback parity: files the bulk path refuses take the row parser
# ----------------------------------------------------------------------
def _outcome(load, source):
    try:
        return load(source)
    except Exception as error:  # compared by type and message
        return type(error), str(error)


@pytest.mark.parametrize(
    "content, error, message",
    [
        ("1\ta\n2\ta\tb\n", DataFormatError, "line 2: expected"),
        ("1\ta\n\n2\t  \n", DataFormatError, "line 3: expected"),
        ("1\ta\n# c\nx1\tb\n", DataFormatError, "line 3: unparsable"),
        ("1\ta\nnan\tb\n", DataFormatError, "must be finite"),
        ("1\ta\n-inf\tb\n", DataFormatError, "must be finite"),
        ("1\ta\n2\n", DataFormatError, "line 2: expected"),
    ],
    ids=["extra-tab", "empty-items", "bad-ts", "nan", "inf", "no-tab"],
)
def test_bad_files_raise_like_the_row_parser(
    tmp_path, content, error, message
):
    path = _write(tmp_path, content)
    bulk = _outcome(load_transactional_database, path)
    row = _outcome(_row_database, path)
    assert bulk == row
    assert bulk[0] is error and message in bulk[1]
    # A handle always took the row parser: same answer.
    assert _outcome(load_transactional_database, io.StringIO(content)) == row


def test_float_timestamps_load_exactly(tmp_path):
    path = _write(tmp_path, "1.5\ta b\n2\tb\n0.25\tc\n2.0\ta\n")
    loaded = load_transactional_database(path)
    assert loaded._transactions is not None  # the row parser ran
    assert [ts for ts, _ in loaded] == [0.25, 1.5, 2]
    assert loaded.columnar().timestamps.dtype == np.float64
    _assert_same_database(loaded, _row_database(path))


def test_huge_timestamps_take_the_row_path(tmp_path):
    huge = 2 ** 62
    content = "".join(f"{ts}\ta b\n" for ts in (1, 2, 3, 4, huge))
    path = _write(tmp_path, content)
    loaded = load_transactional_database(path)
    reference = _row_database(path)
    assert loaded._transactions is not None
    assert loaded == reference and loaded.digest() == reference.digest()
    growth = dict(per=1, min_ps=2, engine="rp-growth")
    found = mine_recurring_patterns(loaded, **growth)
    assert len(found) > 0
    assert _tsv(found) == _tsv(mine_recurring_patterns(reference, **growth))
    vec = dict(per=1, min_ps=2, engine="rp-eclat-vec")
    with pytest.raises(ParameterError, match=r"2\*\*62") as raised:
        mine_recurring_patterns(loaded, **vec)
    with pytest.raises(ParameterError) as expected:
        mine_recurring_patterns(reference, **vec)
    assert str(raised.value) == str(expected.value)


def test_undecodable_file_raises_like_the_row_parser(tmp_path):
    path = tmp_path / "latin1.tsv"
    path.write_bytes(b"1\ta\n2\t\xe9\n")
    bulk = _outcome(load_transactional_database, path)
    assert bulk == _outcome(_row_database, path)
    assert bulk[0] is UnicodeDecodeError


# ----------------------------------------------------------------------
# Process boundaries
# ----------------------------------------------------------------------
@pytest.fixture
def planted_file(tmp_path, planted_workload):
    path = tmp_path / "planted.tsv"
    save_transactional_database(planted_workload.database, path)
    return path


def test_pickle_round_trips_before_and_after_rows(planted_file):
    reference = _row_database(planted_file)
    bulk = load_transactional_database(planted_file)
    before = pickle.loads(pickle.dumps(bulk))
    assert before._transactions is None
    _assert_same_database(before, reference)
    assert bulk._transactions is None
    bulk.item_timestamps()
    after = pickle.loads(pickle.dumps(bulk))
    assert after._transactions is not None
    _assert_same_database(after, reference, set_order=False)
    assert list(after.item_timestamps()) == list(reference.item_timestamps())


@pytest.fixture
def build_log(tmp_path, monkeypatch):
    """Record the pid of every row and item-index build, across forks."""
    log = tmp_path / "builds.log"
    canonical = database_module._canonical
    item_timestamps = TransactionalDatabase.item_timestamps

    def note(what):
        with open(log, "a", encoding="utf-8") as out:
            out.write(f"{what} {os.getpid()}\n")

    def logged_canonical(rows):
        note("rows")
        return canonical(rows)

    def logged_item_timestamps(self):
        if self._item_index is None:
            note("index")
        return item_timestamps(self)

    monkeypatch.setattr(database_module, "_canonical", logged_canonical)
    monkeypatch.setattr(
        TransactionalDatabase, "item_timestamps", logged_item_timestamps
    )

    def builds():
        if not log.exists():
            return []
        return [tuple(line.split()) for line in log.read_text().splitlines()]

    return builds


@pytest.mark.parametrize("engine", ["rp-growth", "rp-eclat-vec"])
def test_sweep_fan_out_on_a_bulk_loaded_file(
    planted_file, engine, build_log
):
    plan = dict(
        pers=(2, 3), min_ps_values=(3,), min_recs=(1, 2), engine=engine
    )
    serial = run_sweep(
        load_transactional_database(planted_file), SweepPlan(**plan)
    )
    earlier = len(build_log())  # the serial sweep's builds
    fanned = run_sweep(
        load_transactional_database(planted_file), SweepPlan(jobs=2, **plan)
    )
    assert fanned.cells_fanned_out == 2
    for key in serial.plan.cells():
        assert _tsv(fanned.patterns[key]) == _tsv(serial.patterns[key]), key
    # Rows and item index were built once, in this process, before the
    # pool forked: no worker rebuilt them.
    builds = build_log()[earlier:]
    assert sorted(what for what, _ in builds) == ["index", "rows"]
    assert {pid for _, pid in builds} == {str(os.getpid())}


@pytest.mark.parametrize("engine", ["rp-growth", "rp-eclat-vec"])
def test_parallel_mine_on_a_bulk_loaded_file(
    planted_file, engine, build_log
):
    params = dict(per=2, min_ps=3, min_rec=1, engine=engine)
    serial = mine_recurring_patterns(
        load_transactional_database(planted_file), **params
    )
    earlier = len(build_log())  # the serial mine's builds
    parallel = mine_recurring_patterns(
        load_transactional_database(planted_file), jobs=2, **params
    )
    assert _tsv(parallel) == _tsv(serial)
    builds = build_log()[earlier:]
    if engine == "rp-eclat-vec":
        # Workers get the columnar context; nobody builds rows.
        assert builds == []
    else:
        # The first scan and tree build read the rows here, before the
        # pool forks; workers get conditional pattern bases.
        assert builds == [("rows", str(os.getpid()))]
