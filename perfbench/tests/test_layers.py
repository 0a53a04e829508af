"""Self time, the union of child intervals and the layer breakdown."""

import pytest

import layers
from layers import attribute, breakdown, node, self_time, union_length
from repro.obs.spans import Span, SpanCollector, span


def test_union_of_overlapping_intervals():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert union_length([(0, 4), (1, 2)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_self_time_does_not_double_count_overlapping_children():
    parent = node("mine", 10.0, start=0.0, children=[
        node("a", 4.0, start=1.0),
        node("b", 4.0, start=3.0),  # overlaps a on [3, 5]
    ])
    # The children cover [1, 7]: 6 s, not 8 s.
    assert self_time(parent) == pytest.approx(4.0)


def test_unplaced_children_are_packed_onto_lanes():
    chunks = [node(f"chunk[{i}]", seconds) for i, seconds in enumerate((3, 2, 1))]
    parallel = node("mine", 5.0, start=0.0, children=chunks, lanes=2)
    # 6 s of chunk work on 2 workers covers at least 3 s.
    assert self_time(parallel) == pytest.approx(2.0)
    serial = node("sweep", 7.0, start=0.0, children=chunks, lanes=1)
    assert self_time(serial) == pytest.approx(1.0)
    # Coverage never exceeds the parent's own duration.
    short = node("mine", 2.0, start=0.0, children=chunks, lanes=1)
    assert self_time(short) == 0.0


def test_shares_add_up_to_the_root_duration():
    root = node("op", 12.0, start=0.0, children=[
        node("io.parse", 2.0, start=0.5),
        node("miner", 8.0, start=3.0, children=[
            node("first_scan", 1.0, start=3.5),
            node("mine", 6.0, start=4.5, lanes=2, children=[
                node("chunk[0]", 5.0), node("chunk[1]", 4.0),
                node("chunk[2]", 3.0),
            ]),
        ]),
    ])
    shares = [share for _, _, share in attribute(root)]
    assert sum(shares) == pytest.approx(12.0)
    totals = breakdown([root])
    assert sum(totals.values()) == pytest.approx(12.0)
    assert totals["residual"] == pytest.approx(2.0)  # 12 - 2 - 8
    assert totals["io.parse"] == pytest.approx(2.0)
    assert totals["parallel.mine_self"] == pytest.approx(0.0)  # 12 s / 2 lanes
    assert totals["parallel.chunk"] == pytest.approx(6.0)
    assert totals["miner.self"] == pytest.approx(1.0)


def test_from_span_keeps_offsets_and_marks_worker_spans_unplaced():
    collector = SpanCollector()
    with collector:
        with span("op") as op:
            with span("mine") as mine:
                pass
            mine.children.append(Span("chunk[0]", started=0.0, seconds=0.5))
    tree = layers.from_span(collector.roots[0], op.started, jobs=2)
    assert tree["start"] == 0.0
    inner = tree["children"][0]
    assert inner["start"] >= 0.0 and inner["lanes"] == 2
    assert inner["children"][0]["start"] is None


def test_categories_follow_context():
    sweep = node("sweep", 1.0, start=0.0, children=[node("transform", 0.1)])
    miner = node("miner", 1.0, start=0.0, children=[node("transform", 0.1)])
    assert breakdown([sweep])["sweep.transform"] == pytest.approx(0.1)
    assert breakdown([miner])["miner.self"] == pytest.approx(1.0)
    assert layers.base_name("shard[3]") == "shard[]"
    assert layers.base_name("chunk[12]") == "chunk"
