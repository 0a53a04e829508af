"""Span trees, self time and the layer breakdown of a traced op.

A traced op is one tree of plain-dict *nodes*::

    {"name": str, "start": float | None, "seconds": float,
     "lanes": int, "children": [node, ...]}

``start`` is the offset in seconds from the op's start, or ``None``
when the program did not keep it (spans folded back from pool worker
processes, the sweep's per-cell records, the daemon's job times).
``lanes`` says how many of a node's unplaced children can run at once:
the worker count for a node whose children are parallel ``chunk[i]``
spans, 1 otherwise.

**Self time** is a node's duration minus the time its children cover.
Placed children cover the union of their intervals, so overlapping
children are not double-counted.  Unplaced children are packed onto
``lanes`` lanes: together they cover ``max(longest, total / lanes)``,
the least wall time they can have taken.  Coverage never exceeds the
node's own duration.

:func:`attribute` splits an op's wall time over its nodes: each node
keeps its self time and hands the covered time to its children, scaled
so overlapping or concurrent children share it.  The shares of one
tree therefore add up to the op's wall time exactly, and the root's
own share is the time no layer span explains (the residual).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

Node = Dict[str, object]


def node(
    name: str,
    seconds: float,
    start: Optional[float] = None,
    children: Iterable[Node] = (),
    lanes: int = 1,
) -> Node:
    """Build one span node."""
    return {
        "name": name,
        "start": start,
        "seconds": float(seconds),
        "lanes": lanes,
        "children": list(children),
    }


def from_span(span, origin: float, jobs: int = 1) -> Node:
    """Convert a :class:`repro.obs.spans.Span` tree into nodes.

    ``origin`` is the ``perf_counter`` instant the op started.  Spans
    rebuilt from a worker process (or built by hand) carry
    ``started == 0.0``; they become unplaced nodes.
    """
    children = [from_span(child, origin, jobs) for child in span.children]
    parallel = any(child["name"].startswith("chunk[") for child in children)
    return node(
        span.name,
        span.seconds,
        start=None if span.started == 0.0 else span.started - origin,
        children=children,
        lanes=jobs if parallel else 1,
    )


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of closed intervals."""
    total = 0.0
    current: Optional[List[float]] = None
    for low, high in sorted(intervals):
        if current is None or low > current[1]:
            if current is not None:
                total += current[1] - current[0]
            current = [low, high]
        else:
            current[1] = max(current[1], high)
    if current is not None:
        total += current[1] - current[0]
    return total


def _coverage(parent: Node) -> Tuple[float, float]:
    """(time covered by placed children, by unplaced children)."""
    placed = [
        (child["start"], child["start"] + child["seconds"])
        for child in parent["children"]
        if child["start"] is not None
    ]
    unplaced = [
        child["seconds"]
        for child in parent["children"]
        if child["start"] is None
    ]
    duration = parent["seconds"]
    covered = min(union_length(placed), duration)
    packed = 0.0
    if unplaced:
        packed = max(max(unplaced), sum(unplaced) / max(parent["lanes"], 1))
        packed = min(packed, duration - covered)
    return covered, packed


def self_time(parent: Node) -> float:
    """Duration minus the time the node's children cover."""
    covered, packed = _coverage(parent)
    return max(parent["seconds"] - covered - packed, 0.0)


def attribute(root: Node) -> Iterator[Tuple[Node, Optional[Node], float]]:
    """Yield ``(node, parent, share)``; shares sum to the root duration."""
    stack: List[Tuple[Node, Optional[Node], float]] = [(root, None, 1.0)]
    while stack:
        current, parent, weight = stack.pop()
        covered, packed = _coverage(current)
        own = max(current["seconds"] - covered - packed, 0.0)
        yield current, parent, own * weight
        placed = [c for c in current["children"] if c["start"] is not None]
        unplaced = [c for c in current["children"] if c["start"] is None]
        for group, cover in ((placed, covered), (unplaced, packed)):
            busy = sum(child["seconds"] for child in group)
            scale = cover / busy if busy > 0 else 0.0
            stack.extend((child, current, weight * scale) for child in group)


def walk(root: Node) -> Iterator[Tuple[Node, Optional[Node]]]:
    """Every node with its parent, depth first."""
    stack: List[Tuple[Node, Optional[Node]]] = [(root, None)]
    while stack:
        current, parent = stack.pop()
        yield current, parent
        stack.extend((child, current) for child in reversed(current["children"]))


#: Span name -> layer of the breakdown.  Names not listed keep their
#: own name; ``mine``/``transform`` depend on context (see category()).
_CATEGORY = {
    "op": "residual",
    "first_scan": "engine.first_scan",
    "tree_build": "engine.tree_build",
    "partition": "parallel.partition",
    "chunk": "parallel.chunk",
    "retry": "parallel.retry",
    "fallback": "parallel.fallback",
    "miner": "miner.self",
    "sweep": "sweep.self",
    "cell": "sweep.cell_self",
    "derive": "sweep.derive",
    "shard": "shard.count",
    "shard-mine": "shard.mine_self",
    "shard[]": "shard.shard_self",
    "shard-candidates": "shard.candidates",
    "shard-verify": "shard.verify",
    "shard-merge": "shard.merge",
}


def base_name(name: str) -> str:
    """``chunk[3]`` -> ``chunk``; ``shard[0]`` -> ``shard[]``."""
    head, bracket, _ = name.partition("[")
    if not bracket:
        return name
    return "shard[]" if head == "shard" else head


def category(current: Node, parent: Optional[Node]) -> str:
    """The breakdown layer a node's self time belongs to."""
    name = base_name(current["name"])
    if name == "mine":
        return "parallel.mine_self" if current["lanes"] > 1 else "engine.mine"
    if name == "transform":
        return "sweep.transform" if parent and parent["name"] == "sweep" else "miner.self"
    return _CATEGORY.get(name, name)


def breakdown(roots: Iterable[Node]) -> Dict[str, float]:
    """Summed attributed seconds per layer over a set of op trees."""
    totals: Dict[str, float] = defaultdict(float)
    for root in roots:
        for current, parent, share in attribute(root):
            totals[category(current, parent)] += share
    return dict(totals)


def totals_by_name(roots: Iterable[Node]) -> Dict[str, float]:
    """Summed full durations per base span name (children included)."""
    totals: Dict[str, float] = defaultdict(float)
    for root in roots:
        for current, _ in walk(root):
            totals[base_name(current["name"])] += current["seconds"]
    return dict(totals)
