"""Sample statistics and provenance for the benchmark's records.

Every metric the benchmark reports is a :func:`metric` record: its
value, unit, sample count and — where there is more than one sample —
the first and third quartile.  Latency tails follow one rule
(:func:`tail_percentile`): the highest percentile of a fixed ladder
that still has at least ten samples beyond it.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Candidate tail percentiles, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linearly interpolated percentile (NumPy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int, ceiling: float = PERCENTILE_LADDER[-1]) -> float:
    """The highest ladder percentile, up to ``ceiling``, with
    ``MIN_BEYOND`` samples past it.

    Each workload passes the rung its sample count reaches at the
    speed it was sized for as ``ceiling``, so a faster or slower
    machine does not switch its tail to another percentile (the
    sample count of a timed run moves with speed).  A sample of fewer
    than ``2 * MIN_BEYOND`` values has no such percentile; its tail is
    reported at the median (50), the lowest rung, so the metric stays
    defined.
    """
    chosen = PERCENTILE_LADDER[0]
    for pct in PERCENTILE_LADDER:
        if pct <= ceiling and count * (1.0 - pct / 100.0) >= MIN_BEYOND - 1e-9:
            chosen = pct
    return chosen


def quartiles(values: Sequence[float]) -> Optional[List[float]]:
    """``[q1, median, q3]`` of a sample (inclusive method: the quartiles
    stay within the observed range even for tiny samples)."""
    if len(values) < 2:
        return None
    return list(statistics.quantiles(values, n=4, method="inclusive"))


def metric(
    value: float,
    unit: str,
    samples: Sequence[float] = (),
    **extra: object,
) -> Dict[str, object]:
    """One metric record: value, unit, sample count and quartiles."""
    record: Dict[str, object] = {
        "value": value,
        "unit": unit,
        "n": max(len(samples), 1),
    }
    spread = quartiles(samples)
    if spread is not None:
        record["q1"], record["q3"] = spread[0], spread[2]
    record.update(extra)
    return record


def provenance(root: Path) -> Dict[str, object]:
    """Where and on what a result was measured."""
    import numpy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        affinity = os.cpu_count()
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": _git_revision(root),
        "source_digest": source_digest(root / "src"),
    }


def source_digest(src: Path) -> str:
    """SHA-256 over every ``.py`` file under ``src`` (path + bytes).

    Identifies the code measured even in a checkout that is not a git
    repository.
    """
    hasher = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        hasher.update(str(path.relative_to(src)).encode("utf-8"))
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def _git_revision(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"
