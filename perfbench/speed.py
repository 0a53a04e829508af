"""The host-speed probe: a fixed piece of work owned by the benchmark.

The benchmark runs on shared virtual machines whose speed drifts as
neighbours come and go: on the 2-vCPU machine it was sized on, the
same mine-file op took 43 to 62 ms from one half minute to the next,
and 2x apart within an hour, in wall and CPU time alike.  No run
length averages that out.  So each run times this probe next to the
work it measures, while the program is idle, and multiplies each time
by ``REFERENCE_S`` over the median of the probes taken around it: a
metric reads as the time the run would have taken on a host where the
probe takes ``REFERENCE_S``.  The probe depends on nothing in
``src/``, so a change to the program moves a scaled metric exactly as
it moves the raw one.  Over ten seeds on that machine, scaling cut the
spread (IQR / median) of ``latency_p50_ms`` from 0.13 to 0.06 on
mine-file and from 0.13 to 0.07 on sweep-grid.

The work mixes what the program spends its time on: NumPy sorting,
differencing and intersection over an int64 column, and Python dict
and set handling.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: The probe's median time on the machine the benchmark was sized on
#: (2 vCPU, 2.1 GHz Xeon); it only fixes the scale of scaled metrics.
REFERENCE_S = 0.012


def probe_once() -> float:
    """Seconds one fixed piece of NumPy and Python work takes."""
    started = time.perf_counter()
    column = np.random.default_rng(20150323).integers(0, 1 << 40, 50000)
    ordered = np.sort(column)
    gaps = np.diff(ordered)
    starts = np.flatnonzero(gaps > np.median(gaps))
    common = np.intersect1d(ordered[::2], ordered[starts])
    index = {}
    for position, value in enumerate((ordered[:3000] % 97).tolist()):
        index.setdefault(value, set()).add(position)
    shared = sum(len(index[key] & index.get(key + 1, set())) for key in index)
    if common.size + shared < 0:  # uses every result
        raise AssertionError("unreachable")
    return time.perf_counter() - started


def probe(repeats: int) -> List[float]:
    """``repeats`` probe times."""
    return [probe_once() for _ in range(repeats)]


def factor(samples: List[float]) -> float:
    """What turns measured seconds into reference seconds."""
    return REFERENCE_S / statistics.median(samples)
