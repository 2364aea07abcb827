"""Host-speed adjustment: a fixed reference kernel timed between operations.

The host this benchmark runs on drifts: the same solves on the same graph
with the same seeds have read 0.47 s in one run and 0.78 s in the next.
Every timing the benchmark reports is therefore scaled by how fast the host
ran a fixed piece of work during the same run::

    adjusted = raw_seconds * c_ref / c_run

The reference kernel has two parts, timed separately at every sample:

* ``numpy`` — sorting, deduplication and counting over a fixed int64 array,
  the shape of graph construction, partitioning and the union of coresets;
* ``python`` — pure Python shaped like one Hopcroft–Karp phase: a greedy
  matching pass and a breadth-first layering from the free vertices, over a
  fixed list-of-lists bipartite adjacency.

Each workload names the parts that match its own work (``KERNEL`` on the
workload class).  ``c_run`` is the sum, over those parts, of the part's
median duration across the run's samples, always taken when no solve or
request is in flight; ``c_ref`` is the same sum of the constants in
:data:`C_REF`, the parts' medians on the host that set the bounds, so an
adjusted figure reads as "seconds on that host".  Timed beside back-to-back
solves, the numpy part tracked the drift of ``vertex_cover.coreset`` solves
and the Python part that of ``matching.coreset`` solves; neither tracked the
other (README.md, "Choosing the reference kernel").  Nothing here imports
``repro``, so a change to the program cannot move the kernel.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from typing import Dict, List, Sequence

import numpy as np

#: Median seconds of each kernel part on the reference host (2 vCPU Intel
#: Xeon, Python 3.11.7, numpy 2.4.6).
C_REF = {"numpy": 0.0110, "python": 0.0075}

_N_SIDE = 6000
_N_EDGES = 30_000
_N_KEYS = 60_000


def _fixed_inputs():
    rng = np.random.default_rng(20170524)
    left = rng.integers(0, _N_SIDE, size=_N_EDGES)
    right = rng.integers(0, _N_SIDE, size=_N_EDGES)
    adjacency: List[List[int]] = [[] for _ in range(_N_SIDE)]
    for a, b in zip(left.tolist(), right.tolist()):
        adjacency[a].append(b)
    keys = rng.integers(0, 1 << 40, size=_N_KEYS, dtype=np.int64)
    return adjacency, keys


_ADJACENCY, _KEYS = _fixed_inputs()


def numpy_part() -> int:
    """Fixed numpy work; returns a checksum so it cannot be skipped."""
    ordered = np.sort(_KEYS)
    distinct = np.unique(ordered % 50_021)
    counts = np.bincount((ordered % 4096).astype(np.intp), minlength=4096)
    return int(distinct.size) + int(counts.argmax())


def python_part() -> int:
    """Fixed pure-Python work; returns a checksum."""
    mate_left = [-1] * _N_SIDE
    mate_right = [-1] * _N_SIDE
    for x in range(_N_SIDE):
        for y in _ADJACENCY[x]:
            if mate_right[y] < 0:
                mate_left[x] = y
                mate_right[y] = x
                break
    layer = [-1] * _N_SIDE
    frontier = deque()
    for x in range(_N_SIDE):
        if mate_left[x] < 0:
            layer[x] = 0
            frontier.append(x)
    while frontier:
        x = frontier.popleft()
        for y in _ADJACENCY[x]:
            z = mate_right[y]
            if z >= 0 and layer[z] < 0:
                layer[z] = layer[x] + 1
                frontier.append(z)
    return sum(1 for d in layer if d >= 0)


PARTS = {"numpy": numpy_part, "python": python_part}

Samples = Dict[str, List[float]]


def new_samples() -> Samples:
    return {name: [] for name in PARTS}


def sample(times: Samples, reps: int = 1) -> None:
    """Time ``reps`` calls of every kernel part, appending each duration."""
    for _ in range(reps):
        for name, part in PARTS.items():
            start = time.perf_counter()
            part()
            times[name].append(time.perf_counter() - start)


def c_run(times: Samples, parts: Sequence[str]) -> float:
    """The run's kernel time over ``parts``: the sum of their medians."""
    return sum(statistics.median(times[p]) for p in parts)


def factor(times: Samples, parts: Sequence[str]) -> float:
    """``c_ref / c_run`` over ``parts``."""
    return sum(C_REF[p] for p in parts) / c_run(times, parts)
