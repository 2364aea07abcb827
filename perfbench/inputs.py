"""Workload inputs.

Each workload's graphs are fixed: they come from :data:`GRAPH_SEED`, so
every run of a workload measures the same input and the quality metrics
(``approx_ratio``, ``comm_bits_per_vertex``) compare like with like.  The
workload seed (``--seed``) chooses the list of solver seeds, that is the
random k-partitions the coreset protocols run on.  The same ``--seed``
gives the same inputs; the program under test receives only what is made
here.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

#: Solver seeds per round: every run attempts whole rounds of them.
ROUND_SEEDS = 50
K = 8

#: ``coreset-bipartite``: the ``power_law`` workload family, built by the
#: program's workload registry from a seed drawn here.
POWER_LAW = {"u": 5000, "v": 5000, "avg_degree": 4.0, "exponent": 2.5}

#: ``vc-general``: a Chung–Lu graph, n vertices, about m edges.
CHUNG_LU_N = 60_000
CHUNG_LU_M = 300_000


#: Seed of every workload graph.
GRAPH_SEED = 20170524


def graph_rng(stream: int) -> np.random.Generator:
    """An independent generator per graph."""
    return np.random.default_rng([GRAPH_SEED, int(stream)])


def solver_seeds(seed: int, count: int = ROUND_SEEDS) -> list[int]:
    """The list of solver seeds a run cycles through, from ``--seed``."""
    rng = np.random.default_rng([int(seed), 1])
    return [int(s) for s in rng.integers(0, 2**31 - 1, count)]


def chung_lu(rng: np.random.Generator, n: int, m: int,
             exponent: float = 2.5) -> np.ndarray:
    """Heavy-tailed general graph: endpoints drawn with probability
    proportional to ``w_i = i^(-1/(exponent-1))`` over a random labelling;
    self-loops and duplicates dropped.  Returns canonical ``(u < v)`` edges,
    sorted."""
    weights = np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / (exponent - 1))
    p = weights / weights.sum()
    draws = int(m * 1.15)
    relabel = rng.permutation(n)
    src = relabel[rng.choice(n, size=draws, p=p)]
    dst = relabel[rng.choice(n, size=draws, p=p)]
    keep = src != dst
    lo = np.minimum(src[keep], dst[keep]).astype(np.int64)
    hi = np.maximum(src[keep], dst[keep]).astype(np.int64)
    keys = np.unique(lo * n + hi)
    return np.stack([keys // n, keys % n], axis=1)


def random_bipartite(rng: np.random.Generator, n_left: int, n_right: int,
                     m: int) -> np.ndarray:
    """Bipartite graph with Pareto left degrees (mean ``m / n_left``) and
    uniform right endpoints, in global ids (right side shifted by
    ``n_left``); duplicates dropped, sorted."""
    raw = rng.pareto(1.5, size=n_left) + 1.0
    degrees = np.maximum(1, np.round(raw * (m / n_left) / raw.mean()))
    degrees = np.minimum(degrees.astype(np.int64), n_right)
    left = np.repeat(np.arange(n_left, dtype=np.int64), degrees)
    right = rng.integers(0, n_right, size=left.size, dtype=np.int64) + n_left
    keys = np.unique(left * (n_left + n_right) + right)
    return np.stack([keys // (n_left + n_right), keys % (n_left + n_right)],
                    axis=1)


def write_graph_npz(path: Path, edges: np.ndarray, *, n: int,
                    n_left: int | None = None) -> None:
    """Write edges in the program's ``.npz`` graph schema (version 2:
    ``kind`` 0 plain / 1 bipartite, ``shape``, ``edges``, ``version``),
    so ``repro serve --graph ID=PATH`` loads them."""
    if n_left is None:
        kind, shape = 0, [n]
    else:
        kind, shape = 1, [n_left, n - n_left]
    np.savez(path, edges=np.asarray(edges, dtype=np.int64),
             version=np.array([2]), kind=np.array([kind]),
             shape=np.array(shape, dtype=np.int64))
