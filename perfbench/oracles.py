"""Checks made apart from the program under test.

Everything here works on the benchmark's own copy of the edges (plain
``(m, 2)`` int64 arrays) with numpy and scipy only; nothing imports
``repro``.

* :func:`bipartite_optimum` — the maximum matching size, from scipy's
  compiled Hopcroft–Karp (``maximum_bipartite_matching``).
* :func:`fractional_cover_optimum` — τ*, the optimum of the vertex-cover
  LP relaxation.  It equals half the maximum matching of the bipartite
  double cover (each vertex ``v`` split into ``v_L`` and ``v_R``, each edge
  ``uv`` into ``u_L v_R`` and ``v_L u_R``), computed with the same scipy
  call.  τ* ≤ τ, so ``|C| / τ*`` bounds every cover's true ratio from
  above.
* :func:`check_matching` / :func:`check_cover` — certificate validity:
  every matched pair is an edge, no vertex is matched twice, every edge has
  a covered endpoint.  They raise :class:`CertificateError` naming the
  first violation.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching


class CheckFailed(AssertionError):
    """An output of the program failed an independent check."""


class CertificateError(CheckFailed):
    """A certificate returned by the program is not valid for its input."""


def _matching_size(n_rows: int, n_cols: int, rows: np.ndarray,
                   cols: np.ndarray) -> int:
    if rows.size == 0:
        return 0
    biadjacency = csr_matrix(
        (np.ones(rows.size, dtype=np.int8), (rows, cols)),
        shape=(n_rows, n_cols),
    )
    mates = maximum_bipartite_matching(biadjacency, perm_type="column")
    return int(np.count_nonzero(mates >= 0))


def bipartite_optimum(n_left: int, n_right: int, edges: np.ndarray) -> int:
    """Maximum matching size of a bipartite graph whose left vertices are
    ``0..n_left-1`` and right vertices ``n_left..n_left+n_right-1``."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return _matching_size(n_left, n_right, edges[:, 0], edges[:, 1] - n_left)


def fractional_cover_optimum(n: int, edges: np.ndarray) -> float:
    """τ*, the LP vertex-cover optimum of a general graph on ``n``
    vertices: ν(bipartite double cover) / 2."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    return _matching_size(n, n, rows, cols) / 2.0


def _edge_keys(n: int, edges: np.ndarray) -> np.ndarray:
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return lo * n + hi


class EdgeSet:
    """The input's edges, indexed once for repeated certificate checks."""

    def __init__(self, n: int, edges: np.ndarray) -> None:
        self.n = int(n)
        self.edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.keys = np.unique(_edge_keys(self.n, self.edges))


def check_matching(graph: EdgeSet, matching: np.ndarray) -> int:
    """Raise :class:`CertificateError` unless ``matching`` is a matching of
    ``graph``; return its size."""
    m = np.asarray(matching, dtype=np.int64).reshape(-1, 2)
    if m.size == 0:
        return 0
    if m.min() < 0 or m.max() >= graph.n:
        raise CertificateError("matched vertex id out of range")
    keys = _edge_keys(graph.n, m)
    pos = np.searchsorted(graph.keys, keys)
    pos = np.minimum(pos, graph.keys.size - 1)
    missing = graph.keys[pos] != keys
    if missing.any():
        i = int(np.flatnonzero(missing)[0])
        raise CertificateError(f"matched pair {m[i].tolist()} is not an edge")
    endpoints = m.ravel()
    if np.unique(endpoints).size != endpoints.size:
        raise CertificateError("a vertex is matched more than once")
    return int(m.shape[0])


def check_cover(graph: EdgeSet, cover: np.ndarray) -> int:
    """Raise :class:`CertificateError` unless ``cover`` covers every edge
    of ``graph``; return its size (distinct vertices)."""
    c = np.asarray(cover, dtype=np.int64).reshape(-1)
    if c.size and (c.min() < 0 or c.max() >= graph.n):
        raise CertificateError("cover vertex id out of range")
    inside = np.zeros(graph.n, dtype=bool)
    inside[c] = True
    e = graph.edges
    bare = ~(inside[e[:, 0]] | inside[e[:, 1]])
    if bare.any():
        i = int(np.flatnonzero(bare)[0])
        raise CertificateError(f"edge {e[i].tolist()} is not covered")
    return int(np.count_nonzero(inside))
