"""Tests of the benchmark's independent oracles.

    python3 -m pytest perfbench/test_oracles.py -q

Each oracle is compared with a second computation (networkx's matching,
scipy's LP solver), and each certificate check is shown to reject a
corrupted certificate.
"""

from __future__ import annotations

import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from scipy.optimize import linprog

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
from oracles import (  # noqa: E402
    CertificateError,
    EdgeSet,
    bipartite_optimum,
    check_cover,
    check_matching,
    fractional_cover_optimum,
)


def _nx_graph(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(map(tuple, edges.tolist()))
    return g


@pytest.mark.parametrize("seed", range(5))
def test_bipartite_optimum_matches_networkx(seed):
    rng = np.random.default_rng(seed)
    edges = inputs.random_bipartite(rng, 30, 40, 70)
    expected = len(nx.max_weight_matching(_nx_graph(70, edges),
                                          maxcardinality=True))
    assert bipartite_optimum(30, 40, edges) == expected


@pytest.mark.parametrize("seed", range(5))
def test_fractional_cover_matches_lp(seed):
    rng = np.random.default_rng(seed)
    n = 40
    edges = inputs.chung_lu(rng, n, 90)
    # min sum x  s.t.  x_u + x_v >= 1 for every edge, 0 <= x <= 1
    a = np.zeros((len(edges), n))
    a[np.arange(len(edges)), edges[:, 0]] = -1
    a[np.arange(len(edges)), edges[:, 1]] = -1
    lp = linprog(np.ones(n), A_ub=a, b_ub=-np.ones(len(edges)),
                 bounds=(0, 1), method="highs")
    assert fractional_cover_optimum(n, edges) == pytest.approx(lp.fun)


def test_odd_cycle_has_half_integral_optimum():
    triangle = np.array([[0, 1], [1, 2], [0, 2]])
    assert fractional_cover_optimum(3, triangle) == 1.5


@pytest.fixture
def path_graph():
    # 0-1-2-3-4
    return EdgeSet(5, np.array([[0, 1], [1, 2], [2, 3], [3, 4]]))


def test_valid_certificates_pass(path_graph):
    assert check_matching(path_graph, np.array([[0, 1], [3, 2]])) == 2
    assert check_cover(path_graph, np.array([1, 3])) == 2


def test_matching_check_rejects_non_edge(path_graph):
    with pytest.raises(CertificateError, match="not an edge"):
        check_matching(path_graph, np.array([[0, 1], [2, 4]]))


def test_matching_check_rejects_repeated_vertex(path_graph):
    with pytest.raises(CertificateError, match="more than once"):
        check_matching(path_graph, np.array([[0, 1], [1, 2]]))


def test_cover_check_rejects_dropped_vertex(path_graph):
    with pytest.raises(CertificateError, match="not covered"):
        check_cover(path_graph, np.array([1]))


def test_out_of_range_ids_are_rejected(path_graph):
    with pytest.raises(CertificateError, match="out of range"):
        check_matching(path_graph, np.array([[4, 5]]))
    with pytest.raises(CertificateError, match="out of range"):
        check_cover(path_graph, np.array([1, 3, 7]))


def test_write_graph_npz_round_trips_through_the_program(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    from repro.graph.bipartite import BipartiteGraph
    from repro.graph.io import load_npz

    rng = np.random.default_rng(0)
    edges = inputs.random_bipartite(rng, 20, 30, 50)
    inputs.write_graph_npz(tmp_path / "g.npz", edges, n=50, n_left=20)
    g = load_npz(tmp_path / "g.npz")
    assert isinstance(g, BipartiteGraph) and g.n_left == 20
    assert np.array_equal(g.edges, edges)
