"""Layer-by-layer replay of one coreset ``solve()``.

``solve(graph, "matching.coreset" | "vertex_cover.coreset", ctx)`` is, in
order: derive ``(partition_rng, run_rng) = ctx.generators(2)``, build
``random_k_partition(graph, k, partition_rng)``, run the protocol with
``run_simultaneous`` (k summarizer calls behind the executor barrier, then
the ledger and the coordinator's ``combine``), and verify the certificate.
:func:`replay` makes the same public calls itself, timing each, and checks
that every intermediate agrees with the untraced ``solve()``:

* the barrier's output equals ``solve()``'s certificate,
* the serial-executor barrier gives the same output,
* each summarizer call, re-run on its own, gives the message the barrier
  collected, and
* ``combine`` on those messages gives the certificate again.

All timers wrap calls made from this file; nothing inside the program is
instrumented.  Top-level layers (partition, barrier, verify) add up to the
solve; the rest are nested inside the barrier or re-run beside it.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List

import numpy as np

from oracles import CheckFailed

#: Per-layer metrics this replay fills.
SOLVE_LAYERS = (
    "graph.partition_s",
    "core.summarize_p50_s",
    "core.summarize_max_s",
    "matching.maximum_s",
    "matching.maximal_s",
    "core.union_s",
    "core.combine_s",
    "solve.verify_s",
    "dist.barrier_s",
    "dist.serial_barrier_s",
    "dist.piece_bytes",
    "core.coreset_edges",
    "trace.overhead_s",
)


class ReplayMismatch(CheckFailed):
    """The layered replay disagreed with ``solve()``."""


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def _protocol(solver: str, k: int):
    from repro.core.protocols import (
        matching_coreset_protocol,
        vertex_cover_coreset_protocol,
    )
    from repro.solve import get_solver

    params = dict(get_solver(solver).params)
    params.pop("partition", None)
    if solver == "matching.coreset":
        return matching_coreset_protocol(**params)
    if solver == "vertex_cover.coreset":
        return vertex_cover_coreset_protocol(k=k, **params)
    raise ValueError(f"no layered replay for solver {solver!r}")


def _template(graph):
    """The coordinator's edge-free view: ``n`` and the bipartition."""
    from repro.graph.bipartite import BipartiteGraph
    from repro.graph.edgelist import Graph

    if isinstance(graph, BipartiteGraph):
        return BipartiteGraph(graph.n_left, graph.n_right)
    return Graph(graph.n_vertices)


def _same(a, b) -> bool:
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    return a.size == b.size and np.array_equal(a.reshape(b.shape), b)


def replay(graph, solver: str, ctx) -> Dict[str, Any]:
    """Run ``solve()`` untraced, then replay it layer by layer.

    Returns raw (unadjusted) seconds per layer (``None`` for a layer this
    solver does not run), the untraced solve time, the sum of the top-level
    layers, and the ``solve()`` result.
    """
    from repro.cover.verify import is_vertex_cover
    from repro.core.compose import union_of_coresets
    from repro.dist.coordinator import Coordinator, run_simultaneous
    from repro.graph.partition import random_k_partition
    from repro.matching.api import maximum_matching
    from repro.matching.maximal import greedy_maximal_matching
    from repro.matching.verify import is_matching
    from repro.solve import solve
    from repro.utils.rng import spawn_generators

    result, solve_s = _timed(solve, graph, solver, ctx)
    certificate = result.certificate
    k = ctx.k
    protocol = _protocol(solver, k)
    matching = solver.startswith("matching.")

    partition_rng, run_rng = ctx.generators(2)
    partition, partition_s = _timed(random_k_partition, graph, k,
                                    partition_rng)
    with ctx.executor_scope() as backend:
        run, barrier_s = _timed(run_simultaneous, protocol, partition,
                                run_rng, executor=backend,
                                transfer=ctx.transfer)
    verify = is_matching if matching else is_vertex_cover
    ok, verify_s = _timed(verify, graph, run.output)
    if not ok:
        raise ReplayMismatch(f"{solver}: barrier output fails verification")
    if not _same(run.output, certificate):
        raise ReplayMismatch(f"{solver}: barrier output differs from solve()")

    _, run_rng = ctx.generators(2)
    serial, serial_s = _timed(run_simultaneous, protocol, partition, run_rng,
                              executor="serial", transfer="pickle")
    if not _same(serial.output, certificate):
        raise ReplayMismatch(f"{solver}: serial barrier differs from solve()")

    _, run_rng = ctx.generators(2)
    gens = spawn_generators(run_rng, k + 1)
    public = (protocol.public_setup(graph, k, gens[k])
              if protocol.public_setup is not None else None)
    summarize: List[float] = []
    maximum_s = 0.0 if matching else None
    for i in range(k):
        piece = partition.piece(i)
        message, dt = _timed(protocol.summarizer, piece, i, gens[i], public)
        summarize.append(dt)
        if not _same(message.edges, run.messages[i].edges):
            raise ReplayMismatch(f"{solver}: machine {i} message differs")
        if matching:
            maximum_s += _timed(maximum_matching, piece)[1]

    template = _template(graph)
    union, union_s = _timed(union_of_coresets, graph.n_vertices,
                            [m.edges for m in run.messages], template)
    combined, combine_s = _timed(protocol.combine,
                                 Coordinator(graph.n_vertices, template),
                                 run.messages)
    if not _same(combined, certificate):
        raise ReplayMismatch(f"{solver}: combine differs from solve()")
    maximal_s = None
    if matching:
        maximum_s += _timed(maximum_matching, union)[1]
    else:
        maximal_s = _timed(greedy_maximal_matching, union, order="input")[1]

    layers_s = partition_s + barrier_s + verify_s
    return {
        "result": result,
        "solve_s": solve_s,
        "layers_s": layers_s,
        "layers": {
            "graph.partition_s": partition_s,
            "core.summarize_p50_s": statistics.median(summarize),
            "core.summarize_max_s": max(summarize),
            "matching.maximum_s": maximum_s,
            "matching.maximal_s": maximal_s,
            "core.union_s": union_s,
            "core.combine_s": combine_s,
            "solve.verify_s": verify_s,
            "dist.barrier_s": barrier_s,
            "dist.serial_barrier_s": serial_s,
            "dist.piece_bytes": float(sum(
                a.nbytes for a in partition.piece_edge_arrays())),
            "core.coreset_edges": float(run.ledger.total_edges()),
            "trace.overhead_s": layers_s - solve_s,
        },
    }
