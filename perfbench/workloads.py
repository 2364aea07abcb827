"""The three benchmark workloads.

Each workload is a closed loop: its callers wait for every reply before
sending the next request.  A workload object goes through

1. ``__init__(seed, workdir)`` — the benchmark's own input generation
   (untimed, no ``repro`` import);
2. ``setup()`` — everything the program does before the first timed
   operation: importing ``repro``, building or loading graphs through it,
   booting the server, and the warm-up operations;
3. ``round()`` / ``step(item)`` — one round is a fixed list of steps; a
   step returns one ``(latency_s, outcome)`` pair per operation, or an
   exception in place of the outcome for an operation that failed;
4. ``record(item, outcomes)`` then ``check()`` — every outcome is checked
   against the independent oracles in :mod:`oracles` (first round), or for
   bit-identity with the already-checked first-round outcome (later
   rounds);
5. ``trace(kernel)`` — the per-layer run (:mod:`layers`);
6. ``close()`` — stop and reap every process the workload started.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

import hostclock
import inputs
from oracles import CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SERVE_LAYERS = (
    "serve.solve_p50_s",
    "serve.overhead_p50_s",
    "serve.healthz_p50_s",
    "serve.batch_size_mean",
    "serve.response_bytes_mean",
)


def _digest(array: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(array, dtype=np.int64)
                           .tobytes(), digest_size=16).hexdigest()


def _import_repro() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _median(values) -> float:
    """Median of the values present; 0 for a layer that never ran."""
    values = [v for v in values if v is not None]
    return float(np.median(values)) if values else 0.0


class _Quality:
    """Per-operation quality, checked against the oracle bounds."""

    def __init__(self) -> None:
        self.ratios: List[float] = []
        self.bits_per_vertex: List[float] = []


def matching_ratio(size: int, opt: int, where: str) -> float:
    """OPT/|M|, after checking |M| <= OPT and OPT/|M| <= 9 (Theorem 1)."""
    if size < 1 or size > opt or opt / size > 9:
        raise CheckFailed(f"{where}: |M|={size} against OPT={opt} "
                          f"breaks |M| <= OPT and OPT/|M| <= 9")
    return opt / size


def cover_ratio(size: int, tau_star: float, n: int, where: str) -> float:
    """|C|/tau*, after checking |C| >= tau* and |C|/tau* <= 4 log2 n
    (Theorem 2)."""
    if size < tau_star or size / tau_star > 4 * math.log2(n):
        raise CheckFailed(f"{where}: |C|={size} against tau*={tau_star} "
                          f"breaks |C| >= tau* and |C|/tau* <= 4 log2 n")
    return size / tau_star


# --------------------------------------------------------------------- #
# the two solve workloads
# --------------------------------------------------------------------- #
class _SolveWorkload:
    """One caller, ``solve()`` over a fixed seed list on one graph."""

    solver = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seeds = inputs.solver_seeds(seed)
        self.first: Dict[int, Any] = {}
        self.digests: Dict[int, str] = {}
        self.order: List[int] = []

    def setup(self) -> None:
        _import_repro()
        from repro.solve import RunContext, solve

        self.solve, self.RunContext = solve, RunContext
        self.build_graph()
        self.solve(self.graph, self.solver, self.ctx(self.seeds[0]))

    def ctx(self, seed: int):
        return self.RunContext(seed=seed, k=inputs.K, executor="serial")

    def round(self) -> List[int]:
        return list(self.seeds)

    def step(self, seed: int) -> List[Tuple[float, Any]]:
        start = time.perf_counter()
        try:
            result = self.solve(self.graph, self.solver, self.ctx(seed))
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            return [(time.perf_counter() - start, exc)]
        return [(time.perf_counter() - start, result)]

    def record(self, seed: int, outcomes) -> None:
        (_, result), = outcomes
        if isinstance(result, Exception):
            return
        if seed not in self.first:
            self.first[seed] = result
            self.digests[seed] = _digest(result.certificate)
        elif _digest(result.certificate) != self.digests[seed]:
            raise CheckFailed(f"seed {seed}: certificate changed between "
                              f"rounds")
        self.order.append(seed)

    def check(self) -> _Quality:
        ratio = {seed: self.check_one(seed, result)
                 for seed, result in self.first.items()}
        quality = _Quality()
        # Later rounds repeat the checked first-round certificates exactly
        # (record() compares digests), so an operation's figures are its
        # seed's figures.
        for seed in self.order:
            quality.ratios.append(ratio[seed])
            quality.bits_per_vertex.append(
                self.first[seed].stats["total_bits"] / self.graph.n_vertices)
        return quality

    def trace(self, kernel: hostclock.Samples) -> Dict[str, float]:
        from layers import SOLVE_LAYERS, replay

        build = []
        for _ in range(3):
            start = time.perf_counter()
            self.build_graph()
            build.append(time.perf_counter() - start)
        rows = []
        for seed in self.seeds:
            row = replay(self.graph, self.solver, self.ctx(seed))
            self.record(seed, [(row["solve_s"], row["result"])])
            rows.append(row)
            hostclock.sample(kernel)
        layers = {name: _median(r["layers"][name] for r in rows)
                  for name in SOLVE_LAYERS}
        layers["graph.build_s"] = _median(build)
        layers.update({name: 0.0 for name in SERVE_LAYERS})
        self.traced = rows
        return layers

    def close(self) -> None:
        pass


class CoresetBipartite(_SolveWorkload):
    """``matching.coreset`` (k = 8, serial executor) on a ``power_law``
    bipartite graph built through the workload registry."""

    name = "coreset-bipartite"
    solver = "matching.coreset"
    KERNEL = ("python",)

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.graph_seed = int(inputs.graph_rng(2).integers(0, 2**31 - 1))

    def build_graph(self) -> None:
        from repro.workloads.registry import build_workload

        self.graph = build_workload("power_law", rng=self.graph_seed,
                                    **inputs.POWER_LAW)

    def check(self) -> _Quality:
        from oracles import EdgeSet, bipartite_optimum

        g = self.graph
        edges = np.array(g.edges, copy=True)
        self.oracle_set = EdgeSet(g.n_vertices, edges)
        self.opt = bipartite_optimum(g.n_left, g.n_right, edges)
        return super().check()

    def check_one(self, seed: int, result) -> float:
        from oracles import check_matching

        size = check_matching(self.oracle_set, result.certificate)
        if size != result.value:
            raise CheckFailed(f"seed {seed}: value {result.value} but the "
                              f"certificate has {size} edges")
        return matching_ratio(size, self.opt, f"seed {seed}")


class VcGeneral(_SolveWorkload):
    """``vertex_cover.coreset`` (k = 8, serial executor) on a Chung–Lu
    general graph handed over as a plain ``Graph``."""

    name = "vc-general"
    solver = "vertex_cover.coreset"
    KERNEL = ("numpy",)

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.n = inputs.CHUNG_LU_N
        self.edges = inputs.chung_lu(inputs.graph_rng(3), self.n,
                                     inputs.CHUNG_LU_M)

    def build_graph(self) -> None:
        from repro.graph.edgelist import Graph

        self.graph = Graph(self.n, self.edges)

    def check(self) -> _Quality:
        from oracles import EdgeSet, fractional_cover_optimum

        self.oracle_set = EdgeSet(self.n, self.edges)
        self.tau_star = fractional_cover_optimum(self.n, self.edges)
        return super().check()

    def check_one(self, seed: int, result) -> float:
        from oracles import check_cover

        size = check_cover(self.oracle_set, result.certificate)
        if size != result.value:
            raise CheckFailed(f"seed {seed}: value {result.value} but the "
                              f"certificate has {size} vertices")
        return cover_ratio(size, self.tau_star, self.n, f"seed {seed}")


# --------------------------------------------------------------------- #
# the serving workload
# --------------------------------------------------------------------- #
class _Server:
    """A ``repro serve`` subprocess on its default (threads) backend."""

    def __init__(self, graphs: Dict[str, Path]) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        argv = [sys.executable, "-m", "repro", "serve", "--host",
                "127.0.0.1", "--port", "0"]
        for graph_id, path in graphs.items():
            argv += ["--graph", f"{graph_id}={path}"]
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=env, text=True,
                                     stdout=subprocess.PIPE)
        self.lines: "queue.Queue[str | None]" = queue.Queue()
        self.reader = threading.Thread(target=self._drain, daemon=True)
        self.reader.start()
        try:
            self.port = self._wait_listening(timeout=60.0)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def _wait_listening(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self.lines.get(timeout=max(0.0, deadline
                                                  - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("repro serve did not start listening")
            if line is None:
                raise RuntimeError(f"repro serve exited with code "
                                   f"{self.proc.wait()}")
            if "listening on http://" in line:
                address = line.split("http://", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.reader.join(timeout=10)
        if self.proc.returncode != 0:
            raise RuntimeError(f"repro serve exited with code "
                               f"{self.proc.returncode}")


#: One round of ``serve-closed``: per step, (graph, request fields).  Both
#: callers send the step's request at the same time (own seeds), so the
#: micro-batcher sees two same-graph requests together.
SERVE_MIX = (
    ("bip", {"solver": "matching.coreset"}),
    ("bip", {"problem": "matching", "model": "coreset"}),
    ("gen", {"solver": "vertex_cover.coreset"}),
) * 4
#: Small graphs, so admission, queueing, batching, JSON and HTTP are a
#: large share of each request.
SERVE_BIP = (400, 400, 1600)
SERVE_GEN = (1200, 2400)


class ServeClosed:
    """Two closed-loop ``ServeClient`` callers in lock step against a
    ``repro serve`` subprocess with two preloaded graphs."""

    name = "serve-closed"
    KERNEL = ("numpy", "python")

    def __init__(self, seed: int, workdir: Path) -> None:
        n_left, n_right, m = SERVE_BIP
        self.n = {"bip": n_left + n_right, "gen": SERVE_GEN[0]}
        self.edges = {
            "bip": inputs.random_bipartite(inputs.graph_rng(4), n_left,
                                           n_right, m),
            "gen": inputs.chung_lu(inputs.graph_rng(5), *SERVE_GEN),
        }
        self.paths = {g: workdir / f"{g}.npz" for g in self.edges}
        inputs.write_graph_npz(self.paths["bip"], self.edges["bip"],
                               n=self.n["bip"], n_left=n_left)
        inputs.write_graph_npz(self.paths["gen"], self.edges["gen"],
                               n=self.n["gen"])
        seeds = inputs.solver_seeds(seed, 2 * len(SERVE_MIX))
        self.steps = []
        for j, (graph_id, fields) in enumerate(SERVE_MIX):
            a = dict(fields, seed=seeds[j], k=inputs.K,
                     certificate=j % 2 == 0)
            b = dict(fields, seed=seeds[j + len(SERVE_MIX)], k=inputs.K,
                     certificate=False)
            self.steps.append((graph_id, (a, b)))
        self.first: Dict[str, Dict[str, Any]] = {}
        self.order: List[str] = []
        self.server = None
        self.loop = None

    def setup(self) -> None:
        _import_repro()
        from repro.serve.client import ServeClient

        self.loop = asyncio.new_event_loop()
        self.server = _Server(self.paths)
        self.callers = [ServeClient(port=self.server.port) for _ in range(2)]
        deadline = time.monotonic() + 60
        while not self.loop.run_until_complete(self.callers[0].readyz())[0]:
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve never became ready")
            time.sleep(0.05)
        for item in self.steps[:3]:
            for _, outcome in self.step(item):
                if isinstance(outcome, Exception):
                    raise outcome

    def round(self):
        return list(self.steps)

    async def _call(self, caller, graph_id: str, fields: Dict[str, Any]):
        start = time.perf_counter()
        try:
            doc = await caller.solve(graph_id, **fields)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            return time.perf_counter() - start, exc
        return time.perf_counter() - start, doc

    def step(self, item) -> List[Tuple[float, Any]]:
        graph_id, requests = item

        async def together():
            return await asyncio.gather(*(
                self._call(c, graph_id, f)
                for c, f in zip(self.callers, requests)))

        return self.loop.run_until_complete(together())

    @staticmethod
    def _key(graph_id: str, fields: Dict[str, Any]) -> str:
        return json.dumps([graph_id, fields], sort_keys=True)

    @staticmethod
    def _comparable(result: Dict[str, Any]) -> str:
        return json.dumps({k: v for k, v in result.items()
                           if k != "wall_time_s"}, sort_keys=True)

    def record(self, item, outcomes) -> None:
        graph_id, requests = item
        for fields, (_, doc) in zip(requests, outcomes):
            if isinstance(doc, Exception):
                continue
            key = self._key(graph_id, fields)
            if key not in self.first:
                self.first[key] = doc
            elif (self._comparable(doc["result"])
                  != self._comparable(self.first[key]["result"])
                  or doc["solver"] != self.first[key]["solver"]):
                raise CheckFailed(f"{key}: response changed between rounds")
            self.order.append(key)

    def _load(self):
        from repro.graph.io import load_npz

        return {g: load_npz(p) for g, p in self.paths.items()}

    def check(self) -> _Quality:
        from oracles import (EdgeSet, bipartite_optimum, check_cover,
                             check_matching, fractional_cover_optimum)
        from repro.solve import RunContext, solve

        graphs = self._load()
        sets = {g: EdgeSet(self.n[g], e) for g, e in self.edges.items()}
        n_left = SERVE_BIP[0]
        opt = bipartite_optimum(n_left, self.n["bip"] - n_left,
                                self.edges["bip"])
        tau_star = fractional_cover_optimum(self.n["gen"], self.edges["gen"])
        ratio, bits = {}, {}
        for key, doc in self.first.items():
            graph_id, fields = json.loads(key)
            ref = solve(graphs[graph_id], doc["solver"],
                        RunContext(seed=fields["seed"], k=fields["k"],
                                   executor="serial"))
            expected = ref.to_dict(include_certificate=fields["certificate"])
            if (self._comparable(expected) != self._comparable(doc["result"])
                    or doc["graph"] != graph_id
                    or doc["seed"] != fields["seed"]):
                raise CheckFailed(f"{key}: response differs from the "
                                  f"in-process solve()")
            if ref.problem == "matching":
                size = check_matching(sets[graph_id], ref.certificate)
                ratio[key] = matching_ratio(size, opt, key)
            else:
                size = check_cover(sets[graph_id], ref.certificate)
                ratio[key] = cover_ratio(size, tau_star, self.n[graph_id],
                                         key)
            if size != ref.value:
                raise CheckFailed(f"{key}: value {ref.value} but the "
                                  f"certificate has size {size}")
            bits[key] = ref.stats["total_bits"] / self.n[graph_id]
        quality = _Quality()
        quality.ratios = [ratio[key] for key in self.order]
        quality.bits_per_vertex = [bits[key] for key in self.order]
        return quality

    def trace(self, kernel: hostclock.Samples) -> Dict[str, float]:
        from repro.solve import RunContext
        from layers import SOLVE_LAYERS, replay

        solve_s, overhead_s, healthz_s, batch, size = [], [], [], [], []
        for item in self.steps:
            outcomes = self.step(item)
            self.record(item, outcomes)
            for latency, doc in outcomes:
                if isinstance(doc, Exception):
                    raise doc
                solve_s.append(doc["result"]["wall_time_s"])
                overhead_s.append(latency - doc["result"]["wall_time_s"])
                batch.append(doc["batch_size"])
                size.append(len(json.dumps(doc).encode("utf-8")))
            for _ in range(3):
                start = time.perf_counter()
                self.loop.run_until_complete(self.callers[0].healthz())
                healthz_s.append(time.perf_counter() - start)
            hostclock.sample(kernel)

        build = []
        for _ in range(3):
            start = time.perf_counter()
            graphs = self._load()
            build.append(time.perf_counter() - start)
        rows = []
        for key, doc in self.first.items():
            graph_id, fields = json.loads(key)
            ctx = RunContext(seed=fields["seed"], k=fields["k"],
                             executor="serial")
            rows.append(replay(graphs[graph_id], doc["solver"], ctx))
            hostclock.sample(kernel)
        layers = {name: _median(r["layers"][name] for r in rows)
                  for name in SOLVE_LAYERS}
        layers.update({
            "graph.build_s": _median(build),
            "serve.solve_p50_s": _median(solve_s),
            "serve.overhead_p50_s": _median(overhead_s),
            "serve.healthz_p50_s": _median(healthz_s),
            "serve.batch_size_mean": float(np.mean(batch)),
            "serve.response_bytes_mean": float(np.mean(size)),
        })
        self.traced = rows
        return layers

    def close(self) -> None:
        if self.server is not None:
            server, self.server = self.server, None
            server.stop()
        if self.loop is not None:
            self.loop.close()
            self.loop = None


WORKLOADS = {w.name: w for w in (CoresetBipartite, VcGeneral, ServeClosed)}
