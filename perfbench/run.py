"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload coreset-bipartite --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(names and units as declared in ``BENCHMARK.json``).  The lines before it
give the accounting: operations attempted and failed, the reference
kernel's raw times, and the raw seconds beside every host-adjusted figure
(see ``hostclock.py``).  A failed correctness check prints
``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostclock  # noqa: E402
from oracles import CheckFailed  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402

#: Every timed phase holds at least this many operations, so ten samples
#: lie beyond the 90th percentile.
MIN_OPS = 100
#: Cold set-ups per run (this process plus fresh interpreters); setup_s is
#: their median.
SETUP_REPEATS = 3
#: Kernel samples taken right before and right after each set-up.
SETUP_KERNEL_REPS = 10


def declared_units() -> Dict[str, Dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {group: {m["name"]: m["unit"] for m in spec[group]}
            for group in ("end_to_end", "per_layer")}


def timed_setup(workload) -> Dict[str, Any]:
    kernel = hostclock.new_samples()
    hostclock.sample(kernel, SETUP_KERNEL_REPS)
    start = time.perf_counter()
    workload.setup()
    raw = time.perf_counter() - start
    hostclock.sample(kernel, SETUP_KERNEL_REPS)
    return {"raw_s": raw,
            "kernel_s": hostclock.c_run(kernel, workload.KERNEL),
            "adjusted_s": raw * hostclock.factor(kernel, workload.KERNEL)}


def cold_setup(args) -> Dict[str, Any]:
    """One set-up in a fresh interpreter, so importing ``repro`` is cold."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload",
            args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe exited with code "
                           f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def timed_phase(workload, seconds: float) -> Dict[str, Any]:
    """Whole rounds until ``seconds`` have passed and at least
    :data:`MIN_OPS` operations ran; the kernel is sampled after every step,
    when nothing is in flight."""
    kernel = hostclock.new_samples()
    hostclock.sample(kernel, SETUP_KERNEL_REPS)
    latencies: List[float] = []
    attempted = failed = 0
    busy = 0.0
    start = time.perf_counter()
    while True:
        for item in workload.round():
            t0 = time.perf_counter()
            outcomes = workload.step(item)
            busy += time.perf_counter() - t0
            workload.record(item, outcomes)
            hostclock.sample(kernel)
            for latency, outcome in outcomes:
                attempted += 1
                if isinstance(outcome, Exception):
                    failed += 1
                    print(f"failed operation: {outcome!r}", file=sys.stderr)
                else:
                    latencies.append(latency)
        if time.perf_counter() - start >= seconds and attempted >= MIN_OPS:
            break
    return {"kernel": kernel, "latencies": latencies, "busy_s": busy,
            "attempted": attempted, "failed": failed}


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and every reaped descendant."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def end_to_end(phase, parts, setups, quality, rss) -> Dict[str, tuple]:
    """``name -> (adjusted, raw)``; raw is None where nothing is adjusted."""
    f = hostclock.factor(phase["kernel"], parts)
    lat = phase["latencies"]
    p90 = statistics.quantiles(lat, n=10)[8]
    done = len(lat)
    return {
        "setup_s": (statistics.median(s["adjusted_s"] for s in setups),
                    statistics.median(s["raw_s"] for s in setups)),
        "solves_per_s": (done / (phase["busy_s"] * f),
                         done / phase["busy_s"]),
        "latency_p50_s": (statistics.median(lat) * f, statistics.median(lat)),
        "latency_p90_s": (p90 * f, p90),
        "approx_ratio": (statistics.fmean(quality.ratios), None),
        "comm_bits_per_vertex": (statistics.fmean(quality.bits_per_vertex),
                                 None),
        "peak_rss_mb": (rss, None),
    }


def kernel_lines(label: str, kernel, parts) -> List[str]:
    lines = [f"kernel[{label}] {name}: median {statistics.median(t):.6f} s "
             f"over {len(t)} samples (min {min(t):.6f}, max {max(t):.6f}), "
             f"c_ref {hostclock.C_REF[name]:.6f} s"
             for name, t in kernel.items()]
    lines.append(f"kernel[{label}]: parts {'+'.join(parts)}, c_run "
                 f"{hostclock.c_run(kernel, parts):.6f} s, factor "
                 f"{hostclock.factor(kernel, parts):.4f}")
    return lines


def run(args) -> int:
    # The benchmark fixes its own configuration: no executor, worker count
    # or transfer mode leaks in from the caller's environment.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    units = declared_units()
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            try:
                print(json.dumps(timed_setup(workload)))
            finally:
                workload.close()
            return 0
        setups = [] if args.trace else [cold_setup(args) for _ in
                                        range(SETUP_REPEATS - 1)]
        try:
            setups.append(timed_setup(workload))
            if args.trace:
                kernel = hostclock.new_samples()
                hostclock.sample(kernel, SETUP_KERNEL_REPS)
                layers = workload.trace(kernel)
            else:
                phase = timed_phase(workload, args.seconds)
        finally:
            workload.close()
        rss = peak_rss_mb()
        quality = workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for i, s in enumerate(setups):
        print(f"setup[{i}]: raw {s['raw_s']:.4f} s, kernel "
              f"{s['kernel_s']:.6f} s, adjusted {s['adjusted_s']:.4f} s")
    if args.trace:
        f = hostclock.factor(kernel, workload.KERNEL)
        metrics = {name: (value * f if name.endswith("_s") else value)
                   for name, value in layers.items()}
        raw = dict(layers)
        attempted, failed = len(workload.order), 0
        share = statistics.median(r["layers_s"] / r["solve_s"]
                                  for r in workload.traced)
        print("\n".join(kernel_lines("trace", kernel, workload.KERNEL)))
        print(f"replayed {len(workload.traced)} solves; partition + barrier "
              f"+ verify account for {share:.1%} of the untraced solve time "
              f"(median)")
        group = "per_layer"
    else:
        pairs = end_to_end(phase, workload.KERNEL, setups, quality, rss)
        metrics = {name: value for name, (value, _) in pairs.items()}
        raw = {name: r for name, (_, r) in pairs.items() if r is not None}
        raw.update({f"kernel_{name}_s": statistics.median(t)
                    for name, t in phase["kernel"].items()})
        attempted, failed = phase["attempted"], phase["failed"]
        print("\n".join(kernel_lines("phase", phase["kernel"],
                                      workload.KERNEL)))
        print(f"timed phase: {phase['busy_s']:.3f} s busy, "
              f"{len(phase['latencies'])} operations completed")
        group = "end_to_end"
    print(f"operations: attempted {attempted}, failed {failed}")
    if set(metrics) != set(units[group]):
        raise SystemExit(f"metrics {sorted(metrics)} differ from the "
                         f"declared {group} metrics")
    for name, value in metrics.items():
        note = f"  (raw {raw[name]:.6g})" if name in raw and \
            raw[name] != value else ""
        print(f"  {name:<28} {value:.6g} {units[group][name]}{note}")
    print("raw " + json.dumps(raw))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[group][name]}
                    for name, value in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0,
                          "metrics": {}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
