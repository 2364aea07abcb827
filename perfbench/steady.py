"""Run one workload ten times, each with another seed, and print the spread.

    python3 perfbench/steady.py --workload coreset-bipartite [--first-seed 1]

Each run lasts ``run_seconds`` from ``BENCHMARK.json``.  For every
end-to-end metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, next to the metric's bound in ``BENCHMARK.json``
and, for timings, the same figures for the raw (unadjusted) seconds.  A
last row gives the spread of one cold set-up alone (each run's first), for
comparison with ``setup_s``, the median of several.  The share of failed
operations is printed per run.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETUP_LINE = re.compile(r"setup\[\d+\]: raw (\S+) s, .* adjusted (\S+) s")


def one_run(workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"seed {seed}: run failed (exit {done.returncode})")
    raw = next(json.loads(line[4:]) for line in lines
               if line.startswith("raw "))
    setups = [SETUP_LINE.match(line) for line in lines]
    first = next(m for m in setups if m)
    return {"seed": seed, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "raw": raw,
            "one_setup": (float(first.group(2)), float(first.group(1)))}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def row(name, values, bound, raw=None) -> str:
    med, q1, q3, s = spread(values)
    raw_s = f"{spread(raw)[3]:12.4f}" if raw else ""
    return f"{name:<22}{med:12.5g}{q1:12.5g}{q3:12.5g}{s:9.4f}{bound:>7}{raw_s}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    runs = []
    for seed in range(args.first_seed, args.first_seed + RUNS):
        runs.append(one_run(args.workload, seed, seconds))
        r = runs[-1]
        print(f"seed {seed}: attempted {r['attempted']}, failed "
              f"{r['failed']} ({r['failed'] / r['attempted']:.4f}), "
              + ", ".join(f"{k}={v:.5g}" for k, v in r["metrics"].items()),
              flush=True)
    print(f"\n{args.workload}: {RUNS} runs of {seconds:g} s")
    print(f"{'metric':<22}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}{'raw spread':>12}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        raw = [r["raw"][name] for r in runs if name in r["raw"]]
        print(row(name, [r["metrics"][name] for r in runs],
                  f"{metric['bound']:.3g}", raw if len(raw) == RUNS else None))
    print(row("one set-up", [r["one_setup"][0] for r in runs], "–",
              [r["one_setup"][1] for r in runs]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
