"""Run the benchmark over several seeds and print each metric's median
and quartiles, per workload.

    python3 perfbench/report.py                       # every workload, seeds 1-5
    python3 perfbench/report.py --workloads refute-mutants --seeds 1-10
    python3 perfbench/report.py --trace 1 --seeds 1   # per-layer metrics

Each run is a separate `perfbench/run.py` process, one after another.
`spread` is the distance between the first and third quartile as a
share of the median; for end-to-end metrics it is shown next to the
metric's bound from BENCHMARK.json.  `ops_total` is the number of
operations attempted over all runs and `ops_failed_ratio` the share
that failed the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-5", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        results = []
        for seed in seed_list(args.seeds):
            results.append(run_once(workload, seed, spec["run_seconds"], args.trace))
            print(f"  {workload} seed {seed}: correct={results[-1]['correct']}", flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"== {workload}: {len(results)} runs, ops_total {attempted}, "
              f"ops_failed_ratio {failed / attempted:.4f}")
        print(f"{'metric':48} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = summarize(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = f"{bounds[name]:6.2f}" if name in bounds else ""
            print(f"{name:48} {first['unit']:>6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
