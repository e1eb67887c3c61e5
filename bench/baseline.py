#!/usr/bin/env python3
"""Run the benchmark over several seeds and write a BENCH_<n>.json summary.

    python3 bench/baseline.py --out bench/BENCH_0.json

For each workload of BENCHMARK.json: one untraced run of ``run_seconds`` per
seed (seeds 1..10), then one traced run on seed 1.  The summary keeps, per end-to-end metric, every value with
its median, quartiles and spread (interquartile range ÷ median, as
``statistics.quantiles(n=4)`` gives them), next to the per-layer figures,
exact counts and output digest of the traced run, and the environment.  Two
summaries made by this script on the same machine are what a performance
claim compares.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n"
                 f"{proc.stderr}")
    *_, details, result = proc.stdout.strip().splitlines()
    return json.loads(details), json.loads(result)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    summary = {"seconds": seconds, "seeds": len(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            _, result = run(workload, seed, seconds, 0)
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
        end_to_end = {}
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            end_to_end[name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median,
                "values": series,
            }
            print(f"{workload:12s} {name:20s} median "
                  f"{end_to_end[name]['median']:12.6g} spread "
                  f"{end_to_end[name]['spread']:.3f}", flush=True)
        traced, _ = run(workload, SEEDS[0], seconds, 1)
        summary["workloads"][workload] = {
            "end_to_end": end_to_end,
            "layers": traced["layers"],
            "counts": traced["counts"],
            "digest": {f"seed {SEEDS[0]}": traced["digest"]},
            "params": traced["params"],
        }
        summary["environment"] = traced["environment"]
    args.out.write_text(json.dumps(summary, indent=1) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
