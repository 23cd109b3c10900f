"""Repeat the benchmark over seeds and summarize the spread; record a baseline.

    python3 bench/repeat.py --workloads exact,grid --runs 10 --first-seed 1 [--out bench/BENCH_1.json]

Runs ``run.py`` once per seed per workload with tracing off, then once
with tracing on (first seed).  For each end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (third minus first quartile, over the median) against the bound
in BENCHMARK.json.  ``--out`` writes all of it, with the environment
fingerprint, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {out.returncode}:\n"
                         f"{out.stdout}\n{out.stderr}")
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="exact,grid")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    doc = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            env, result = run(workload, seed, spec["run_seconds"], 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
            results.append(result)
        end_to_end = {name: summarize([r["metrics"][name]["value"] for r in results]) for name in bounds}
        _, traced = run(workload, seeds[0], spec["run_seconds"], 1)
        doc["env"] = env
        doc["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": end_to_end,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        for name, s in end_to_end.items():
            flag = "ok" if name == "setup_s" or s["spread"] <= bounds[name] / 3 else "WIDE"
            print(f"{workload:<6} {name:<12} median {s['median']:12.6f}  q1 {s['q1']:12.6f}  q3 {s['q3']:12.6f}"
                  f"  spread {s['spread']:.4f}  bound {bounds[name]}  {flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
