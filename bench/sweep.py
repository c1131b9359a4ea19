"""Run the benchmark over several seeds and summarise it.

    python3 bench/sweep.py --seeds 1-10 [--trace-seed 1] [--out bench/results/NAME.json]

Each (workload, seed) is one `bench/run.py` run of BENCHMARK.json's
run_seconds.  For every end-to-end metric the summary gives the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
which must stay below the metric's bound.  With --trace-seed, one traced
run per workload adds its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines[:-1]:
        key, _, payload = line.partition(" ")
        if key in ("machine", "samples"):
            out[key] = json.loads(payload)
    return out


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        runs = [bench_run(name, seed, spec["run_seconds"], 0) for seed in seeds]
        summary["machine"] = runs[-1]["machine"]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {m: summarise([r["metrics"][m]["value"] for r in runs]) for m in bounds},
        }
        if args.trace_seed is not None:
            traced = bench_run(name, args.trace_seed, spec["run_seconds"], 1)
            entry["traced_seed"] = args.trace_seed
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            flag = "" if metric == "setup_s" or s["spread"] <= bounds[metric] / 3 else "  WIDE"
            print(f"{name:18s} {metric:14s} median {s['median']:.5g}  "
                  f"spread {s['spread']:.3f} (bound {bounds[metric]}){flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
