"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 benchmarks/repeat.py --seeds 1-10
    python3 benchmarks/repeat.py --workloads cli-solve --seeds 1-5 --save benchmarks/results/x.json

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile spread as a
share of the median, next to the metric's bound in BENCHMARK.json; a spread
above a third of the bound is marked.  ``--save`` writes the same summary,
with the environment of the runs, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write the summary here as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    status = 0
    for workload in args.workloads.split(","):
        per_metric: dict = {}
        runs = []
        for seed in parse_seeds(args.seeds):
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout[-1500:]}"
                      f"{proc.stderr[-1500:]}")
                status = 1
                continue
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"],
                         "run_s": round(time.monotonic() - started, 2)})
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
            if "environment" not in summary:
                env_line = next(line for line in lines if line.startswith("environment: "))
                summary["environment"] = json.loads(env_line.split(": ", 1)[1])
            print(f"{workload} seed {seed} ({runs[-1]['run_s']} s): "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                             if args.trace == 0), flush=True)
        stats = {name: summarise(values) for name, values in per_metric.items()}
        summary["workloads"][workload] = {"runs": runs, "metrics": stats}
        for name, s in stats.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] > bound / 3.0:
                flag = "  <-- spread above a third of the bound"
            print(f"{workload:20s} {name:40s} median {s['median']:12.6g}  "
                  f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  spread {s['spread']:.4f}"
                  + (f"  bound {bound}" if bound is not None else "") + flag)
    if args.save:
        env = summary.get("environment", {})
        env.pop("seed", None)
        env.pop("workload", None)
        with open(args.save, "w") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
