"""Repeat benchmark runs over seeds and summarise them.

    python3 perfbench/collect.py --out FILE

Runs `perfbench/run.py` with the settings in BENCHMARK.json once per
workload and seed 1 to 10, then once traced per workload at seed 1. Prints,
for each end-to-end metric, its median and spread (interquartile distance
over the median) beside the metric's bound, and writes that summary with
every run's result to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from common import ROOT, environment_record, pin_environment, spread

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    *_, kinds, result = proc.stdout.strip().splitlines()
    return dict(json.loads(result), **json.loads(kinds), wall_s=time.perf_counter() - t0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    pin_environment()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = range(1, 11)

    summary: dict = {}
    runs: dict = {}
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in seeds:
            res = run_once(workload, seed, bench["run_seconds"], 0)
            results.append(dict(res, seed=seed))
            print(f"{workload} seed={seed} failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  file=sys.stderr, flush=True)
        runs[workload] = results
        summary[workload] = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry = {"unit": results[0]["metrics"][name]["unit"], "median": statistics.median(values),
                     "q1": q1, "q3": q3, "spread": spread(values), "bound": bounds[name]}
            summary[workload][name] = entry
            flag = "" if entry["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:8s} {name:20s} median {entry['median']:12.6g} {entry['unit']:5s} "
                  f"spread {entry['spread']:.4f} bound {bounds[name]}{flag}", flush=True)
        runs[workload + "_traced"] = [dict(run_once(workload, seeds[0], bench["run_seconds"], 1),
                                           seed=seeds[0])]

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"environment": environment_record(), "run_seconds": bench["run_seconds"],
                   "seeds": list(seeds), "summary": summary, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
