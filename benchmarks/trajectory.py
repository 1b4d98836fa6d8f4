#!/usr/bin/env python3
"""Repeat the benchmark over seeds and record one point of the performance trajectory.

    python3 benchmarks/trajectory.py --runs 10 --first-seed 71 --label seed --out benchmarks/BENCH_seed.json

For every workload in BENCHMARK.json, runs `run.py` once per seed (seeds
first-seed .. first-seed + runs - 1, workloads interleaved) with tracing off,
then once with tracing on.  For every end-to-end metric it records the median,
the quartiles and the spread (q3 - q1) / median next to the bound in
BENCHMARK.json.  It summarises the unnormalised median study time in seconds
(`raw_wall_s`, no bound) the same way, to show what the seed reference removes.
It checks that every run passed its correctness gate and that result hashes
agree across runs wherever the inputs do (the cmt workloads ignore the seed).
Within a run, `run.py` already fails any repeat, traced or not, whose hash
differs from the first repeat.  The report's `env` holds only the machine
fields; the load average is recorded at the start and end of the set.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED_FREE = ("march", "mu_sweep", "picard_chain")
MACHINE_ENV = ("nproc", "python", "numpy", "scipy", "blas", "threads")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def summarize(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / statistics.median(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label", default="local")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)

    loadavg_start = os.getloadavg()
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            env, result = run_once(w, seed, seconds, 0)
            runs[w].append({"seed": seed, "env": env, "result": result})
            m = result["metrics"]
            print(f"{w:15s} seed {seed:3d} correct {result['correct']!s:5s} "
                  + " ".join(f"{k}={v['value']:.4f}" for k, v in m.items()), flush=True)

    first_env = runs[workloads[0]][0]["env"]
    report = {"label": args.label, "run_seconds": seconds, "runs_per_workload": args.runs,
              "first_seed": args.first_seed, "env": {k: first_env[k] for k in MACHINE_ENV},
              "workloads": {}}
    ok = True
    for w in workloads:
        results = [r["result"] for r in runs[w]]
        digests = [r["env"]["digest"] for r in runs[w]]
        entry = {
            "all_correct": all(r["correct"] and r["failed"] == 0 for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "digests_agree": len(set(digests)) == 1 if w in SEED_FREE else None,
            "digests": digests,
            "metrics": {name: summarize([r["metrics"][name]["value"] for r in results], bound)
                        for name, bound in bounds.items()},
            "raw_wall_s": summarize([statistics.median(r["env"]["repeat_wall_s"]) for r in runs[w]], None),
        }
        _, traced = run_once(w, args.first_seed, seconds, 1)
        entry["traced_correct"] = traced["correct"] and traced["failed"] == 0
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        ok = ok and entry["all_correct"] and entry["digests_agree"] is not False and entry["traced_correct"]
        report["workloads"][w] = entry
        for name, s in [*entry["metrics"].items(), ("raw_wall_s", entry["raw_wall_s"])]:
            flag = "" if s["bound"] is None or name == "setup_s" or s["spread"] <= s["bound"] / 3 \
                else "  <-- spread above bound/3"
            print(f"{w:15s} {name:12s} median {s['median']:.4f}  spread {s['spread']:.4f}"
                  f"  bound {s['bound']}{flag}")
        print(f"{w:15s} correct {entry['all_correct']}  digests agree {entry['digests_agree']}"
              f"  traced correct {entry['traced_correct']}")
    report["loadavg_start"], report["loadavg_end"] = loadavg_start, os.getloadavg()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
