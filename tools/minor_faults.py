#!/usr/bin/env python3
"""Warm minor page faults per repeat and peak memory of each benchmark study, as JSON.

    python3 tools/minor_faults.py [--seed 2] [--repeats 20] [--toy]

Each study of `benchmarks/studies.py` runs in a fresh interpreter with
BLAS/OpenMP on one thread, as `benchmarks/run.py` runs it: the study is
built, run once to warm numpy's transform plans and the grids' cached
symbols, then run `--repeats` more times, each after its `reset()`.  The
reported count is the growth of the process's `ru_minflt` over those
repeats divided by their number: the pages that a repeat touches for the
first time, mostly the large arrays that the allocator returned to the
system since the previous repeat.  Beside it, `peak_rss_mb` gives the
interpreter's `ru_maxrss` in MB once the study is built (`setup`) and
after the repeats (`repeats`), so a change to what a study holds shows
without the benchmark's timing runs.  The last stdout line is the JSON
result; nothing under `benchmarks/` is changed.

The mu_sweep count depends on how its interpreter is invoked: on one tree
it read 349 with the study run by absolute path, as `main` runs it, and
439 by a relative path with stdout piped, because the argv and path
strings move the heap layout.  Compare mu_sweep counts only between runs
of this script without `--workload`; a gap under about 110 pages per
repeat shows nothing.  The other three studies did not move this way.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _studies():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import studies

    return studies


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: str, seed: int, repeats: int, toy: bool) -> dict:
    """Minor faults per warm repeat of one study in this process, and its peak RSS in MB after set-up and repeats."""
    with tempfile.TemporaryDirectory(prefix="qglab-faults-") as workdir:
        study = _studies().STUDIES[workload](workdir, seed, toy)
        setup_mb = _peak_rss_mb()
        study.reset()
        study.run()  # warm-up
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(repeats):
            study.reset()
            study.run()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return {"faults_per_repeat": faults / repeats, "peak_rss_mb": {"setup": setup_mb, "repeats": _peak_rss_mb()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--toy", action="store_true", help="the studies' smoke-test sizes")
    parser.add_argument("--workload", help=argparse.SUPPRESS)  # one study, in this process
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    if args.workload:
        print(json.dumps(measure(args.workload, args.seed, args.repeats, args.toy)))
        return 0

    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    faults, rss = {}, {}
    for workload in _studies().STUDIES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--repeats", str(args.repeats)] + (["--toy"] if args.toy else [])
        out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.splitlines()[-1])
        faults[workload], rss[workload] = result["faults_per_repeat"], result["peak_rss_mb"]
    print(json.dumps({"seed": args.seed, "repeats": args.repeats, "toy": args.toy,
                      "faults_per_repeat": faults, "peak_rss_mb": rss}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
