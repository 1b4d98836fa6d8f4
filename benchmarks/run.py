#!/usr/bin/env python3
"""qglab benchmark: one workload, closed loop, one study at a time.

    python3 benchmarks/run.py --workload march --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; qglab is imported from its `src/`.
The run times SETUP_PROBES fresh interpreters that import qglab and build the
workload's inputs, half of them before and half after the measured repeats so
that the median (`setup_s`) does not rest on one moment of the host's speed.
In between it repeats the study until `--seconds` have passed.

Untraced, every repeat is bracketed by two runs of the same study on the
frozen copy of qglab in `seed_src/`, made in a child process that computes
only while this one waits.  A repeat's time over the mean of the two
reference times around it is its `wall_rel`: the shared host's speed swings
slow both alike and cancel in the ratio, which raw seconds cannot do.  The
run reports the median `wall_rel` and this process's peak resident memory
(`peak_rss_mb`).  With `--trace 1` it alternates untraced and traced repeats
instead and reports the per-layer metrics of `tracing.PER_LAYER` (medians
over the traced repeats), the median untraced study time in seconds
(`wall_s`) and the tracing overhead.

Every repeat is checked against the acceptance tolerances and hashed; a
failed check or a hash that differs from the first repeat counts the repeat
as failed.  The last stdout line is the JSON result; the line before it records
the environment.

`--toy` shrinks every study for smoke tests; `--plant-failure` zeroes the
check tolerances so the self-test can confirm that failures are counted.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SEED_SRC = BENCH_DIR / "seed_src"
# Digest of the *.py files under SEED_SRC; every recorded wall_rel is relative to that code.
SEED_SRC_SHA256 = "27edb42fdd95ea151a97bbe9b1cdc2e546a9b82bbb8bdd8605e3234521eb38ab"
WORK = ROOT / ".bench_work"
WORKLOADS = ("march", "mu_sweep", "picard_chain", "flux_remainder")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 60


def cap_threads() -> int:
    """Run BLAS/OpenMP on one thread; must run before numpy loads.  Returns nproc.

    On a shared host of a few cores, a multi-threaded matmul waits for its
    slowest thread, which made `flux_remainder` repeats spread twice as wide.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_studies(src: Path = SRC):
    sys.path.insert(0, str(src))
    import qglab
    import studies

    if not Path(qglab.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"imported qglab from {qglab.__file__}, not from {src}")
    return studies


def environment(nproc: int) -> dict:
    from importlib import metadata

    import numpy as np

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def probe_setup(args, workdir: Path) -> float:
    """Seconds from spawning a fresh interpreter until it reports ready inputs."""
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup", str(workdir),
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.toy:
        cmd.append("--toy")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


class SeedReference:
    """The workload's study on the frozen qglab of `seed_src/`, in a child process.

    Each call runs one repeat there and returns its time in seconds.  The
    child computes only while the caller waits on it, so one study runs at a
    time, and its memory stays out of the caller's `peak_rss_mb`.
    """

    def __init__(self, args, workdir: Path):
        digest = hashlib.sha256()
        for path in sorted(SEED_SRC.rglob("*.py")):
            digest.update(path.relative_to(SEED_SRC).as_posix().encode() + b"\0" + path.read_bytes())
        if digest.hexdigest() != SEED_SRC_SHA256:
            raise RuntimeError(f"{SEED_SRC} is not the frozen seed copy of qglab; restore it")
        workdir.mkdir(parents=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--serve-seed-reference", str(workdir),
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.toy:
            cmd.append("--toy")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError(f"seed reference failed to start (exit {self.proc.returncode})")

    def __call__(self) -> float:
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        try:
            return float(line)
        except ValueError:
            raise RuntimeError(f"seed reference stopped (exit {self.proc.poll()})") from None

    def close(self):
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve_seed_reference(args) -> int:
    """Child side of SeedReference: one repeat of the study per line read from stdin."""
    studies = import_studies(SEED_SRC)
    study = studies.STUDIES[args.workload](args.serve_seed_reference, args.seed, args.toy)
    print("ready", flush=True)
    for _ in sys.stdin:
        study.reset()
        t0 = time.perf_counter()
        study.run()
        print(time.perf_counter() - t0, flush=True)
    return 0


def measure(args, study, tol_scale: float, reference=None):
    """Repeat the study for args.seconds; return per-repeat records.

    With a reference, it runs before the first repeat and after every repeat,
    and each timed repeat gets `wall_rel`: its time over the mean of the two
    reference times around it.
    """
    from tracing import PER_LAYER, Tracer

    reps = []
    min_reps = 2 if args.trace else 1
    start = time.perf_counter()
    prev_ref = reference() if reference else None
    while len(reps) < min_reps or time.perf_counter() - start < args.seconds:
        tracer = Tracer() if args.trace and len(reps) % 2 == 1 else None
        rep = {"traced": tracer is not None, "wall_s": None, "digest": None, "failed": []}
        study.reset()
        try:
            with tracer.installed() if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                result = study.run()
                rep["wall_s"] = time.perf_counter() - t0
            if reference:
                ref = reference()
                rep["wall_rel"] = rep["wall_s"] / ((prev_ref + ref) / 2)
                prev_ref = ref
            rep["failed"] = study.check(result, tol_scale)
            rep["digest"] = study.digest(result)
        except Exception as exc:  # a crash is reported as a named failed check
            traceback.print_exc(file=sys.stderr)
            rep["failed"] = [f"{args.workload}.raised: {type(exc).__name__}: {exc}"]
        if tracer:
            rep["failed"] += tracer.expectation_failures(study)
            rep["layers"] = tracer.metrics()
            first = next((r["layers"] for r in reps if "layers" in r), rep["layers"])
            rep["failed"] += [f"trace.counts_repeat: {name} is {rep['layers'][name]}, was {first[name]}"
                              for name, _, source, _ in PER_LAYER
                              if source in ("count", "bytes") and rep["layers"][name] != first[name]]
        first_digest = next((r["digest"] for r in reps if r["digest"]), rep["digest"])
        if rep["digest"] != first_digest and rep["digest"]:
            rep["failed"].append("determinism: result hash differs from the first repeat")
        reps.append(rep)
    return reps


def median(values):
    values = list(values)
    return statistics.median(values) if values else float("nan")


def layer_metrics(reps) -> dict:
    """Per-layer medians over the traced repeats, the untraced study time and the tracing overhead."""
    from tracing import PER_LAYER

    traced = [r["layers"] for r in reps if "layers" in r]
    metrics = {}
    for name, unit, source, _ in PER_LAYER:
        middle = statistics.median if source in ("total", "self") else statistics.median_low
        metrics[name] = {"value": middle(t[name] for t in traced), "unit": unit}
    walls = {flag: median(r["wall_s"] for r in reps if r["traced"] == flag and r["wall_s"] is not None)
             for flag in (True, False)}
    metrics["wall_s"] = {"value": walls[False], "unit": "s"}
    metrics["trace.wall_s"] = {"value": walls[True], "unit": "s"}
    metrics["trace.overhead_s"] = {"value": walls[True] - walls[False], "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny problem sizes for smoke tests")
    parser.add_argument("--plant-failure", action="store_true", help="zero every check tolerance")
    parser.add_argument("--probe-setup", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--serve-seed-reference", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "qglab" / "__init__.py").is_file():
        print(f"error: no qglab sources under {SRC}; run from a qglab checkout", file=sys.stderr)
        return 2
    nproc = cap_threads()

    if args.probe_setup:
        studies = import_studies()
        studies.STUDIES[args.workload](args.probe_setup, args.seed, args.toy)
        print("ready", flush=True)
        return 0
    if args.serve_seed_reference:
        return serve_seed_reference(args)

    # One CPU for this process and the children it starts: the study and its
    # seed reference must meet the same core, or the ratio measures two cores.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    reference = None
    try:
        load_start = os.getloadavg()
        setup_s = [probe_setup(args, workdir / f"probe{i}") for i in range(SETUP_PROBES // 2)]
        studies = import_studies()
        env = environment(nproc)
        (workdir / "main").mkdir()
        study = studies.STUDIES[args.workload](str(workdir / "main"), args.seed, args.toy)
        study.reference()
        if not args.trace:
            reference = SeedReference(args, workdir / "seed")
            reference()  # warm-up
        reps = measure(args, study, 0.0 if args.plant_failure else 1.0, reference)
        setup_s += [probe_setup(args, workdir / f"probe{i}") for i in range(SETUP_PROBES // 2, SETUP_PROBES)]
    finally:
        if reference:
            reference.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only if no other run is using it

    failed = [r for r in reps if r["failed"]]
    for i, rep in enumerate(reps):
        for name in rep["failed"]:
            print(f"FAILED repeat {i}: {name}", file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(reps)
    else:
        rels = [r["wall_rel"] for r in reps if not r["failed"] and "wall_rel" in r] or [
            r["wall_rel"] for r in reps if "wall_rel" in r]
        metrics = {
            "wall_rel": {"value": median(rels), "unit": "ratio"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    env.update(workload=args.workload, seed=args.seed, trace=args.trace, toy=args.toy,
               repeat_wall_s=[r["wall_s"] for r in reps], repeat_wall_rel=[r.get("wall_rel") for r in reps],
               setup_probes_s=setup_s, digest=reps[0]["digest"],
               loadavg_start=load_start, loadavg_end=os.getloadavg())
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": not failed, "attempted": len(reps), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
