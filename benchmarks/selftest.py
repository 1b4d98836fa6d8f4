#!/usr/bin/env python3
"""Self-tests of the benchmark itself; exits nonzero if any fails.

    python3 benchmarks/selftest.py

* every workload, traced and untraced, runs at toy size, passes its checks
  and emits exactly the metrics BENCHMARK.json names, with their units;
* a planted check failure (`--plant-failure`) counts every repeat as failed;
* the benchmark refuses to run, without printing a result, in a directory
  that holds only BENCHMARK.json and the benchmark's own files;
* the tracer fails loudly when a traced name is gone, and reports a layer
  as silent when a caller bypasses its wrapper.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ARGS = ["--seed", "5", "--seconds", "0.5"]

failures = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def bench(cwd, *extra):
    cmd = SPEC["command"][1:]
    proc = subprocess.run([sys.executable, *cmd, *extra], cwd=cwd, capture_output=True,
                          text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def check_result(result, section, label):
    if result is None:
        expect(False, f"{label}: produced a result")
        return
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: correct with no failed repeats")
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == want, f"{label}: emits every {section} metric with its unit")
    expect(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
               for m in result["metrics"].values()), f"{label}: finite numeric values")


def smoke_and_planted():
    for w in (w["name"] for w in SPEC["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            _, result = bench(ROOT, "--workload", w, "--trace", str(trace), "--toy", *ARGS)
            check_result(result, section, f"{w} trace={trace}")
        proc, result = bench(ROOT, "--workload", w, "--trace", "0", "--toy", "--plant-failure", *ARGS)
        expect(result is not None and result["correct"] is False
               and result["failed"] == result["attempted"] >= 1 and "FAILED" in proc.stderr,
               f"{w}: planted check failure counts every repeat as failed")


def bare_directory():
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc, _ = bench(bare, "--workload", "march", "--trace", "0", *ARGS)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "refuses to run without the qglab sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def tracer_blindness():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import qglab.models
    import qglab.stepping
    import studies
    from tracing import TraceError, Tracer

    orig = qglab.models.advection_coeffs
    del qglab.models.advection_coeffs
    try:
        with Tracer().installed():
            pass
        expect(False, "a missing trace target raises TraceError")
    except TraceError:
        expect(True, "a missing trace target raises TraceError")
    finally:
        qglab.models.advection_coeffs = orig

    work = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    qglab.stepping.advection_coeffs = lambda *a, **k: orig(*a, **k)  # a caller that bypasses the wrapper
    try:
        work.mkdir(parents=True)
        study = studies.PicardChain(str(work), 0, True)
        tracer = Tracer()
        with tracer.installed():
            study.run()
        expect(any("models.advection" in f for f in tracer.expectation_failures(study)),
               "a bypassed wrapper is reported as a silent layer")
    finally:
        qglab.stepping.advection_coeffs = orig
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    smoke_and_planted()
    bare_directory()
    tracer_blindness()
    with contextlib.suppress(OSError):
        (ROOT / ".bench_work").rmdir()
    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
