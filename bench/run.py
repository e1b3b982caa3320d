#!/usr/bin/env python3
"""Benchmark of the kreinsys pipelines, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from its
`src/`.  One run:

1. sets up SETUP_REPEATS times, each in a fresh process: import the
   package and write the inputs (`setup_s` is the median);
2. runs repetitions of the workload, each in a fresh process with one
   BLAS/OpenMP thread, until the repetitions have measured S seconds
   (at least one; with --trace 1, untraced and traced repetitions
   alternate in pairs);
3. checks every repetition's bundles and reports with numpy code of its
   own (checks.py);
4. prints the metrics as the last line of stdout:
   {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

Working files live under .bench_work/ in the checkout and are removed at
the end.  Exit status 0 means the run completed and printed its result,
whether or not the checks passed; anything else means no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_REPEATS = 5
RUN_LIMIT_S = 175.0  # every process of a run must end within this
CHECK_ALLOWANCE_S = 15.0  # kept free for the checks: no repetition starts that could eat into it
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)  # before numpy loads here (checks) and in every child

from checks import run_checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    """A benchmark process failed or a run could not finish in time."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def call(script: str, args: list[str], deadline: float) -> dict:
    """Run one benchmark process to completion; return its last stdout line as JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left to start {script} {args[0]}")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / script), *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} {args[0]} did not finish within the run's time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def metric_units() -> dict:
    """Unit of every metric, as BENCHMARK.json states it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setup_s = [call("worker.py", ["setup", "--dir", str(workdir)], deadline)["setup_s"] for _ in range(SETUP_REPEATS)]

    plain, traced = [], []
    index = 0
    while True:
        round_start = time.monotonic()
        for is_traced in (False, True) if trace else (False,):
            args = ["rep", "--workload", workload, "--dir", str(workdir), "--seed", str(seed), "--rep", str(index)]
            result = call("worker.py", args + (["--trace"] if is_traced else []), deadline)
            (traced if is_traced else plain).append(result)
            index += 1
        measured = sum(r["wall_s"] for r in plain + traced)
        round_s = time.monotonic() - round_start
        if measured >= seconds or time.monotonic() + round_s + CHECK_ALLOWANCE_S > deadline:
            break

    checks = run_checks(workload, workdir, seed, index)
    reps = plain + traced
    for name, check in checks.items():
        verdict = "ok" if check["ok"] else "FAILED"
        print(f"check {name:<22} {check['value']:.3e}  (bound {check['bound']:.1e})  {verdict}")
    print("repetitions: " + ", ".join(f"{r['wall_s']:.3f} s" for r in reps))

    if trace:
        keys = traced[0]["trace"].keys()
        metrics = {key: statistics.median(r["trace"][key] for r in traced) for key in keys}
        metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
            r["wall_s"] for r in plain
        )
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "bundle_mb": statistics.median(r["bundle_mb"] for r in plain),
        }
    units = metric_units()
    unlisted = sorted(set(metrics) - set(units))
    if unlisted:
        raise BenchError(f"metrics not listed in BENCHMARK.json: {', '.join(unlisted)}")
    return {
        "correct": all(check["ok"] for check in checks.values()),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kreinsys pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kreinsys" / "__init__.py").is_file():
        print(f"error: no kreinsys sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
