"""Workload definitions shared by run.py, its worker processes and the checks.

Every workload runs one or more `kreinsys` subcommands on the inputs made
in set-up.  The inputs are fixed: the README's N=2 bundle (generator seed
0) and the degree-8 hyperbolic series.  The benchmark's ``--seed`` is the
sampling seed of every subcommand and of the independent checks, so one
seed always gives the same inputs, commands and outputs.
"""

from __future__ import annotations

from pathlib import Path

SYSTEM_FILE = "system.json"
SERIES_FILE = "series.json"

# `kreinsys gen` arguments of the README's N=2 bundle
GEN_ARGS = ["--n", "2", "--state-dim", "3", "--input-dim", "2", "--signs", "++-", "--seed", "0"]

# degree-8 hyperbolic series: 1.25 at degree 1, 0.5625 * 1.25**(m - 2) at m = 2..8
SERIES_DEGREE = 8


def hyperbolic_coefficient(m: int) -> float:
    return 1.25 if m == 1 else 0.5625 * 1.25 ** (m - 2)


SIMULATE_LEVELS = 10
TAYLOR_DEGREE = 8

# the --tol every certified pipeline runs at
PIPELINE_TOL = 1e-4

# verification points of `dilate` (lin-tf and transfer-coincidence); the
# default 100 would make one run about a minute and the whole benchmark
# overrun its time budget, while M, K_0 and the dilated state are the same
DILATE_SAMPLES = 25

WORKLOADS = ("dilate-n2-d20", "realize-hyp8", "analyze-n2")


def bundle_name(workload: str, rep: int) -> str:
    """File the given repetition's pipeline writes its bundle to."""
    stem = {"dilate-n2-d20": "dilation", "realize-hyp8": "realized", "analyze-n2": "decomposition"}
    return f"{stem[workload]}-{rep}.json"


def commands(workload: str, workdir: Path, seed: int, rep: int) -> list[list[str]]:
    """The `kreinsys` argument lists one repetition of a workload runs, in order."""
    system = str(workdir / SYSTEM_FILE)
    out = str(workdir / bundle_name(workload, rep))
    s = str(seed)
    tol = repr(PIPELINE_TOL)
    if workload == "dilate-n2-d20":
        return [
            ["dilate", system, "--degree", "20", "--tol", tol, "--samples", str(DILATE_SAMPLES), "--seed", s, "--out", out, "--json"]
        ]
    if workload == "realize-hyp8":
        series = str(workdir / SERIES_FILE)
        return [["realize", series, "--tol", tol, "--seed", s, "--out", out, "--json"]]
    if workload == "analyze-n2":
        return [
            ["check", system, "--seed", s, "--json"],
            ["simulate", system, "--levels", str(SIMULATE_LEVELS), "--input", "random", "--seed", s, "--json"],
            ["transfer", system, "--degree", str(TAYLOR_DEGREE), "--json"],
            ["decompose", system, "--degree", "12", "--tol", tol, "--seed", s, "--out", out, "--json"],
        ]
    raise ValueError(f"unknown workload {workload!r}")
