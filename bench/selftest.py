#!/usr/bin/env python3
"""Shows that the independent checks catch corrupted outputs.

    python3 bench/selftest.py

For each workload, at seed SEED: set up, run one repetition, require every check to
pass on the untouched outputs, then apply each corruption below to a copy
of the outputs and require the checks it targets to fail.  Exits 0 when
every corruption is caught.  Takes about two minutes, most of it the
degree-20 dilation.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

from run import ROOT, call  # sets the one-thread environment before numpy loads

from checks import run_checks  # noqa: E402
from workloads import WORKLOADS, bundle_name  # noqa: E402

SEED = 0


def _edit(path: Path, change) -> None:
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def _bundle(workload):
    return lambda d: d / bundle_name(workload, 0)


def _reports(d):
    return d / "reports-0.json"


def _report(command, change):
    """Edit the JSON report of one subcommand of repetition 0."""

    def edit(entries):
        change(next(e["report"] for e in entries if e["command"] == command))

    return edit


def _bump(entry, delta=1e-3):
    entry[0] += delta


def _fail_verdict(entries):
    entries[0]["report"]["pass"] = False


def _flip_j(data):
    data["j"][0][0][0] *= -1


def _decomposition_entry(data):
    data["components"][0]["coefficients"][1][1][0][0] += 1e-3


def _taylor_entry(index):
    def change(report):
        _bump(report["taylor"]["coefficients"][index][1][0][0])

    return change


def _set_r2(report):
    report["residuals"]["r2"] = 1e-6


def _energy_row(report):
    report["levels"][5]["state_j_energy"] += 1e-6


def _no_energy(report):
    for row in report["levels"]:
        for key in ("input_energy", "output_energy", "state_j_energy", "signed_residual"):
            row[key] = 0.0


# workload -> [(description, file to edit, edit, checks that must fail)]
CORRUPTIONS = {
    "dilate-n2-d20": [
        ("trailing corner of dilated A_1 off by 1e-3", _bundle("dilate-n2-d20"),
         lambda d: _bump(d["system"]["a"][0][-1][-1]), {"corner-blocks"}),
        ("leading entry of dilated A_1 off by 1e-3", _bundle("dilate-n2-d20"),
         lambda d: _bump(d["system"]["a"][0][0][0]), {"torus-unitarity"}),
        ("dilated D_1 off by 1e-2", _bundle("dilate-n2-d20"),
         lambda d: _bump(d["system"]["d"][0][0][0], 1e-2), {"transfer-coincidence"}),
        ("dilate report says pass: false", _reports, _fail_verdict, {"reports-pass"}),
    ],
    "realize-hyp8": [
        ("realized D off by 1e-3", _bundle("realize-hyp8"),
         lambda d: _bump(d["d"][0][0][0]), {"coefficients"}),
        ("one sign of the realized J flipped", _bundle("realize-hyp8"), _flip_j, {"torus-unitarity"}),
        ("realize report says pass: false", _reports, _fail_verdict, {"reports-pass"}),
    ],
    "analyze-n2": [
        ("one decomposition coefficient off by 1e-3", _bundle("analyze-n2"),
         _decomposition_entry, {"kernel-identity"}),
        ("check report states r2 = 1e-6", _reports, _report("check", _set_r2), {"conservativity"}),
        ("simulate report: level-5 J-energy off by 1e-6", _reports,
         _report("simulate", _energy_row), {"energy-balance"}),
        ("simulate report: every level energy zero", _reports,
         _report("simulate", _no_energy), {"energy-balance"}),
        ("one degree-1 Taylor coefficient off by 1e-3", _reports,
         _report("transfer", _taylor_entry(1)), {"taylor-values", "taylor-coefficients"}),
        ("one degree-8 Taylor coefficient off by 1e-3", _reports,
         _report("transfer", _taylor_entry(-1)), {"taylor-coefficients"}),
        ("check report says pass: false", _reports, _fail_verdict, {"reports-pass"}),
    ],
}


def _second_rep_differs(workload, workdir: Path) -> None:
    """Adds a repetition 1 whose bundle differs from repetition 0's in one byte."""
    shutil.copy(workdir / "reports-0.json", workdir / "reports-1.json")
    bundle = (workdir / bundle_name(workload, 0)).read_bytes()
    (workdir / bundle_name(workload, 1)).write_bytes(bundle[:-2] + b" \n")


def failing(checks: dict) -> set:
    return {name for name, check in checks.items() if not check["ok"]}


def selftest(workload: str, seed: int, base: Path) -> bool:
    workdir = base / workload
    deadline = time.monotonic() + 600
    call("worker.py", ["setup", "--dir", str(workdir)], deadline)
    call("worker.py", ["rep", "--workload", workload, "--dir", str(workdir), "--seed", str(seed), "--rep", "0"], deadline)
    clean = failing(run_checks(workload, workdir, seed, 1))
    ok = not clean
    print(f"{workload}: untouched outputs {'pass every check' if ok else 'FAIL ' + ', '.join(sorted(clean))}")
    cases = CORRUPTIONS[workload] + [
        ("second repetition's bundle differs in one byte", None, None, {"repeatable-bundles"})
    ]
    for description, target, change, expected in cases:
        copy = base / f"{workload}-corrupt"
        shutil.copytree(workdir, copy)
        if target is None:
            _second_rep_differs(workload, copy)
            reps = 2
        else:
            _edit(target(copy), change)
            reps = 1
        failed = failing(run_checks(workload, copy, seed, reps))
        shutil.rmtree(copy)
        caught = expected <= failed
        ok = ok and caught
        verdict = "caught" if caught else "MISSED"
        print(f"  {verdict:<7} {description}: failing checks {', '.join(sorted(failed)) or 'none'}")
    return ok


def main() -> int:
    base = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    try:
        results = [selftest(w, SEED, base) for w in WORKLOADS]
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print("self-test " + ("passed" if all(results) else "FAILED"))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
