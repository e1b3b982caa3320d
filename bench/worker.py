"""One benchmark process: a set-up or one repetition of a workload.

    worker.py setup --dir D
        imports the package and writes the workload inputs into D; prints
        {"setup_s": ...}, the time from the start of the import to the
        inputs written.
    worker.py rep --workload W --dir D --seed S --rep I [--trace]
        imports the package, then runs the workload's subcommands in order
        through `kreinsys.cli.main` and prints one JSON line with the wall
        time of the commands, the peak resident memory of this process and,
        with --trace, the per-layer figures.  The command reports go to
        D/reports-I.json for the checker.

Both print exactly one JSON line on stdout and exit 0 whenever the
process itself worked; a failing command is counted, not raised.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

from workloads import GEN_ARGS, SERIES_DEGREE, SERIES_FILE, SYSTEM_FILE, bundle_name, commands, hyperbolic_coefficient  # noqa: E402


def _import_cli():
    import kreinsys.cli

    source = Path(kreinsys.cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"kreinsys was imported from {source}, not from {ROOT / 'src'}")
    return kreinsys.cli


def _quiet_main(main, argv):
    """Run one subcommand, returning (exit code, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def setup(workdir: Path) -> dict:
    start = time.perf_counter()
    cli = _import_cli()
    from kreinsys import bundles
    from kreinsys.transfer import TruncatedOperatorSeries

    workdir.mkdir(parents=True, exist_ok=True)
    code, _, err = _quiet_main(cli.main, ["gen", *GEN_ARGS, "--out", str(workdir / SYSTEM_FILE)])
    if code != 0:
        raise SystemExit(f"kreinsys gen exited {code}: {err.strip()}")
    coefficients = {(m,): [[hyperbolic_coefficient(m)]] for m in range(1, SERIES_DEGREE + 1)}
    series = TruncatedOperatorSeries(n=1, degree=SERIES_DEGREE, coefficients=coefficients)
    bundles.save_bundle(bundles.series_to_bundle(series), workdir / SERIES_FILE)
    return {"setup_s": time.perf_counter() - start}


def rep(workload: str, workdir: Path, seed: int, index: int, trace: bool) -> dict:
    cli = _import_cli()
    tracer = None
    if trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    main = cli.main
    wall = 0.0
    failed = 0
    reports = []
    argvs = commands(workload, workdir, seed, index)
    for argv in argvs:
        start = time.perf_counter()
        code, out, err = _quiet_main(main, argv)
        elapsed = time.perf_counter() - start
        wall += elapsed
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            report = None
        if code != 0 or not isinstance(report, dict) or report.get("pass") is not True:
            failed += 1
        reports.append({"command": argv[0], "exit": code, "seconds": elapsed, "report": report, "stderr": err[-2000:]})
    (workdir / f"reports-{index}.json").write_text(json.dumps(reports))
    bundle = workdir / bundle_name(workload, index)
    result = {
        "wall_s": wall,
        "attempted": len(argvs),
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "bundle_mb": bundle.stat().st_size / 1e6 if bundle.exists() else 0.0,
    }
    if tracer is not None:
        result["trace"] = tracer.metrics()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "rep"))
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = setup(args.dir)
    else:
        result = rep(args.workload, args.dir, args.seed, args.rep, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
