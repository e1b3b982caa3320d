"""sha256 of every bundle and --json report the benchmark workloads write.

    python3 scripts/report_digests.py --seeds 7 11 807

Runs `gen`, writes the degree-8 hyperbolic series, then runs the
subcommands of every workload in `bench/workloads.py` at each seed, plus
`decompose` at its default gate, all in one temporary directory with
relative paths so that the text does not depend on where it runs.  The
package is imported from the `src/` of the checkout this file sits in.
Prints one `seed name sha256` line per file; running it on two checkouts
and diffing the output shows every byte that changed.  Reports depend on
the BLAS thread count, so the script pins one thread, as the benchmark
does, before numpy loads: its digests then compare across hosts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)  # before numpy loads

from kreinsys import bundles  # noqa: E402
from kreinsys.cli import main as kreinsys_main  # noqa: E402
from kreinsys.transfer import TruncatedOperatorSeries  # noqa: E402
from workloads import (  # noqa: E402
    GEN_ARGS,
    SERIES_DEGREE,
    SERIES_FILE,
    SYSTEM_FILE,
    WORKLOADS,
    bundle_name,
    commands,
    hyperbolic_coefficient,
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = kreinsys_main(argv)
    return code, out.getvalue()


def digests(seed: int) -> list[tuple[str, str]]:
    """(name, sha256) of each report and bundle at ``seed``, in run order;
    a report's name carries the command's exit code."""
    here = Path(".")
    rows = []
    code, out = _run(["gen", *GEN_ARGS, "--out", SYSTEM_FILE, "--json"])
    rows.append((f"gen.report.exit{code}", _sha(out.encode())))
    rows.append(("gen.bundle", _sha(Path(SYSTEM_FILE).read_bytes())))
    coefficients = {(m,): [[hyperbolic_coefficient(m)]] for m in range(1, SERIES_DEGREE + 1)}
    series = TruncatedOperatorSeries(n=1, degree=SERIES_DEGREE, coefficients=coefficients)
    bundles.save_bundle(bundles.series_to_bundle(series), SERIES_FILE)
    rows.append(("series.bundle", _sha(Path(SERIES_FILE).read_bytes())))
    for workload in WORKLOADS:
        for argv in commands(workload, here, seed, 0):
            code, out = _run(argv)
            rows.append((f"{workload}.{argv[0]}.report.exit{code}", _sha(out.encode())))
        rows.append((f"{workload}.bundle", _sha(Path(bundle_name(workload, 0)).read_bytes())))
    code, out = _run(["decompose", SYSTEM_FILE, "--degree", "12", "--seed", str(seed), "--json"])
    rows.append((f"decompose-default-tol.report.exit{code}", _sha(out.encode())))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11, 807])
    args = parser.parse_args(argv)
    start = os.getcwd()
    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                for name, digest in digests(seed):
                    print(f"{seed} {name} {digest}")
            finally:
                os.chdir(start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
