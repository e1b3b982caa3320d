"""Command line interface binding the toolkit's pipelines to JSON bundles.

Every subcommand prints a human-readable report by default or a single
canonical JSON document with --json, and exits 0 exactly when all
checked residuals come in at or below --tol (by default 1e-8, and for
decompose its certified bound; per-residual overrides via --stage-tol
NAME=VALUE).  Exit code 1 flags residual or pipeline-stage failures, 2
flags unusable inputs.  Identical inputs and seeds produce byte-identical
reports.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bundles
from .agler import construct_pencil_decomposition, epsilon_bounds, verify_kernel_identity
from .dilation import DEFECT_NAMES, _disk_samples, _torus_samples, build_dilation, verify_dilation
from .krein import CanonicalSymmetry, opnorm
from .lattice import LatticeSignal, energy_balance_report, simulate
from .realize import jconservative_realization
from .systems import jconservativity_defect, random_jconservative, system_operators, torus_check
from .transfer import ResolventError, eval_transfer, multi_indices, taylor_coefficients

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_USAGE = 2


def _printer(args):
    if args.json:
        return lambda *a, **k: None
    return print


def _fmt_complex(v) -> str:
    v = complex(v)
    if abs(v.imag) <= 1e-14 * max(1.0, abs(v.real)):
        return repr(v.real)
    sign = "+" if v.imag >= 0 else "-"
    return f"{v.real!r}{sign}{abs(v.imag)!r}j"


def _stage_gate(args, name: str) -> float:
    return args.stage_tol.get(name, args.tol)


def _abort_tol(args) -> float:
    """Loosest gate of any stage: a staged build aborts only above it, so that
    _finish judges every residual against its own gate."""
    return max([args.tol, *args.stage_tol.values()])


def _finish(args, report: dict, checked: dict) -> int:
    """Print the residual table (or JSON report) and derive the exit code."""
    checked = {k: float(v) for k, v in checked.items()}
    failures = [k for k, v in checked.items() if not (v <= _stage_gate(args, k))]
    report["residuals"] = checked
    if "tol" in args:
        report["tol"] = args.tol
    report["pass"] = not failures
    if args.json:
        print(bundles.dumps_canonical(report))
    else:
        for name, value in checked.items():
            verdict = "FAIL" if name in failures else "PASS"
            print(f"{verdict}  {name:<18} {value:.6e}  (tol {_stage_gate(args, name):.1e})")
    for name in failures:
        print(
            f"FAIL stage {name}: residual {checked[name]:.6e} exceeds "
            f"tol {_stage_gate(args, name):.1e}",
            file=sys.stderr,
        )
    return EXIT_RESIDUAL if failures else EXIT_OK


def _load_system(path):
    data = bundles.load_bundle(path, bundles.SYSTEM_FORMAT)
    system, j, meta = bundles.system_from_bundle(data)
    if j is None:
        j = CanonicalSymmetry.identity(system.state_dim)
    return system, j, meta


def _parse_point(text: str, n: int) -> np.ndarray:
    parts = [p.strip() for p in text.split(",")]
    try:
        z = [complex(p) for p in parts]
    except ValueError as exc:
        raise bundles.BundleError(f"cannot parse evaluation point {text!r}: {exc}") from exc
    if len(z) != n:
        raise bundles.BundleError(f"point has {len(z)} coordinates, the system has {n}")
    if not all(np.isfinite(c) for c in z):
        raise bundles.BundleError(f"evaluation point {text!r} is not finite")
    return np.asarray(z, dtype=np.complex128)


def cmd_check(args) -> int:
    system, j, meta = _load_system(args.bundle)
    say = _printer(args)
    name = meta.get("name")
    say(f"system{' ' + repr(name) if name else ''}: N={system.n}, dims={system.dims}")
    say(f"state symmetry signature {j.signature}")
    r1, r2, r3, r4 = jconservativity_defect(system, j)
    torus = torus_check(system, j, _torus_samples(system.n, args.samples, args.seed))
    report = {
        "command": "check",
        "n": system.n,
        "dims": list(system.dims),
        "signature": list(j.signature),
        "torus_samples": args.samples,
    }
    checked = {"r1": r1, "r2": r2, "r3": r3, "r4": r4, "torus": torus}
    return _finish(args, report, checked)


def cmd_simulate(args) -> int:
    system, j, _ = _load_system(args.bundle)
    say = _printer(args)
    n, dx, du = system.n, system.state_dim, system.input_dim
    x0 = LatticeSignal(n, dx)
    u = LatticeSignal(n, du)
    if du:
        if args.input == "impulse":
            e = np.zeros(du)
            e[0] = 1.0
            u.set((0,) * n, e)
        else:
            rng = np.random.default_rng(args.seed)
            for level in range(args.levels):
                for t in list(multi_indices(n, level))[:20]:
                    u.set(t, 0.05 * (rng.standard_normal(du) + 1j * rng.standard_normal(du)))
    traj = simulate(system, x0, u, args.levels)
    rep = energy_balance_report(traj, j)
    say(f"{args.input} input, levels 0..{args.levels}")
    say(f"{'level':>5} {'J-energy':>14} {'in':>14} {'out':>14} {'residual':>13}")
    rows = []
    for lvl in range(args.levels + 1):
        say(
            f"{lvl:>5} {rep.state_j_energy[lvl]:>14.6e} {rep.input_energy[lvl]:>14.6e}"
            f" {rep.output_energy[lvl]:>14.6e} {rep.signed_residuals[lvl]:>13.3e}"
        )
        rows.append(
            {
                "level": lvl,
                "state_j_energy": rep.state_j_energy[lvl],
                "input_energy": rep.input_energy[lvl],
                "output_energy": rep.output_energy[lvl],
                "signed_residual": rep.signed_residuals[lvl],
            }
        )
    report = {"command": "simulate", "input": args.input, "levels": rows}
    checked = {"balance": rep.max_residual}
    return _finish(args, report, checked)


def cmd_transfer(args) -> int:
    system, _, _ = _load_system(args.bundle)
    say = _printer(args)
    if args.at is None and args.degree is None:
        raise bundles.BundleError("transfer needs --at Z and/or --degree D")
    report = {"command": "transfer"}
    if args.at is not None:
        z = _parse_point(args.at, system.n)
        value = eval_transfer(system, z)
        if value.shape == (1, 1):
            say(f"theta({args.at}) = {_fmt_complex(value[0, 0])}")
        else:
            say(f"theta({args.at}) =")
            for row in value:
                say("  " + "  ".join(_fmt_complex(v) for v in row))
        report["at"] = [[c.real, c.imag] for c in z]
        report["value"] = value
    if args.degree is not None:
        series = taylor_coefficients(system, args.degree)
        say(f"taylor coefficient norms through degree {args.degree}:")
        entries = []
        for t, m in sorted(series.coefficients.items()):
            norm = opnorm(m)
            if norm > 0:
                say(f"  {t}: {norm:.6e}")
            entries.append([list(t), m])
        report["taylor"] = {"degree": args.degree, "coefficients": entries}
    return _finish(args, report, {})


def cmd_decompose(args) -> int:
    system, _, _ = _load_system(args.bundle)
    say = _printer(args)
    g = system_operators(system)
    lo, hi = epsilon_bounds(g)
    dec = construct_pencil_decomposition(g, args.epsilon, args.degree, radius=args.radius)
    lams = _disk_samples(system.n, args.radius, args.samples, args.seed)
    zs = _disk_samples(system.n, args.radius, args.samples, args.seed + 1)
    measured = verify_kernel_identity(g, dec, list(zip(lams, zs)))
    if args.tol is None:
        args.tol = dec.kernel_bound
    say(f"feasible scale window [{lo:.6g}, {hi:.6g}], using epsilon = {dec.epsilon:.6g}")
    say(
        f"degree {dec.degree}, radius {dec.radius}, signature {dec.signature},"
        f" eta = {dec.eta:.3e}, exact = {dec.exact}"
    )
    report = {
        "command": "decompose",
        "epsilon": dec.epsilon,
        "epsilon_window": [lo, hi],
        "degree": dec.degree,
        "radius": dec.radius,
        "eta": dec.eta,
        "exact": dec.exact,
        "signature": list(dec.signature),
        "components": [
            {"index": c.index, "m_plus": c.m_plus, "m_minus": c.m_minus}
            for c in dec.components
        ],
    }
    if args.out:
        bundles.save_bundle(bundles.decomposition_to_bundle(dec), args.out)
        say(f"wrote decomposition bundle to {args.out}")
        report["path"] = args.out
    return _finish(args, report, {"kernel": measured})


def cmd_dilate(args) -> int:
    system, _, _ = _load_system(args.bundle)
    say = _printer(args)
    result = build_dilation(
        system, args.degree, args.radius, _abort_tol(args), args.samples, args.seed
    )
    say(
        f"dilated state dim {result.alpha_tilde.state_dim}"
        f" (from {system.state_dim}), symmetry signature {result.j.signature}"
    )
    say(f"||U_full|| = {result.u_norm:.6e}")
    report = {
        "command": "dilate",
        "decomposition_degree": result.decomposition.degree,
        "state_dim": result.alpha_tilde.state_dim,
        "original_state_dim": system.state_dim,
        "signature": list(result.j.signature),
        "u_norm": result.u_norm,
    }
    if args.out:
        bundles.save_bundle(
            bundles.dilation_to_bundle(result, original=system), args.out
        )
        say(f"wrote dilation bundle to {args.out}")
        report["path"] = args.out
    return _finish(args, report, dict(result.defects))


def cmd_realize(args) -> int:
    theta = bundles.series_from_bundle(
        bundles.load_bundle(args.series, bundles.SERIES_FORMAT)
    )
    say = _printer(args)
    res = jconservative_realization(
        theta,
        d=args.degree,
        tol=_abort_tol(args),
        radius=args.radius,
        samples=args.samples,
        seed=args.seed,
    )
    say(
        f"realized state dim {res.system.state_dim}, symmetry signature"
        f" {res.j.signature}, certified radius {res.radius}"
    )
    say(f"||U_full|| = {res.dilation.u_norm:.6e}")
    report = {
        "command": "realize",
        "state_dim": res.system.state_dim,
        "signature": list(res.j.signature),
        "radius": res.radius,
        "io_dims": [res.output_dim, res.input_dim],
        "u_norm": res.dilation.u_norm,
    }
    if args.out:
        bundles.save_bundle(
            bundles.system_to_bundle(
                res.system, j=res.j, metadata={"name": "realization", "seed": args.seed}
            ),
            args.out,
        )
        say(f"wrote system bundle to {args.out}")
        report["path"] = args.out
    checked = {
        "coefficient": res.max_coefficient_residual(),
        "sample": res.sample_residual,
    }
    checked.update(res.dilation.defects)
    return _finish(args, report, checked)


def cmd_verify_dilation(args) -> int:
    system, _, _ = _load_system(args.bundle)
    alpha_tilde, j, stored = bundles.dilation_from_bundle(
        bundles.load_bundle(args.dilation, bundles.DILATION_FORMAT)
    )
    say = _printer(args)
    z_samples = _disk_samples(system.n, args.radius, args.samples, args.seed)
    rep = verify_dilation(system, alpha_tilde, j, z_samples)
    say(
        f"dilation state dim {alpha_tilde.state_dim} over original"
        f" {system.state_dim}; stored build defects"
        f" max {max(stored.values()):.3e}"
    )
    report = {
        "command": "verify-dilation",
        "state_dim": alpha_tilde.state_dim,
        "original_state_dim": system.state_dim,
        "stored_defects": stored,
    }
    return _finish(args, report, dict(rep))


def cmd_gen(args) -> int:
    say = _printer(args)
    j_state = None
    if args.signs:
        if len(args.signs) != args.state_dim or set(args.signs) - {"+", "-"}:
            raise bundles.BundleError(
                f"--signs must be {args.state_dim} characters of '+' or '-'"
            )
        j_state = CanonicalSymmetry.from_signs(
            [1.0 if ch == "+" else -1.0 for ch in args.signs]
        )
    system, j = random_jconservative(
        args.n, args.state_dim, args.input_dim, seed=args.seed, j=j_state
    )
    r1, r2, r3, r4 = jconservativity_defect(system, j)
    bundle = bundles.system_to_bundle(
        system, j=j, metadata={"name": "random-jconservative", "seed": args.seed}
    )
    bundles.save_bundle(bundle, args.out)
    say(
        f"wrote N={args.n} system with dims {system.dims} and signature"
        f" {j.signature} to {args.out}"
    )
    report = {
        "command": "gen",
        "n": args.n,
        "dims": list(system.dims),
        "signature": list(j.signature),
        "seed": args.seed,
        "path": args.out,
    }
    return _finish(args, report, {"r1": r1, "r2": r2, "r3": r3, "r4": r4})


def _stage_tol_pair(stages):
    """argparse type: a NAME=VALUE gate override for one of ``stages``."""

    def parse(text: str):
        name, _, value = text.partition("=")
        name = name.strip()
        if not name or not value:
            raise argparse.ArgumentTypeError("expected NAME=VALUE")
        if name not in stages:
            raise argparse.ArgumentTypeError(
                f"unknown stage {name!r}; valid stages: {', '.join(stages)}"
            )
        try:
            return name, float(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad tolerance {value!r}") from exc

    return parse


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _unit_radius(text: str) -> float:
    """argparse type: a radius in the open interval (0, 1)."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from exc
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreinsys",
        description="Krein-space conservative multiparametric system toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, stages=(), samples=None, certified=False):
        """--tol (defaulting, with ``certified``, to the bound the command certifies)
        and --json; --stage-tol and --seed where ``stages`` names the judged
        residuals (each such command draws from a seed); --samples where it samples."""
        gate = "the certified kernel bound" if certified else "1e-8"
        p.add_argument(
            "--tol", type=float, default=None if certified else 1e-8,
            help=f"residual gate (default {gate})",
        )
        p.add_argument("--json", action="store_true", help="emit one JSON report on stdout")
        if stages:
            p.add_argument(
                "--stage-tol",
                action="append",
                type=_stage_tol_pair(stages),
                metavar="NAME=VAL",
                help=f"override the gate for one of {', '.join(stages)} (repeatable)",
            )
            p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
        if samples:
            p.add_argument(
                "--samples",
                type=_int_at_least(1),
                default=samples,
                help=f"sample count (default {samples})",
            )

    p = sub.add_parser("check", help="conservativity defects and torus unitarity")
    p.add_argument("bundle", help="system bundle (JSON)")
    common(p, ("r1", "r2", "r3", "r4", "torus"), samples=50)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="lattice run with energy balance report")
    p.add_argument("bundle", help="system bundle (JSON)")
    p.add_argument(
        "--levels", type=_int_at_least(0), default=10, help="levels to evolve (default 10)"
    )
    p.add_argument(
        "--input",
        choices=("impulse", "random"),
        default="impulse",
        help="input signal (default impulse at the origin)",
    )
    common(p, ("balance",))
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("transfer", help="evaluate the transfer function or its Taylor series")
    p.add_argument("bundle", help="system bundle (JSON)")
    p.add_argument("--at", help="evaluation point, comma-separated complex coordinates")
    p.add_argument(
        "--degree",
        type=_int_at_least(1),
        help="also list Taylor coefficients through this degree",
    )
    p.add_argument("--json", action="store_true", help="emit one JSON report on stdout")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("decompose", help="certified kernel decomposition of the pencil")
    p.add_argument("bundle", help="system bundle (JSON)")
    p.add_argument("--epsilon", type=float, help="scale (default max(1, N max ||G_k||))")
    p.add_argument(
        "--degree", type=_int_at_least(1), default=12, help="truncation degree (default 12)"
    )
    p.add_argument(
        "--radius", type=_unit_radius, default=0.5, help="certified radius (default 0.5)"
    )
    p.add_argument("--out", help="write the decomposition bundle here")
    common(p, ("kernel",), samples=200, certified=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("dilate", help="conservative dilation pipeline")
    p.add_argument("bundle", help="system bundle (JSON)")
    p.add_argument(
        "--degree", type=_int_at_least(1), default=20, help="decomposition degree (default 20)"
    )
    p.add_argument(
        "--radius", type=_unit_radius, default=0.5, help="certified radius (default 0.5)"
    )
    p.add_argument("--out", help="write the dilation bundle here")
    common(p, DEFECT_NAMES, samples=100)
    p.set_defaults(func=cmd_dilate)

    p = sub.add_parser("realize", help="conservative realization of a series")
    p.add_argument("series", help="series bundle (JSON)")
    p.add_argument(
        "--degree",
        type=_int_at_least(1),
        help="input truncation degree (default: series degree)",
    )
    p.add_argument(
        "--radius", type=_unit_radius, default=0.5, help="certified radius (default 0.5)"
    )
    p.add_argument("--out", help="write the realized system bundle here")
    common(p, ("coefficient", "sample", *DEFECT_NAMES), samples=100)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("verify-dilation", help="re-check a stored dilation against its system")
    p.add_argument("bundle", help="original system bundle (JSON)")
    p.add_argument("dilation", help="dilation bundle (JSON)")
    p.add_argument(
        "--radius", type=_unit_radius, default=0.5, help="sampling radius (default 0.5)"
    )
    common(p, ("compression", "transfer", "conservativity"), samples=100)
    p.set_defaults(func=cmd_verify_dilation)

    p = sub.add_parser("gen", help="generate a random conservative system bundle")
    p.add_argument(
        "--n", type=_int_at_least(1), default=2, help="number of directions (default 2)"
    )
    p.add_argument(
        "--state-dim", type=_int_at_least(0), default=2, help="state dimension (default 2)"
    )
    p.add_argument(
        "--input-dim", type=_int_at_least(0), default=2, help="input dimension (default 2)"
    )
    p.add_argument("--signs", help="state symmetry as '+'/'-' characters, e.g. '+-'")
    p.add_argument("--out", required=True, help="write the system bundle here")
    common(p, ("r1", "r2", "r3", "r4"))
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    args.stage_tol = dict(getattr(args, "stage_tol", None) or [])
    try:
        return args.func(args)
    except bundles.BundleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # load_bundle wraps its own, so this is a failed --out
        print(f"error: cannot write {getattr(args, 'out', '')}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except (ResolventError, ValueError) as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return EXIT_RESIDUAL


if __name__ == "__main__":
    sys.exit(main())
