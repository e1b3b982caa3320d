"""Independent correctness checks of the bundles and reports a workload wrote.

Nothing here imports kreinsys: the bundles are parsed with `json` and every
identity is re-evaluated with numpy at points the program never saw.
Each check yields a residual and the bound it must stay within;
`run_checks` gives them all for one workload.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import (
    PIPELINE_TOL,
    SERIES_DEGREE,
    SIMULATE_LEVELS,
    SYSTEM_FILE,
    TAYLOR_DEGREE,
    bundle_name,
    hyperbolic_coefficient,
)

ROUNDOFF_BOUND = 1e-10  # identities the construction makes exact
UNITARITY_BOUND = 1e-9  # J-unitarity of a pencil on the torus, state up to ~520
CONSERVATIVITY_BOUND = 1e-8  # r1-r4 and the energy balance of the N=2 bundle
ENERGY_FLOOR = 0.1  # least input and output energy summed over levels; the random input gives ~0.5 and ~600
TAYLOR_RADIUS = 0.05  # |z_k| of the points the degree-8 Taylor sums are compared at
TAYLOR_BOUND = 1e-9  # the degree-9 tail of the N=2 bundle there is at most 5.4e-10
CHECK_POINTS = 8


@dataclass
class System:
    n: int
    a: list
    b: list
    c: list
    d: list
    j: np.ndarray | None

    @property
    def state_dim(self) -> int:
        return self.a[0].shape[0]


def _matrix(rows, shape) -> np.ndarray:
    arr = np.asarray(rows, dtype=np.float64)
    if arr.size == 0:
        return np.zeros(shape, dtype=np.complex128)
    return (arr[..., 0] + 1j * arr[..., 1]).reshape(shape)


def parse_system(data: dict) -> System:
    dims = data["dims"]
    dx, du, dy = dims["state"], dims["input"], dims["output"]
    shapes = {"a": (dx, dx), "b": (dx, du), "c": (dy, dx), "d": (dy, du)}
    blocks = {k: [_matrix(m, shape) for m in data[k]] for k, shape in shapes.items()}
    j = _matrix(data["j"], (dx, dx)) if data.get("j") is not None else None
    return System(n=data["n"], j=j, **blocks)


def _mix(blocks, z):
    return sum(zk * m for zk, m in zip(z, blocks))


def pencil(system: System, z) -> np.ndarray:
    return np.block([[_mix(system.a, z), _mix(system.b, z)], [_mix(system.c, z), _mix(system.d, z)]])


def transfer(system: System, z) -> np.ndarray:
    """theta(z) = zD + zC (I - zA)^{-1} zB by one linear solve."""
    za = _mix(system.a, z)
    solved = np.linalg.solve(np.eye(za.shape[0]) - za, _mix(system.b, z))
    return _mix(system.d, z) + _mix(system.c, z) @ solved


def norm(m) -> float:
    return float(np.linalg.norm(m, 2)) if np.size(m) else 0.0


def _io_symmetries(system: System):
    j = system.j if system.j is not None else np.eye(system.state_dim)
    din, dout = system.b[0].shape[1], system.c[0].shape[0]
    j_in = np.block([[j, np.zeros((len(j), din))], [np.zeros((din, len(j))), np.eye(din)]])
    j_out = np.block([[j, np.zeros((len(j), dout))], [np.zeros((dout, len(j))), np.eye(dout)]])
    return j, j_in, j_out


def torus_unitarity(system: System, rng) -> float:
    """Worst (J (+) I)-unitarity defect of sum_k zeta_k G_k at fresh torus points.

    Also measures how far the stored J is from a signature operator
    (J = J*, J^2 = I), since unitarity for a wrong J proves nothing.
    """
    j, j_in, j_out = _io_symmetries(system)
    worst = max(norm(j - j.conj().T), norm(j @ j - np.eye(len(j))))
    for _ in range(4):
        zeta = np.exp(2j * np.pi * rng.uniform(size=system.n))
        g = pencil(system, zeta)
        worst = max(worst, norm(g.conj().T @ j_out @ g - j_in), norm(g @ j_in @ g.conj().T - j_out))
    return worst


def polydisk_points(rng, n: int, radius: float, count: int) -> np.ndarray:
    """Points with |z_k| <= radius, drawn from the square inscribed in each disk."""
    s = radius / np.sqrt(2.0)
    return s * (rng.uniform(-1, 1, (count, n)) + 1j * rng.uniform(-1, 1, (count, n)))


def conservativity(system: System) -> float:
    """max(r1..r4): the four coefficient conditions of J-conservativity."""
    _, j_in, j_out = _io_symmetries(system)
    g = [pencil(system, np.eye(system.n)[k]) for k in range(system.n)]
    r = [
        norm(sum(gk.conj().T @ j_out @ gk for gk in g) - j_in),
        norm(sum(gk @ j_in @ gk.conj().T for gk in g) - j_out),
    ]
    for k in range(system.n):
        for l in range(system.n):
            if k != l:
                r.append(norm(g[k].conj().T @ j_out @ g[l]))
                r.append(norm(g[k] @ j_in @ g[l].conj().T))
    return max(r)


def _read(path: Path) -> dict:
    return json.loads(path.read_text())


def _reports(workdir: Path, rep: int) -> list:
    return _read(workdir / f"reports-{rep}.json")


def report_verdicts(workdir: Path, reps: int) -> float:
    """Number of subcommands, over all repetitions, without exit 0 and "pass": true."""
    bad = 0
    for rep in range(reps):
        for entry in _reports(workdir, rep):
            report = entry["report"]
            if entry["exit"] != 0 or not isinstance(report, dict) or report.get("pass") is not True:
                bad += 1
    return float(bad)


def repeatability(workdir: Path, workload: str, reps: int) -> float:
    """Number of repetitions whose bundle differs byte for byte from repetition 0's."""
    digests = []
    for rep in range(reps):
        path = workdir / bundle_name(workload, rep)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None)
    return float(sum(d != digests[0] or d is None for d in digests))


def check_dilation(workdir: Path, seed: int) -> dict:
    original = parse_system(_read(workdir / SYSTEM_FILE))
    bundle = _read(workdir / bundle_name("dilate-n2-d20", 0))
    dilated = parse_system(bundle["system"])
    lead = dilated.state_dim - original.state_dim
    corner = 0.0
    for k in range(original.n):
        corner = max(
            corner,
            norm(dilated.a[k][lead:, lead:] - original.a[k]),
            norm(dilated.b[k][lead:, :] - original.b[k]),
            norm(dilated.c[k][:, lead:] - original.c[k]),
            norm(dilated.d[k] - original.d[k]),
        )
    rng = np.random.default_rng([seed, 1])
    unitarity = torus_unitarity(dilated, rng)
    coincidence = max(
        norm(transfer(dilated, z) - transfer(original, z))
        for z in polydisk_points(rng, original.n, 0.5, CHECK_POINTS)
    )
    return {
        "corner-blocks": (corner, ROUNDOFF_BOUND),
        "torus-unitarity": (unitarity, UNITARITY_BOUND),
        "transfer-coincidence": (coincidence, PIPELINE_TOL),
    }


def check_realization(workdir: Path, seed: int) -> dict:
    realized = parse_system(_read(workdir / bundle_name("realize-hyp8", 0)))
    a, b, c, d = realized.a[0], realized.b[0], realized.c[0], realized.d[0]
    coefficient = abs(d[0, 0] - hyperbolic_coefficient(1))
    power = b
    for m in range(2, SERIES_DEGREE + 1):
        coefficient = max(coefficient, abs((c @ power)[0, 0] - hyperbolic_coefficient(m)))
        power = a @ power
    rng = np.random.default_rng([seed, 2])
    return {
        "coefficients": (float(coefficient), ROUNDOFF_BOUND),
        "torus-unitarity": (torus_unitarity(realized, rng), UNITARITY_BOUND),
    }


def _by_command(reports: list) -> dict:
    return {entry["command"]: entry["report"] or {} for entry in reports}


def parse_decomposition(data: dict) -> list:
    """Per component: the row signs of J_k and the (multi-index, coefficient) pairs of F_k."""
    parsed = []
    for component in data["components"]:
        signs = np.r_[np.ones(component["m_plus"]), -np.ones(component["m_minus"])]
        terms = [
            (np.asarray(t), np.asarray(re) + 1j * np.asarray(im))
            for t, re, im in component["coefficients"]
        ]
        parsed.append((signs, terms))
    return parsed


def kernel_residual(system: System, components: list, lam, z) -> float:
    """Residual of I - (lG)*(zG) - sum_k (1 - conj(l_k) z_k) F_k(l)* J_k F_k(z)."""

    def value(terms, w):
        return sum(np.prod(w**t) * m for t, m in terms)

    lg, zg = pencil(system, lam), pencil(system, z)
    acc = np.eye(lg.shape[1]) - lg.conj().T @ zg
    for k, (signs, terms) in enumerate(components):
        fl, fz = value(terms, lam), value(terms, z)
        acc = acc - (1.0 - np.conj(lam[k]) * z[k]) * (fl.conj().T @ (signs[:, None] * fz))
    return norm(acc)


def taylor_coefficients(system: System, degree: int) -> dict:
    """Coefficients of theta through ``degree``, keyed by multi-index.

    theta(z) = zD + sum_n zC (zA)^n zB, so with P_t the coefficient of
    (I - zA)^{-1} zB (P_{e_k} = B_k, P_t = sum_k A_k P_{t-e_k}) the
    coefficient of z^t is D_k for t = e_k and sum_k C_k P_{t-e_k} above.
    """
    unit = [tuple(int(i == k) for i in range(system.n)) for k in range(system.n)]

    def minus(t, k):
        return tuple(c - (i == k) for i, c in enumerate(t)) if t[k] else None

    p = {e: system.b[k] for k, e in enumerate(unit)}
    coeffs = {(0,) * system.n: np.zeros_like(system.d[0])}
    coeffs.update({e: system.d[k] for k, e in enumerate(unit)})
    level = list(unit)
    for _ in range(2, degree + 1):
        grown = sorted({tuple(c + (i == k) for i, c in enumerate(t)) for t in level for k in range(system.n)})
        for t in grown:
            parts = [(k, minus(t, k)) for k in range(system.n) if minus(t, k) in p]
            coeffs[t] = sum(system.c[k] @ p[s] for k, s in parts)
            p[t] = sum(system.a[k] @ p[s] for k, s in parts)
        level = grown
    return coeffs


def check_analysis(workdir: Path, seed: int) -> dict:
    system = parse_system(_read(workdir / SYSTEM_FILE))
    reports = _by_command(_reports(workdir, 0))
    rng = np.random.default_rng([seed, 3])

    stated = reports["check"].get("residuals", {})
    r_reported = max((stated.get(name, np.inf) for name in ("r1", "r2", "r3", "r4")), default=np.inf)
    r_max = max(conservativity(system), r_reported)

    rows = reports["simulate"].get("levels", [])
    balance = reports["simulate"].get("residuals", {}).get("balance", np.inf)
    if len(rows) != SIMULATE_LEVELS + 1:
        balance = np.inf
    # a balance of zero proves nothing unless energy actually moved
    for key in ("input_energy", "output_energy"):
        if sum(row[key] for row in rows) < ENERGY_FLOOR:
            balance = np.inf
    for prev, cur in zip(rows, rows[1:]):
        signed = (cur["state_j_energy"] - prev["state_j_energy"]) - (
            prev["input_energy"] - cur["output_energy"]
        )
        balance = max(balance, abs(signed), abs(signed - cur["signed_residual"]))

    reported = {
        tuple(t): _matrix(m, np.shape(m)[:2])
        for t, m in reports["transfer"].get("taylor", {}).get("coefficients", [])
    }
    taylor = np.inf if not reported else 0.0
    for z in polydisk_points(rng, system.n, TAYLOR_RADIUS, CHECK_POINTS) if reported else []:
        summed = sum(np.prod(z ** np.asarray(t)) * m for t, m in reported.items())
        taylor = max(taylor, norm(summed - transfer(system, z)))
    expected = taylor_coefficients(system, TAYLOR_DEGREE)
    zero = np.zeros_like(system.d[0])
    coefficient = np.inf if not reported else 0.0
    for t in set(expected) | set(reported) if reported else ():
        want = expected.get(t, zero)
        coefficient = max(coefficient, norm(reported.get(t, zero) - want) / max(1.0, norm(want)))

    dec = _read(workdir / bundle_name("analyze-n2", 0))
    cert = dec["certificate"]
    components = parse_decomposition(dec)
    kernel = max(
        kernel_residual(system, components, lam, z)
        for lam, z in zip(
            polydisk_points(rng, system.n, cert["r"], CHECK_POINTS),
            polydisk_points(rng, system.n, cert["r"], CHECK_POINTS),
        )
    )
    return {
        "conservativity": (float(r_max), CONSERVATIVITY_BOUND),
        "energy-balance": (float(balance), CONSERVATIVITY_BOUND),
        "taylor-values": (float(taylor), TAYLOR_BOUND),
        "taylor-coefficients": (float(coefficient), ROUNDOFF_BOUND),
        "kernel-identity": (kernel, float(cert["eta"])),
    }


CHECKERS = {
    "dilate-n2-d20": check_dilation,
    "realize-hyp8": check_realization,
    "analyze-n2": check_analysis,
}


def run_checks(workload: str, workdir: Path, seed: int, reps: int) -> dict:
    """Every check of one workload as {name: {"value", "bound", "ok"}}."""
    found = {
        "reports-pass": (report_verdicts(workdir, reps), 0.0),
        "repeatable-bundles": (repeatability(workdir, workload, reps), 0.0),
    }
    try:
        found.update(CHECKERS[workload](workdir, seed))
    except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
        print(f"outputs of {workload} do not parse: {exc!r}", file=sys.stderr)
        found["outputs-parse"] = (float("inf"), 0.0)
    return {
        name: {"value": value, "bound": bound, "ok": bool(value <= bound)}
        for name, (value, bound) in found.items()
    }

