"""Acceptance gate: one test and one printed verdict line per criterion.

Run with -s to see the verdict lines; under -v each criterion shows up
as one PASSED/FAILED row.  Tolerances are pinned in the assertions.
"""

import numpy as np

from kreinsys.agler import (
    construct_pencil_decomposition,
    derived_zero_identities,
    epsilon_bounds,
    transform_identities,
    verify_kernel_identity,
)
from kreinsys.dilation import build_dilation
from kreinsys.krein import (
    CanonicalSymmetry,
    SignatureMismatchError,
    extend_j_isometry,
    j_companion_basis,
    j_unitarity_defect,
    opnorm,
    random_j_unitary,
    signature,
)
from kreinsys.lattice import (
    LatticeSignal,
    coefficient_defect_probe,
    energy_balance_report,
    simulate,
)
from kreinsys.realize import jconservative_realization
from kreinsys.systems import (
    MultiparametricSystem,
    conjugate_system,
    jconservativity_defect,
    random_jconservative,
    system_from_operators,
    system_operators,
)
from kreinsys.transfer import TruncatedOperatorSeries, eval_transfer, taylor_coefficients

import pytest

from oracles import interpolated_coefficient
from test_lattice import random_input, unit_impulse
from test_systems import hyperbolic_system, matrix_unit_system


def _criterion(num: int, label: str, checks):
    """checks: (name, value, bound) triples; prints one verdict line."""
    bad = [(n, v, b) for n, v, b in checks if not (v <= b)]
    print(f"[criterion {num}] {'FAIL' if bad else 'PASS'}: {label}")
    assert not bad, f"criterion {num}: " + "; ".join(
        f"{n} = {v:.3e} exceeds {b:.1e}" for n, v, b in bad
    )


def test_criterion_1_hyperbolic_benchmark():
    system, j = hyperbolic_system()
    checks = [("conservativity", max(jconservativity_defect(system, j)), 1e-12)]
    for tag, s in (("fwd", system), ("adj", conjugate_system(system))):
        traj = simulate(s, LatticeSignal(1, 1), unit_impulse(1, 1), 20)
        checks.append((f"impulse-{tag}", energy_balance_report(traj, j).max_residual, 1e-10))
        u = random_input(1, 1, levels=20, seed=17 if tag == "fwd" else 18, scale=0.05)
        traj = simulate(s, LatticeSignal(1, 1), u, 20)
        checks.append((f"random-{tag}", energy_balance_report(traj, j).max_residual, 1e-10))
    theta_half = eval_transfer(system, [0.5])[0, 0]
    checks.append(("theta(1/2)=1", abs(theta_half - 1.0), 1e-12))
    _criterion(1, "hyperbolic benchmark", checks)


def test_criterion_2_matrix_unit_benchmark():
    system, j = matrix_unit_system()
    checks = [("conservativity", max(jconservativity_defect(system, j)), 1e-12)]
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        z = 0.99 * np.sqrt(rng.uniform(size=2)) * np.exp(2j * np.pi * rng.uniform(size=2))
        worst = max(worst, abs(eval_transfer(system, z)[0, 0] - z[1]))
    checks.append(("theta=z2 over polydisk", worst, 1e-12))
    lo, hi = epsilon_bounds(system_operators(system))
    checks.append(("epsilon window (1,2)", max(abs(lo - 1.0), abs(hi - 2.0)), 1e-10))
    _criterion(2, "matrix-unit benchmark", checks)


def test_criterion_3_balance_equivalence():
    worst_balance = 0.0
    worst_ratio = np.inf
    delta = 1e-3
    for i in range(20):
        rng = np.random.default_rng(3000 + i)
        n = int(rng.integers(1, 4))
        dx = int(rng.integers(max(1, n - 2), 5))
        du = int(rng.integers(max(1, n - dx), 5))
        s, j = random_jconservative(n, dx, du, seed=3100 + i)
        for tag, sys_i in (("fwd", s), ("adj", conjugate_system(s))):
            u = random_input(n, du, levels=5, seed=3200 + i, scale=0.05)
            rep = energy_balance_report(simulate(sys_i, LatticeSignal(n, dx), u, 10), j)
            worst_balance = max(worst_balance, rep.max_residual)
        k = i % n
        pert = rng.normal(size=(du, du)) + 1j * rng.normal(size=(du, du))
        pert *= delta / opnorm(pert)
        d_blocks = list(s.d)
        d_blocks[k] = d_blocks[k] + pert
        s_pert = MultiparametricSystem(n=n, a=s.a, b=s.b, c=s.c, d=tuple(d_blocks))
        detected = max(coefficient_defect_probe(s_pert, j))
        worst_ratio = min(worst_ratio, detected / delta)
    checks = [
        ("balance residual (20 systems, fwd+adj)", worst_balance, 1e-10),
        ("detection shortfall 0.1*delta/probe", 0.1 / worst_ratio, 1.0),
    ]
    _criterion(3, "energy balance equivalence and violation detection", checks)


def test_criterion_4_kernel_certificate():
    rng = np.random.default_rng(4)
    checks = []
    for name, (system, _) in (
        ("hyperbolic", hyperbolic_system()),
        ("matrix-unit", matrix_unit_system()),
    ):
        g = system_operators(system)
        _, hi = epsilon_bounds(g)
        eps = max(1.0, hi)
        dec = construct_pencil_decomposition(g, eps, 12, radius=0.5)
        s = 0.5 / np.sqrt(2.0)
        pairs = [
            (
                s * (rng.uniform(-1, 1, g.n) + 1j * rng.uniform(-1, 1, g.n)),
                s * (rng.uniform(-1, 1, g.n) + 1j * rng.uniform(-1, 1, g.n)),
            )
            for _ in range(200)
        ]
        kernel = verify_kernel_identity(g, dec, pairs)
        checks.append((f"{name} kernel residual", kernel, min(1e-6, dec.eta)))
        zero_ids = max(derived_zero_identities(dec).values())
        checks.append((f"{name} zero identities", zero_ids, min(1e-6, dec.eta)))
        transforms = max(transform_identities(dec, g, pairs).values())
        checks.append((f"{name} transform identities", transforms, min(1e-6, dec.eta)))
        dec24 = construct_pencil_decomposition(g, eps, 24, radius=0.5)
        kernel24 = verify_kernel_identity(g, dec24, pairs)
        checks.append((f"{name} doubling shortfall 8*r24/r12", 8 * kernel24 / kernel, 1.0))
    _criterion(4, "certified kernel decomposition", checks)


def test_criterion_5_dilation_pipeline():
    checks = []

    system, _ = hyperbolic_system()
    res = build_dilation(system, 24, radius=0.5, tol=1e-6, samples=100, seed=5)
    checks.append(("hyperbolic all defects", res.max_defect(), 1e-6))
    checks.append(("hyperbolic compression", res.defects["compression"], 1e-12))
    checks.append(("hyperbolic transfer (100 samples)", res.defects["transfer-coincidence"], 1e-6))
    check_sys = system_from_operators(res.check_operators)
    checks.append(
        (
            "hyperbolic check-system coefficients",
            max(jconservativity_defect(check_sys, res.k0_symmetry)),
            1e-8,
        )
    )
    checks.append(
        ("hyperbolic dilation coefficients", max(jconservativity_defect(res.alpha_tilde, res.j)), 1e-8)
    )

    system, _ = matrix_unit_system()
    res = build_dilation(system, 4, radius=0.5, tol=1e-10, samples=100, seed=5)
    checks.append(("matrix-unit all defects", res.max_defect(), 1e-6))
    checks.append(("matrix-unit compression", res.defects["compression"], 1e-12))
    checks.append(
        ("matrix-unit coefficients", max(jconservativity_defect(res.alpha_tilde, res.j)), 1e-8)
    )
    checks.append(("matrix-unit negative signature", float(res.j.signature[1]), 0.0))
    _criterion(5, "conservative dilation pipeline", checks)


def test_criterion_6_realization_pipeline():
    checks = []

    product = TruncatedOperatorSeries(n=2, degree=2, coefficients={(1, 1): [[1.0]]})
    res = jconservative_realization(product, tol=1e-4, seed=6)
    checks.append(("z1z2 coefficients", res.max_coefficient_residual(), 1e-12))
    checks.append(
        ("z1z2 conservativity", max(jconservativity_defect(res.system, res.j)), 1e-8)
    )
    checks.append(("z1z2 samples", res.sample_residual, 1e-5))

    coeffs = {(1,): [[1.25]]}
    for m in range(2, 9):
        coeffs[(m,)] = [[0.5625 * 1.25 ** (m - 2)]]
    hyp_theta = TruncatedOperatorSeries(n=1, degree=8, coefficients=coeffs)
    res = jconservative_realization(hyp_theta, tol=1e-4, seed=6)
    checks.append(("hyperbolic-theta coefficients", res.max_coefficient_residual(), 1e-12))
    checks.append(
        ("hyperbolic-theta conservativity", max(jconservativity_defect(res.system, res.j)), 1e-8)
    )
    checks.append(("hyperbolic-theta samples", res.sample_residual, 1e-5))
    _criterion(6, "conservative realization pipeline", checks)


def test_criterion_7_oracle_equivalence():
    worst_interp = 0.0
    worst_impulse = 0.0
    for i in range(20):
        rng = np.random.default_rng(7000 + i)
        n = int(rng.integers(1, 4))
        dx = int(rng.integers(max(1, n - 2), 5))
        du = int(rng.integers(max(1, n - dx), 5))
        d = int(rng.integers(1, 6))
        s, _ = random_jconservative(n, dx, du, seed=7100 + i)
        series = taylor_coefficients(s, d)
        indices = [t for t in series.coefficients if sum(t) >= 1]
        if n == 3 and len(indices) > 6:
            picks = rng.choice(len(indices), size=6, replace=False)
            indices = [indices[p] for p in picks]
        for t in indices:
            # rho 0.1 keeps the grid inside the series' convergence region
            # for the operator norms these seeds produce (up to ~3.1), and
            # |t|+18 points push aliasing below 1e-11 while rho^{-|t|}
            # amplifies value roundoff to at most ~1e-10
            oracle = interpolated_coefficient(s, t, rho=0.1, grid=sum(t) + 18)
            worst_interp = max(worst_interp, opnorm(series.coefficient(t) - oracle))
        traj = simulate(s, LatticeSignal(n, dx), unit_impulse(n, du), d)
        for t in series.coefficients:
            if sum(t) < 1:
                continue
            expected = series.coefficient(t)[:, 0]
            worst_impulse = max(worst_impulse, float(np.max(np.abs(traj.y[t] - expected))))
    checks = [
        ("taylor vs interpolation", worst_interp, 1e-9),
        ("impulse response vs taylor", worst_impulse, 1e-10),
    ]
    _criterion(7, "independent transfer oracles agree", checks)


def test_criterion_8_krein_extension():
    worst_unitarity = 0.0
    worst_restrict = 0.0
    mismatches = 0
    for i in range(50):
        rng = np.random.default_rng(8000 + i)
        nn = int(rng.integers(2, 7))
        signs = rng.choice([1.0, -1.0], size=nn)
        j = CanonicalSymmetry.from_signs(signs)
        w = random_j_unitary(j, j, rng)
        r = int(rng.integers(1, nn))
        u = w[:, :r]
        u_full = extend_j_isometry(np.eye(nn, dtype=complex)[:, :r], j, u, j)
        worst_unitarity = max(worst_unitarity, max(j_unitarity_defect(u_full, j, j)))
        worst_restrict = max(worst_restrict, float(np.max(np.abs(u_full[:, :r] - u))))

        # mismatched companion signatures must be rejected with the pads
        # that brute-force eigenvalue counts demand
        sa = np.concatenate([[1.0], rng.choice([1.0, -1.0], size=nn - 1)])
        sb = np.concatenate([[1.0], rng.choice([1.0, -1.0], size=nn - 1)])
        if np.sum(sa[1:] > 0) == np.sum(sb[1:] > 0):
            sb[1] = -sb[1]
        ja, jb = CanonicalSymmetry.from_signs(sa), CanonicalSymmetry.from_signs(sb)
        e1 = np.eye(nn, dtype=complex)[:, :1]
        wa = j_companion_basis(e1, ja)
        wb = j_companion_basis(e1, jb)
        pa, qa, _ = signature(wa.conj().T @ ja.matrix @ wa)
        pb, qb, _ = signature(wb.conj().T @ jb.matrix @ wb)
        with pytest.raises(SignatureMismatchError) as info:
            extend_j_isometry(e1, ja, e1.copy(), jb)
        mismatches += 1
        assert info.value.pad_dom == (max(0, pb - pa), max(0, qb - qa))
        assert info.value.pad_ran == (max(0, pa - pb), max(0, qa - qb))
    assert mismatches == 50
    checks = [
        ("extension unitarity (50 seeds)", worst_unitarity, 1e-10),
        ("extension restriction (50 seeds)", worst_restrict, 1e-10),
    ]
    _criterion(8, "indefinite isometry extension", checks)
