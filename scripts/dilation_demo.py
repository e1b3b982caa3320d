"""Dilation pipeline walkthrough on the two benchmark systems.

Dilates the hyperbolic benchmark at a ladder of decomposition degrees,
showing that the exactly enforced stages (compression, coefficient
conservativity) sit at roundoff while the transfer coincidence decays
with the decomposition tail like radius^(degree + 1).  The matrix-unit
benchmark then runs through the exact branch, where the dilation is a
plain unitary system.
"""

import numpy as np

from kreinsys import (
    CanonicalSymmetry,
    MultiparametricSystem,
    build_dilation,
    eval_transfer,
    jconservativity_defect,
)


def hyperbolic_ladder():
    system = MultiparametricSystem(
        n=1, a=([[1.25]],), b=([[0.75]],), c=([[0.75]],), d=([[1.25]],)
    )
    print("hyperbolic benchmark: G = [[5/4, 3/4], [3/4, 5/4]], J = (-1)")
    print(f"{'degree':>6} {'eta':>10} {'state':>6} {'neg':>4} "
          f"{'lin-tf':>10} {'transfer':>10} {'conserv':>10}")
    for degree in (12, 16, 20, 24):
        res = build_dilation(system, degree, radius=0.5, tol=1e-2, samples=100, seed=0)
        d = res.defects
        print(
            f"{degree:>6} {res.decomposition.eta:>10.2e} {res.alpha_tilde.state_dim:>6}"
            f" {res.j.signature[1]:>4} {d['lin-tf']:>10.2e}"
            f" {d['transfer-coincidence']:>10.2e} {d['conservativity']:>10.2e}"
        )
    theta = eval_transfer(res.alpha_tilde, [0.5])[0, 0]
    print(f"dilated theta(1/2) = {theta:.12f} (original value 1)")
    print()


def matrix_unit_exact():
    system = MultiparametricSystem(
        n=2,
        a=([[1.0]], [[0.0]]),
        b=([[0.0]], [[0.0]]),
        c=([[0.0]], [[0.0]]),
        d=([[0.0]], [[1.0]]),
    )
    res = build_dilation(system, 4, radius=0.5, tol=1e-10, samples=100, seed=0)
    dec = res.decomposition
    print("matrix-unit benchmark (exact branch)")
    print(f"decomposition exact = {dec.exact}, eta = {dec.eta}")
    print(
        f"dilated state dim {res.alpha_tilde.state_dim},"
        f" symmetry signature {res.j.signature} (plain unitary)"
    )
    print(f"max build defect = {res.max_defect():.2e}")
    worst = max(jconservativity_defect(res.alpha_tilde, res.j))
    print(f"coefficient conservativity of the dilation = {worst:.2e}")
    rng = np.random.default_rng(0)
    z = 0.9 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) / np.sqrt(2)
    print(f"theta_dilation(z) - z2 at a sample point: "
          f"{abs(eval_transfer(res.alpha_tilde, z)[0, 0] - z[1]):.2e}")


def main():
    hyperbolic_ladder()
    matrix_unit_exact()


if __name__ == "__main__":
    main()
