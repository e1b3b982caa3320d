"""Realization pipeline walkthrough: series in, conservative system out.

Realizes two truncated series as corner transfer functions of
J-conservative systems: the monomial z1 z2 and the degree-8 truncation
of the hyperbolic benchmark's one-variable transfer function.  Reports
the coefficient match (exact through the input degree), the sampled
evaluation residual on the certified polydisk, and the conservativity
of the delivered system.
"""

import numpy as np

from kreinsys import (
    TruncatedOperatorSeries,
    eval_series,
    jconservative_realization,
    jconservativity_defect,
)


def report(name, theta, seed=0):
    res = jconservative_realization(theta, tol=1e-4, seed=seed)
    print(f"{name}: degree {theta.degree}, shape {theta.shape}")
    print(
        f"  realized state dim {res.system.state_dim},"
        f" symmetry signature {res.j.signature}"
    )
    print(f"  max Taylor coefficient residual = {res.max_coefficient_residual():.2e}")
    print(f"  sampled evaluation residual (radius {res.radius}) = {res.sample_residual:.2e}")
    worst = max(jconservativity_defect(res.system, res.j))
    print(f"  conservativity defect of the realization = {worst:.2e}")
    rng = np.random.default_rng(7)
    z = res.radius / np.sqrt(2) * (
        rng.uniform(-1, 1, theta.n) + 1j * rng.uniform(-1, 1, theta.n)
    )
    got = res.corner_transfer(z)[0, 0]
    want = eval_series(theta, z)[0, 0]
    print(f"  spot check at a random point: |theta_real - theta_input| = {abs(got - want):.2e}")
    print()


def main():
    product = TruncatedOperatorSeries(n=2, degree=2, coefficients={(1, 1): [[1.0]]})
    report("z1 z2", product)

    coeffs = {(1,): [[1.25]]}
    for m in range(2, 9):
        coeffs[(m,)] = [[0.5625 * 1.25 ** (m - 2)]]
    hyp = TruncatedOperatorSeries(n=1, degree=8, coefficients=coeffs)
    report("hyperbolic transfer truncated at degree 8", hyp)


if __name__ == "__main__":
    main()
