"""Independent oracles used to pin down derived test values.

Everything here is deliberately brute force: explicit word sums for
Taylor coefficients, tensor-grid Fourier interpolation of pointwise
transfer evaluations, and direct kernel sums.  The package must agree
with these, not the other way around.
"""

import functools
import itertools
import math

import numpy as np

from kreinsys.systems import MultiparametricSystem
from kreinsys.transfer import eval_transfer


def words_coefficient(system: MultiparametricSystem, t) -> np.ndarray:
    """theta_hat_t by explicit enumeration of operator words.

    |t| = 1: D_k for t = e_k.  |t| = m >= 2: sum over words
    (k_0, ..., k_{m-1}) with direction counts t of
    C_{k_0} A_{k_1} ... A_{k_{m-2}} B_{k_{m-1}}.
    """
    t = tuple(int(c) for c in t)
    m = sum(t)
    dy, du = system.output_dim, system.input_dim
    if m == 1:
        k = t.index(1)
        return np.array(system.d[k])
    acc = np.zeros((dy, du), dtype=np.complex128)
    for word in itertools.product(range(system.n), repeat=m):
        counts = tuple(word.count(k) for k in range(system.n))
        if counts != t:
            continue
        mat = np.array(system.c[word[0]])
        for k in word[1:-1]:
            mat = mat @ system.a[k]
        acc += mat @ system.b[word[-1]]
    return acc


def word_count(t) -> int:
    """Number of direction words with counts t: |t|! / prod t_j!."""
    t = tuple(int(c) for c in t)
    total = math.factorial(sum(t))
    for c in t:
        total //= math.factorial(c)
    return total


@functools.lru_cache(maxsize=4)
def _grid_values(system: MultiparametricSystem, rho: float, big_l: int) -> np.ndarray:
    """theta on the tensor grid z(m) = rho * omega^m, m in itertools.product order.

    Every multi-index of a level reads the same grid, so the whole grid is
    evaluated once per (system, rho, L), in one batched call, rather than
    once per multi-index.
    """
    omega = np.exp(2j * np.pi / big_l)
    grid = np.array(list(itertools.product(range(big_l), repeat=system.n)), dtype=np.float64)
    return eval_transfer(system, rho * omega**grid)


def interpolated_coefficient(system: MultiparametricSystem, t, rho=0.15, grid=None) -> np.ndarray:
    """theta_hat_t from pointwise evaluations on a scaled Fourier grid.

    Samples theta on the tensor grid z(m) = rho * omega^m with
    omega = exp(2 pi i / L) and inverts the discrete Fourier sum.  The
    grid size L controls aliasing: degrees that fold onto t are damped
    by rho^L relative to rho^{|t|}.
    """
    t = tuple(int(c) for c in t)
    n = system.n
    depth = sum(t)
    big_l = grid if grid is not None else depth + 16
    omega = np.exp(2j * np.pi / big_l)
    acc = np.zeros((system.output_dim, system.input_dim), dtype=np.complex128)
    values = _grid_values(system, rho, big_l)
    for m, value in zip(itertools.product(range(big_l), repeat=n), values):
        phase = omega ** (-sum(mi * ti for mi, ti in zip(m, t)))
        acc += phase * value
    return acc * rho ** (-depth) / big_l**n


def kernel_sum(points_l, points_z, f_values_l, f_values_z, negative_mask):
    """Direct evaluation of sum_k (1 - conj(l_k) z_k) F_k(l)* s_k F_k(z).

    f_values_* are lists over k of stacked row-block values; the mask
    marks rows carrying negative metric sign.
    """
    acc = None
    for k, (fl, fz) in enumerate(zip(f_values_l, f_values_z)):
        s = np.where(negative_mask[k], -1.0, 1.0)
        factor = 1.0 - np.conj(points_l[k]) * points_z[k]
        term = factor * (fl.conj().T @ (s[:, None] * fz))
        acc = term if acc is None else acc + term
    return acc
