"""Realizing truncated Taylor series as conservative multiparametric systems.

A series vanishing at the origin is first realized verbatim by a
shift-register system: one register per multi-index below the degree,
forward shifts between them, and readout weights carrying the series
coefficients with a multinomial normalization that compensates for the
number of monomial words reaching each register.  Feeding that system
through the decomposition and dilation pipeline then produces a
conservative system with the same transfer function, certified by the
dilation's defect report.
"""

from dataclasses import dataclass
from math import factorial

import numpy as np

from .dilation import DilationResult, build_dilation
from .krein import CanonicalSymmetry, opnorm
from .systems import MultiparametricSystem, pad_io
from .transfer import (
    TruncatedOperatorSeries,
    eval_series,
    eval_transfer,
    multi_indices,
    taylor_coefficients,
)

MAX_DEFAULT_REGISTER_DEGREE = 6

#: widest complex dtype on this platform, for the coefficient match report:
#: float64 roundoff on the large dilated state would swamp its construction error
_WIDE = getattr(np, "complex256", np.complex128)


def _word_normalization(t):
    """prod_j t_j! / |t|!, the reciprocal of the monomial word count."""
    num = 1
    for tj in t:
        num *= factorial(tj)
    return num / factorial(sum(t))


def shift_register_realization(
    theta: TruncatedOperatorSeries, d: int | None = None
) -> MultiparametricSystem:
    """Realize a series vanishing at 0 exactly through degree ``d``.

    The state is one register per multi-index s with 1 <= |s| <= d - 1,
    each a copy of the input space.  A_k shifts register s to s + e_k,
    B_k injects the input into register e_k, C_k reads register s with
    the weight theta_hat_{s + e_k} * prod(t_j!) / |t|!, and
    D_k = theta_hat_{e_k}.  Every monomial word from the input to an
    output of total index t contributes the same normalized weight, and
    there are |t|!/prod(t_j!) such words, so the Taylor coefficients of
    the result reproduce the series exactly.
    """
    if d is None:
        d = theta.degree
    if d < 1:
        raise ValueError("realization degree must be at least 1")
    n = theta.n
    zero = (0,) * n
    dy, du = theta.shape
    if np.any(theta.coefficient(zero)):
        raise ValueError("series must vanish at 0")
    for t, m in theta.coefficients.items():
        if sum(t) > d and np.any(m):
            raise ValueError(
                f"series has a nonzero coefficient at {t} beyond degree {d}; "
                "raise the realization degree instead of truncating silently"
            )
    if n >= 3 and d > MAX_DEFAULT_REGISTER_DEGREE:
        raise ValueError(
            f"degree {d} with {n} directions exceeds the register cap "
            f"{MAX_DEFAULT_REGISTER_DEGREE}"
        )

    registers = [t for level in range(1, d) for t in multi_indices(n, level)]
    offset = {t: i * du for i, t in enumerate(registers)}
    dx = du * len(registers)

    def shifted(t, k):
        return t[:k] + (t[k] + 1,) + t[k + 1 :]

    a, b, c, dd = [], [], [], []
    for k in range(n):
        ak = np.zeros((dx, dx), dtype=np.complex128)
        bk = np.zeros((dx, du), dtype=np.complex128)
        ck = np.zeros((dy, dx), dtype=np.complex128)
        for s in registers:
            tgt = shifted(s, k)
            if sum(tgt) <= d - 1:
                ak[offset[tgt] : offset[tgt] + du, offset[s] : offset[s] + du] = np.eye(du)
            ck[:, offset[s] : offset[s] + du] = _word_normalization(tgt) * theta.coefficient(tgt)
        if d > 1:
            ek = shifted(zero, k)
            bk[offset[ek] : offset[ek] + du] = np.eye(du)
        a.append(ak)
        b.append(bk)
        c.append(ck)
        dd.append(theta.coefficient(shifted(zero, k)))
    return MultiparametricSystem(n=n, a=tuple(a), b=tuple(b), c=tuple(c), d=tuple(dd))


@dataclass(frozen=True)
class RealizationResult:
    """Conservative realization of a series plus its match evidence."""

    system: MultiparametricSystem
    j: CanonicalSymmetry
    dilation: DilationResult
    coefficient_residuals: dict
    sample_residual: float
    radius: float
    output_dim: int
    input_dim: int

    def max_coefficient_residual(self) -> float:
        return max(self.coefficient_residuals.values(), default=0.0)

    def corner_transfer(self, z) -> np.ndarray:
        """Transfer of the realized system restricted to the original channels."""
        return eval_transfer(self.system, z)[..., : self.output_dim, : self.input_dim]


def jconservative_realization(
    theta: TruncatedOperatorSeries,
    d: int | None = None,
    tol: float = 1e-6,
    radius: float = 0.5,
    samples: int = 100,
    seed: int = 0,
) -> RealizationResult:
    """Realize a series as the corner transfer of a conservative system.

    Composes the shift-register realization, channel padding and the
    dilation build at decomposition degree D = max(20, d + 4) (the realized
    transfer tail decays like radius^(D + 1)).  The result's Taylor
    coefficients reproduce the input through degree ``d`` exactly up to
    roundoff, and its values match the truncated series on the certified
    polydisk within the reported sample residual.
    """
    if d is None:
        d = theta.degree
    padded = pad_io(shift_register_realization(theta, d))
    dil = build_dilation(padded, max(20, d + 4), radius, tol=tol, samples=samples, seed=seed)

    dy, du = theta.shape
    m = max(du, dy)
    realized = taylor_coefficients(dil.alpha_tilde, d, dtype=_WIDE).coefficients
    zero_block = np.zeros((m, m), dtype=np.complex128)
    residuals = {}
    for level in range(1, d + 1):
        for t in multi_indices(theta.n, level):
            target = np.zeros((m, m), dtype=np.complex128)
            target[:dy, :du] = theta.coefficient(t)
            residuals[t] = float(opnorm(realized.get(t, zero_block) - target))

    # The real and the imaginary parts of each point are drawn in turn, point
    # after point, while dilation._disk_samples draws all real parts first:
    # switching to it would change the points and the reported sample residual.
    parts = np.random.default_rng(seed).uniform(-1, 1, (samples, 2, theta.n))
    z = radius / np.sqrt(2) * (parts[:, 0] + 1j * parts[:, 1])
    want = eval_series(theta, z)
    got = eval_transfer(dil.alpha_tilde, z)[:, :dy, :du]
    worst = float(np.max(opnorm(got - want), initial=0.0))

    return RealizationResult(
        system=dil.alpha_tilde,
        j=dil.j,
        dilation=dil,
        coefficient_residuals=residuals,
        sample_residual=worst,
        radius=radius,
        output_dim=dy,
        input_dim=du,
    )
