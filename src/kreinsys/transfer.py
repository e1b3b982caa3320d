"""Transfer functions of multiparametric systems.

The transfer function of a system is

    theta(z) = zD + zC (I - zA)^{-1} zB,      zT := sum_k z_k T_k,

holomorphic near 0 and vanishing at z = 0.  This module evaluates it
directly, expands it into Taylor coefficients indexed by multi-indices
of Z_+^N, evaluates truncated coefficient series with certified
geometric tail bounds, and checks the transformed recursion identities
on sample points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import zgecon, zgetrf, zgetrs

from .krein import opnorm
from .systems import MultiparametricSystem

__all__ = [
    "ResolventError",
    "TailBound",
    "TruncatedOperatorSeries",
    "EvalResult",
    "resolvent",
    "eval_transfer",
    "taylor_coefficients",
    "eval_series",
    "z_transform_check",
    "multi_indices",
    "MAX_DEFAULT_DEGREE",
]

MAX_DEFAULT_DEGREE = 8
RESOLVENT_COND_LIMIT = 1e12


class ResolventError(ValueError):
    """Raised when I - zA is numerically singular at an evaluation point."""


def multi_indices(n: int, level: int):
    """All t in Z_+^n with |t| = level, lexicographically ordered."""
    if n == 1:
        yield (level,)
        return
    for first in range(level, -1, -1):
        for rest in multi_indices(n - 1, level - first):
            yield (first,) + rest


def _mix(blocks, z):
    return sum(z[k] * blocks[k] for k in range(len(blocks)))


def _check_point(system: MultiparametricSystem, z) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    if z.size != system.n:
        raise ValueError(f"expected a point of C^{system.n}")
    return z


def _lu(system: MultiparametricSystem, z: np.ndarray):
    """LU factors of I - zA at a checked point, rejecting ill-conditioned points.

    The gate rejects a point whose 2-norm condition number exceeds
    RESOLVENT_COND_LIMIT.  LAPACK's 1-norm estimate (zgecon) screens it:
    kappa_2 <= n kappa_1 and the estimate rarely falls short of kappa_1 by
    more than 10x, so only a point whose estimate exceeds LIMIT / (100 n)
    pays for the exact 2-norm condition number.  An exactly singular
    factorization (info > 0) counts as rcond 0 and takes the exact test.
    """
    n = system.state_dim
    m = np.eye(n) - _mix(system.a, z)
    if not np.isfinite(m).all():
        raise ResolventError(f"I - zA has non-finite entries at z = {z.tolist()}")
    lu, piv, info = zgetrf(m)
    rcond = zgecon(lu, np.abs(m).sum(axis=0).max())[0] if info == 0 else 0.0
    if rcond * RESOLVENT_COND_LIMIT < 100 * n:
        cond = np.linalg.cond(m)
        if not np.isfinite(cond) or cond > RESOLVENT_COND_LIMIT:
            raise ResolventError(f"I - zA is singular at z = {z.tolist()} (cond {cond:.2e})")
    return lu, piv


def _transfer_parts(system: MultiparametricSystem, z):
    """(I - zA)^{-1} zB and theta(z) at one point, from one factorization."""
    z = _check_point(system, z)
    zb = _mix(system.b, z)
    zd = _mix(system.d, z)
    if system.state_dim == 0:
        return np.zeros(zb.shape, dtype=np.complex128), zd
    x = zgetrs(*_lu(system, z), zb)[0]
    return x, zd + _mix(system.c, z) @ x


def resolvent(system: MultiparametricSystem, z) -> np.ndarray:
    """(I - zA)^{-1} by LU solve, rejecting ill-conditioned points."""
    z = _check_point(system, z)
    eye = np.eye(system.state_dim, dtype=np.complex128)
    if system.state_dim == 0:
        return eye
    return zgetrs(*_lu(system, z), eye)[0]


def eval_transfer(system: MultiparametricSystem, z) -> np.ndarray:
    """theta(z) = zD + zC (I - zA)^{-1} zB."""
    return _transfer_parts(system, z)[1]


@dataclass(frozen=True)
class TailBound:
    """Certified bound on the discarded levels of a truncated series.

    kind "none": the series is exact (polynomial), tail 0.
    kind "geometric": the level-m part is bounded by magnitude*(ratio*r)^m
    when evaluated with max_k |z_k| <= r, so the tail after degree d is
    magnitude*(ratio*r)^(d+1) / (1 - ratio*r), valid for ratio*r < 1.
    """

    kind: str = "none"
    ratio: float = 0.0
    magnitude: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "geometric"):
            raise ValueError(f"unknown tail kind {self.kind!r}")
        if self.ratio < 0 or self.magnitude < 0:
            raise ValueError("tail parameters must be nonnegative")

    def bound(self, r: float, degree: int) -> float:
        if self.kind == "none":
            return 0.0
        q = self.ratio * r
        if q >= 1.0:
            raise ValueError(
                f"evaluation radius {r} is outside the certified polydisk (ratio {self.ratio})"
            )
        return self.magnitude * q ** (degree + 1) / (1.0 - q)


@dataclass(frozen=True)
class EvalResult:
    value: np.ndarray
    tail_error: float

    def __post_init__(self):
        if self.tail_error < 0:
            raise ValueError("tail_error must be nonnegative")


@dataclass(frozen=True, eq=False)
class TruncatedOperatorSeries:
    """Matrix power series sum_s coeff[s] z^s truncated at |s| <= degree."""

    n: int
    degree: int
    coefficients: dict
    tail: TailBound = field(default_factory=TailBound)

    def __post_init__(self):
        coeffs = {}
        shape = None
        for s, m in self.coefficients.items():
            s = tuple(int(c) for c in s)
            if len(s) != self.n or any(c < 0 for c in s):
                raise ValueError(f"bad multi-index {s} for Z_+^{self.n}")
            if sum(s) > self.degree:
                raise ValueError(f"multi-index {s} exceeds degree bound {self.degree}")
            m = np.asarray(m, dtype=np.complex128)
            if m.ndim == 1:
                m = m.reshape(-1, 1)
            if shape is None:
                shape = m.shape
            elif m.shape != shape:
                raise ValueError(f"coefficient at {s} has shape {m.shape}, expected {shape}")
            coeffs[s] = m
        if shape is None:
            raise ValueError("series needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "_shape", shape)

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    def coefficient(self, s) -> np.ndarray:
        s = tuple(int(c) for c in s)
        return self.coefficients.get(s, np.zeros(self._shape, dtype=np.complex128))

    def level_coefficients(self, level: int):
        return {s: m for s, m in self.coefficients.items() if sum(s) == level}


def eval_series(series: TruncatedOperatorSeries, z) -> EvalResult:
    """Evaluate the truncated series at z with its certified tail error."""
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    if z.size != series.n:
        raise ValueError(f"expected a point of C^{series.n}")
    r = float(np.max(np.abs(z))) if z.size else 0.0
    tail_error = series.tail.bound(r, series.degree)
    powers = [np.power(z[k], np.arange(series.degree + 1)) for k in range(series.n)]
    value = np.zeros(series.shape, dtype=np.complex128)
    for s, m in series.coefficients.items():
        mono = 1.0 + 0.0j
        for k, e in enumerate(s):
            mono *= powers[k][e]
        value = value + mono * m
    return EvalResult(value=value, tail_error=tail_error)


def _series_tail_for_system(system: MultiparametricSystem) -> TailBound:
    a_norm = sum(opnorm(m) for m in system.a)
    b_norm = sum(opnorm(m) for m in system.b)
    c_norm = sum(opnorm(m) for m in system.c)
    d_norm = sum(opnorm(m) for m in system.d)
    if a_norm == 0.0:
        # coefficients vanish beyond level 2, so any truncation at
        # degree >= 2 is exact
        return TailBound("geometric", ratio=0.0, magnitude=0.0)
    mag = max(c_norm * b_norm / a_norm**2, d_norm / a_norm)
    return TailBound("geometric", ratio=a_norm, magnitude=mag)


def taylor_coefficients(
    system: MultiparametricSystem, d: int, allow_large_degree: bool = False
) -> TruncatedOperatorSeries:
    """Taylor coefficients theta_hat_t for 1 <= |t| <= d.

    The coefficient at t sums C_{k_0} A_{k_1} ... A_{k_{m-2}} B_{k_{m-1}}
    over all words whose direction counts equal t (plus D_k at |t| = 1).
    Computed by the equivalent level recursion P_s = sum_k A_k P_{s-e_k},
    theta_hat_t = sum_{j,k} C_j P_{t-e_j-e_k} B_k.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    if d > MAX_DEFAULT_DEGREE and not allow_large_degree:
        raise ValueError(
            f"degree {d} exceeds the default cap {MAX_DEFAULT_DEGREE}; "
            "pass allow_large_degree=True to override"
        )
    n, dx = system.n, system.state_dim
    coeffs: dict[tuple, np.ndarray] = {}
    for k in range(n):
        t = tuple(1 if i == k else 0 for i in range(n))
        coeffs[t] = coeffs.get(t, 0) + system.d[k]

    # powers of the pencil: P_0 = I, P_s = sum_k A_k P_{s - e_k}
    p: dict[tuple, np.ndarray] = {(0,) * n: np.eye(dx, dtype=np.complex128)}
    for level in range(1, d - 1):
        for s in multi_indices(n, level):
            acc = np.zeros((dx, dx), dtype=np.complex128)
            for k in range(n):
                if s[k] == 0:
                    continue
                prev = tuple(s[i] - (1 if i == k else 0) for i in range(n))
                acc += system.a[k] @ p[prev]
            p[s] = acc

    for level in range(2, d + 1):
        for t in multi_indices(n, level):
            acc = np.zeros((system.output_dim, system.input_dim), dtype=np.complex128)
            for jj in range(n):
                if t[jj] == 0:
                    continue
                for kk in range(n):
                    s = list(t)
                    s[jj] -= 1
                    s[kk] -= 1
                    if s[kk] < 0:
                        continue
                    acc += system.c[jj] @ p[tuple(s)] @ system.b[kk]
            if np.any(acc != 0):
                coeffs[t] = acc
    return TruncatedOperatorSeries(
        n=n, degree=d, coefficients=coeffs, tail=_series_tail_for_system(system)
    )


def z_transform_check(
    system: MultiparametricSystem,
    u_series: TruncatedOperatorSeries,
    z_samples,
) -> dict:
    """Check the transformed recursion on sample points.

    For each z: x_hat = (I - zA)^{-1} zB u_hat(z) must satisfy the state
    line x_hat = zA x_hat + zB u_hat, and the output
    y_hat = zC x_hat + zD u_hat must equal theta(z) u_hat(z).
    Returns the max residual of each identity over the samples.
    """
    if u_series.shape[0] != system.input_dim:
        raise ValueError("input series dimension does not match the system")
    r_state = 0.0
    r_transfer = 0.0
    for z in z_samples:
        z = _check_point(system, z)
        u_hat = eval_series(u_series, z).value
        za = _mix(system.a, z)
        zb = _mix(system.b, z)
        x, theta = _transfer_parts(system, z)
        x_hat = x @ u_hat
        r_state = max(r_state, opnorm(x_hat - za @ x_hat - zb @ u_hat))
        y_hat = _mix(system.c, z) @ x_hat + _mix(system.d, z) @ u_hat
        r_transfer = max(r_transfer, opnorm(y_hat - theta @ u_hat))
    return {"state": r_state, "transfer": r_transfer}
