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

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .krein import opnorm
from .systems import MultiparametricSystem, _mix

__all__ = [
    "ResolventError",
    "TailBound",
    "TruncatedOperatorSeries",
    "EvalResult",
    "eval_transfer",
    "taylor_coefficients",
    "eval_series",
    "z_transform_check",
    "multi_indices",
]

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


def _check_point(system: MultiparametricSystem, z) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    if z.size != system.n:
        raise ValueError(f"expected a point of C^{system.n}")
    return z


@lru_cache(maxsize=None)
def _probe(n: int) -> np.ndarray:
    """Unit complex-Gaussian column of C^n from a fixed seed: one per n and process."""
    p = np.random.default_rng(1983).standard_normal((n, 2)) @ [1.0, 1.0j]
    return (p / np.linalg.norm(p)).reshape(n, 1)


def _transfer_parts(system: MultiparametricSystem, z):
    """(I - zA)^{-1} zB and theta(z) at one point, from one solve.

    The gate rejects a point where I - zA has 2-norm condition number above
    RESOLVENT_COND_LIMIT.  The solve also takes the probe p, and the screen
    ||I - zA||_F ||(I - zA)^{-1} p|| >= kappa_2 |<v, p>|, v the top right
    singular vector of the inverse.  As p is uniform on the unit sphere of
    C^n and independent of the matrix, |<v, p>| < 1/(100 n) has probability
    below 1e-4 / n (Dixon, SIAM J. Numer. Anal. 20, 1983; Kenney & Laub, SIAM
    J. Sci. Comput. 15, 1994).  Only a screen above LIMIT / (100 n), or an
    exactly singular factorization, pays for the exact 2-norm test.
    """
    z = _check_point(system, z)
    zb = _mix(system.b, z)
    zd = _mix(system.d, z)
    n = system.state_dim
    if n == 0:
        return np.zeros(zb.shape, dtype=np.complex128), zd
    m = np.eye(n) - _mix(system.a, z)
    if not np.isfinite(m).all():
        raise ResolventError(f"I - zA has non-finite entries at z = {z.tolist()}")
    try:
        x = np.linalg.solve(m, np.concatenate((zb, _probe(n)), axis=1))
        screen = abs(np.vdot(m, m) * np.vdot(x[:, -1], x[:, -1])) ** 0.5
    except np.linalg.LinAlgError:
        x, screen = None, np.inf
    if not screen * 100 * n < RESOLVENT_COND_LIMIT:
        cond = np.linalg.cond(m)
        if x is None or not cond <= RESOLVENT_COND_LIMIT:
            raise ResolventError(f"I - zA is singular at z = {z.tolist()} (cond {cond:.2e})")
    return x[:, :-1], zd + _mix(system.c, z) @ x[:, :-1]


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
            if not np.all(np.isfinite(m)):
                raise ValueError(f"coefficient at {s} has a non-finite entry")
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
    system: MultiparametricSystem,
    d: int,
    dtype=np.complex128,
) -> TruncatedOperatorSeries:
    """Taylor coefficients theta_hat_t for 1 <= |t| <= d.

    The coefficient at t sums C_{k_0} A_{k_1} ... A_{k_{m-2}} B_{k_{m-1}}
    over all words whose direction counts equal t (plus D_k at |t| = 1).
    Computed on the B-columns by the recursion W_{0,k} = B_k,
    W_{s,k} = sum_l A_l W_{s-e_l,k}, theta_hat_t = sum_{j,k} C_j W_{t-e_j-e_k,k},
    carried out in ``dtype`` (a wider complex type measures the system
    rather than float64 evaluation roundoff) and returned in complex128.
    Exactly zero coefficients are omitted.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    n = system.n
    a = [m.astype(dtype) for m in system.a]
    c = [m.astype(dtype) for m in system.c]

    def lower(s, k):
        return s[:k] + (s[k] - 1,) + s[k + 1 :]

    coeffs: dict[tuple, np.ndarray] = {}
    for k in range(n):
        coeffs[tuple(1 if i == k else 0 for i in range(n))] = system.d[k].copy()

    # w[k][s] = W_{s,k}, levels 0 .. d - 2
    w = [{(0,) * n: m.astype(dtype)} for m in system.b]
    for level in range(1, d - 1):
        for s in multi_indices(n, level):
            for wk in w:
                wk[s] = sum(a[l] @ wk[lower(s, l)] for l in range(n) if s[l])

    for level in range(2, d + 1):
        for t in multi_indices(n, level):
            acc = np.zeros((system.output_dim, system.input_dim), dtype=dtype)
            for j in range(n):
                if t[j] == 0:
                    continue
                tj = lower(t, j)
                for k in range(n):
                    if tj[k]:
                        acc += c[j] @ w[k][lower(tj, k)]
            if np.any(acc):
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
