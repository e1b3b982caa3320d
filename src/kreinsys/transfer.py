"""Transfer functions of multiparametric systems.

The transfer function of a system is

    theta(z) = zD + zC (I - zA)^{-1} zB,      zT := sum_k z_k T_k,

holomorphic near 0 and vanishing at z = 0.  This module evaluates it
directly, expands it into Taylor coefficients indexed by multi-indices
of Z_+^N, evaluates truncated coefficient series, and checks the
transformed recursion identities on sample points.  Every evaluator takes
one point of C^N or an (S, N) array of points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .krein import opnorm
from .systems import MultiparametricSystem, _mix, _points, _sample_points

__all__ = [
    "ResolventError",
    "TruncatedOperatorSeries",
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


#: cap on the bytes of one stacked temporary of a point-batched evaluation:
#: a block holds one point once a point's temporary takes more than half of it
BLOCK_BYTES = 1 << 18


def _point_blocks(count: int, entries: int) -> list:
    """Slices covering range(count) in blocks of points whose stacked temporary,
    ``entries`` complex numbers per point, stays within BLOCK_BYTES."""
    step = max(1, BLOCK_BYTES // (16 * max(entries, 1)))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _operator_entries(system: MultiparametricSystem) -> int:
    """Entries of one point's mixed system operator zG, rows x columns."""
    return (system.state_dim + system.output_dim) * (system.state_dim + system.input_dim)


def _sumsq(a: np.ndarray) -> np.ndarray:
    """Sum of |a|^2 over each matrix of a stack, as one batched dot."""
    f = a.view(np.float64).reshape(len(a), 1, -1)
    return (f @ f.swapaxes(1, 2))[:, 0, 0]


@lru_cache(maxsize=None)
def _probe(n: int) -> np.ndarray:
    """Unit complex-Gaussian column of C^n from a fixed seed: one per n and process."""
    p = np.random.default_rng(1983).standard_normal((n, 2)) @ [1.0, 1.0j]
    return (p / np.linalg.norm(p)).reshape(n, 1)


def _transfer_parts(system: MultiparametricSystem, z):
    """(I - zA)^{-1} zB and theta(z) as (S, ., .) stacks at checked points z of
    shape (S, N), from one stacked solve.

    The gate rejects a point where I - zA has 2-norm condition number above
    RESOLVENT_COND_LIMIT.  The solve also takes the probe p, and the screen
    ||I - zA||_F ||(I - zA)^{-1} p|| >= kappa_2 |<v, p>|, v the top right
    singular vector of the inverse.  As p is uniform on the unit sphere of
    C^n and independent of the matrix, |<v, p>| < 1/(100 n) has probability
    below 1e-4 / n (Dixon, SIAM J. Numer. Anal. 20, 1983; Kenney & Laub, SIAM
    J. Sci. Comput. 15, 1994).  Only a screen above LIMIT / (100 n), or an
    exactly singular factorization, pays for the exact 2-norm test.  A stack
    with a non-finite or exactly singular pencil is redone one point at a
    time, so the first failing point is the one named.
    """
    zb = _mix(system.b, z)
    zd = _mix(system.d, z)
    n = system.state_dim
    if n == 0:
        return np.zeros(zb.shape, dtype=np.complex128), zd
    m = np.eye(n) - _mix(system.a, z)
    finite = np.isfinite(m).all()
    rhs = np.empty((len(z), n, zb.shape[2] + 1), dtype=np.complex128)
    rhs[..., :-1] = zb
    rhs[..., -1:] = _probe(n)
    try:
        x = np.linalg.solve(m, rhs) if finite else None
    except np.linalg.LinAlgError:
        x = None
    if x is None and len(z) > 1:
        parts = [_transfer_parts(system, z[i : i + 1]) for i in range(len(z))]
        return tuple(np.concatenate(p) for p in zip(*parts))
    if not finite:
        raise ResolventError(f"I - zA has non-finite entries at z = {z[0].tolist()}")
    screen = np.full(1, np.inf) if x is None else np.sqrt(_sumsq(m) * _sumsq(x[..., -1:]))
    for i in (~(screen * (100 * n) < RESOLVENT_COND_LIMIT)).nonzero()[0]:
        cond = np.linalg.cond(m[i])
        if x is None or not cond <= RESOLVENT_COND_LIMIT:
            raise ResolventError(f"I - zA is singular at z = {z[i].tolist()} (cond {cond:.2e})")
    x = x[..., :-1]
    return x, zd + _mix(system.c, z) @ x


def eval_transfer(system: MultiparametricSystem, z) -> np.ndarray:
    """theta(z) = zD + zC (I - zA)^{-1} zB at a point of C^N, or an (S, dY, dU)
    stack at the rows of an (S, N) array, solved one block of points at a time."""
    z = _points(z, system.n)
    pts = z.reshape(-1, system.n)
    out = np.empty((len(pts), system.output_dim, system.input_dim), dtype=np.complex128)
    for blk in _point_blocks(len(pts), _operator_entries(system)):
        out[blk] = _transfer_parts(system, pts[blk])[1]
    return out if z.ndim == 2 else out[0]


@dataclass(frozen=True, eq=False)
class TruncatedOperatorSeries:
    """Matrix power series sum_s coeff[s] z^s truncated at |s| <= degree.

    The coefficients are views into one (K, rows, cols) stack, so that a
    batch of points is evaluated with one matmul.
    """

    n: int
    degree: int
    coefficients: dict

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
        stack = np.stack(list(coeffs.values()))
        object.__setattr__(self, "coefficients", dict(zip(coeffs, stack)))
        object.__setattr__(self, "_shape", shape)
        object.__setattr__(self, "_stack", stack.reshape(len(coeffs), -1))
        object.__setattr__(self, "_indices", np.array(list(coeffs)))

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    def coefficient(self, s) -> np.ndarray:
        s = tuple(int(c) for c in s)
        return self.coefficients.get(s, np.zeros(self._shape, dtype=np.complex128))


def eval_series(series: TruncatedOperatorSeries, z) -> np.ndarray:
    """The truncated series at a point of C^N, or an (S, rows, cols) stack at the
    rows of an (S, N) array: a power table of the points, then one matmul."""
    z = _points(z, series.n)
    pts = z.reshape(-1, series.n)
    powers = np.power(pts[:, :, None], np.arange(series.degree + 1))
    mono = powers[:, 0, series._indices[:, 0]]
    for k in range(1, series.n):
        mono = mono * powers[:, k, series._indices[:, k]]
    value = (mono @ series._stack).reshape(len(pts), *series.shape)
    return value if z.ndim == 2 else value[0]


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
    return TruncatedOperatorSeries(n=n, degree=d, coefficients=coeffs)


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
    pts = _sample_points(z_samples, system.n)
    r_state = 0.0
    r_transfer = 0.0
    for blk in _point_blocks(len(pts), _operator_entries(system)):
        z = pts[blk]
        u_hat = eval_series(u_series, z)
        x, theta = _transfer_parts(system, z)
        x_hat = x @ u_hat
        state = x_hat - _mix(system.a, z) @ x_hat - _mix(system.b, z) @ u_hat
        y_hat = _mix(system.c, z) @ x_hat + _mix(system.d, z) @ u_hat
        r_state = max(r_state, float(np.max(opnorm(state))))
        r_transfer = max(r_transfer, float(np.max(opnorm(y_hat - theta @ u_hat))))
    return {"state": r_state, "transfer": r_transfer}
