"""Discrete time-invariant multiparametric linear systems.

A system with N evolution directions is the tuple (N; A, B, C, D) acting
on state x, input u, output y over the integer lattice Z^N:

    x(t) = sum_k A_k x(t - e_k) + B_k u(t - e_k)
    y(t) = sum_k C_k x(t - e_k) + D_k u(t - e_k)

for lattice points t of positive level |t| = t_1 + ... + t_N.  The
system operators G_k stack the four blocks; conservativity with respect
to a state symmetry J means the pencil z -> sum z_k G_k is unitary
between the metrics J (+) I_U and J (+) I_Y for every point of the unit
torus, which reduces to four coefficient conditions on the G_k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily; load it with the package

from .krein import CanonicalSymmetry, hermitian_opnorm, j_unitarity_defect, opnorm
from .krein import random_j_unitary, sign_basis

__all__ = [
    "MultiparametricSystem",
    "SystemOperatorTuple",
    "system_operators",
    "system_from_operators",
    "conjugate_system",
    "jconservativity_defect",
    "conservativity_bound",
    "input_output_symmetries",
    "torus_check",
    "fourier_grid",
    "torus_coefficient_defects",
    "random_jconservative",
    "pad_io",
]


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128)


def _points(z, n: int) -> np.ndarray:
    """z as complex points of C^n: shape (n,) for one point, (S, n) for S points."""
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim < 2:
        z = z.reshape(-1)
    if z.ndim > 2 or z.shape[-1] != n:
        raise ValueError(f"expected a point of C^{n} or an (S, {n}) array of points")
    return z


def _sample_points(z_samples, n: int) -> np.ndarray:
    """A sequence of points of C^n as an (S, n) array; S may be 0."""
    return np.reshape(np.asarray(z_samples, dtype=np.complex128), (-1, n))


def _mix(blocks, z) -> np.ndarray:
    """sum_k z_k T_k over checked points z, accumulated in place in k order:
    one matrix for a point of shape (N,), an (S, rows, cols) stack for (S, N).

    Each point's matrix has the bits of the sum at that point alone.  Adding
    +0.0 to the first term gives the bits of a sum started from zeros (-0.0
    entries become +0.0) without the page faults of a fresh zero matrix at
    large state dimensions.
    """
    zs = z.T[..., None, None]
    out = zs[0] * blocks[0]
    out += 0.0
    for zk, t in zip(zs[1:], blocks[1:]):
        out += zk * t
    return out


@dataclass(frozen=True, eq=False)
class MultiparametricSystem:
    """System tuple (N; A, B, C, D) with one block per evolution direction."""

    n: int
    a: tuple
    b: tuple
    c: tuple
    d: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one evolution direction")
        for name in ("a", "b", "c", "d"):
            blocks = tuple(_as_complex(m) for m in getattr(self, name))
            if len(blocks) != self.n:
                raise ValueError(f"{name} must supply {self.n} blocks")
            for k, m in enumerate(blocks):
                if not np.all(np.isfinite(m)):
                    raise ValueError(f"{name}[{k}] has a non-finite entry")
            object.__setattr__(self, name, blocks)
        dx, du, dy = self.state_dim, self.input_dim, self.output_dim
        for k in range(self.n):
            if self.a[k].shape != (dx, dx):
                raise ValueError(f"a[{k}] has shape {self.a[k].shape}, expected {(dx, dx)}")
            if self.b[k].shape != (dx, du):
                raise ValueError(f"b[{k}] has shape {self.b[k].shape}, expected {(dx, du)}")
            if self.c[k].shape != (dy, dx):
                raise ValueError(f"c[{k}] has shape {self.c[k].shape}, expected {(dy, dx)}")
            if self.d[k].shape != (dy, du):
                raise ValueError(f"d[{k}] has shape {self.d[k].shape}, expected {(dy, du)}")

    @property
    def state_dim(self) -> int:
        return self.a[0].shape[0]

    @property
    def input_dim(self) -> int:
        return self.b[0].shape[1] if self.b[0].ndim == 2 else 0

    @property
    def output_dim(self) -> int:
        return self.c[0].shape[0]

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.state_dim, self.input_dim, self.output_dim)


@dataclass(frozen=True, eq=False)
class SystemOperatorTuple:
    """Stacked system operators G_k : X (+) U -> X (+) Y."""

    operators: tuple
    state_dim: int
    input_dim: int
    output_dim: int

    def __post_init__(self):
        ops = tuple(_as_complex(g) for g in self.operators)
        rows = self.state_dim + self.output_dim
        cols = self.state_dim + self.input_dim
        for k, g in enumerate(ops):
            if g.shape != (rows, cols):
                raise ValueError(f"operator {k} has shape {g.shape}, expected {(rows, cols)}")
        object.__setattr__(self, "operators", ops)

    @property
    def n(self) -> int:
        return len(self.operators)

    def __iter__(self):
        return iter(self.operators)

    def __getitem__(self, k):
        return self.operators[k]

    def pencil(self, z) -> np.ndarray:
        """Evaluate sum_k z_k G_k at a point, or at each row of an (S, N) array."""
        return _mix(self.operators, _points(z, self.n))


def system_operators(system: MultiparametricSystem) -> SystemOperatorTuple:
    """Stack the blocks of each direction into G_k = [[A_k, B_k], [C_k, D_k]]."""
    ops = tuple(
        np.block([[system.a[k], system.b[k]], [system.c[k], system.d[k]]])
        for k in range(system.n)
    )
    return SystemOperatorTuple(
        ops, system.state_dim, system.input_dim, system.output_dim
    )


def system_from_operators(ops: SystemOperatorTuple) -> MultiparametricSystem:
    """Inverse of system_operators: cut each G_k back into its four blocks."""
    dx = ops.state_dim
    return MultiparametricSystem(
        n=ops.n,
        a=tuple(g[:dx, :dx] for g in ops),
        b=tuple(g[:dx, dx:] for g in ops),
        c=tuple(g[dx:, :dx] for g in ops),
        d=tuple(g[dx:, dx:] for g in ops),
    )


def conjugate_system(system: MultiparametricSystem) -> MultiparametricSystem:
    """Adjoint system (N; A*, C*, B*, D*) with input and output spaces swapped."""
    return MultiparametricSystem(
        n=system.n,
        a=tuple(m.conj().T for m in system.a),
        b=tuple(m.conj().T for m in system.c),
        c=tuple(m.conj().T for m in system.b),
        d=tuple(m.conj().T for m in system.d),
    )


def input_output_symmetries(
    system: MultiparametricSystem, j: CanonicalSymmetry
) -> tuple[CanonicalSymmetry, CanonicalSymmetry]:
    """Metrics J (+) I_U on X (+) U and J (+) I_Y on X (+) Y."""
    if j.dim != system.state_dim:
        raise ValueError(f"state symmetry dim {j.dim} != state dim {system.state_dim}")
    j1 = CanonicalSymmetry.direct_sum(j, CanonicalSymmetry.identity(system.input_dim))
    j2 = CanonicalSymmetry.direct_sum(j, CanonicalSymmetry.identity(system.output_dim))
    return j1, j2


def jconservativity_defect(
    system: MultiparametricSystem, j: CanonicalSymmetry
) -> tuple[float, float, float, float]:
    """Operator-norm residuals (r1, r2, r3, r4) of the coefficient conditions.

    r1: sum_k G_k* J2 G_k = J1        r2: G_k* J2 G_l = 0 for k != l
    r3: sum_k G_k J1 G_k* = J2        r4: G_k J1 G_l* = 0 for k != l
    (r1, r3 are hermitian residuals; r2, r4 take k < l, whose adjoints are the k > l terms)
    """
    g = system_operators(system).operators
    j1, j2 = input_output_symmetries(system, j)
    r1 = hermitian_opnorm(sum((gk.conj().T * j2.signs) @ gk for gk in g), j1)
    r3 = hermitian_opnorm(sum((gk * j1.signs) @ gk.conj().T for gk in g), j2)
    r2 = r4 = 0.0
    for k, l in itertools.combinations(range(len(g)), 2):
        r2 = max(r2, opnorm((g[k].conj().T * j2.signs) @ g[l]))
        r4 = max(r4, opnorm((g[k] * j1.signs) @ g[l].conj().T))
    return (r1, r2, r3, r4)


def conservativity_bound(system: MultiparametricSystem, j: CanonicalSymmetry) -> float:
    """Bound on the pencil's J-unitarity defect over the torus T^N: each of the N(N-1)
    cross terms conj(zeta_k) zeta_l G_k* J2 G_l adds at most r2 to r1 (r4 to r3)."""
    r1, r2, r3, r4 = jconservativity_defect(system, j)
    cross = system.n * (system.n - 1)
    return max(r1 + cross * r2, r3 + cross * r4)


def torus_check(system: MultiparametricSystem, j: CanonicalSymmetry, zeta_samples) -> float:
    """Largest J-unitarity defect of the pencil over the given torus points."""
    ops = system_operators(system)
    j1, j2 = input_output_symmetries(system, j)
    worst = 0.0
    for zeta in zeta_samples:
        zeta = np.asarray(zeta, dtype=np.complex128).reshape(-1)
        if np.max(np.abs(np.abs(zeta) - 1.0)) > 1e-12:
            raise ValueError("torus samples must have unit modulus entries")
        d1, d2 = j_unitarity_defect(ops.pencil(zeta), j1, j2)
        worst = max(worst, d1, d2)
    return worst


def fourier_grid(n: int) -> np.ndarray:
    """Deterministic torus grid of (2n+1)^n points resolving frequencies -1..1."""
    m = 2 * n + 1
    root = np.exp(2j * np.pi * np.arange(m) / m)
    pts = np.array(list(itertools.product(root, repeat=n)), dtype=np.complex128)
    return pts.reshape(-1, n)


def torus_coefficient_defects(
    system: MultiparametricSystem, j: CanonicalSymmetry
) -> tuple[float, float, float, float]:
    """Recover the coefficient conditions from torus samples alone.

    Averages (zeta G)* J2 (zeta G) and (zeta G) J1 (zeta G)* against the
    frequencies zeta^(e_l - e_k) over the deterministic Fourier grid, so
    it extracts each coefficient product without forming it directly.
    """
    ops = system_operators(system)
    j1, j2 = input_output_symmetries(system, j)
    grid = fourier_grid(system.n)
    iso = {}
    coiso = {}
    for zeta in grid:
        gz = ops.pencil(zeta)
        lhs = (gz.conj().T * j2.signs) @ gz
        rhs = (gz * j1.signs) @ gz.conj().T
        for k in range(system.n):
            for l in range(system.n):
                # coefficient of conj(zeta_k) zeta_l
                phase = np.conj(zeta[l]) * zeta[k]
                iso[(k, l)] = iso.get((k, l), 0) + phase * lhs
                coiso[(k, l)] = coiso.get((k, l), 0) + phase * rhs
    npts = grid.shape[0]
    r1 = opnorm(iso[(0, 0)] / npts - j1.matrix)
    r3 = opnorm(coiso[(0, 0)] / npts - j2.matrix)
    r2 = r4 = 0.0
    for k, l in itertools.combinations(range(system.n), 2):  # (l, k) holds the adjoint
        r2 = max(r2, opnorm(iso[(k, l)] / npts))
        r4 = max(r4, opnorm(coiso[(k, l)] / npts))
    return (r1, r2, r3, r4)


def random_jconservative(
    n: int,
    state_dim: int,
    input_dim: int,
    seed: int = 0,
    j: CanonicalSymmetry | None = None,
) -> tuple[MultiparametricSystem, CanonicalSymmetry]:
    """Random J-conservative system with output dim equal to input dim.

    Picks an eigenvector partition P_1 + ... + P_N = I commuting with
    J (+) I_U and a random (J1, J1)-unitary V; the operators G_k = V P_k
    then satisfy all four coefficient conditions exactly.  Requires
    state_dim + input_dim >= n so every direction gets a nonzero block.
    """
    if state_dim + input_dim < n:
        raise ValueError("state_dim + input_dim must be at least the number of directions")
    rng = np.random.default_rng(seed)
    if j is None:
        j = CanonicalSymmetry.from_signs(rng.choice([1.0, -1.0], size=state_dim))
    if j.dim != state_dim:
        raise ValueError("state symmetry dimension mismatch")
    dim = state_dim + input_dim
    j1 = CanonicalSymmetry.direct_sum(j, CanonicalSymmetry.identity(input_dim))

    q = sign_basis(j1)
    # split eigenvectors into n nonempty groups
    cuts = np.sort(rng.choice(np.arange(1, dim), size=n - 1, replace=False)) if n > 1 else []
    groups = np.split(np.arange(dim), cuts)
    v = random_j_unitary(j1, j1, rng)
    ops = tuple(v @ (q[:, g] @ q[:, g].conj().T) for g in groups)
    tup = SystemOperatorTuple(ops, state_dim, input_dim, input_dim)
    return system_from_operators(tup), j


def pad_io(system: MultiparametricSystem) -> MultiparametricSystem:
    """Zero-pad inputs or outputs so both spaces get dimension max(dU, dY).

    Extra input columns feed nothing; extra output rows read nothing.
    The original transfer function sits in the leading corner of the
    padded one.
    """
    du, dy = system.input_dim, system.output_dim
    m = max(du, dy)
    if du == dy:
        return system
    b = list(system.b)
    c = list(system.c)
    d = list(system.d)
    for k in range(system.n):
        if du < m:
            b[k] = np.hstack([b[k], np.zeros((system.state_dim, m - du))])
            d[k] = np.hstack([d[k], np.zeros((dy, m - du))])
        if dy < m:
            c[k] = np.vstack([c[k], np.zeros((m - dy, system.state_dim))])
            d[k] = np.vstack([d[k], np.zeros((m - dy, d[k].shape[1]))])
    return MultiparametricSystem(n=system.n, a=system.a, b=tuple(b), c=tuple(c), d=tuple(d))
