"""Lattice evolution of multiparametric systems and energy verification.

Signals live on the integer lattice Z^N with finite support per level,
where the level of a point t is |t| = t_1 + ... + t_N.  The system
recursion pushes data from level n-1 to level n.  For a J-conservative
system the J-energy of the state plus the emitted output energy at each
level balances the stored J-energy plus the injected input energy of
the previous level; the per-level residual of that identity is the
basic numerical conservativity check, and polarized impulse patterns
turn the same residuals into estimates of the coefficient defects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .krein import CanonicalSymmetry, opnorm
from .systems import MultiparametricSystem, conjugate_system, system_operators

__all__ = [
    "LatticeSignal",
    "Trajectory",
    "EnergyReport",
    "evolve_level",
    "simulate",
    "energy_balance_report",
    "impulse_patterns",
    "coefficient_defect_probe",
    "energy_growth_factor",
]


def _level(t: tuple) -> int:
    return int(sum(t))


@dataclass
class LatticeSignal:
    """Finitely supported vector-valued signal on Z^N, indexed by level."""

    n: int
    dim: int
    entries: dict = field(default_factory=dict)
    _levels: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        raw = dict(self.entries)
        self.entries = {}
        self._levels = {}
        for t, v in raw.items():
            self.set(t, v)

    def set(self, t, v) -> None:
        t = tuple(int(c) for c in t)
        if len(t) != self.n:
            raise ValueError(f"point {t} does not live in Z^{self.n}")
        v = np.asarray(v, dtype=np.complex128).reshape(-1)
        if v.shape != (self.dim,):
            raise ValueError(f"value at {t} has dim {v.shape[0]}, expected {self.dim}")
        self.entries[t] = v
        self._levels.setdefault(_level(t), set()).add(t)

    def add(self, t, v) -> None:
        t = tuple(int(c) for c in t)
        if t in self.entries:
            self.set(t, self.entries[t] + np.asarray(v, dtype=np.complex128).reshape(-1))
        else:
            self.set(t, v)

    def __getitem__(self, t) -> np.ndarray:
        return self.entries.get(tuple(int(c) for c in t), np.zeros(self.dim, dtype=np.complex128))

    def level_points(self, level: int):
        """Populated points at the given level, in sorted order."""
        return sorted(self._levels.get(level, ()))

    def levels(self):
        return sorted(self._levels)

    def restrict_level(self, level: int) -> "LatticeSignal":
        return LatticeSignal(
            self.n, self.dim, {t: self.entries[t] for t in self.level_points(level)}
        )

    def hilbert_energy(self, level: int) -> float:
        return float(
            sum(np.vdot(self.entries[t], self.entries[t]).real for t in self.level_points(level))
        )

    def j_energy(self, level: int, j: CanonicalSymmetry) -> float:
        total = 0.0
        for t in self.level_points(level):
            v = self.entries[t]
            total += np.vdot(v, j.apply(v)).real
        return total

    @classmethod
    def impulse(cls, n: int, t, v) -> "LatticeSignal":
        sig = cls(n, np.asarray(v).reshape(-1).shape[0])
        sig.set(t, v)
        return sig


@dataclass
class Trajectory:
    """State, input and output signals of one simulation run."""

    x: LatticeSignal
    y: LatticeSignal
    u: LatticeSignal
    n_max: int


def _single_level_of(sig: LatticeSignal, what: str):
    lv = sig.levels()
    if len(lv) > 1:
        raise ValueError(f"{what} must be supported on a single level, found levels {lv}")
    return lv[0] if lv else None


def evolve_level(
    system: MultiparametricSystem, x_prev: LatticeSignal, u_prev: LatticeSignal
) -> tuple[LatticeSignal, LatticeSignal]:
    """One step of the recursion: data at level n-1 produces (x_n, y_n)."""
    if x_prev.n != system.n or u_prev.n != system.n:
        raise ValueError("signal lattice dimension does not match the system")
    if x_prev.dim != system.state_dim:
        raise ValueError(f"state vectors have dim {x_prev.dim}, expected {system.state_dim}")
    if u_prev.dim != system.input_dim:
        raise ValueError(f"input vectors have dim {u_prev.dim}, expected {system.input_dim}")
    lx = _single_level_of(x_prev, "x_prev")
    lu = _single_level_of(u_prev, "u_prev")
    if lx is not None and lu is not None and lx != lu:
        raise ValueError(f"x_prev at level {lx} but u_prev at level {lu}")

    x_n = LatticeSignal(system.n, system.state_dim)
    y_n = LatticeSignal(system.n, system.output_dim)
    support = set(x_prev.entries) | set(u_prev.entries)
    for s in sorted(support):
        xs = x_prev[s]
        us = u_prev[s]
        for k in range(system.n):
            t = tuple(s[i] + (1 if i == k else 0) for i in range(system.n))
            x_n.add(t, system.a[k] @ xs + system.b[k] @ us)
            y_n.add(t, system.c[k] @ xs + system.d[k] @ us)
    return x_n, y_n


def simulate(
    system: MultiparametricSystem,
    x0: LatticeSignal,
    u: LatticeSignal,
    n_max: int,
) -> Trajectory:
    """Run the recursion from level-0 state data and inputs on levels >= 0."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    for t in x0.entries:
        if _level(t) != 0:
            raise ValueError(f"initial state point {t} is not at level 0")
    for t in u.entries:
        if _level(t) < 0:
            raise ValueError(f"input point {t} has negative level")

    x_all = LatticeSignal(system.n, system.state_dim, dict(x0.entries))
    y_all = LatticeSignal(system.n, system.output_dim)
    x_lev = x0
    for n in range(1, n_max + 1):
        u_lev = u.restrict_level(n - 1)
        x_lev, y_lev = evolve_level(system, x_lev, u_lev)
        for t, v in x_lev.entries.items():
            x_all.set(t, v)
        for t, v in y_lev.entries.items():
            y_all.set(t, v)
    return Trajectory(x=x_all, y=y_all, u=u, n_max=n_max)


@dataclass
class EnergyReport:
    """Per-level energies and balance residuals of one trajectory.

    Arrays are indexed by level.  The balance identity at level n >= 1
    compares the change of stored J-energy against net injected energy:

        signed_residual[n] = (E_J(n) - E_J(n-1)) - (in(n-1) - out(n))

    residuals are the absolute values for n = 1..n_max.
    """

    state_j_energy: np.ndarray
    input_energy: np.ndarray
    output_energy: np.ndarray
    signed_residuals: np.ndarray

    @property
    def residuals(self) -> np.ndarray:
        return np.abs(self.signed_residuals[1:])

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if self.residuals.size else 0.0


def energy_balance_report(trajectory: Trajectory, j: CanonicalSymmetry) -> EnergyReport:
    """Evaluate the level-by-level energy balance of a trajectory."""
    n_max = trajectory.n_max
    if j.dim != trajectory.x.dim:
        raise ValueError("state symmetry dimension does not match trajectory")
    e_state = np.zeros(n_max + 1)
    e_in = np.zeros(n_max + 1)
    e_out = np.zeros(n_max + 1)
    for n in range(n_max + 1):
        e_state[n] = trajectory.x.j_energy(n, j)
        e_in[n] = trajectory.u.hilbert_energy(n)
        e_out[n] = trajectory.y.hilbert_energy(n)
    signed = np.zeros(n_max + 1)
    for n in range(1, n_max + 1):
        signed[n] = (e_state[n] - e_state[n - 1]) - (e_in[n - 1] - e_out[n])
    return EnergyReport(
        state_j_energy=e_state,
        input_energy=e_in,
        output_energy=e_out,
        signed_residuals=signed,
    )


def impulse_patterns(
    kind: str,
    system: MultiparametricSystem,
    x0=None,
    u0=None,
    x1=None,
    x2=None,
    u1=None,
    u2=None,
    k: int | None = None,
    j: int | None = None,
) -> tuple[LatticeSignal, LatticeSignal]:
    """Level-0 test patterns that polarize the coefficient conditions.

    kind "single": state x0 and input u0 at the origin.
    kind "pair": (x1, u1) at the point e_k - e_j and (x2, u2) at the
    origin, with k != j; evolving one level makes the contributions of
    directions j and k collide at the single point e_k.
    """
    dx, du = system.state_dim, system.input_dim
    zx = np.zeros(dx, dtype=np.complex128)
    zu = np.zeros(du, dtype=np.complex128)
    origin = (0,) * system.n
    xsig = LatticeSignal(system.n, dx)
    usig = LatticeSignal(system.n, du)
    if kind == "single":
        xsig.set(origin, zx if x0 is None else x0)
        usig.set(origin, zu if u0 is None else u0)
    elif kind == "pair":
        if k is None or j is None or k == j:
            raise ValueError("pair pattern needs distinct direction indices k and j")
        shift = tuple(
            (1 if i == k else 0) - (1 if i == j else 0) for i in range(system.n)
        )
        xsig.set(shift, zx if x1 is None else x1)
        xsig.set(origin, zx if x2 is None else x2)
        usig.set(shift, zu if u1 is None else u1)
        usig.set(origin, zu if u2 is None else u2)
    else:
        raise ValueError(f"unknown pattern kind {kind!r}")
    return xsig, usig


def _pattern_residual(system, j, xsig, usig) -> float:
    traj = simulate(system, xsig, usig, n_max=1)
    report = energy_balance_report(traj, j)
    return float(report.signed_residuals[1])


def _split_vector(system, w):
    dx = system.state_dim
    return w[:dx], w[dx:]


def _probe_forward(system: MultiparametricSystem, j: CanonicalSymmetry):
    """Recover sum_k G_k* J2 G_k - J1 and the cross products from runs."""
    dim = system.state_dim + system.input_dim
    basis = np.eye(dim, dtype=np.complex128)

    def single(w):
        xv, uv = _split_vector(system, w)
        xs, us = impulse_patterns("single", system, x0=xv, u0=uv)
        return _pattern_residual(system, j, xs, us)

    q = np.array([single(basis[:, a]) for a in range(dim)])
    delta = np.zeros((dim, dim), dtype=np.complex128)
    for a in range(dim):
        delta[a, a] = q[a]
        for b in range(a + 1, dim):
            re = single(basis[:, a] + basis[:, b]) - q[a] - q[b]
            im = single(basis[:, a] + 1j * basis[:, b]) - q[a] - q[b]
            delta[a, b] = 0.5 * re - 0.5j * im
            delta[b, a] = np.conj(delta[a, b])
    r1 = opnorm(delta)

    r2 = 0.0
    for kk in range(system.n):
        for jj in range(system.n):
            if kk == jj:
                continue
            cross = np.zeros((dim, dim), dtype=np.complex128)
            for a in range(dim):
                for b in range(dim):
                    xa, ua = _split_vector(system, basis[:, a])
                    xb, ub = _split_vector(system, basis[:, b])
                    xs, us = impulse_patterns(
                        "pair", system, x1=xa, u1=ua, x2=xb, u2=ub, k=kk, j=jj
                    )
                    rre = _pattern_residual(system, j, xs, us) - q[a] - q[b]
                    xs, us = impulse_patterns(
                        "pair", system, x1=xa, u1=ua, x2=1j * xb, u2=1j * ub, k=kk, j=jj
                    )
                    rim = _pattern_residual(system, j, xs, us) - q[a] - q[b]
                    cross[a, b] = 0.5 * rre - 0.5j * rim
            r2 = max(r2, opnorm(cross))
    return r1, r2


def coefficient_defect_probe(
    system: MultiparametricSystem, j: CanonicalSymmetry
) -> tuple[float, float, float, float]:
    """Estimate the four conservativity defects from simulation alone.

    Runs single and pair impulse patterns through one evolution level
    and polarizes the energy-balance residuals (including the variant
    with the second vector rotated by i) into the hermitian defect
    matrices.  Residuals of the adjoint system supply the other two
    conditions.  Agrees with the algebraic defects up to roundoff.
    """
    r1, r2 = _probe_forward(system, j)
    r3, r4 = _probe_forward(conjugate_system(system), j)
    return (r1, r2, r3, r4)


def energy_growth_factor(system: MultiparametricSystem) -> float:
    """Per-level bound: E_{x,y}(n) <= N^3 max_k ||G_k||^2 E_{x,u}(n-1)."""
    ops = system_operators(system)
    return system.n**3 * max(opnorm(g) for g in ops) ** 2
