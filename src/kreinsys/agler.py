"""Certified kernel decompositions for linear operator pencils.

For a pencil zG = sum_k z_k G_k acting X (+) U -> X (+) Y, this module
builds polynomial families F_k(z) with values in Krein spaces
(M_k, J^(k)), J^(k) = I (+) (-I), such that

    I - (lG)*(zG) = sum_k (1 - conj(l_k) z_k) F_k(l)* J^(k) F_k(z)

holds exactly in the degree limit and within a certified bound eta(r, d)
at truncation degree d on the closed polydisk of radius r.  The
construction is fully explicit:

  (a) positive rows per variable: (eps/sqrt(N)) I at degree 0 and
      z_k^n D_k for n = 1..d, with D_k = ((eps^2/N) I - N G_k*G_k)^(1/2);
  (b) positive cross rows for each pair j < k, assigned to component j:
      z_j^n (z_j G_j - z_k G_k) for n = 0..d-1;
  (c) negative rows per variable: sqrt((eps^2-1)/N) z_k^n I, n = 0..d,
      omitted entirely when eps = 1.

The scale eps must satisfy eps >= max(1, N max_k ||G_k||).  When the
pencil coefficients already satisfy sum_k G_k*G_k = I with pairwise
orthogonal products (G_j*G_k = 0), the constant choice F_k = G_k closes
the identity exactly with eps = 1 and no negative rows at all; the
constructor detects and uses that branch.

The telescoping of the geometric rows makes the finite-degree residual
exactly

    sum_k w_k^(d+1) (D_k^2 - ((eps^2-1)/N) I)
        + sum_{j<k} w_j^d Q_jk(l)* Q_jk(z),      w_k = conj(l_k) z_k,

with D_k^2 - ((eps^2-1)/N) I = I/N - N G_k*G_k and Q_jk(z) = z_j G_j - z_k G_k.
Since |w_k| <= r^2 and ||Q_jk|| <= r (||G_j|| + ||G_k||), its norm on the
r-polydisk is at most the stored, scale-free

    eta = r^(2(d+1)) [sum_k ||I/N - N G_k*G_k|| + sum_{j<k} (||G_j|| + ||G_k||)^2].

The dilation reads a decomposition only through the coefficient Grams
C_k* J^(k) C_k.  They are free of eps and r, and block diagonal with one
block repeated at every degree (pencil_gram), so minimal_factor factors
each block, from G alone, into the fewest rows that reproduce it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .krein import RANK_RTOL, CanonicalSymmetry, hermitian_sqrt, opnorm
from .systems import SystemOperatorTuple, _points, fourier_grid
from .transfer import (
    TruncatedOperatorSeries,
    _operator_entries,
    _point_blocks,
    _transfer_parts,
    eval_series,
)

__all__ = [
    "DecompositionComponent",
    "AglerDecomposition",
    "epsilon_bounds",
    "construct_pencil_decomposition",
    "verify_kernel_identity",
    "kernel_residual",
    "derived_zero_identities",
    "transform_identities",
    "prop2_functions",
    "pencil_gram",
    "minimal_factor",
]

EXACT_BRANCH_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DecompositionComponent:
    """One variable's function F_k with its Krein signature split."""

    index: int
    m_plus: int
    m_minus: int
    series: TruncatedOperatorSeries

    def __post_init__(self):
        if self.series.shape[0] != self.m_plus + self.m_minus:
            raise ValueError("row count does not match m_plus + m_minus")

    @property
    def dim(self) -> int:
        return self.m_plus + self.m_minus

    @cached_property
    def j(self) -> CanonicalSymmetry:
        signs = np.concatenate([np.ones(self.m_plus), -np.ones(self.m_minus)])
        return CanonicalSymmetry.from_signs(signs)

    def value(self, z) -> np.ndarray:
        """F_k at a point, or an (S, rows, cols) stack at the rows of an (S, N) array."""
        return eval_series(self.series, z)

    def coefficient(self, t) -> np.ndarray:
        return self.series.coefficient(t)


@dataclass(frozen=True, eq=False)
class AglerDecomposition:
    """Certified truncated kernel decomposition of a pencil."""

    n: int
    epsilon: float
    components: tuple
    radius: float
    degree: int
    eta: float
    exact: bool = False

    def __post_init__(self):
        if len(self.components) != self.n:
            raise ValueError("need one component per variable")
        if self.epsilon < 1.0:
            raise ValueError("scale must be at least 1")

    @property
    def domain_dim(self) -> int:
        return self.components[0].series.shape[1]

    @property
    def kernel_bound(self) -> float:
        """Certificate eta plus a roundoff allowance: the most a kernel residual may be."""
        return self.eta + 10 * np.finfo(float).eps * max(1.0, self.epsilon**2)

    @property
    def codomain_dim(self) -> int:
        return sum(c.dim for c in self.components)

    @property
    def signature(self) -> tuple[int, int]:
        return (
            sum(c.m_plus for c in self.components),
            sum(c.m_minus for c in self.components),
        )

    def j_m(self) -> CanonicalSymmetry:
        return CanonicalSymmetry.direct_sum(*(c.j for c in self.components))

    def component_row_ranges(self):
        """Row range of each component inside the stacked codomain."""
        ends = list(accumulate(c.dim for c in self.components))
        return [(end - c.dim, end) for c, end in zip(self.components, ends)]

    def evaluate(self, z) -> list:
        return [c.value(z) for c in self.components]

    def stacked_coefficient(self, t) -> np.ndarray:
        return np.vstack([c.coefficient(t) for c in self.components])

    def f0(self) -> np.ndarray:
        return self.stacked_coefficient((0,) * self.n)


def epsilon_bounds(g: SystemOperatorTuple) -> tuple[float, float]:
    """Bracket the admissible pencil scale.

    lower: max over the Fourier grid of the torus of ||zeta G|| — no
    decomposition with a smaller scale can exist since unimodular scalars
    are commuting contractions.  upper: N max_k ||G_k||, always sufficient
    for the explicit construction.
    """
    lower = 0.0
    for zeta in fourier_grid(g.n):
        lower = max(lower, opnorm(g.pencil(zeta)))
    upper = g.n * max(opnorm(gk) for gk in g.operators)
    return (lower, upper)


def _scaled_index(n: int, k: int, power: int) -> tuple:
    return tuple(power if i == k else 0 for i in range(n))


def _eta(g: SystemOperatorTuple, degree: int, radius: float) -> float:
    """The scale-free certificate eta(r, d) of the module docstring."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if not 0 < radius < 1:
        raise ValueError("radius must lie in (0, 1)")
    n = g.n
    eye = np.eye(g.operators[0].shape[1], dtype=np.complex128)
    norms = [opnorm(gk) for gk in g.operators]
    c1 = sum(opnorm(eye / n - n * gk.conj().T @ gk) for gk in g.operators)
    c1 += sum((norms[j] + norms[k]) ** 2 for j in range(n) for k in range(j + 1, n))
    return float(c1 * radius ** (2 * (degree + 1)))


def _exact_branch_applies(g: SystemOperatorTuple) -> bool:
    q = g.operators[0].shape[1]
    sum_defect = opnorm(sum(gk.conj().T @ gk for gk in g.operators) - np.eye(q))
    if sum_defect > EXACT_BRANCH_TOL:
        return False
    for k in range(g.n):
        for l in range(g.n):
            if k != l and opnorm(g.operators[k].conj().T @ g.operators[l]) > EXACT_BRANCH_TOL:
                return False
    return True


def construct_pencil_decomposition(
    g: SystemOperatorTuple,
    epsilon: float | None,
    degree: int,
    radius: float = 0.5,
) -> AglerDecomposition:
    """Build the explicit certified decomposition of the pencil zG at scale
    ``epsilon``, by default (None) the least it accepts, max(1, N max_k ||G_k||)."""
    eta = _eta(g, degree, radius)
    n = g.n
    q = g.operators[0].shape[1]
    p = g.operators[0].shape[0]
    feasible = max(1.0, n * max(opnorm(gk) for gk in g.operators))
    if epsilon is None:
        epsilon = feasible
    if epsilon < 1.0:
        raise ValueError(f"scale {epsilon} below 1; minimal feasible scale is {feasible}")

    if abs(epsilon - 1.0) <= 1e-14 and _exact_branch_applies(g):
        # constant decomposition: F_k = G_k closes the identity exactly
        components = tuple(
            DecompositionComponent(k, p, 0, TruncatedOperatorSeries(n, 0, {(0,) * n: gk}))
            for k, gk in enumerate(g.operators)
        )
        return AglerDecomposition(n, 1.0, components, radius, degree=0, eta=0.0, exact=True)

    if epsilon < feasible - 1e-12:
        raise ValueError(
            f"scale {epsilon} too small for the explicit construction; "
            f"minimal feasible scale is {feasible}"
        )

    eye = np.eye(q, dtype=np.complex128)
    neg_weight = (epsilon**2 - 1.0) / n
    d_blocks = []
    for k in range(n):
        d2 = (epsilon**2 / n) * eye - n * g.operators[k].conj().T @ g.operators[k]
        try:
            d_blocks.append(hermitian_sqrt(d2))
        except ValueError as exc:
            raise ValueError(
                f"defect block {k} is not positive semidefinite at scale {epsilon}; "
                f"minimal feasible scale is {feasible}"
            ) from exc

    components = []
    for k in range(n):
        pairs = [(k, l) for l in range(k + 1, n)]
        m_plus = (degree + 1) * q + degree * p * len(pairs)
        m_minus = 0 if abs(epsilon - 1.0) <= 1e-14 else (degree + 1) * q
        coeffs: dict[tuple, np.ndarray] = {}

        def block(t):
            if t not in coeffs:
                coeffs[t] = np.zeros((m_plus + m_minus, q), dtype=np.complex128)
            return coeffs[t]

        # (a) geometric defect rows
        block((0,) * n)[0:q] += (epsilon / np.sqrt(n)) * eye
        for power in range(1, degree + 1):
            block(_scaled_index(n, k, power))[power * q : (power + 1) * q] += d_blocks[k]
        # (b) cross rows z_k^n (z_k G_k - z_l G_l) for each pair (k, l)
        row = (degree + 1) * q
        for _, l in pairs:
            for power in range(degree):
                sl = slice(row, row + p)
                block(_scaled_index(n, k, power + 1))[sl] += g.operators[k]
                idx = list(_scaled_index(n, k, power))
                idx[l] += 1
                block(tuple(idx))[sl] -= g.operators[l]
                row += p
        # (c) negative geometric rows
        if m_minus:
            for power in range(degree + 1):
                sl = slice(m_plus + power * q, m_plus + (power + 1) * q)
                block(_scaled_index(n, k, power))[sl] += np.sqrt(neg_weight) * eye

        series = TruncatedOperatorSeries(n=n, degree=degree, coefficients=coeffs)
        components.append(
            DecompositionComponent(index=k, m_plus=m_plus, m_minus=m_minus, series=series)
        )

    return AglerDecomposition(
        n=n,
        epsilon=float(epsilon),
        components=tuple(components),
        radius=radius,
        degree=degree,
        eta=eta,
        exact=False,
    )


def pencil_gram(g: SystemOperatorTuple) -> list:
    """The degree step B_k of each component's coefficient Gram C_k* J^(k) C_k
    in the explicit construction.

    That Gram is free of eps and r, and block diagonal: I/N at key 0 and, for
    each n = 1..d, B_k on the keys n e_k and (n-1) e_k + e_l for l > k (k
    counted from 0).  B_k holds I/N - (k+1) G_k*G_k and the G_l*G_l on its
    diagonal, and -G_k*G_l between n e_k and (n-1) e_k + e_l.
    """
    n, q = g.n, g.operators[0].shape[1]
    steps = []
    for k, gk in enumerate(g.operators):
        step = np.zeros(((n - k) * q, (n - k) * q), dtype=np.complex128)
        step[:q, :q] = np.eye(q) / n - (k + 1) * gk.conj().T @ gk
        for i, gl in enumerate(g.operators[k + 1 :], start=1):
            at = slice(i * q, (i + 1) * q)
            step[at, at] = gl.conj().T @ gl
            step[:q, at] = -gk.conj().T @ gl
            step[at, :q] = -gl.conj().T @ gk
        steps.append(step)
    return steps


def minimal_factor(
    g: SystemOperatorTuple, degree: int, radius: float = 0.5
) -> tuple[AglerDecomposition, float]:
    """The fewest rows that reproduce every coefficient Gram of the pencil's
    decomposition at ``degree`` (pencil_gram), or G_k*G_k at key 0 alone
    (degree 0) when the exact branch applies.

    Each diagonal block, written as W Lambda W*, gives the rows |Lambda|^(1/2) W*
    with J^(k) = sign(Lambda), eigenvalues below the RANK_RTOL cut of the whole
    Gram dropped: the finite analogue of the minimal Pontryagin-space factor of
    a kernel.  The Grams are scale-free, so the factor carries eps = 1 and the
    explicit eta.  Returns it and ``factor``, the worst mismatch of a block.
    """
    n, q = g.n, g.operators[0].shape[1]
    eta = _eta(g, degree, radius)
    exact = _exact_branch_applies(g)
    if exact:
        degree, eta = 0, 0.0
        heads, steps = [gk.conj().T @ gk for gk in g.operators], [np.zeros((q, q))] * n
    else:
        heads, steps = [np.eye(q) / n] * n, pencil_gram(g)
    components, worst = [], 0.0
    for k, grams in enumerate(zip(heads, steps)):
        eig = [np.linalg.eigh(0.5 * (m + m.conj().T)) for m in grams]
        cut = RANK_RTOL * max(np.max(np.abs(lam), initial=0.0) for lam, _ in eig)
        parts = []
        for m, (lam, w) in zip(grams, eig):
            keep = np.abs(lam) > cut
            rows = np.sqrt(np.abs(lam[keep]))[:, None] * w[:, keep].conj().T
            worst = max(worst, float(opnorm(m - (rows.conj().T * np.sign(lam[keep])) @ rows)))
            parts.append((rows, np.sign(lam[keep])))
        (head, head_signs), (step, step_signs) = parts
        rows = np.zeros((len(head) + degree * len(step), q + degree * step.shape[1]), np.complex128)
        rows[: len(head), :q] = head
        rows[len(head) :, q:] = np.kron(np.eye(degree), step)
        signs = np.concatenate([head_signs, np.tile(step_signs, degree)])
        rows = rows[np.argsort(signs < 0, kind="stable")]  # positive rows first
        # key 0, then the step from degree p to p + 1 on the keys p e_k + e_l, l >= k
        keys = [(0,) * n]
        for below in (_scaled_index(n, k, power) for power in range(degree)):
            keys += [tuple(b + (i == l) for i, b in enumerate(below)) for l in range(k, n)]
        coeffs = {t: rows[:, i * q : (i + 1) * q] for i, t in enumerate(keys)}
        series = TruncatedOperatorSeries(n=n, degree=degree, coefficients=coeffs)
        m_plus = int(np.sum(signs > 0))
        components.append(DecompositionComponent(k, m_plus, signs.size - m_plus, series))
    fields = dict(n=n, epsilon=1.0, radius=radius, degree=degree, eta=eta, exact=exact)
    return AglerDecomposition(components=tuple(components), **fields), worst


def _adj(x: np.ndarray) -> np.ndarray:
    """Adjoint of a matrix, or of each matrix of a stack."""
    return x.conj().swapaxes(-1, -2)


def _blocks(dec: AglerDecomposition, count: int, entries: int = 0) -> list:
    """Point blocks sized for one component value, rows x columns, or ``entries``."""
    rows = max(c.dim for c in dec.components)
    return _point_blocks(count, max(entries, rows * dec.domain_dim))


def _check_pairs(dec: AglerDecomposition, pairs):
    """The pairs as two (S, N) arrays, each point inside the certified polydisk."""
    pairs = list(pairs)
    shape = (len(pairs), dec.n)
    try:
        lams = np.asarray([lam for lam, _ in pairs], dtype=np.complex128).reshape(shape)
        zs = np.asarray([z for _, z in pairs], dtype=np.complex128).reshape(shape)
    except ValueError:
        raise ValueError(f"pair points must lie in C^{dec.n}") from None
    reach = np.maximum(np.max(np.abs(lams), axis=1), np.max(np.abs(zs), axis=1))
    outside = np.flatnonzero(~(reach <= dec.radius + 1e-12))  # NaN is outside too
    if outside.size:
        i = outside[0]
        raise ValueError(
            f"pair ({lams[i].tolist()}, {zs[i].tolist()}) is not finite or lies "
            f"outside certified radius {dec.radius}"
        )
    return lams, zs


def kernel_residual(g: SystemOperatorTuple, dec: AglerDecomposition, lam, z):
    """Residual of the kernel identity at one pair, or the array of residuals at
    the pairs of rows of two (S, N) arrays."""
    lam, z = _points(lam, dec.n), _points(z, dec.n)
    acc = np.eye(dec.domain_dim, dtype=np.complex128) - _adj(g.pencil(lam)) @ g.pencil(z)
    for k, c in enumerate(dec.components):
        w = 1.0 - lam[..., k, None, None].conj() * z[..., k, None, None]
        acc -= w * (_adj(c.value(lam)) @ (c.j.signs[:, None] * c.value(z)))
    return opnorm(acc)


def verify_kernel_identity(
    g: SystemOperatorTuple,
    dec: AglerDecomposition,
    pairs,
    enforce: bool = False,
) -> float:
    """Max kernel residual over pairs inside the certified polydisk.

    With enforce=True, raises if the measured residual exceeds the
    stored certificate (plus a roundoff allowance).
    """
    lams, zs = _check_pairs(dec, pairs)
    worst = 0.0
    for blk in _blocks(dec, len(lams)):
        worst = max(worst, float(np.max(kernel_residual(g, dec, lams[blk], zs[blk]))))
    if enforce and worst > dec.kernel_bound:
        raise ValueError(f"kernel residual {worst:.3e} exceeds certificate {dec.kernel_bound:.3e}")
    return worst


def _split_value(dec: AglerDecomposition, values: list):
    """The positive and the negative rows of every component value, each stacked."""
    plus = [v[..., : c.m_plus, :] for v, c in zip(values, dec.components)]
    minus = [v[..., c.m_plus :, :] for v, c in zip(values, dec.components)]
    return np.concatenate(plus, axis=-2), np.concatenate(minus, axis=-2)


def derived_zero_identities(dec: AglerDecomposition) -> dict:
    """Residuals of the zero-point identities of the decomposition.

    The constant rows are slot-disjoint from all higher-degree rows,
    so each of these holds exactly for constructed decompositions
    (z over 20 seeded points of the certified polydisk):
      f_plus:  F+(0)* F+(z) = eps^2 I         (all z)
      f_minus: F-(0)* F-(z) = (eps^2 - 1) I   (all z)
      polarization: (F(l)-F(0))* J_M (F(z)-F(0))
                    = F(l)* J_M F(z) - F(0)* J_M F(0)
      semiunitary: F(0)* J_M F(0) = I
    """
    rng = np.random.default_rng(0)
    z_samples = np.array([
        dec.radius * rng.uniform(-1, 1, dec.n) * np.exp(2j * np.pi * rng.uniform(size=dec.n))
        for _ in range(20)
    ])
    q = dec.domain_dim
    eye = np.eye(q)
    f0 = dec.f0()
    fp0, fm0 = _split_value(dec, [c.coefficient((0,) * dec.n) for c in dec.components])
    signs = dec.j_m().signs

    report = {
        "f_plus_00": opnorm(_adj(fp0) @ fp0 - dec.epsilon**2 * eye),
        "semiunitary": opnorm((_adj(f0) * signs) @ f0 - eye),
        "f_plus": 0.0,
        "f_minus": 0.0,
        "polarization": 0.0,
    }
    for blk in _blocks(dec, len(z_samples)):
        values = dec.evaluate(z_samples[blk])
        fpz, fmz = _split_value(dec, values)
        fz = np.concatenate(values, axis=-2)
        lhs = (_adj(fz - f0) * signs) @ (fz - f0)
        rhs = (_adj(fz) * signs) @ fz - (_adj(f0) * signs) @ f0
        worst = {
            "f_plus": opnorm(_adj(fp0) @ fpz - dec.epsilon**2 * eye),
            "f_minus": opnorm(_adj(fm0) @ fmz - (dec.epsilon**2 - 1.0) * eye) if fm0.size else 0,
            "polarization": opnorm(lhs - rhs),
        }
        for key, value in worst.items():
            report[key] = max(report[key], float(np.max(value)))
    report["max"] = max(v for v in report.values())
    return report


def transform_identities(dec: AglerDecomposition, g: SystemOperatorTuple, pairs) -> dict:
    """Residuals of the rearranged identities behind the dilation step.

    With zP the block-diagonal multiplier z_k on component k, and E(z)
    the stacked column (F(z) - F(0); zG):

      plus:      (lP+ F+(l))*(zP+ F+(z)) = (F+(l)-F+(0))*(F+(z)-F+(0)) + (lG)*(zG)
      minus:     (lP- F-(l))*(zP- F-(z)) = (F-(l)-F-(0))*(F-(z)-F-(0))
      sum:       (lP F(l))*(zP F(z))     = E(l)* E(z)
      jweighted: (lP F(l))* J_M (zP F(z)) = E(l)* (J_M (+) I) E(z)
    """
    report = {"plus": 0.0, "minus": 0.0, "sum": 0.0, "jweighted": 0.0}
    zero = (0,) * dec.n
    plus0, minus0 = _split_value(dec, [c.coefficient(zero) for c in dec.components])
    signs = dec.j_m().signs
    f0 = dec.f0()
    lams, zs = _check_pairs(dec, pairs)
    for blk in _blocks(dec, len(lams)):
        lam, z = lams[blk], zs[blk]
        vl = dec.evaluate(lam)
        vz = dec.evaluate(z)
        pl, ml = _split_value(dec, vl)
        pz, mz = _split_value(dec, vz)
        lgzg = _adj(g.pencil(lam)) @ g.pencil(z)
        # zP F(z): z_k on the rows of component k
        lpv = [lam[:, k, None, None] * v for k, v in enumerate(vl)]
        zpv = [z[:, k, None, None] * v for k, v in enumerate(vz)]
        lp_plus, lp_minus = _split_value(dec, lpv)
        zp_plus, zp_minus = _split_value(dec, zpv)
        lp, zp = np.concatenate(lpv, axis=1), np.concatenate(zpv, axis=1)
        dp_l, dp_z = pl - plus0, pz - plus0
        dm_l, dm_z = ml - minus0, mz - minus0
        d_l, d_z = np.concatenate(vl, axis=1) - f0, np.concatenate(vz, axis=1) - f0
        worst = {
            "plus": opnorm(_adj(lp_plus) @ zp_plus - _adj(dp_l) @ dp_z - lgzg),
            "minus": opnorm(_adj(lp_minus) @ zp_minus - _adj(dm_l) @ dm_z),
            "sum": opnorm(_adj(lp) @ zp - _adj(d_l) @ d_z - lgzg),
            "jweighted": opnorm((_adj(lp) * signs) @ zp - (_adj(d_l) * signs) @ d_z - lgzg),
        }
        for key, value in worst.items():
            report[key] = max(report[key], float(np.max(value)))
    report["max"] = max(report.values())
    return report


def prop2_functions(system, dec: AglerDecomposition, pairs):
    """Kernel decomposition of I - theta(l)* theta(z) through the resolvent.

    H_k(z) := F_k(z) col((I - zA)^{-1} zB, I) maps the input space into
    M_k, and inherits the pencil identity:

        I_U - theta(l)* theta(z)
            = sum_k (1 - conj(l_k) z_k) H_k(l)* J^(k) H_k(z)

    Returns the H_k values at both points of every pair together with
    the max residual of the identity.
    """
    du = system.input_dim
    lams, zs = _check_pairs(dec, pairs)
    h_values = []
    worst = 0.0

    def h_at(z):
        x, theta = _transfer_parts(system, z)
        col = np.concatenate((x, np.broadcast_to(np.eye(du), (len(z), du, du))), axis=1)
        return [c.value(z) @ col for c in dec.components], theta

    for blk in _blocks(dec, len(lams), _operator_entries(system)):
        lam, z = lams[blk], zs[blk]
        hl, theta_l = h_at(lam)
        hz, theta_z = h_at(z)
        acc = np.eye(du, dtype=np.complex128) - _adj(theta_l) @ theta_z
        for k, c in enumerate(dec.components):
            w = 1.0 - lam[:, k, None, None].conj() * z[:, k, None, None]
            acc -= w * (_adj(hl[k]) @ (c.j.signs[:, None] * hz[k]))
        worst = max(worst, float(np.max(opnorm(acc))))
        h_values += [([h[i] for h in hl], [h[i] for h in hz]) for i in range(len(acc))]
    return h_values, worst
