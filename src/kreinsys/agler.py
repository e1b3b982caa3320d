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

The dilation reads a decomposition only through the per-component
coefficient Grams C_k* J^(k) C_k, so minimal_factor replaces each F_k by
the fewest rows that reproduce its Gram.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .krein import RANK_RTOL, CanonicalSymmetry, hermitian_sqrt, opnorm
from .systems import SystemOperatorTuple, fourier_grid
from .transfer import TruncatedOperatorSeries, _transfer_parts, eval_series

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

    @property
    def j(self) -> CanonicalSymmetry:
        signs = np.concatenate([np.ones(self.m_plus), -np.ones(self.m_minus)])
        return CanonicalSymmetry.from_signs(signs)

    def value(self, z) -> np.ndarray:
        return eval_series(self.series, z).value

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
        ranges = []
        offset = 0
        for c in self.components:
            ranges.append((offset, offset + c.dim))
            offset += c.dim
        return ranges

    def negative_row_mask(self) -> np.ndarray:
        mask = np.zeros(self.codomain_dim, dtype=bool)
        for (lo, hi), c in zip(self.component_row_ranges(), self.components):
            mask[lo + c.m_plus : hi] = True
        return mask

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
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if not 0 < radius < 1:
        raise ValueError("radius must lie in (0, 1)")
    n = g.n
    q = g.operators[0].shape[1]
    p = g.operators[0].shape[0]
    norms = [opnorm(gk) for gk in g.operators]
    feasible = max(1.0, n * max(norms))
    if epsilon is None:
        epsilon = feasible
    if epsilon < 1.0:
        raise ValueError(f"scale {epsilon} below 1; minimal feasible scale is {feasible}")

    if abs(epsilon - 1.0) <= 1e-14 and _exact_branch_applies(g):
        # constant decomposition: F_k = G_k closes the identity exactly
        components = []
        for k in range(n):
            series = TruncatedOperatorSeries(
                n=n, degree=0, coefficients={(0,) * n: g.operators[k]}
            )
            components.append(
                DecompositionComponent(index=k, m_plus=p, m_minus=0, series=series)
            )
        return AglerDecomposition(
            n=n,
            epsilon=1.0,
            components=tuple(components),
            radius=radius,
            degree=0,
            eta=0.0,
            exact=True,
        )

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
    c1 = sum(opnorm(eye / n - n * gk.conj().T @ gk) for gk in g.operators)
    c1 += sum((norms[j] + norms[k]) ** 2 for j in range(n) for k in range(j + 1, n))
    eta = c1 * radius ** (2 * (degree + 1))

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
        eta=float(eta),
        exact=False,
    )


def minimal_factor(dec: AglerDecomposition) -> tuple[AglerDecomposition, float]:
    """The decomposition with each component cut to the rank of its Gram.

    Component k stacks its nonzero coefficients side by side as C_k, so
    every kernel term F_k(l)* J^(k) F_k(z) is a compression of the Gram
    C_k* J^(k) C_k.  With the hermitian part of that Gram written as
    W Lambda W*, and eigenvalues with |lambda| <= RANK_RTOL max|lambda|
    dropped, the rows |Lambda|^(1/2) W* with J^(k) = sign(Lambda), positive
    rows first, reproduce it with as many rows as it has nonzero
    eigenvalues: the finite analogue of the minimal Pontryagin-space
    factor of a kernel.  Returns the factored decomposition and ``factor``,
    the worst spectral-norm mismatch between the explicit and the factored
    Grams.
    """
    q = dec.domain_dim
    components = []
    worst = 0.0
    for c in dec.components:
        keys = [t for t, m in c.series.coefficients.items() if np.any(m)]
        keys = keys or list(c.series.coefficients)  # a zero component keeps no rows
        stacked = np.hstack([c.coefficient(t) for t in keys])
        gram = (stacked.conj().T * c.j.signs) @ stacked
        lam, w = np.linalg.eigh(0.5 * (gram + gram.conj().T))
        keep = np.flatnonzero(np.abs(lam) > RANK_RTOL * np.max(np.abs(lam), initial=0.0))
        keep = keep[np.argsort(lam[keep] < 0, kind="stable")]
        signs = np.sign(lam[keep])
        rows = np.sqrt(np.abs(lam[keep]))[:, None] * w[:, keep].conj().T
        worst = max(worst, opnorm(gram - (rows.conj().T * signs) @ rows))
        coeffs = {t: rows[:, i * q : (i + 1) * q] for i, t in enumerate(keys)}
        series = TruncatedOperatorSeries(n=dec.n, degree=c.series.degree, coefficients=coeffs)
        m_plus = int(np.sum(signs > 0))
        components.append(
            DecompositionComponent(
                index=c.index, m_plus=m_plus, m_minus=signs.size - m_plus, series=series
            )
        )
    return replace(dec, components=tuple(components)), float(worst)


def _check_pairs(dec: AglerDecomposition, pairs):
    checked = []
    for lam, z in pairs:
        lam = np.asarray(lam, dtype=np.complex128).reshape(-1)
        z = np.asarray(z, dtype=np.complex128).reshape(-1)
        if lam.size != dec.n or z.size != dec.n:
            raise ValueError(f"pair points must lie in C^{dec.n}")
        if max(np.max(np.abs(lam)), np.max(np.abs(z))) > dec.radius + 1e-12:
            raise ValueError(
                f"pair ({lam.tolist()}, {z.tolist()}) outside certified radius {dec.radius}"
            )
        checked.append((lam, z))
    return checked


def kernel_residual(g: SystemOperatorTuple, dec: AglerDecomposition, lam, z) -> float:
    """Residual of the kernel identity at one pair."""
    q = dec.domain_dim
    lg = g.pencil(lam)
    zg = g.pencil(z)
    acc = np.eye(q, dtype=np.complex128) - lg.conj().T @ zg
    for k, c in enumerate(dec.components):
        vl = c.value(lam)
        vz = c.value(z)
        acc -= (1.0 - np.conj(lam[k]) * z[k]) * (vl.conj().T @ c.j.apply(vz))
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
    worst = 0.0
    for lam, z in _check_pairs(dec, pairs):
        worst = max(worst, kernel_residual(g, dec, lam, z))
    if enforce and worst > dec.kernel_bound:
        raise ValueError(f"kernel residual {worst:.3e} exceeds certificate {dec.kernel_bound:.3e}")
    return worst


def _split_value(dec: AglerDecomposition, values: list):
    plus = [v[: c.m_plus] for v, c in zip(values, dec.components)]
    minus = [v[c.m_plus :] for v, c in zip(values, dec.components)]
    return plus, minus


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
    z_samples = [
        dec.radius * rng.uniform(-1, 1, dec.n) * np.exp(2j * np.pi * rng.uniform(size=dec.n))
        for _ in range(20)
    ]
    q = dec.domain_dim
    eye = np.eye(q)
    zero = (0,) * dec.n
    values0 = [c.coefficient(zero) for c in dec.components]
    plus0, minus0 = _split_value(dec, values0)
    fp0 = np.vstack(plus0)
    fm0 = np.vstack(minus0)
    signs = dec.j_m().signs
    f0 = np.vstack(values0)

    report = {
        "f_plus_00": opnorm(fp0.conj().T @ fp0 - dec.epsilon**2 * eye),
        "semiunitary": opnorm((f0.conj().T * signs) @ f0 - eye),
        "f_plus": 0.0,
        "f_minus": 0.0,
        "polarization": 0.0,
    }
    for z in z_samples:
        values = dec.evaluate(z)
        plus, minus = _split_value(dec, values)
        fpz = np.vstack(plus)
        fmz = np.vstack(minus)
        report["f_plus"] = max(
            report["f_plus"], opnorm(fp0.conj().T @ fpz - dec.epsilon**2 * eye)
        )
        if fm0.shape[0]:
            report["f_minus"] = max(
                report["f_minus"],
                opnorm(fm0.conj().T @ fmz - (dec.epsilon**2 - 1.0) * eye),
            )
        fz = np.vstack(values)
        lhs = ((fz - f0).conj().T * signs) @ (fz - f0)
        rhs = (fz.conj().T * signs) @ fz - (f0.conj().T * signs) @ f0
        report["polarization"] = max(report["polarization"], opnorm(lhs - rhs))
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
    values0 = [c.coefficient(zero) for c in dec.components]
    plus0, minus0 = _split_value(dec, values0)
    signs = dec.j_m().signs
    f0 = np.vstack(values0)
    for lam, z in _check_pairs(dec, pairs):
        vl = dec.evaluate(lam)
        vz = dec.evaluate(z)
        pl, ml = _split_value(dec, vl)
        pz, mz = _split_value(dec, vz)
        lg = g.pencil(lam)
        zg = g.pencil(z)

        lp_plus = np.vstack([lam[k] * v for k, v in enumerate(pl)])
        zp_plus = np.vstack([z[k] * v for k, v in enumerate(pz)])
        dp_l = np.vstack(pl) - np.vstack(plus0)
        dp_z = np.vstack(pz) - np.vstack(plus0)
        report["plus"] = max(
            report["plus"],
            opnorm(lp_plus.conj().T @ zp_plus - dp_l.conj().T @ dp_z - lg.conj().T @ zg),
        )

        lp_minus = np.vstack([lam[k] * v for k, v in enumerate(ml)])
        zp_minus = np.vstack([z[k] * v for k, v in enumerate(mz)])
        dm_l = np.vstack(ml) - np.vstack(minus0)
        dm_z = np.vstack(mz) - np.vstack(minus0)
        if lp_minus.shape[0]:
            report["minus"] = max(
                report["minus"],
                opnorm(lp_minus.conj().T @ zp_minus - dm_l.conj().T @ dm_z),
            )

        lp = np.vstack([lam[k] * v for k, v in enumerate(vl)])
        zp = np.vstack([z[k] * v for k, v in enumerate(vz)])
        d_l = np.vstack(vl) - f0
        d_z = np.vstack(vz) - f0
        report["sum"] = max(
            report["sum"],
            opnorm(lp.conj().T @ zp - d_l.conj().T @ d_z - lg.conj().T @ zg),
        )
        report["jweighted"] = max(
            report["jweighted"],
            opnorm(
                (lp.conj().T * signs) @ zp - (d_l.conj().T * signs) @ d_z - lg.conj().T @ zg
            ),
        )
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
    checked = _check_pairs(dec, pairs)
    h_values = []
    worst = 0.0

    def h_at(z):
        x, theta = _transfer_parts(system, z)
        col = np.vstack([x, np.eye(du)])
        return [c.value(z) @ col for c in dec.components], theta

    for lam, z in checked:
        hl, theta_l = h_at(lam)
        hz, theta_z = h_at(z)
        acc = np.eye(du, dtype=np.complex128)
        acc -= theta_l.conj().T @ theta_z
        for k, c in enumerate(dec.components):
            acc -= (1.0 - np.conj(lam[k]) * z[k]) * (
                hl[k].conj().T @ c.j.apply(hz[k])
            )
        worst = max(worst, opnorm(acc))
        h_values.append((hl, hz))
    return h_values, worst
