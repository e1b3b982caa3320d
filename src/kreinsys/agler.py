"""Certified kernel decompositions for linear operator pencils.

For a pencil zG = sum_k z_k G_k acting X (+) U -> X (+) Y, this module
builds polynomial families F_k(z) with values in Krein spaces
(M_k, J^(k)), J^(k) = I (+) (-I), such that

    I - (lG)*(zG) = sum_k (1 - conj(l_k) z_k) F_k(l)* J^(k) F_k(z)

holds exactly in the degree limit and within a certified bound
eta(r, d) = C * r^(2(d+1)) / (1 - r^2) at truncation degree d on the
closed polydisk of radius r.  The construction is fully explicit:

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

whose norm on the r-polydisk is bounded by the stored eta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from .krein import CanonicalSymmetry, hermitian_sqrt, opnorm
from .systems import SystemOperatorTuple, fourier_grid
from .transfer import TruncatedOperatorSeries, _transfer_parts, eval_series

__all__ = [
    "DecompositionComponent",
    "AglerDecomposition",
    "epsilon_bounds",
    "construct_pencil_decomposition",
    "verify_kernel_identity",
    "derived_zero_identities",
    "transform_identities",
    "prop2_functions",
    "gram_feasibility_search",
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
    def codomain_dim(self) -> int:
        return sum(c.dim for c in self.components)

    @property
    def signature(self) -> tuple[int, int]:
        return (
            sum(c.m_plus for c in self.components),
            sum(c.m_minus for c in self.components),
        )

    def j_m(self) -> CanonicalSymmetry:
        blocks = [c.j.matrix for c in self.components]
        return CanonicalSymmetry(block_diag(*blocks))

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

    def stacked_value(self, z) -> np.ndarray:
        return np.vstack(self.evaluate(z))

    def stacked_coefficient(self, t) -> np.ndarray:
        return np.vstack([c.coefficient(t) for c in self.components])

    def f0(self) -> np.ndarray:
        return self.stacked_coefficient((0,) * self.n)


def epsilon_bounds(g: SystemOperatorTuple, torus_samples=None) -> tuple[float, float]:
    """Bracket the admissible pencil scale.

    lower: max over torus samples of ||zeta G|| — no decomposition with
    a smaller scale can exist since unimodular scalars are commuting
    contractions.  upper: N max_k ||G_k||, always sufficient for the
    explicit construction.
    """
    if torus_samples is None:
        torus_samples = fourier_grid(g.n)
    lower = 0.0
    for zeta in torus_samples:
        lower = max(lower, opnorm(g.pencil(zeta)))
    upper = g.n * max(opnorm(gk) for gk in g.operators)
    return (lower, upper)


def _unit(n: int, k: int) -> tuple:
    return tuple(1 if i == k else 0 for i in range(n))


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
    epsilon: float,
    degree: int,
    radius: float = 0.5,
) -> AglerDecomposition:
    """Build the explicit certified decomposition of the pencil zG."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if not 0 < radius < 1:
        raise ValueError("radius must lie in (0, 1)")
    n = g.n
    q = g.operators[0].shape[1]
    p = g.operators[0].shape[0]
    norms = [opnorm(gk) for gk in g.operators]
    feasible = max(1.0, n * max(norms))

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
    c1 = sum(opnorm(db @ db) for db in d_blocks) + (epsilon**2 - 1.0)
    for j in range(n):
        for k in range(j + 1, n):
            c1 += (norms[j] + norms[k]) ** 2
    eta = c1 * radius ** (2 * (degree + 1)) / (1.0 - radius**2)

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
        acc -= (1.0 - np.conj(lam[k]) * z[k]) * (vl.conj().T @ (c.j.matrix @ vz))
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
    bound = dec.eta + 10 * np.finfo(float).eps * max(1.0, dec.epsilon**2)
    if enforce and worst > bound:
        raise ValueError(f"kernel residual {worst:.3e} exceeds certificate {bound:.3e}")
    return worst


def _split_value(dec: AglerDecomposition, values: list):
    plus = [v[: c.m_plus] for v, c in zip(values, dec.components)]
    minus = [v[c.m_plus :] for v, c in zip(values, dec.components)]
    return plus, minus


def derived_zero_identities(dec: AglerDecomposition, z_samples=None) -> dict:
    """Residuals of the zero-point identities of the decomposition.

    The constant rows are slot-disjoint from all higher-degree rows,
    so each of these holds exactly for constructed decompositions:
      f_plus:  F+(0)* F+(z) = eps^2 I         (all z)
      f_minus: F-(0)* F-(z) = (eps^2 - 1) I   (all z)
      polarization: (F(l)-F(0))* J_M (F(z)-F(0))
                    = F(l)* J_M F(z) - F(0)* J_M F(0)
      semiunitary: F(0)* J_M F(0) = I
    """
    if z_samples is None:
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
    jm = dec.j_m().matrix
    f0 = np.vstack(values0)

    report = {
        "f_plus_00": opnorm(fp0.conj().T @ fp0 - dec.epsilon**2 * eye),
        "semiunitary": opnorm(f0.conj().T @ jm @ f0 - eye),
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
        lhs = (fz - f0).conj().T @ jm @ (fz - f0)
        rhs = fz.conj().T @ jm @ fz - f0.conj().T @ jm @ f0
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
    jm = dec.j_m().matrix
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
                lp.conj().T @ jm @ zp - d_l.conj().T @ jm @ d_z - lg.conj().T @ zg
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
                hl[k].conj().T @ (c.j.matrix @ hz[k])
            )
        worst = max(worst, opnorm(acc))
        h_values.append((hl, hz))
    return h_values, worst


def gram_feasibility_search(
    g: SystemOperatorTuple,
    epsilon: float,
    degree: int,
    radius: float = 0.5,
    max_iter: int = 500,
    tol: float = 1e-10,
):
    """Best-effort search for positive parts at scales below N max ||G_k||.

    Looks for PSD Gram matrices T_k over the monomial blocks of degree
    <= degree whose telescoped sum matches the positive-part identity

        eps^2 I - (lG)*(zG) = sum_k (1 - conj(l_k) z_k) F_k+(l)* F_k+(z)

    by alternating single-constraint corrections with projection onto
    the PSD cone.  The negative rows are taken from the explicit
    geometric construction unchanged.  Returns (dec, info) on success
    or (None, info) if the iteration stalls; never required by the
    main pipeline.
    """
    from .transfer import multi_indices

    if epsilon < 1.0:
        raise ValueError("scale must be at least 1")
    n = g.n
    q = g.operators[0].shape[1]
    monomials = [t for lev in range(degree + 1) for t in multi_indices(n, lev)]
    mono_pos = {t: i for i, t in enumerate(monomials)}
    nm = len(monomials)

    def rhs(s, t):
        if sum(s) == 0 and sum(t) == 0:
            return epsilon**2 * np.eye(q, dtype=np.complex128)
        if sum(s) == 1 and sum(t) == 1:
            jj, kk = s.index(1), t.index(1)
            return -g.operators[jj].conj().T @ g.operators[kk]
        return np.zeros((q, q), dtype=np.complex128)

    # constraints live on pairs (s, t) with |s|,|t| <= degree + 1 shifted
    # back into range; entries of T_k are indexed by monomial pairs
    t_mats = [np.zeros((nm * q, nm * q), dtype=np.complex128) for _ in range(n)]

    def blk(tk, s, t):
        i, j = mono_pos[s] * q, mono_pos[t] * q
        return tk[i : i + q, j : j + q]

    def set_blk(tk, s, t, v):
        i, j = mono_pos[s] * q, mono_pos[t] * q
        tk[i : i + q, j : j + q] = v

    def shifted(t, k):
        out = list(t)
        out[k] -= 1
        return tuple(out) if out[k] >= 0 else None

    constraints = []
    for s in monomials + [tuple(np.add(t, _unit(n, k))) for t in monomials for k in range(n)]:
        if sum(s) > degree + 1:
            continue
        for t in monomials + [
            tuple(np.add(tt, _unit(n, k))) for tt in monomials for k in range(n)
        ]:
            if sum(t) > degree + 1:
                continue
            terms = []
            for k in range(n):
                if max(s) <= degree and max(t) <= degree and s in mono_pos and t in mono_pos:
                    terms.append((k, s, t, 1.0))
                ss, ts = shifted(s, k), shifted(t, k)
                if ss is not None and ts is not None and ss in mono_pos and ts in mono_pos:
                    terms.append((k, ss, ts, -1.0))
            if terms:
                constraints.append((s, t, terms))
    constraints = list({(s, t): (s, t, terms) for s, t, terms in constraints}.values())

    violation = np.inf
    for _ in range(max_iter):
        violation = 0.0
        for s, t, terms in constraints:
            val = sum(sign * blk(t_mats[k], ss, ts) for k, ss, ts, sign in terms)
            err = val - rhs(s, t)
            violation = max(violation, opnorm(err))
            corr = err / len(terms)
            for k, ss, ts, sign in terms:
                set_blk(t_mats[k], ss, ts, blk(t_mats[k], ss, ts) - sign * corr)
        psd_defect = 0.0
        for k in range(n):
            h = 0.5 * (t_mats[k] + t_mats[k].conj().T)
            w, v = np.linalg.eigh(h)
            psd_defect = max(psd_defect, max(0.0, -float(w.min())))
            w = np.clip(w, 0.0, None)
            t_mats[k] = (v * w) @ v.conj().T
        if violation <= tol and psd_defect <= tol:
            break
    info = {"violation": violation, "iterations": max_iter, "converged": violation <= tol}
    if violation > tol:
        return None, info

    # factor each Gram into positive rows; the negative part is the
    # geometric construction at the requested scale
    components = []
    neg_weight = (epsilon**2 - 1.0) / n
    m_minus = 0 if abs(epsilon - 1.0) <= 1e-14 else (degree + 1) * q
    for k in range(n):
        w, v = np.linalg.eigh(0.5 * (t_mats[k] + t_mats[k].conj().T))
        keep = w > tol
        rows = np.sqrt(w[keep])[:, None] * v[:, keep].conj().T
        m_plus = rows.shape[0]
        coeffs: dict[tuple, np.ndarray] = {}
        for i, t in enumerate(monomials):
            blkrows = rows[:, i * q : (i + 1) * q]
            if np.any(blkrows != 0):
                coeffs.setdefault(
                    t, np.zeros((m_plus + m_minus, q), dtype=np.complex128)
                )[:m_plus] += blkrows
        for power in range(degree + 1):
            if not m_minus:
                break
            t = _scaled_index(n, k, power)
            coeffs.setdefault(t, np.zeros((m_plus + m_minus, q), dtype=np.complex128))[
                m_plus + power * q : m_plus + (power + 1) * q
            ] += np.sqrt(neg_weight) * np.eye(q)
        if not coeffs:
            coeffs[(0,) * n] = np.zeros((m_plus + m_minus, q), dtype=np.complex128)
        series = TruncatedOperatorSeries(n=n, degree=degree, coefficients=coeffs)
        components.append(
            DecompositionComponent(index=k, m_plus=m_plus, m_minus=m_minus, series=series)
        )
    # certificate: the matching violations spread over the monomial pairs
    # they sit on, plus the geometric tail of the negative rows
    spread = violation * sum(radius ** (sum(s) + sum(t)) for s, t, _ in constraints)
    neg_tail = (epsilon**2 - 1.0) * radius ** (2 * (degree + 1)) / (1.0 - radius**2)
    dec = AglerDecomposition(
        n=n,
        epsilon=float(epsilon),
        components=tuple(components),
        radius=radius,
        degree=degree,
        eta=float(spread + neg_tail),
        exact=False,
    )
    return dec, info
