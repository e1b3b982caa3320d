"""Conservative dilations built from certified pencil kernel decompositions.

Given a system alpha with operator tuple G and the decomposition F of
agler certifying

    I - (sum_k conj(l_k) G_k*)(sum_k z_k G_k)
        = sum_k (1 - conj(l_k) z_k) F_k(l)* J^(k) F_k(z)

on the polydisk, this module assembles a larger system alpha-tilde whose
corner compressions reproduce alpha exactly and whose transfer function
coincides with alpha's, and which is itself conservative for a canonical
symmetry read off from the decomposition signs.

The construction is coefficient-exact.  It reads F only through the
per-component coefficient Grams, which depend on G and the degree alone,
so it builds F as their minimal factor (agler.minimal_factor), whose row
count is the rank of those Grams; no scale eps enters.
Write M for the stacked row space of that F with symmetry J_M, q = dX + dU
for the column count, and F_hat_t for the degree-t coefficient of the
stacked F.  Three facts carry the build:

* F(0)* J_M F(0) = I_q and F(0)* J_M F_hat_t = 0 for 1 <= |t| <= degree,
  so K_0 := Ker(F(0)* J_M) is a regular subspace containing every
  nonconstant coefficient, and T = [Phi_0 | F(0)] maps K_0-coordinates
  plus C^q onto M as a (J_0 (+) I_q, J_M)-unitary.
* the columns G_hat_t (slot-k block F_hat^(k)_{t - e_k}) and the targets
  R_hat_t = (K_0-coords of F_hat_t, G_k if t = e_k else 0) have equal
  indefinite Grams for 1 <= |s|, |t| <= degree, because the kernel
  residual of the construction only carries coefficients with both
  multi-index weights >= degree + 1.  Matching columns therefore defines
  an exact (J_M, J_0 (+) I_q)-isometry U on their span.
* extending U to a J-unitary and conjugating the slot projections,
  G-check_k := U-full P_k T, yields operators whose corner block is G_k
  and whose transfer function is the linear map zG through degree d
  exactly; repartitioning the state as K_0 (+) X gives alpha-tilde.

When the exact branch applies (F_k = G_k, see agler) the identities above
hold at every degree and the dilation is exact up to roundoff.

Each G-check_k is stored with every real and imaginary part of modulus
at most n eps ||U-full||_2 set to an exact zero, n being its row count:
the normwise error bound of a computed product (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., 3.5).  Those parts are the
roundoff U-full and T carry, and every defect is measured on the stored
operators.
"""

from dataclasses import dataclass

import numpy as np

from .agler import AglerDecomposition, minimal_factor
from .krein import (
    CanonicalSymmetry,
    extend_j_isometry,
    hermitian_opnorm,
    j_companion_basis,
    j_unitarity_defect,
    opnorm,
    regularize_subspace,
)
from .systems import (
    MultiparametricSystem,
    SystemOperatorTuple,
    _mix,
    _sample_points,
    conservativity_bound,
    system_from_operators,
    system_operators,
)
from .transfer import _operator_entries, _point_blocks, eval_transfer, multi_indices

DEFECT_NAMES = (
    "factor",
    "semiunitarity",
    "isometry",
    "extension",
    "lin-tf",
    "conservativity",
    "compression",
    "transfer-coincidence",
)


@dataclass(frozen=True)
class DilationResult:
    """Dilated system plus the operators and residuals of its construction."""

    alpha_tilde: MultiparametricSystem
    j: CanonicalSymmetry
    check_operators: SystemOperatorTuple
    decomposition: AglerDecomposition
    u_matrix: np.ndarray
    u_norm: float
    k0_basis: np.ndarray
    k0_symmetry: CanonicalSymmetry
    defects: dict

    @property
    def state_dim(self) -> int:
        return self.alpha_tilde.state_dim

    def max_defect(self) -> float:
        return max(self.defects.values())


class _Assembly:
    """Shared spadework of build_dilation: K_0, the stacked coefficients, and
    the domain and range columns whose matching defines U."""

    def __init__(self, dec: AglerDecomposition, g: SystemOperatorTuple):
        if g.input_dim != g.output_dim:
            raise ValueError(
                "dilation needs matching input and output dimensions; "
                "pad the narrow channel with zero columns first (pad_io)"
            )
        q = g.state_dim + g.input_dim
        self.g = g
        self.q = q
        self.n = g.n
        self.j_m = dec.j_m()
        self.f0 = dec.f0()
        self.m_dim = self.f0.shape[0]

        self.semiunitarity = hermitian_opnorm(
            (self.f0.conj().T * self.j_m.signs) @ self.f0, CanonicalSymmetry.identity(q)
        )

        # K_0 = Ker(F(0)* J_M), with a Gram-regularized basis Phi_0
        self.phi0, self.j0 = regularize_subspace(j_companion_basis(self.f0, self.j_m), self.j_m)
        self.k0_dim = self.phi0.shape[1]

        # stacked nonzero coefficients of F at the keys it carries, plus slot offsets
        self.row_ranges = dec.component_row_ranges()
        keys = dict.fromkeys(t for c in dec.components for t in c.series.coefficients)
        self.coeff = {t: m for t in keys if np.any(m := dec.stacked_coefficient(t))}

        # the exact branch has degree 0 and matches its degree-1 columns
        dom_cols, ran_cols, recon = [], [], [0.0]
        for t in self._indices(1, max(dec.degree, 1)):
            dom = self._domain_column(t)
            if dom is None:
                continue
            dom_cols.append(dom)
            ran_cols.append(self._range_column(t, recon))
        self.dom_raw = np.hstack(dom_cols) if dom_cols else np.zeros((self.m_dim, 0))
        self.ran_raw = np.hstack(ran_cols) if ran_cols else np.zeros((self.k0_dim + q, 0))
        self.semiunitarity = max(self.semiunitarity, recon[0])
        self.j_ran = CanonicalSymmetry.direct_sum(self.j0, CanonicalSymmetry.identity(q))

    def _indices(self, lo, hi):
        for level in range(lo, hi + 1):
            yield from multi_indices(self.n, level)

    def _domain_column(self, t):
        """Degree-t coefficient of zP F(z): slot k holds F_hat^(k)_{t - e_k}."""
        col = np.zeros((self.m_dim, self.q), dtype=np.complex128)
        for k in range(self.n):
            m = self.coeff.get(t[:k] + (t[k] - 1,) + t[k + 1 :]) if t[k] else None
            if m is not None:
                lo, hi = self.row_ranges[k]
                col[lo:hi] = m[lo:hi]
        return col if np.any(col) else None

    def _k0_coords(self, vec, recon):
        """Coordinates in the Phi_0 basis, via xi = J_0 Phi_0* J_M vec."""
        xi = self.j0.apply(self.phi0.conj().T @ self.j_m.apply(vec))
        recon[0] = max(recon[0], float(opnorm(self.phi0 @ xi - vec)))
        return xi

    def _range_column(self, t, recon):
        """Degree-t coefficient of (F(z) - F(0); zG) in K_0 (+) C^q coords."""
        col = np.zeros((self.k0_dim + self.q, self.q), dtype=np.complex128)
        m = self.coeff.get(t)
        if m is not None:
            col[: self.k0_dim] = self._k0_coords(m, recon)
        if sum(t) == 1:
            col[self.k0_dim :] = self.g[t.index(1)]
        return col

    def reduce_spans(self, tol):
        """Orthonormal domain basis, matched images, and matching residuals."""
        u_svd, sing, vh = np.linalg.svd(self.dom_raw, full_matrices=False)
        scale = sing[0] if sing.size and sing[0] > 0 else 1.0
        rank = int(np.sum(sing > 1e-12 * scale))
        basis = u_svd[:, :rank]
        images = self.ran_raw @ vh[:rank].conj().T / sing[:rank]
        # well-definedness: the range columns must vanish on Ker(dom_raw)
        null = vh[rank:].conj().T
        lsq = float(opnorm(self.ran_raw @ null)) if null.shape[1] else 0.0
        if lsq > tol:
            raise ValueError(
                f"column matching is inconsistent (least-squares residual "
                f"{lsq:.3e} > {tol:.1e}); the decomposition is not accurate enough"
            )
        gram = (basis.conj().T * self.j_m.signs) @ basis
        iso = hermitian_opnorm((images.conj().T * self.j_ran.signs) @ images - gram)
        return basis, images, max(iso, lsq)


def verify_linear_tf(check_system: MultiparametricSystem, g, z_samples, n_max=None):
    """Residual of the check system realizing the linear function zG.

    Takes the max over: transfer mismatch ||theta(z) - zG|| at the given
    samples, the corner-block mismatch max_k ||D_k - G_k||, and the
    chained products ||zC (zA)^n zB|| for n = 0..n_max, which vanish for
    an exact realization.
    """
    if n_max is None:
        n_max = check_system.state_dim + 2
    worst = max(opnorm(check_system.d[k] - g[k]) for k in range(g.n))
    pts = _sample_points(z_samples, g.n)
    for blk in _point_blocks(len(pts), _operator_entries(check_system)):
        z = pts[blk]
        worst = max(worst, np.max(opnorm(eval_transfer(check_system, z) - g.pencil(z))))
        za = _mix(check_system.a, z)
        zc = _mix(check_system.c, z)
        prods, chain = [], _mix(check_system.b, z)
        for _ in range(n_max + 1):
            prods.append(zc @ chain)
            chain = za @ chain
        worst = max(worst, np.max(opnorm(np.concatenate(prods))))
    return float(worst)


def verify_dilation(alpha: MultiparametricSystem, alpha_tilde, j, z_samples):
    """Check the dilation relation of alpha_tilde over alpha.

    alpha's state must sit in the trailing coordinates of alpha_tilde's
    state.  Returns a dict with the compression defect (corner blocks of
    A, B, C, D against alpha), the transfer coincidence residual at the
    samples, and the torus conservativity bound of alpha_tilde for ``j``.
    """
    comp, transfer = _compression_and_transfer(alpha, alpha_tilde, z_samples)
    cons = conservativity_bound(alpha_tilde, j)
    return {"compression": comp, "transfer": transfer, "conservativity": cons}


def _compression_and_transfer(alpha, alpha_tilde, z_samples) -> tuple[float, float]:
    """Corner-block compression defect and transfer coincidence residual."""
    dx = alpha.state_dim
    lead = alpha_tilde.state_dim - dx
    if lead < 0 or alpha.input_dim != alpha_tilde.input_dim:
        raise ValueError("alpha does not embed in alpha_tilde")
    comp = 0.0
    for k in range(alpha.n):
        comp = max(
            comp,
            opnorm(alpha_tilde.a[k][lead:, lead:] - alpha.a[k]),
            opnorm(alpha_tilde.b[k][lead:, :] - alpha.b[k]),
            opnorm(alpha_tilde.c[k][:, lead:] - alpha.c[k]),
            opnorm(alpha_tilde.d[k] - alpha.d[k]),
        )
    z = _sample_points(z_samples, alpha.n)
    transfer = np.max(opnorm(eval_transfer(alpha_tilde, z) - eval_transfer(alpha, z)), initial=0.0)
    return float(comp), float(transfer)


def _torus_samples(n, count, seed):
    """``count`` uniform points of the unit torus T^n."""
    rng = np.random.default_rng(seed)
    return np.exp(2j * np.pi * rng.uniform(size=(count, n)))


def _disk_samples(n, radius, count, seed):
    """``count`` points whose coordinates are uniform on the square inscribed
    in the disk of ``radius``; the real parts of all points are drawn first."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(count, n)) + 1j * rng.uniform(-1, 1, size=(count, n))
    return radius / np.sqrt(2) * pts


def _gate(defects, name, tol):
    if defects[name] > tol:
        raise ValueError(f"stage '{name}' residual {defects[name]:.3e} exceeds tol {tol:.1e}")


def build_dilation(
    alpha: MultiparametricSystem,
    degree: int,
    radius: float = 0.5,
    tol: float = 1e-6,
    samples: int = 100,
    seed: int = 0,
) -> DilationResult:
    """Assemble a conservative dilation of alpha from its pencil's decomposition
    at ``degree``, certified on the polydisk of ``radius``.

    The result's state is K_0 (+) X carrying J_0 (+) I_X, its corner
    compressions reproduce alpha exactly, and its transfer function
    agrees with alpha's on the polydisk within the reported defects.
    Every named defect must come in below ``tol`` or the build fails
    naming the stage; signature obstructions in the extension step raise
    SignatureMismatchError with the required paddings.

    The assembly runs on agler.minimal_factor, which reproduces every
    coefficient Gram of the explicit decomposition (at any scale) from G
    and the degree alone.  The result's ``decomposition`` is that factor,
    the coordinates of ``u_matrix`` and ``k0_basis``, and the ``factor``
    defect is its Gram mismatch.  The dilation's operators carry exact
    zeros where the product U-full P_k T is within n eps ``u_norm`` of
    zero (see the module docstring).
    """
    g = system_operators(alpha)
    dec, factor = minimal_factor(g, degree, radius)
    defects = {"factor": factor}
    _gate(defects, "factor", tol)

    asm = _Assembly(dec, g)
    defects["semiunitarity"] = float(asm.semiunitarity)
    _gate(defects, "semiunitarity", tol)

    basis, images, iso_defect = asm.reduce_spans(tol)
    defects["isometry"] = float(iso_defect)
    _gate(defects, "isometry", tol)

    u_full = extend_j_isometry(basis, asm.j_m, images, asm.j_ran, tol=max(tol, 10 * iso_defect))
    restrict = opnorm(u_full @ basis - images)
    ext_defect = max(j_unitarity_defect(u_full, asm.j_m, asm.j_ran))
    defects["extension"] = float(max(restrict, ext_defect))
    _gate(defects, "extension", tol)

    # G-check_k = U-full P_k [Phi_0 | F(0)] on K_0 (+) C^q, its roundoff snapped
    t_tilde = np.hstack([asm.phi0, asm.f0])
    k0, q, dx = asm.k0_dim, asm.q, alpha.state_dim
    u_norm = opnorm(u_full)
    cut = u_full.shape[0] * np.finfo(float).eps * u_norm
    g_check = []
    for k in range(asm.n):
        lo, hi = asm.row_ranges[k]
        pk_t = np.zeros_like(t_tilde)
        pk_t[lo:hi] = t_tilde[lo:hi]
        g_k = u_full @ pk_t
        parts = g_k.view(np.float64)
        parts[np.abs(parts) <= cut] = 0.0
        g_check.append(g_k)
    check_ops = SystemOperatorTuple(tuple(g_check), k0, q, q)
    check_system = system_from_operators(check_ops)

    # re-partition the state as K_0 (+) X; inputs U, outputs Y.  The check pencil
    # has the same G-check and metric J_0 (+) I_q, so alpha_tilde's bound covers it
    du = q - dx
    alpha_tilde = system_from_operators(SystemOperatorTuple(tuple(g_check), k0 + dx, du, du))
    j_tilde = CanonicalSymmetry.direct_sum(asm.j0, CanonicalSymmetry.identity(dx))
    defects["conservativity"] = conservativity_bound(alpha_tilde, j_tilde)
    _gate(defects, "conservativity", tol)

    z_samples = _disk_samples(asm.n, dec.radius, samples, seed)
    if dec.exact:
        horizon = check_system.state_dim + 2
    else:
        horizon = min(check_system.state_dim + 2, max(dec.degree - 2, 0))
    defects["lin-tf"] = verify_linear_tf(check_system, g, z_samples, n_max=horizon)
    _gate(defects, "lin-tf", tol)

    defects["compression"], defects["transfer-coincidence"] = _compression_and_transfer(
        alpha, alpha_tilde, z_samples
    )
    _gate(defects, "compression", tol)
    _gate(defects, "transfer-coincidence", tol)

    return DilationResult(
        alpha_tilde=alpha_tilde,
        j=j_tilde,
        check_operators=check_ops,
        decomposition=dec,
        u_matrix=u_full,
        u_norm=u_norm,
        k0_basis=asm.phi0,
        k0_symmetry=asm.j0,
        defects=defects,
    )
