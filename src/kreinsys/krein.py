"""Finite-dimensional Krein-space linear algebra.

A Krein space here is C^n equipped with the indefinite inner product
[x, y] = <J x, y>, where the canonical symmetry J is a signature matrix
diag(+-1), stored as its sign vector.  The module provides the primitives the
rest of the package leans on: unitarity defects between two such
metrics, Gram regularization of subspaces, and extension of a J-isometry
defined on a subspace to a J-unitary operator on the whole space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CanonicalSymmetry",
    "DegenerateSubspaceError",
    "SignatureMismatchError",
    "signature",
    "j_unitarity_defect",
    "regularize_subspace",
    "j_companion_basis",
    "extend_j_isometry",
    "hermitian_sqrt",
    "hermitian_opnorm",
    "random_j_unitary",
    "sign_basis",
]

#: relative singular-value / eigenvalue threshold used for rank decisions
RANK_RTOL = 1e-10

#: relative Gram-eigenvalue threshold below which a direction counts as neutral
NEUTRAL_RTOL = 1e-8

#: tolerance on J = J* = J^-1 at construction time
INVOLUTION_TOL = 1e-12


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128)


def _as_basis(a) -> np.ndarray:
    """A basis matrix: the spanning vectors as columns."""
    a = _as_complex(a)
    if a.ndim != 2:
        raise ValueError("basis must be a 2d array")
    return a


def opnorm(a):
    """Spectral norm, with the empty matrix mapped to 0; of an (S, r, c) stack,
    the array of its S norms."""
    a = np.asarray(a)
    if a.ndim == 3:
        return np.linalg.norm(a, 2, axis=(1, 2)) if a.size else np.zeros(len(a))
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


class DegenerateSubspaceError(ValueError):
    """Raised when a subspace Gram matrix has a (numerically) neutral vector."""


class SignatureMismatchError(ValueError):
    """A J-unitary map between the two sides cannot exist at these signatures.

    Attributes record the minimal ambient padding (extra positive /
    negative directions per side) that would equalize the signatures.
    """

    def __init__(self, msg, *, pad_dom=(0, 0), pad_ran=(0, 0)):
        super().__init__(msg)
        self.pad_dom = tuple(pad_dom)
        self.pad_ran = tuple(pad_ran)


def signature(h) -> tuple[int, int, int]:
    """Counts (p, q, z) of eigenvalues of a hermitian matrix above tol,
    below -tol, and within [-tol, tol], tol = RANK_RTOL max(1, max|eig|)."""
    h = _as_complex(h)
    if h.shape[0] != h.shape[1]:
        raise ValueError("signature expects a square matrix")
    if h.size == 0:
        return (0, 0, 0)
    if opnorm(h - h.conj().T) > 1e-10 * max(1.0, opnorm(h)):
        raise ValueError("matrix is not hermitian")
    w = np.linalg.eigvalsh(h)
    tol = RANK_RTOL * max(1.0, float(np.max(np.abs(w))))
    p = int(np.sum(w > tol))
    q = int(np.sum(w < -tol))
    return (p, q, h.shape[0] - p - q)


@dataclass(frozen=True, eq=False, init=False)
class CanonicalSymmetry:
    """Signature matrix J = diag(signs), signs = +-1, defining [x, y] = <J x, y>.

    The matrix constructor takes a finite diagonal matrix that is hermitian
    and involutive within INVOLUTION_TOL; the classmethods build the signs.
    """

    signs: np.ndarray

    def __init__(self, matrix):
        m = _as_complex(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("canonical symmetry must be square")
        d = np.diagonal(m)
        if not np.all(np.isfinite(m)) or np.any(m - np.diag(d)):
            raise ValueError("canonical symmetry must be a finite diagonal matrix")
        # for diagonal J the spectral norms of J, J - J* and J J - I are entrywise
        scale = max(1.0, np.max(np.abs(d), initial=0.0))
        if np.any(2 * np.abs(d.imag) > INVOLUTION_TOL * scale):
            raise ValueError("canonical symmetry must be hermitian")
        if np.any(np.abs(d * d - 1) > INVOLUTION_TOL * scale):
            raise ValueError("canonical symmetry must be involutive")
        object.__setattr__(self, "signs", np.where(d.real > 0, 1.0, -1.0))

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.signs.astype(np.complex128))

    @property
    def dim(self) -> int:
        return self.signs.size

    @property
    def signature(self) -> tuple[int, int]:
        return (int(np.sum(self.signs > 0)), int(np.sum(self.signs < 0)))

    @classmethod
    def identity(cls, n: int) -> "CanonicalSymmetry":
        return cls.from_signs(np.ones(n))

    @classmethod
    def from_signs(cls, signs) -> "CanonicalSymmetry":
        signs = np.array(signs, dtype=float)
        if signs.ndim != 1 or not np.all(np.abs(signs) == 1.0):
            raise ValueError("signs must be +1 or -1")
        j = object.__new__(cls)
        object.__setattr__(j, "signs", signs)
        return j

    @classmethod
    def direct_sum(cls, *parts: "CanonicalSymmetry") -> "CanonicalSymmetry":
        return cls.from_signs(np.concatenate([np.zeros(0), *(p.signs for p in parts)]))

    def apply(self, x) -> np.ndarray:
        """J x, scaling the rows of x by the signs."""
        x = _as_complex(x)
        if x.ndim == 0 or x.shape[0] != self.dim:
            raise ValueError(f"symmetry of dim {self.dim} cannot act on shape {x.shape}")
        return self.signs.reshape((-1,) + (1,) * (x.ndim - 1)) * x


def hermitian_opnorm(h, j: CanonicalSymmetry | None = None) -> float:
    """Bound max|eig(S)| + ||K||_F >= ||r||_2 for a residual r = h - J = S + K
    that is hermitian in exact arithmetic (K is the roundoff asymmetry of h;
    J = 0 when ``j`` is None).  The eigenvalues carry a 4 n eps relative
    allowance: a computed max|eig(S)| can fall ulps below the SVD norm of S.
    """
    h = _as_complex(h)
    if h.size == 0:
        return 0.0
    herm = h + h.conj().T
    herm *= 0.5
    skew = float(np.linalg.norm(h - herm))
    if not np.isfinite(skew):  # a non-finite residual must fail every gate
        return np.inf
    if j is not None:
        herm.flat[:: j.dim + 1] -= j.signs
    # herm.T is conj(S), with the same eigenvalues
    w = np.linalg.eigvalsh(herm.T)
    return float(np.max(np.abs(w))) * (1.0 + 4 * h.shape[0] * np.finfo(float).eps) + skew


def j_unitarity_defect(g, j_in: CanonicalSymmetry, j_out: CanonicalSymmetry) -> tuple[float, float]:
    """Operator-norm defects (d1, d2) of G*J_out G = J_in and G J_in G* = J_out."""
    g = _as_complex(g)
    if g.shape != (j_out.dim, j_in.dim):
        raise ValueError(
            f"operator shape {g.shape} does not match symmetries ({j_out.dim}, {j_in.dim})"
        )
    d1 = hermitian_opnorm((g.conj().T * j_out.signs) @ g, j_in)
    d2 = hermitian_opnorm((g * j_in.signs) @ g.conj().T, j_out)
    return (d1, d2)


def regularize_subspace(basis, j: CanonicalSymmetry) -> tuple[np.ndarray, CanonicalSymmetry]:
    """Rescale a basis of a regular subspace so its Gram becomes diag(+-1).

    The Gram basis* J basis is diagonalized; eigenvalues within
    RANK_RTOL (relative) of zero flag a degenerate subspace and raise.
    Eigenvectors are scaled by |eig|^(-1/2), ordered positive first, so
    the returned basis B satisfies B* J B = J0 with J0 = diag(+1..,-1..).
    """
    basis = _as_basis(basis)
    if basis.shape[1] == 0:
        return basis.copy(), CanonicalSymmetry.identity(0)
    gram = (basis.conj().T * j.signs) @ basis
    w, v = np.linalg.eigh(gram)
    scale = max(1.0, float(np.max(np.abs(w))))
    if np.min(np.abs(w)) <= RANK_RTOL * scale:
        raise DegenerateSubspaceError(
            f"subspace Gram has a near-neutral direction (|eig| <= {RANK_RTOL * scale:.3e})"
        )
    order = np.argsort(-w)  # positive eigenvalues first, deterministic
    w = w[order]
    v = v[:, order]
    new_basis = basis @ (v / np.sqrt(np.abs(w)))
    j0 = CanonicalSymmetry.from_signs(np.sign(w))
    return new_basis, j0


def j_companion_basis(basis, j: CanonicalSymmetry) -> np.ndarray:
    """Orthonormal basis of the J-orthogonal companion {h : basis* J h = 0}."""
    basis = _as_complex(basis)
    if basis.shape[1] == 0:
        return np.eye(basis.shape[0], dtype=np.complex128)
    _, s, vh = np.linalg.svd(basis.conj().T * j.signs, full_matrices=True)
    return vh[np.sum(s > RANK_RTOL * np.max(s, initial=0.0)) :].conj().T


def _padded_signatures(sig_dom, sig_ran):
    p1, q1 = sig_dom
    p2, q2 = sig_ran
    pad_dom = (max(p2 - p1, 0), max(q2 - q1, 0))
    pad_ran = (max(p1 - p2, 0), max(q1 - q2, 0))
    return pad_dom, pad_ran


def _neutral_duals(reg_basis, neutral, j: CanonicalSymmetry):
    """Partners g_i with [h_i, g_j] = delta_ij, [g_i, g_j] = 0, [g, reg] = 0.

    The partners live in the J-orthogonal companion of the regular part,
    where the pairing against the neutral vectors is automatically
    nondegenerate.
    """
    w = j_companion_basis(reg_basis, j)
    pairing = (neutral.conj().T * j.signs) @ w
    raw = w @ np.linalg.pinv(pairing)
    skew = (raw.conj().T * j.signs) @ raw
    return raw - 0.5 * neutral @ skew


def extend_j_isometry(
    dom, j_dom: CanonicalSymmetry, u, j_ran: CanonicalSymmetry, tol: float = 1e-8
) -> np.ndarray:
    """Extend a J-isometry U : span(dom) -> span(u) to a J-unitary on the full spaces.

    Parameters
    ----------
    dom : ndarray
        Basis matrix (columns) of a subspace of the ``j_dom`` space.
    u : ndarray
        Images of the columns of ``dom`` in ambient coordinates of the
        ``j_ran`` space; column i is U(dom[:, i]).
    tol : float
        Acceptance threshold on the isometry defect of ``u``.

    Returns
    -------
    u_full : ndarray
        Maps the ``j_dom`` space to the ``j_ran`` space, is
        (j_dom, j_ran)-unitary, and restricts to ``u`` on ``dom``.  In
        finite dimensions a successful extension needs no auxiliary space.

    Degenerate subspaces are handled: a neutral direction of ``dom``
    maps to a neutral direction of span(u) (their Grams agree), and both
    are completed to hyperbolic pairs with dual partners before the
    companion coupling, so the extension exists whenever the ambient
    signatures allow one.

    Raises
    ------
    SignatureMismatchError
        If the ambient dimensions or companion signatures differ.  The
        exception carries the minimal per-side (positive, negative)
        ambient padding that would balance the two sides.
    DegenerateSubspaceError
        If a companion subspace is numerically degenerate.
    """
    dom = _as_basis(dom)
    u = _as_basis(u)
    if u.shape[1] != dom.shape[1]:
        raise ValueError("u must hold ambient-range images of the dom basis columns")

    gram = (dom.conj().T * j_dom.signs) @ dom
    iso_defect = hermitian_opnorm((u.conj().T * j_ran.signs) @ u - gram)
    if iso_defect > tol:
        raise ValueError(f"u is not J-isometric on dom (defect {iso_defect:.3e})")

    if dom.shape[1]:
        w, v = np.linalg.eigh(gram)
        scale = max(1.0, float(np.max(np.abs(w))))
        neutral = np.abs(w) <= NEUTRAL_RTOL * scale
        if np.any(neutral):
            reg, neut = v[:, ~neutral], v[:, neutral]
            duals_d = _neutral_duals(dom @ reg, dom @ neut, j_dom)
            duals_r = _neutral_duals(u @ reg, u @ neut, j_ran)
            dom = np.hstack([dom, duals_d])
            u = np.hstack([u, duals_r])

    n_dom, n_ran = dom.shape[0], u.shape[0]
    if n_dom != n_ran:
        side = "domain" if n_dom < n_ran else "range"
        raise SignatureMismatchError(
            f"ambient dimensions differ ({n_dom} vs {n_ran}); "
            f"requires ambient padding of the {side} side by {abs(n_dom - n_ran)}",
            pad_dom=(max(n_ran - n_dom, 0), 0),
            pad_ran=(max(n_dom - n_ran, 0), 0),
        )

    wd, j0d = regularize_subspace(j_companion_basis(dom, j_dom), j_dom)
    wr, j0r = regularize_subspace(j_companion_basis(u, j_ran), j_ran)
    sig_d = j0d.signature
    sig_r = j0r.signature
    if sig_d != sig_r:
        pad_dom, pad_ran = _padded_signatures(sig_d, sig_r)
        raise SignatureMismatchError(
            f"companion signatures differ: {sig_d} vs {sig_r}; requires ambient padding "
            f"dom+={pad_dom}, ran+={pad_ran}",
            pad_dom=pad_dom,
            pad_ran=pad_ran,
        )

    # With matching companion signatures the extension exists already on
    # the given spaces: send companion basis to companion basis.  Both
    # regularized Grams are diag(+1..,-1..) in the same order, so the
    # identity coupling is J-unitary between them.
    s_dom = np.hstack([dom, wd])
    s_ran = np.hstack([u, wr])
    return s_ran @ np.linalg.solve(s_dom, np.eye(s_dom.shape[0], dtype=np.complex128))


def hermitian_sqrt(h) -> np.ndarray:
    """Positive-semidefinite square root via eigendecomposition.

    Eigenvalues in [-1e-10, 0) are clamped to zero; anything below
    -1e-10 (relative to the largest eigenvalue) raises.
    """
    h = _as_complex(h)
    if h.size == 0:
        return h.copy()
    w, v = np.linalg.eigh(h)
    scale = max(1.0, float(np.max(np.abs(w))))
    if np.min(w) < -1e-10 * scale:
        raise ValueError(f"matrix is not positive semidefinite (min eig {np.min(w):.3e})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def random_j_unitary(
    j_in: CanonicalSymmetry, j_out: CanonicalSymmetry, rng: np.random.Generator
) -> np.ndarray:
    """Random (j_in, j_out)-unitary built from block unitaries and four
    elementary hyperbolic rotations of rapidity below 0.8.  Signatures must
    agree."""
    if j_in.signature != j_out.signature:
        raise SignatureMismatchError(
            f"signatures differ: {j_in.signature} vs {j_out.signature}",
            pad_dom=_padded_signatures(j_in.signature, j_out.signature)[0],
            pad_ran=_padded_signatures(j_in.signature, j_out.signature)[1],
        )
    p, q = j_in.signature
    n = j_in.dim

    def haar_unitary(k):
        if k == 0:
            return np.zeros((0, 0), dtype=np.complex128)
        z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        qmat, r = np.linalg.qr(z)
        return qmat * (np.diagonal(r) / np.abs(np.diagonal(r)))

    core = np.zeros((n, n), dtype=np.complex128)
    core[:p, :p] = haar_unitary(p)
    core[p:, p:] = haar_unitary(q)
    for _ in range(4 if (p and q) else 0):
        i = rng.integers(0, p)
        j = p + rng.integers(0, q)
        t = rng.uniform(0.0, 0.8)
        phi = rng.uniform(0.0, 2 * np.pi)
        h = np.eye(n, dtype=np.complex128)
        h[i, i] = np.cosh(t)
        h[j, j] = np.cosh(t)
        h[i, j] = np.exp(1j * phi) * np.sinh(t)
        h[j, i] = np.exp(-1j * phi) * np.sinh(t)
        core = h @ core
    return sign_basis(j_out) @ core @ sign_basis(j_in).conj().T


def sign_basis(j: CanonicalSymmetry) -> np.ndarray:
    """Permutation matrix whose columns list J's coordinates, positive first.

    Within a sign the order is eigh's, which LAPACK does not keep stable; the
    random generators use it so that every seed still yields the same system.
    """
    w, v = np.linalg.eigh(j.matrix)
    return v[:, np.argsort(-w)]
