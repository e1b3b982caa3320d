import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag

from kreinsys.krein import (
    CanonicalSymmetry,
    DegenerateSubspaceError,
    SignatureMismatchError,
    extend_j_isometry,
    hermitian_opnorm,
    hermitian_sqrt,
    j_companion_basis,
    j_unitarity_defect,
    opnorm,
    random_j_unitary,
    regularize_subspace,
    signature,
)
from kreinsys.systems import (
    input_output_symmetries,
    jconservativity_defect,
    random_jconservative,
    system_operators,
)

G_HYP = np.array([[1.25, 0.75], [0.75, 1.25]], dtype=complex)


def test_symmetry_validation():
    CanonicalSymmetry(np.eye(3))
    CanonicalSymmetry.from_signs([1, -1, 1])
    with pytest.raises(ValueError):
        CanonicalSymmetry(np.array([[1.0, 0.5], [0.5, 1.0]]))  # not involutive
    with pytest.raises(ValueError):
        CanonicalSymmetry(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not hermitian
    j = CanonicalSymmetry.from_signs([1, 1, -1])
    assert j.signature == (2, 1)
    empty = CanonicalSymmetry(np.zeros((0, 0)))
    assert empty.dim == 0 and empty.signature == (0, 0)


def test_j_unitarity_defect_identity_metrics():
    # plain unitary with identity metrics on both sides
    q, _ = np.linalg.qr(np.arange(9).reshape(3, 3) + np.eye(3) + 1j)
    d1, d2 = j_unitarity_defect(q, CanonicalSymmetry.identity(3), CanonicalSymmetry.identity(3))
    assert d1 < 1e-12 and d2 < 1e-12


def test_j_unitarity_defect_hyperbolic():
    # the hyperbolic benchmark operator is unitary for the diag(-1, 1) metric
    j = CanonicalSymmetry.from_signs([-1, 1])
    d1, d2 = j_unitarity_defect(G_HYP, j, j)
    assert d1 < 1e-12 and d2 < 1e-12
    # and fails for the definite metric
    i2 = CanonicalSymmetry.identity(2)
    d1, d2 = j_unitarity_defect(G_HYP, i2, i2)
    assert d1 > 1.0


def test_j_unitarity_defect_shape_check():
    with pytest.raises(ValueError):
        j_unitarity_defect(np.eye(3), CanonicalSymmetry.identity(2), CanonicalSymmetry.identity(3))


def test_signature_examples():
    assert signature(np.diag([3.0, 0.0, -2.0])) == (1, 1, 1)
    assert signature(np.zeros((0, 0))) == (0, 0, 0)
    # eigenvalues of G*G are 4 and 1/4, so I - G*G has eigenvalues -3 and 3/4
    h = np.eye(2) - G_HYP.conj().T @ G_HYP
    assert signature(h) == (1, 1, 0)
    with pytest.raises(ValueError):
        signature(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_regularize_subspace_negative_line():
    j = CanonicalSymmetry.from_signs([1, -1])
    basis = np.array([[1.0], [-np.sqrt(2.0)]], dtype=complex)
    new_basis, j0 = regularize_subspace(basis, j)
    assert j0.matrix.shape == (1, 1) and j0.matrix[0, 0] == -1
    gram = new_basis.conj().T @ j.matrix @ new_basis
    assert np.allclose(gram, [[-1.0]], atol=1e-12)


def test_regularize_subspace_degenerate():
    j = CanonicalSymmetry.from_signs([1, -1])
    basis = np.array([[1.0], [1.0]], dtype=complex)  # neutral vector
    with pytest.raises(DegenerateSubspaceError):
        regularize_subspace(basis, j)


def test_regularize_orders_positive_first():
    j = CanonicalSymmetry.from_signs([1, -1, 1])
    basis = np.eye(3, dtype=complex)[:, [1, 0]]  # negative direction listed first
    new_basis, j0 = regularize_subspace(basis, j)
    assert np.allclose(np.diagonal(j0.matrix), [1, -1])


def test_companion_basis():
    j = CanonicalSymmetry.from_signs([1, -1])
    basis = np.array([[np.sqrt(2.0)], [1.0]], dtype=complex)
    comp = j_companion_basis(basis, j)
    assert comp.shape == (2, 1)
    assert abs((basis.conj().T @ j.matrix @ comp)[0, 0]) < 1e-13


def test_extend_identity_case():
    # dom = ran = span(e1) in (C^2, diag(1,-1)), U the identity on it
    j = CanonicalSymmetry.from_signs([1, -1])
    basis = np.eye(2, dtype=complex)[:, :1]
    u_full = extend_j_isometry(basis, j, basis.copy(), j)
    assert np.allclose(u_full, np.eye(2), atol=1e-12)


def test_extend_dim_mismatch_reports_pad():
    i2 = CanonicalSymmetry.identity(2)
    i3 = CanonicalSymmetry.identity(3)
    with pytest.raises(SignatureMismatchError) as info:
        extend_j_isometry(np.eye(2, dtype=complex)[:, :1], i2, np.eye(3, dtype=complex)[:, :1], i3)
    assert info.value.pad_dom == (1, 0)
    assert info.value.pad_ran == (0, 0)


def test_extend_signature_mismatch_reports_pad():
    jm = CanonicalSymmetry.from_signs([1, -1, 1])
    ji = CanonicalSymmetry.identity(3)
    e1 = np.eye(3, dtype=complex)[:, :1]
    with pytest.raises(SignatureMismatchError) as info:
        extend_j_isometry(e1, jm, e1.copy(), ji)
    # companions have signatures (1,1) vs (2,0)
    assert info.value.pad_dom == (1, 0)
    assert info.value.pad_ran == (0, 1)


@pytest.mark.parametrize("seed", range(6))
def test_extend_construct_then_restrict(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    signs = rng.choice([1.0, -1.0], size=n)
    j = CanonicalSymmetry.from_signs(signs)
    w = random_j_unitary(j, j, rng)
    r = int(rng.integers(1, n))
    # columns of a random J-unitary span regular subspaces
    u = w[:, :r]
    u_full = extend_j_isometry(np.eye(n, dtype=complex)[:, :r], j, u, j)
    d1, d2 = j_unitarity_defect(u_full, j, j)
    assert max(d1, d2) < 1e-10
    assert np.max(np.abs(u_full[:, :r] - u)) < 1e-10


@pytest.mark.parametrize("seed", range(20))
def test_extend_through_neutral_direction(seed):
    # dom = span((e1 + e2)/sqrt 2, e3) has the neutral vector (e1 + e2)/sqrt 2
    # in diag(1,-1,1,-1), so the extension pairs it with a dual partner
    j = CanonicalSymmetry.from_signs([1, -1, 1, -1])
    dom = np.zeros((4, 2), dtype=complex)
    dom[:2, 0] = 1 / np.sqrt(2)
    dom[2, 1] = 1
    u = random_j_unitary(j, j, np.random.default_rng(seed)) @ dom
    u_full = extend_j_isometry(dom, j, u, j)
    assert max(j_unitarity_defect(u_full, j, j)) <= 1e-12
    assert opnorm(u_full @ dom - u) <= 1e-12

    with pytest.raises(ValueError, match="images of the dom basis columns"):
        extend_j_isometry(dom, j, u[:, :1], j)
    with pytest.raises(ValueError, match="not J-isometric"):
        extend_j_isometry(dom, j, 2 * u, j)


def test_hermitian_sqrt():
    h = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    s = hermitian_sqrt(h)
    assert np.allclose(s @ s, h, atol=1e-12)
    # slight negative eigenvalue is clamped
    s2 = hermitian_sqrt(np.diag([1.0, -1e-12]))
    assert np.allclose(s2, np.diag([1.0, 0.0]), atol=1e-12)
    with pytest.raises(ValueError):
        hermitian_sqrt(np.diag([1.0, -1.0]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_indefinite_cauchy_bound(seed):
    # |[x, x]_J| <= ||x||^2 since J has unit spectral norm
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    j = CanonicalSymmetry.from_signs(rng.choice([1.0, -1.0], size=n))
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    val = np.real(np.vdot(x, j.matrix @ x))
    assert abs(val) <= np.vdot(x, x).real + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_j_unitary_is_j_unitary(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    j = CanonicalSymmetry.from_signs(rng.choice([1.0, -1.0], size=n))
    w = random_j_unitary(j, j, rng)
    d1, d2 = j_unitarity_defect(w, j, j)
    assert max(d1, d2) < 1e-10


def test_symmetry_matrix_contract():
    # a signature matrix within INVOLUTION_TOL is accepted with exact signs
    j = CanonicalSymmetry(np.diag([1.0 + 1e-14, -1.0, 1.0 + 1e-14j]))
    np.testing.assert_array_equal(j.signs, [1.0, -1.0, 1.0])
    for bad, message in [
        (np.array([[0.0, 1.0], [1.0, 0.0]]), "diagonal"),  # hermitian involution
        (np.diag([0.5, 1.0]), "involutive"),
        (np.diag([1.0, 1.0 + 1e-11]), "involutive"),
        (np.diag([1.0, 1j]), "hermitian"),
        (np.array([[0.0, 1.0], [0.0, 0.0]]), "diagonal"),
        (np.diag([1.0, np.nan]), "finite"),
        (np.ones((2, 3)), "square"),
    ]:
        with pytest.raises(ValueError, match=message):
            CanonicalSymmetry(bad)
    for bad in ([1.0, 0.5], [[1.0, -1.0]], 1.0):
        with pytest.raises(ValueError):
            CanonicalSymmetry.from_signs(bad)


def test_symmetry_constructors_round_trip():
    a = CanonicalSymmetry.from_signs([1, -1, -1])
    b = CanonicalSymmetry.identity(2)
    np.testing.assert_array_equal(a.matrix, np.diag([1, -1, -1]).astype(complex))
    np.testing.assert_array_equal(b.matrix, np.eye(2))
    s = CanonicalSymmetry.direct_sum(a, CanonicalSymmetry.identity(0), b)
    np.testing.assert_array_equal(s.matrix, block_diag(a.matrix, b.matrix))
    assert s.dim == 5 and s.signature == (3, 2)
    np.testing.assert_array_equal(CanonicalSymmetry(s.matrix).signs, s.signs)
    assert CanonicalSymmetry.direct_sum().dim == 0
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    np.testing.assert_array_equal(s.apply(x), s.matrix @ x)
    np.testing.assert_array_equal(s.apply(x[:, 0]), s.matrix @ x[:, 0])
    with pytest.raises(ValueError):
        s.apply(x[:1])
    with pytest.raises(AttributeError):
        s.matrix = np.eye(5)


def _hermitian_cases():
    """(h, tight): hermitian and roundoff-asymmetric h are tight, a 1e-9 skew is not."""
    rng = np.random.default_rng(7)
    yield np.zeros((0, 0), dtype=complex), True
    for n in (1, 2, 3, 5, 8, 20, 60, 100):
        for _ in range(10):
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            low = x[:, : max(1, n // 3)]
            skew = (x - x.conj().T) / np.linalg.norm(x - x.conj().T)
            for h in (x + x.conj().T, low @ low.conj().T - np.eye(n)):  # clustered spectrum
                norm = np.linalg.norm(h, 2)
                yield h, True
                yield h + 1e-15 * norm * skew, True
                yield h + 1e-9 * norm * skew, False


def test_hermitian_opnorm_bounds_the_spectral_norm():
    for h, tight in _hermitian_cases():
        ref = np.linalg.norm(h, 2) if h.size else 0.0
        got = hermitian_opnorm(h)
        assert got >= ref
        if tight:
            assert got - ref <= 1e-13 * ref
    assert hermitian_opnorm(np.array([[1.0, np.nan], [0.0, 1.0]])) == np.inf


def _dense_j_unitarity(g, s_in, s_out):
    j_in, j_out = np.diag(s_in), np.diag(s_out)
    return (
        np.linalg.norm(g.conj().T @ j_out @ g - j_in, 2),
        np.linalg.norm(g @ j_in @ g.conj().T - j_out, 2),
    )


def _dense_jconservativity(system, signs):
    g = system_operators(system).operators
    j1 = np.diag(np.concatenate([signs, np.ones(system.input_dim)]))
    j2 = np.diag(np.concatenate([signs, np.ones(system.output_dim)]))
    r1 = np.linalg.norm(sum(gk.conj().T @ j2 @ gk for gk in g) - j1, 2)
    r3 = np.linalg.norm(sum(gk @ j1 @ gk.conj().T for gk in g) - j2, 2)
    pairs = [(k, l) for k in range(len(g)) for l in range(len(g)) if k != l]
    r2 = max((np.linalg.norm(g[k].conj().T @ j2 @ g[l], 2) for k, l in pairs), default=0.0)
    r4 = max((np.linalg.norm(g[k] @ j1 @ g[l].conj().T, 2) for k, l in pairs), default=0.0)
    return (r1, r2, r3, r4)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("delta", [0.0, 1e-6, 1e-2])
def test_defects_match_dense_reference(seed, delta):
    rng = np.random.default_rng(seed)
    n, dx, du = int(rng.integers(1, 4)), int(rng.integers(2, 6)), int(rng.integers(1, 3))
    signs = rng.choice([1.0, -1.0], size=dx)
    signs[:2] = (1.0, -1.0)  # mixed signature
    j = CanonicalSymmetry.from_signs(signs)
    system, _ = random_jconservative(n, dx, du, seed=seed, j=j)
    if delta:
        system = system.__class__(
            n=system.n,
            a=tuple(m + delta * rng.standard_normal(m.shape) for m in system.a),
            b=system.b,
            c=tuple(m + delta * rng.standard_normal(m.shape) for m in system.c),
            d=system.d,
        )
    scale = max(np.linalg.norm(m, 2) for m in system_operators(system).operators) ** 2
    got = jconservativity_defect(system, j)
    want = _dense_jconservativity(system, signs)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, scale))
    assert got[0] >= want[0] and got[2] >= want[2]

    j1, j2 = input_output_symmetries(system, j)
    g = system_operators(system).pencil(np.exp(2j * np.pi * rng.uniform(size=n)))
    got = j_unitarity_defect(g, j1, j2)
    want = _dense_j_unitarity(g, j1.signs, j2.signs)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.linalg.norm(g, 2) ** 2))
    assert got[0] >= want[0] and got[1] >= want[1]
