"""Tests for certified pencil kernel decompositions."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from kreinsys.agler import (
    AglerDecomposition,
    DecompositionComponent,
    _exact_branch_applies,
    construct_pencil_decomposition,
    derived_zero_identities,
    epsilon_bounds,
    kernel_residual,
    minimal_factor,
    pencil_gram,
    prop2_functions,
    transform_identities,
    verify_kernel_identity,
)
from kreinsys.krein import CanonicalSymmetry
from kreinsys.systems import SystemOperatorTuple, random_jconservative, system_operators
from kreinsys.transfer import TruncatedOperatorSeries, multi_indices

from oracles import kernel_sum
from test_systems import hyperbolic_system, matrix_unit_system


def polydisk_pairs(n, radius, count, seed):
    rng = np.random.default_rng(seed)
    mk = lambda: (radius / np.sqrt(2)) * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    return [(mk(), mk()) for _ in range(count)]


def hyperbolic_ops():
    s, _ = hyperbolic_system()
    return system_operators(s)


def matrix_unit_ops():
    s, _ = matrix_unit_system()
    return system_operators(s)


class TestEpsilonBounds:
    def test_matrix_unit(self):
        lo, hi = epsilon_bounds(matrix_unit_ops())
        assert lo == pytest.approx(1.0, abs=1e-10)
        assert hi == pytest.approx(2.0, abs=1e-10)

    def test_hyperbolic(self):
        lo, hi = epsilon_bounds(hyperbolic_ops())
        assert lo == pytest.approx(2.0, abs=1e-10)
        assert hi == pytest.approx(2.0, abs=1e-10)

    def test_zero_pencil(self):
        from kreinsys.systems import SystemOperatorTuple

        g = SystemOperatorTuple((np.zeros((2, 2)), np.zeros((2, 2))), 1, 1, 1)
        assert epsilon_bounds(g) == (0.0, 0.0)

    def test_lower_never_exceeds_upper(self):
        from kreinsys.systems import random_jconservative

        for seed in range(5):
            s, _ = random_jconservative(n=2, state_dim=2, input_dim=2, seed=seed)
            lo, hi = epsilon_bounds(system_operators(s))
            assert lo <= hi + 1e-12


class TestConstruction:
    def test_scale_below_feasible_raises(self):
        with pytest.raises(ValueError, match="minimal feasible scale is 2"):
            construct_pencil_decomposition(hyperbolic_ops(), 1.5, 8)

    def test_scale_below_one_raises(self):
        with pytest.raises(ValueError, match="at least 1|below 1"):
            construct_pencil_decomposition(matrix_unit_ops(), 0.5, 8)

    def test_hyperbolic_structure(self):
        dec = construct_pencil_decomposition(hyperbolic_ops(), 2.0, 12)
        c = dec.components[0]
        # degree-0 block is (eps/sqrt(N)) I = 2I in the first two rows
        f0 = c.coefficient((0,))
        np.testing.assert_allclose(f0[0:2], 2.0 * np.eye(2), atol=1e-14)
        # defect rows square to 4I - G*G
        d_rows = c.coefficient((1,))[2:4]
        np.testing.assert_allclose(
            d_rows @ d_rows, [[15 / 8, -15 / 8], [-15 / 8, 15 / 8]], atol=1e-12
        )
        # negative rows are sqrt(3) z^n I
        np.testing.assert_allclose(
            f0[c.m_plus : c.m_plus + 2], np.sqrt(3) * np.eye(2), atol=1e-14
        )
        assert c.m_plus == 13 * 2 and c.m_minus == 13 * 2

    def test_matrix_unit_structure(self):
        dec = construct_pencil_decomposition(matrix_unit_ops(), 2.0, 6)
        c0 = dec.components[0]
        # D_1^2 = 2I - 2 E_11 = 2 E_22
        d_rows = c0.coefficient((1, 0))[2:4]
        np.testing.assert_allclose(d_rows @ d_rows, [[0, 0], [0, 2]], atol=1e-12)
        # cross rows carry z_1 G_1 - z_2 G_2
        row = 7 * 2
        np.testing.assert_allclose(
            c0.coefficient((1, 0))[row : row + 2], [[1, 0], [0, 0]], atol=1e-14
        )
        np.testing.assert_allclose(
            c0.coefficient((0, 1))[row : row + 2], [[0, 0], [0, -1]], atol=1e-14
        )
        # component 2 has no cross rows
        assert dec.components[1].m_plus == 7 * 2

    def test_matrix_unit_exact_branch(self):
        dec = construct_pencil_decomposition(matrix_unit_ops(), 1.0, 4)
        assert dec.exact and dec.eta == 0.0 and dec.degree == 0
        assert dec.signature[1] == 0
        for k, c in enumerate(dec.components):
            assert c.m_minus == 0
            np.testing.assert_array_equal(c.coefficient((0, 0)), matrix_unit_ops()[k])

    def test_zero_pencil_scale_one_uses_generic_rows(self):
        from kreinsys.systems import SystemOperatorTuple

        g = SystemOperatorTuple((np.zeros((2, 2)),), 1, 1, 1)
        dec = construct_pencil_decomposition(g, 1.0, 6)
        assert not dec.exact
        c = dec.components[0]
        assert c.m_minus == 0  # eps = 1 leaves no negative rows
        # defect rows at every degree up to d, value I/sqrt(N) = I
        np.testing.assert_allclose(c.coefficient((3,))[6:8], np.eye(2), atol=1e-14)
        assert verify_kernel_identity(g, dec, polydisk_pairs(1, 0.5, 50, 0)) <= dec.eta


class TestKernelIdentity:
    def test_hyperbolic_certified(self):
        g = hyperbolic_ops()
        dec = construct_pencil_decomposition(g, 2.0, 12)
        res = verify_kernel_identity(g, dec, polydisk_pairs(1, 0.5, 200, 1), enforce=True)
        assert res <= dec.eta <= 1e-6

    def test_matrix_unit_certified(self):
        g = matrix_unit_ops()
        dec = construct_pencil_decomposition(g, 2.0, 12)
        res = verify_kernel_identity(g, dec, polydisk_pairs(2, 0.5, 200, 2), enforce=True)
        assert res <= dec.eta <= 1e-6

    def test_exact_branch_residual_is_machine_zero(self):
        g = matrix_unit_ops()
        dec = construct_pencil_decomposition(g, 1.0, 4)
        assert verify_kernel_identity(g, dec, polydisk_pairs(2, 0.5, 100, 3)) <= 1e-14

    def test_residual_matches_brute_force_oracle(self):
        # the packaged verifier must agree with an independent sum
        g = matrix_unit_ops()
        dec = construct_pencil_decomposition(g, 2.0, 5)
        masks = [np.arange(c.dim) >= c.m_plus for c in dec.components]
        for lam, z in polydisk_pairs(2, 0.5, 20, 4):
            fl = dec.evaluate(lam)
            fz = dec.evaluate(z)
            acc = kernel_sum(lam, z, fl, fz, masks)
            lg, zg = g.pencil(lam), g.pencil(z)
            oracle = np.linalg.norm(
                np.eye(2) - lg.conj().T @ zg - acc, 2
            )
            assert kernel_residual(g, dec, lam, z) == pytest.approx(oracle, abs=1e-13)

    def test_hyperbolic_residual_matches_closed_form(self):
        # R(l, z) = w^{d+1} (D^2 - 3I) for N = 1, eps = 2
        g = hyperbolic_ops()
        d = 7
        dec = construct_pencil_decomposition(g, 2.0, d)
        d2 = 4 * np.eye(2) - g[0].conj().T @ g[0]
        for lam, z in polydisk_pairs(1, 0.5, 20, 5):
            w = np.conj(lam[0]) * z[0]
            expected = np.linalg.norm(w ** (d + 1) * (d2 - 3 * np.eye(2)), 2)
            assert kernel_residual(g, dec, lam, z) == pytest.approx(expected, abs=1e-13)

    def test_zero_pair_measures_semiunitarity(self):
        g = hyperbolic_ops()
        dec = construct_pencil_decomposition(g, 2.0, 10)
        z0 = np.zeros(1)
        assert kernel_residual(g, dec, z0, z0) <= 1e-10

    def test_degree_bump_shrinks_residual(self):
        g = hyperbolic_ops()
        pairs = polydisk_pairs(1, 0.5, 100, 6)
        r12 = verify_kernel_identity(g, construct_pencil_decomposition(g, 2.0, 12), pairs)
        r14 = verify_kernel_identity(g, construct_pencil_decomposition(g, 2.0, 14), pairs)
        r24 = verify_kernel_identity(g, construct_pencil_decomposition(g, 2.0, 24), pairs)
        assert r12 / r14 >= 8.0
        assert r24 <= r12 / 8.0

    def test_scaling_safety(self):
        g = hyperbolic_ops()
        dec = construct_pencil_decomposition(g, 3.0, 12)
        verify_kernel_identity(g, dec, polydisk_pairs(1, 0.5, 100, 7), enforce=True)

    def test_pair_outside_radius_rejected(self):
        g = hyperbolic_ops()
        dec = construct_pencil_decomposition(g, 2.0, 4)
        with pytest.raises(ValueError, match="radius"):
            verify_kernel_identity(g, dec, [(np.array([0.7]), np.array([0.1]))])

    def test_nan_pair_rejected(self):
        # NaN compares false with the radius, so it must be rejected by name
        s, _ = random_jconservative(2, 3, 2, seed=0, j=CanonicalSymmetry.from_signs([1, 1, -1]))
        g = system_operators(s)
        dec = construct_pencil_decomposition(g, None, 12)
        pair = (np.array([np.nan, 0.1]), np.array([0.1, 0.2]))
        named = r"pair \(\[\(?nan.*\[\(?0\.1.*not finite or lies outside certified radius 0\.5"
        with pytest.raises(ValueError, match=named):
            verify_kernel_identity(g, dec, [pair], enforce=True)
        with pytest.raises(ValueError, match=named):
            transform_identities(dec, g, [pair])
        with pytest.raises(ValueError, match=named):
            prop2_functions(s, dec, [pair])

    def test_enforce_flags_corruption(self):
        g = matrix_unit_ops()
        dec = construct_pencil_decomposition(g, 1.0, 4)
        bad = _perturb_zero_coefficient(dec, 1e-3)
        with pytest.raises(ValueError, match="exceeds certificate"):
            verify_kernel_identity(g, bad, polydisk_pairs(2, 0.5, 20, 8), enforce=True)

    def test_tail_soundness_many_pairs(self):
        g = matrix_unit_ops()
        dec = construct_pencil_decomposition(g, 2.0, 6)
        res = verify_kernel_identity(g, dec, polydisk_pairs(2, 0.5, 1000, 9))
        assert res <= dec.eta


def _perturb_zero_coefficient(dec, size):
    c = dec.components[0]
    coeffs = dict(c.series.coefficients)
    zero = (0,) * dec.n
    m = np.array(coeffs[zero])
    m[0, 0] += size
    coeffs[zero] = m
    series = TruncatedOperatorSeries(n=dec.n, degree=dec.degree, coefficients=coeffs)
    comp = DecompositionComponent(
        index=c.index, m_plus=c.m_plus, m_minus=c.m_minus, series=series
    )
    return AglerDecomposition(
        n=dec.n,
        epsilon=dec.epsilon,
        components=(comp,) + dec.components[1:],
        radius=dec.radius,
        degree=dec.degree,
        eta=dec.eta,
        exact=dec.exact,
    )


class TestZeroIdentities:
    def test_constructed_decs_are_exact(self):
        for g, n in [(hyperbolic_ops(), 1), (matrix_unit_ops(), 2)]:
            dec = construct_pencil_decomposition(g, 2.0, 10)
            report = derived_zero_identities(dec)
            assert report["max"] <= 1e-12

    def test_exact_branch_report(self):
        dec = construct_pencil_decomposition(matrix_unit_ops(), 1.0, 4)
        report = derived_zero_identities(dec)
        assert report["max"] <= 1e-13
        assert report["f_minus"] == 0.0

    def test_corruption_is_flagged(self):
        dec = construct_pencil_decomposition(hyperbolic_ops(), 2.0, 8)
        report = derived_zero_identities(_perturb_zero_coefficient(dec, 1e-3))
        assert report["max"] >= 1e-4


class TestTransformIdentities:
    def test_constructed_dec_within_certificate(self):
        g = matrix_unit_ops()
        dec = construct_pencil_decomposition(g, 2.0, 12)
        report = transform_identities(dec, g, polydisk_pairs(2, 0.5, 50, 10))
        assert report["max"] <= dec.eta

    def test_zero_pair_trivial(self):
        g = hyperbolic_ops()
        dec = construct_pencil_decomposition(g, 2.0, 8)
        z0 = np.zeros(1)
        report = transform_identities(dec, g, [(z0, z0)])
        assert report["max"] <= 1e-13

    def test_single_variable_sum_tracks_kernel_residual(self):
        g = hyperbolic_ops()
        dec = construct_pencil_decomposition(g, 2.0, 9)
        pairs = polydisk_pairs(1, 0.5, 50, 11)
        report = transform_identities(dec, g, pairs)
        kernel = verify_kernel_identity(g, dec, pairs)
        assert report["sum"] <= 10 * kernel + 1e-14
        assert kernel <= 10 * report["sum"] + 1e-14


class TestProp2:
    def test_hyperbolic_transfer_kernel(self):
        s, _ = hyperbolic_system()
        dec = construct_pencil_decomposition(hyperbolic_ops(), 2.0, 16)
        _, res = prop2_functions(s, dec, [(np.array([0.3]), np.array([0.4]))])
        assert res <= 1e-6

    def test_zero_pair_identity(self):
        s, _ = hyperbolic_system()
        dec = construct_pencil_decomposition(hyperbolic_ops(), 2.0, 8)
        z0 = np.zeros(1)
        _, res = prop2_functions(s, dec, [(z0, z0)])
        assert res <= 1e-13

    def test_matrix_unit_reproduces_second_variable(self):
        s, _ = matrix_unit_system()
        dec = construct_pencil_decomposition(matrix_unit_ops(), 2.0, 12)
        pairs = polydisk_pairs(2, 0.5, 30, 12)
        h_values, res = prop2_functions(s, dec, pairs)
        assert res <= 10 * dec.eta
        # oracle: left side is 1 - conj(l_2) z_2
        lam, z = pairs[0]
        hl, hz = h_values[0]
        acc = 0.0
        for k, c in enumerate(dec.components):
            acc += (1 - np.conj(lam[k]) * z[k]) * (hl[k].conj().T @ c.j.matrix @ hz[k])
        assert acc[0, 0] == pytest.approx(1 - np.conj(lam[1]) * z[1], abs=1e-6)


def readme_ops():
    """Operators of the README's bundle: gen --n 2 --state-dim 3 --input-dim 2 --signs ++-."""
    s, _ = random_jconservative(2, 3, 2, seed=0, j=CanonicalSymmetry.from_signs([1, 1, -1]))
    return system_operators(s)


def upper_scale_dec(g, degree):
    return construct_pencil_decomposition(g, max(1.0, epsilon_bounds(g)[1]), degree)


class TestCertificate:
    @staticmethod
    def torus_pairs(n, radius, per_axis):
        """Pairs (z, z) on a per_axis^n phase grid of the r-torus."""
        phases = np.exp(2j * np.pi * np.arange(per_axis) / per_axis)
        return [(radius * np.array(p),) * 2 for p in itertools.product(phases, repeat=n)]

    @pytest.mark.parametrize(
        "system, degree, per_axis",
        [
            ("readme", 6, 32),
            ("readme", 12, 32),
            ("readme", 20, 32),
            ((2, 2, 2, 3), 8, 32),
            ((3, 2, 1, 5), 6, 10),
        ],
    )
    def test_eta_never_below_torus_scan(self, system, degree, per_axis):
        if system == "readme":
            g = readme_ops()
        else:
            n, state_dim, input_dim, seed = system
            g = system_operators(random_jconservative(n, state_dim, input_dim, seed=seed)[0])
        dec = upper_scale_dec(g, degree)
        pairs = self.torus_pairs(g.n, dec.radius, per_axis)
        scan = verify_kernel_identity(g, dec, pairs, enforce=True)
        assert 0.0 < scan <= dec.eta

    def test_eta_attained_for_one_variable(self):
        # N = 1 has no cross rows: the residual is w^(d+1) (I - G*G), whose
        # norm reaches r^(2(d+1)) ||I - G*G|| = eta everywhere on the r-torus
        g = system_operators(random_jconservative(1, 2, 1, seed=4)[0])
        dec = upper_scale_dec(g, 8)
        scan = verify_kernel_identity(g, dec, self.torus_pairs(1, dec.radius, 16), enforce=True)
        assert scan == pytest.approx(dec.eta, rel=1e-9)

    def test_readme_bundle_values(self):
        g = readme_ops()
        assert upper_scale_dec(g, 12).eta == pytest.approx(8.179e-7, rel=1e-3)
        assert upper_scale_dec(g, 20).eta == pytest.approx(1.248e-11, rel=1e-3)

    @pytest.mark.parametrize("ops", [readme_ops, hyperbolic_ops], ids=["readme", "hyperbolic"])
    @pytest.mark.parametrize("degree", [6, 12])
    def test_default_scale_is_the_upper_bound(self, ops, degree):
        g = ops()
        default = construct_pencil_decomposition(g, None, degree)
        explicit = upper_scale_dec(g, degree)
        assert (default.epsilon, default.eta) == (explicit.epsilon, explicit.eta)
        for got, want in zip(default.components, explicit.components, strict=True):
            assert (got.m_plus, got.m_minus) == (want.m_plus, want.m_minus)
            assert got.series.coefficients.keys() == want.series.coefficients.keys()
            for t, m in got.series.coefficients.items():
                np.testing.assert_array_equal(m, want.coefficient(t))


def stacked_rows(component, keys):
    return np.hstack([component.coefficient(t) for t in keys])


def closed_form_gram(g, k, degree):
    """Component k's closed-form Gram at ``degree``, with its keys: I/N at key 0
    and, from each degree p to p + 1, the step B_k on the keys p e_k + e_l, l >= k."""
    keys = [(0,) * g.n]
    for p in range(degree):
        keys += [tuple(p * (i == k) + (i == l) for i in range(g.n)) for l in range(k, g.n)]
    q = g.operators[0].shape[1]
    return keys, block_diag(np.eye(q) / g.n, *[pencil_gram(g)[k]] * degree)


def conservative_ops(draw, n_range=(1, 3), degree_range=(1, 6)):
    """Operators of a random conservative system, all signs positive or drawn."""
    n = draw(st.integers(*n_range))
    definite = draw(st.booleans())
    state_dim = draw(st.integers(0, 3))
    input_dim = draw(st.integers(max(1, n - state_dim), 3))
    signs = [1.0] * state_dim if definite else draw(
        st.lists(st.sampled_from([1.0, -1.0]), min_size=state_dim, max_size=state_dim)
    )
    seed = draw(st.integers(0, 10_000))
    system, _ = random_jconservative(
        n, state_dim, input_dim, seed=seed, j=CanonicalSymmetry.from_signs(signs)
    )
    return system_operators(system), draw(st.integers(*degree_range)), seed


@st.composite
def factor_cases(draw):
    g, degree, seed = conservative_ops(draw)
    # the explicit decomposition that takes the same branch as the factor
    dec = construct_pencil_decomposition(g, 1.0 if _exact_branch_applies(g) else None, degree)
    return g, degree, dec, seed


@st.composite
def gram_cases(draw):
    g, degree, _ = conservative_ops(draw)
    epsilon = draw(st.sampled_from([None, 8.0, 50.0]))
    return g, construct_pencil_decomposition(g, epsilon, degree)


class TestMinimalFactor:
    @settings(max_examples=60, deadline=None)
    @given(factor_cases())
    def test_factor_reproduces_every_gram(self, case):
        g, degree, dec, seed = case
        small, factor = minimal_factor(g, degree, dec.radius)
        assert (small.exact, small.degree, small.eta) == (dec.exact, dec.degree, dec.eta)
        keys = [t for lev in range(dec.degree + 1) for t in multi_indices(dec.n, lev)]
        pairs = polydisk_pairs(dec.n, dec.radius, 5, seed)
        mismatch = 0.0
        for k, (big, cut) in enumerate(zip(dec.components, small.components, strict=True)):
            c_big, c_cut = stacked_rows(big, keys), stacked_rows(cut, keys)
            gram = c_big.conj().T @ big.j.matrix @ c_big
            tol = 1e-12 * max(1.0, np.linalg.norm(c_big, 2) ** 2)
            assert np.linalg.norm(gram - c_cut.conj().T @ cut.j.matrix @ c_cut, 2) <= tol
            for lam, z in pairs:
                lhs = big.value(lam).conj().T @ big.j.matrix @ big.value(z)
                rhs = cut.value(lam).conj().T @ cut.j.matrix @ cut.value(z)
                assert np.linalg.norm(lhs - rhs, 2) <= tol
            # fewest rows: the Gram's rank, split as its inertia (cut.j signs the
            # m_plus rows first, so the Gram check above pins the row order);
            # a product Gram carries roundoff of order eps ||C_k||^2
            w = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
            assert (cut.m_plus, cut.m_minus) == (np.sum(w > tol), np.sum(w < -tol))
            # ``factor`` is the mismatch against the closed-form Gram
            if small.exact:
                cf_keys, cf_gram = [(0,) * g.n], g.operators[k].conj().T @ g.operators[k]
            else:
                cf_keys, cf_gram = closed_form_gram(g, k, degree)
            c_cf = stacked_rows(cut, cf_keys)
            cf_diff = np.linalg.norm(cf_gram - c_cf.conj().T @ cut.j.matrix @ c_cf, 2)
            mismatch = max(mismatch, cf_diff)
        assert factor == pytest.approx(mismatch, abs=1e-14 * max(1.0, mismatch))

    @settings(max_examples=30, deadline=None)
    @given(gram_cases())
    def test_closed_form_gram_equals_explicit(self, case):
        g, dec = case
        if dec.exact:  # scale 1 on an exact pencil: no explicit rows to compare
            return
        for k, comp in enumerate(dec.components):
            keys, gram = closed_form_gram(g, k, dec.degree)
            nonzero = {t for t, m in comp.series.coefficients.items() if np.any(m)}
            assert nonzero <= set(keys)
            c = stacked_rows(comp, keys)
            tol = 1e-13 * max(1.0, np.linalg.norm(c, 2) ** 2)
            assert np.linalg.norm(c.conj().T @ comp.j.matrix @ c - gram, 2) <= tol

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_exact_branch_chosen_exactly_when_it_applies(self, data):
        g, degree, _ = conservative_ops(data.draw, degree_range=(1, 3))
        if data.draw(st.booleans()):  # a small push off the conservative pencil
            pushed = (1.0 + 1e-9 * data.draw(st.integers(1, 100))) * g.operators[0]
            g = SystemOperatorTuple(
                (pushed, *g.operators[1:]), g.state_dim, g.input_dim, g.output_dim
            )
        small, _ = minimal_factor(g, degree)
        assert small.exact == _exact_branch_applies(g)
        if small.exact:
            assert (small.degree, small.eta, small.signature[1]) == (0, 0.0, 0)
            for gk, comp in zip(g.operators, small.components, strict=True):
                f0 = comp.coefficient((0,) * g.n)
                np.testing.assert_allclose(f0.conj().T @ f0, gk.conj().T @ gk, atol=1e-14)
        else:
            assert small.degree == degree and small.eta > 0

    def test_factor_measures_dropped_eigenvalue(self):
        # an exact pencil whose first Gram G_1*G_1 = diag(1, 1e-12) has an
        # eigenvalue below the rank cut: it is dropped, and the defect reports
        # exactly what was lost
        g1 = np.array([[1.0, 0.0], [0.0, 1e-6], [0.0, 0.0]])
        g2 = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, np.sqrt(1.0 - 1e-12)]])
        small, factor = minimal_factor(SystemOperatorTuple((g1, g2), 1, 1, 2), 1)
        assert small.exact
        assert [c.dim for c in small.components] == [1, 1]
        assert factor == pytest.approx(1e-12, rel=1e-6)
        f1 = small.components[0].coefficient((0, 0))
        np.testing.assert_allclose(f1.conj().T @ f1, np.diag([1.0, 0.0]))

    def test_zero_component_keeps_no_rows(self):
        # G_2 = 0 with a unitary G_1 takes the exact branch, and F_2 = 0
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        g = SystemOperatorTuple((swap, np.zeros((2, 2))), 1, 1, 1)
        small, factor = minimal_factor(g, 3)
        assert small.exact
        assert [c.dim for c in small.components] == [2, 0]
        assert factor == 0.0
        np.testing.assert_allclose(small.f0().conj().T @ small.f0(), np.eye(2), atol=1e-15)
