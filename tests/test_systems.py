"""Tests for multiparametric system tuples and conservativity checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinsys.krein import CanonicalSymmetry
from kreinsys.systems import (
    MultiparametricSystem,
    SystemOperatorTuple,
    _mix,
    conjugate_system,
    conservativity_bound,
    fourier_grid,
    jconservativity_defect,
    pad_io,
    random_jconservative,
    system_from_operators,
    system_operators,
    torus_check,
    torus_coefficient_defects,
)


def hyperbolic_system():
    """Single-direction benchmark: G = [[5/4, 3/4], [3/4, 5/4]], J = (-1)."""
    s = MultiparametricSystem(
        n=1,
        a=([[1.25]],),
        b=([[0.75]],),
        c=([[0.75]],),
        d=([[1.25]],),
    )
    return s, CanonicalSymmetry([[-1.0]])


def matrix_unit_system():
    """Two-direction benchmark: G_1 = E_11, G_2 = E_22, J = I_1."""
    s = MultiparametricSystem(
        n=2,
        a=([[1.0]], [[0.0]]),
        b=([[0.0]], [[0.0]]),
        c=([[0.0]], [[0.0]]),
        d=([[0.0]], [[1.0]]),
    )
    return s, CanonicalSymmetry([[1.0]])


def random_system(n, dx, du, dy, seed):
    rng = np.random.default_rng(seed)
    mk = lambda r, c: rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))
    return MultiparametricSystem(
        n=n,
        a=tuple(mk(dx, dx) for _ in range(n)),
        b=tuple(mk(dx, du) for _ in range(n)),
        c=tuple(mk(dy, dx) for _ in range(n)),
        d=tuple(mk(dy, du) for _ in range(n)),
    )


class TestSystemBasics:
    def test_dims(self):
        s = random_system(2, 3, 2, 4, seed=0)
        assert s.dims == (3, 2, 4)
        assert s.state_dim == 3 and s.input_dim == 2 and s.output_dim == 4

    def test_block_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            MultiparametricSystem(
                n=1, a=([[1.0]],), b=([[1.0], [2.0]],), c=([[1.0]],), d=([[1.0]],)
            )

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("name", ["a", "b", "c", "d"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_block_raises(self, n, name, value):
        # n = 1, name = "b", value = nan is the one-state system with b = [[nan]]
        blocks = {k: ([[0.5]],) * n for k in "abcd"}
        blocks[name] = ([[0.5]],) * (n - 1) + ([[value]],)
        with pytest.raises(ValueError, match=rf"^{name}\[{n - 1}\] has a non-finite entry"):
            MultiparametricSystem(n=n, **blocks)

    def test_wrong_block_count_raises(self):
        with pytest.raises(ValueError):
            MultiparametricSystem(
                n=2, a=([[1.0]],), b=([[1.0]],), c=([[1.0]],), d=([[1.0]],)
            )

    def test_operator_round_trip(self):
        s = random_system(3, 2, 1, 2, seed=1)
        ops = system_operators(s)
        assert ops[0].shape == (4, 3)
        back = system_from_operators(ops)
        for name in ("a", "b", "c", "d"):
            for m0, m1 in zip(getattr(s, name), getattr(back, name)):
                np.testing.assert_array_equal(m0, m1)

    def test_stateless_system(self):
        s = MultiparametricSystem(
            n=1,
            a=(np.zeros((0, 0)),),
            b=(np.zeros((0, 2)),),
            c=(np.zeros((3, 0)),),
            d=(np.ones((3, 2)),),
        )
        assert s.dims == (0, 2, 3)
        ops = system_operators(s)
        assert ops[0].shape == (3, 2)


class TestConservativityDefects:
    def test_hyperbolic_benchmark_conservative(self):
        s, j = hyperbolic_system()
        assert max(jconservativity_defect(s, j)) <= 1e-12

    def test_hyperbolic_wrong_metric_not_conservative(self):
        s, _ = hyperbolic_system()
        r = jconservativity_defect(s, CanonicalSymmetry([[1.0]]))
        # G*G - I has eigenvalues 3 and -3/4
        assert abs(r[0] - 3.0) < 1e-12

    def test_matrix_unit_benchmark_conservative(self):
        s, j = matrix_unit_system()
        assert max(jconservativity_defect(s, j)) <= 1e-12

    def test_conjugate_is_involution(self):
        s = random_system(2, 2, 2, 3, seed=2)
        back = conjugate_system(conjugate_system(s))
        for name in ("a", "b", "c", "d"):
            for m0, m1 in zip(getattr(s, name), getattr(back, name)):
                np.testing.assert_array_equal(m0, m1)

    def test_conjugate_swaps_defects(self):
        s = random_system(2, 2, 2, 2, seed=3)
        j = CanonicalSymmetry.from_signs([1.0, -1.0])
        r = jconservativity_defect(s, j)
        rc = jconservativity_defect(conjugate_system(s), j)
        assert rc[0] == pytest.approx(r[2], abs=1e-13)
        assert rc[1] == pytest.approx(r[3], abs=1e-13)
        assert rc[2] == pytest.approx(r[0], abs=1e-13)
        assert rc[3] == pytest.approx(r[1], abs=1e-13)

    def test_conjugate_of_conservative_is_conservative(self):
        s, j = hyperbolic_system()
        assert max(jconservativity_defect(conjugate_system(s), j)) <= 1e-12


class TestTorusCharacterization:
    def test_fourier_grid_shape_and_modulus(self):
        g = fourier_grid(2)
        assert g.shape == (25, 2)
        np.testing.assert_allclose(np.abs(g), 1.0, atol=1e-14)

    def test_torus_check_conservative(self):
        s, j = matrix_unit_system()
        assert torus_check(s, j, fourier_grid(2)) <= 1e-12

    def test_torus_check_rejects_offtorus_points(self):
        s, j = hyperbolic_system()
        with pytest.raises(ValueError):
            torus_check(s, j, [np.array([0.5])])

    def test_torus_extraction_matches_coefficient_defects(self):
        # the Fourier-averaged residuals agree with the algebraic ones
        # even far from conservativity
        s = random_system(2, 2, 1, 1, seed=4)
        j = CanonicalSymmetry.from_signs([1.0, -1.0])
        r_alg = jconservativity_defect(s, j)
        r_tor = torus_coefficient_defects(s, j)
        np.testing.assert_allclose(r_tor, r_alg, rtol=1e-10, atol=1e-10)

    def test_torus_extraction_three_directions(self):
        s = random_system(3, 2, 2, 2, seed=5)
        j = CanonicalSymmetry.from_signs([1.0, 1.0])
        np.testing.assert_allclose(
            torus_coefficient_defects(s, j),
            jconservativity_defect(s, j),
            rtol=1e-10,
            atol=1e-10,
        )


def perturbed(system, size, rng):
    """``system`` with each operator moved by ``size`` in spectral norm."""
    ops = system_operators(system)
    moved = []
    for g in ops:
        e = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        moved.append(g + size * e / np.linalg.norm(e, 2))
    return system_from_operators(SystemOperatorTuple(tuple(moved), *system.dims))


def pencil_roundoff(system):
    """Allowance for the rounding of zeta G, which a torus sample sees and
    the coefficient conditions do not."""
    norm = sum(np.linalg.norm(g, 2) for g in system_operators(system))
    return 64 * np.finfo(float).eps * (1 + norm) ** 2


class TestConservativityBound:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3]),
        state_dim=st.integers(1, 3),
        seed=st.integers(0, 10_000),
        log_size=st.floats(-6.0, -2.0),
    )
    def test_bound_dominates_torus_samples(self, n, state_dim, seed, log_size):
        rng = np.random.default_rng(seed)
        s, j = random_jconservative(n=n, state_dim=state_dim, input_dim=2, seed=seed)
        s = perturbed(s, 10.0**log_size, rng)
        r1, _, r3, _ = jconservativity_defect(s, j)
        bound = conservativity_bound(s, j)
        points = np.vstack([fourier_grid(n), np.exp(2j * np.pi * rng.uniform(size=(64, n)))])
        assert torus_check(s, j, points) <= bound + pencil_roundoff(s)
        if n == 1:
            assert bound == max(r1, r3)

    @pytest.mark.parametrize("weights", [(0.6, 0.8), (0.6, 0.48, 0.64)], ids=["n2", "n3"])
    def test_bound_catches_a_cross_violation(self, weights):
        # G_k = a_k V with V J-unitary and |a| = 1 meets both diagonal
        # conditions exactly; only the cross products a_k a_l V*JV survive,
        # and at zeta = (1, .., 1) the pencil is (sum a_k) V, off by
        # (sum a_k)^2 - 1 = sum_{k != l} a_k a_l
        n = len(weights)
        base, j = random_jconservative(n=1, state_dim=2, input_dim=1, seed=3)
        v = system_operators(base)[0]
        ops = SystemOperatorTuple(tuple(a * v for a in weights), 2, 1, 1)
        s = system_from_operators(ops)
        r1, _, r3, _ = jconservativity_defect(s, j)
        assert max(r1, r3) <= 1e-12
        violation = sum(a * b for a in weights for b in weights) - 1.0
        assert torus_check(s, j, [np.ones(n)]) == pytest.approx(violation, rel=1e-9)
        bound = conservativity_bound(s, j)
        assert bound >= torus_check(s, j, fourier_grid(n)) - pencil_roundoff(s)
        assert bound >= violation - pencil_roundoff(s)
        if n == 2:  # one cross pair: the bound is attained at zeta = (1, 1)
            assert bound == pytest.approx(violation, rel=1e-9)


class TestRandomConservative:
    @pytest.mark.parametrize("seed", range(8))
    def test_generator_is_exactly_conservative(self, seed):
        n = 1 + seed % 3
        s, j = random_jconservative(n=n, state_dim=2, input_dim=2, seed=seed)
        assert max(jconservativity_defect(s, j)) <= 1e-12
        assert s.n == n and s.dims == (2, 2, 2)

    def test_generator_with_supplied_metric(self):
        j = CanonicalSymmetry.from_signs([1.0, -1.0, 1.0])
        s, j_out = random_jconservative(n=2, state_dim=3, input_dim=1, seed=7, j=j)
        assert j_out is j
        assert max(jconservativity_defect(s, j)) <= 1e-12

    def test_too_many_directions_raises(self):
        with pytest.raises(ValueError):
            random_jconservative(n=4, state_dim=1, input_dim=2, seed=0)


class TestSliceAndPadding:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_torus_slice_of_conservative_is_conservative(self, seed):
        rng = np.random.default_rng(seed)
        s, j = random_jconservative(n=2, state_dim=2, input_dim=1, seed=seed)
        z = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
        assert torus_check(s, j, [z]) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mix_is_the_generator_sum_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        shape = (4, 3)
        blocks = []
        for _ in range(n):
            t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            t[rng.uniform(size=shape) < 0.4] = complex(-0.0, -0.0)
            blocks.append(t)
        for z in (rng.standard_normal(n) + 1j * rng.standard_normal(n), np.ones(n, dtype=complex)):
            reference = sum(z[k] * blocks[k] for k in range(n))
            got = _mix(tuple(blocks), z)
            assert np.array_equal(got.view(np.float64), reference.view(np.float64))
            assert np.array_equal(np.signbit(got.view(np.float64)), np.signbit(reference.view(np.float64)))

    def test_pad_io_equalizes_dims(self):
        s = random_system(2, 2, 1, 3, seed=9)
        p = pad_io(s)
        assert p.input_dim == p.output_dim == 3
        for k in range(2):
            np.testing.assert_array_equal(p.d[k][:, :1], s.d[k])
            np.testing.assert_array_equal(p.b[k][:, :1], s.b[k])
            assert np.all(p.b[k][:, 1:] == 0) and np.all(p.d[k][:, 1:] == 0)

    def test_pad_io_output_side(self):
        s = random_system(1, 2, 3, 1, seed=10)
        p = pad_io(s)
        assert p.input_dim == p.output_dim == 3
        np.testing.assert_array_equal(p.c[0][:1], s.c[0])
        np.testing.assert_array_equal(p.d[0][:1], s.d[0])
        assert np.all(p.c[0][1:] == 0) and np.all(p.d[0][1:] == 0)

    def test_pad_io_square_is_identity(self):
        s = random_system(1, 2, 2, 2, seed=11)
        assert pad_io(s) is s
