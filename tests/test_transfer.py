"""Tests for transfer evaluation, Taylor coefficients, and series tails."""

import numpy as np
import pytest

from kreinsys.lattice import LatticeSignal, simulate
from kreinsys.systems import MultiparametricSystem, conjugate_system
from kreinsys.transfer import (
    EvalResult,
    ResolventError,
    TailBound,
    TruncatedOperatorSeries,
    eval_series,
    eval_transfer,
    multi_indices,
    resolvent,
    taylor_coefficients,
    z_transform_check,
)

from oracles import interpolated_coefficient, word_count, words_coefficient
from test_systems import hyperbolic_system, matrix_unit_system, random_system


def contractive_random_system(n, dx, du, dy, seed, a_scale=0.4):
    rng = np.random.default_rng(seed)
    mk = lambda r, c: rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))
    a = tuple(a_scale * m / max(1.0, np.linalg.norm(m, 2)) for m in (mk(dx, dx) for _ in range(n)))
    return MultiparametricSystem(
        n=n,
        a=a,
        b=tuple(mk(dx, du) for _ in range(n)),
        c=tuple(mk(dy, dx) for _ in range(n)),
        d=tuple(mk(dy, du) for _ in range(n)),
    )


class TestEvalTransfer:
    def test_hyperbolic_at_half_is_one(self):
        s, _ = hyperbolic_system()
        np.testing.assert_allclose(eval_transfer(s, [0.5]), [[1.0]], atol=1e-15)

    def test_matrix_unit_is_second_coordinate(self):
        s, _ = matrix_unit_system()
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = 0.95 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
            np.testing.assert_allclose(eval_transfer(s, z), [[z[1]]], atol=1e-14)

    def test_vanishes_at_origin(self):
        s = random_system(3, 2, 2, 2, seed=30)
        np.testing.assert_allclose(eval_transfer(s, np.zeros(3)), 0, atol=1e-15)


class TestResolvent:
    def test_identity_at_origin(self):
        s = random_system(2, 3, 1, 1, seed=31)
        np.testing.assert_allclose(resolvent(s, [0.0, 0.0]), np.eye(3), atol=1e-15)

    def test_matrix_unit_singular_point(self):
        s, _ = matrix_unit_system()
        with pytest.raises(ResolventError, match="singular"):
            resolvent(s, [1.0, 0.0])

    def test_hyperbolic_value(self):
        s, _ = hyperbolic_system()
        np.testing.assert_allclose(resolvent(s, [0.5]), [[8 / 3]], atol=1e-14)


RESOLVENT_LIMIT = 1e12


def pencil_system(m):
    """One-direction system whose pencil I - zA is m at z = 1, up to rounding."""
    rng = np.random.default_rng(0)
    n = m.shape[0]
    mk = lambda r, c: rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))
    return MultiparametricSystem(
        n=1, a=(np.eye(n) - m,), b=(mk(n, 2),), c=(mk(2, n),), d=(mk(2, 2),)
    )


def diagonal_pencil(kappa):
    # one entry near 1 in A leaves a small entry in I - A
    return np.diag([1.3 / kappa, 0.5, 1.3, 0.9, 0.7]).astype(np.complex128)


def similar_pencil(kappa):
    rng = np.random.default_rng(7)
    s = np.eye(5) + 0.4 * (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    return s @ diagonal_pencil(kappa) @ np.linalg.inv(s)


def jordan_pencil(kappa):
    # delta I + shift has 2-norm condition about delta^-4 at n = 4
    delta = kappa ** -0.25
    return delta * np.eye(4) + np.eye(4, k=1)


def dense_row_pencil(kappa):
    # its 2-norm condition exceeds the 1-norm estimate by about 5 %
    m = np.eye(8, dtype=np.complex128)
    m[0, :] = 1.0
    m[7, 7] = 4.19 / kappa
    return m


class TestResolventGate:
    """The LU-based gate rejects exactly the points the 2-norm test rejects."""

    kappas = np.concatenate(
        [np.geomspace(1e8, 1e16, 41), RESOLVENT_LIMIT * np.geomspace(0.5, 2.0, 61)]
    )

    @pytest.mark.parametrize(
        "family", [diagonal_pencil, similar_pencil, jordan_pencil, dense_row_pencil]
    )
    def test_rejects_exactly_above_the_limit(self, family):
        rejected = accepted = 0
        for kappa in self.kappas:
            s = pencil_system(family(kappa))
            m = np.eye(s.state_dim) - s.a[0]
            cond = np.linalg.cond(m)
            if cond > RESOLVENT_LIMIT:
                with pytest.raises(ResolventError, match="singular"):
                    resolvent(s, [1.0])
                with pytest.raises(ResolventError, match="singular"):
                    eval_transfer(s, [1.0])
                rejected += 1
                continue
            resolvent(s, [1.0])
            value = eval_transfer(s, [1.0])
            reference = s.d[0] + s.c[0] @ np.linalg.inv(m) @ s.b[0]
            err = np.linalg.norm(value - reference) / np.linalg.norm(reference)
            assert err <= 1e-12 * cond
            accepted += 1
        assert rejected >= 10 and accepted >= 10

    def test_exactly_singular_point(self):
        s = pencil_system(np.diag([0.0, 0.5, 1.3]).astype(np.complex128))
        for fn in (resolvent, eval_transfer):
            with pytest.raises(ResolventError, match="singular"):
                fn(s, [1.0])

    def test_non_finite_pencil(self):
        m = np.diag([0.5, 1.3]).astype(np.complex128)
        m[0, 1] = np.nan
        s = pencil_system(m)
        for fn in (resolvent, eval_transfer):
            with pytest.raises(ResolventError, match="non-finite"):
                fn(s, [0.5])


class TestTaylorCoefficients:
    def test_hyperbolic_geometric_coefficients(self):
        s, _ = hyperbolic_system()
        series = taylor_coefficients(s, 8)
        np.testing.assert_allclose(series.coefficient((1,)), [[1.25]], atol=1e-15)
        for n in range(2, 9):
            np.testing.assert_allclose(
                series.coefficient((n,)), [[(9 / 16) * 1.25 ** (n - 2)]], atol=1e-13
            )

    def test_matrix_unit_single_coefficient(self):
        s, _ = matrix_unit_system()
        series = taylor_coefficients(s, 5)
        np.testing.assert_allclose(series.coefficient((0, 1)), [[1.0]])
        for t, m in series.coefficients.items():
            if t != (0, 1):
                np.testing.assert_allclose(m, 0, atol=1e-15)

    def test_memoryless_coupling_vanishes_beyond_level_two(self):
        s = random_system(2, 2, 1, 1, seed=32)
        s = MultiparametricSystem(
            n=2, a=(np.zeros((2, 2)), np.zeros((2, 2))), b=s.b, c=s.c, d=s.d
        )
        series = taylor_coefficients(s, 6)
        for t, m in series.coefficients.items():
            if sum(t) >= 3:
                np.testing.assert_allclose(m, 0, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3])
    def test_word_count_multinomial(self, n):
        # all-scalar-ones system counts its own words
        one = (np.ones((1, 1)),) * n
        s = MultiparametricSystem(n=n, a=one, b=one, c=one, d=one)
        series = taylor_coefficients(s, 5)
        for level in range(1, 6):
            for t in multi_indices(n, level):
                np.testing.assert_allclose(
                    series.coefficient(t), [[word_count(t)]], atol=1e-10
                )

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_explicit_word_enumeration(self, seed):
        n = 2 + seed % 2
        s = random_system(n, 2, 2, 1, seed=40 + seed)
        series = taylor_coefficients(s, 4)
        for level in range(1, 5):
            for t in multi_indices(n, level):
                np.testing.assert_allclose(
                    series.coefficient(t), words_coefficient(s, t), atol=1e-10
                )

    def test_matches_grid_interpolation(self):
        s = contractive_random_system(2, 3, 2, 2, seed=41)
        series = taylor_coefficients(s, 4)
        for t in [(1, 0), (1, 1), (2, 1), (0, 3), (2, 2)]:
            np.testing.assert_allclose(
                series.coefficient(t), interpolated_coefficient(s, t), atol=1e-9
            )

    def test_conjugate_coefficients_are_adjoints(self):
        s = random_system(2, 2, 3, 2, seed=42)
        series = taylor_coefficients(s, 4)
        series_c = taylor_coefficients(conjugate_system(s), 4)
        for level in range(1, 5):
            for t in multi_indices(2, level):
                np.testing.assert_allclose(
                    series_c.coefficient(t), series.coefficient(t).conj().T, atol=1e-11
                )

    def test_degree_cap(self):
        s, _ = hyperbolic_system()
        with pytest.raises(ValueError, match="cap"):
            taylor_coefficients(s, 9)
        series = taylor_coefficients(s, 9, allow_large_degree=True)
        assert series.degree == 9

    def test_degree_must_be_positive(self):
        s, _ = hyperbolic_system()
        with pytest.raises(ValueError):
            taylor_coefficients(s, 0)


class TestSeriesEvaluation:
    def test_constant_series(self):
        series = TruncatedOperatorSeries(
            n=2, degree=0, coefficients={(0, 0): [[1.0, 2.0], [3.0, 4.0]]}
        )
        res = eval_series(series, [0.3, -0.7j])
        np.testing.assert_allclose(res.value, [[1, 2], [3, 4]])
        assert res.tail_error == 0.0

    def test_geometric_scalar_series(self):
        coeffs = {(m,): [[1.0]] for m in range(11)}
        series = TruncatedOperatorSeries(
            n=1, degree=10, coefficients=coeffs, tail=TailBound("geometric", 1.0, 1.0)
        )
        res = eval_series(series, [0.5])
        np.testing.assert_allclose(res.value, [[2.0 - 2.0**-10]], atol=1e-15)
        assert res.tail_error == pytest.approx(2.0**-10, rel=1e-12)

    def test_outside_certified_radius_raises(self):
        series = TruncatedOperatorSeries(
            n=1, degree=1, coefficients={(1,): [[1.0]]}, tail=TailBound("geometric", 1.0, 1.0)
        )
        with pytest.raises(ValueError, match="radius"):
            eval_series(series, [1.2])

    def test_hyperbolic_series_matches_transfer(self):
        s, _ = hyperbolic_system()
        series = taylor_coefficients(s, 30, allow_large_degree=True)
        res = eval_series(series, [0.5])
        np.testing.assert_allclose(res.value, [[1.0]], atol=1e-6)
        assert abs(res.value[0, 0] - 1.0) <= res.tail_error <= 2e-6

    def test_negative_tail_error_rejected(self):
        with pytest.raises(ValueError):
            EvalResult(value=np.zeros((1, 1)), tail_error=-1.0)

    def test_index_beyond_degree_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            TruncatedOperatorSeries(n=1, degree=1, coefficients={(2,): [[1.0]]})


class TestZTransform:
    def test_constant_input_identities(self):
        s = contractive_random_system(2, 3, 2, 2, seed=50)
        u0 = TruncatedOperatorSeries(
            n=2, degree=0, coefficients={(0, 0): np.array([1.0, -0.5j])}
        )
        rng = np.random.default_rng(51)
        samples = [0.6 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) for _ in range(10)]
        res = z_transform_check(s, u0, samples)
        assert res["state"] <= 1e-12
        assert res["transfer"] <= 1e-12

    def test_zero_input_all_zero(self):
        s = contractive_random_system(2, 2, 2, 2, seed=52)
        u0 = TruncatedOperatorSeries(n=2, degree=0, coefficients={(0, 0): np.zeros(2)})
        res = z_transform_check(s, u0, [np.array([0.1, 0.2])])
        assert res["state"] == 0.0 and res["transfer"] == 0.0

    def test_impulse_simulation_matches_coefficients(self):
        # output levels of a unit impulse are exactly theta_hat_t u0
        s = contractive_random_system(2, 2, 2, 2, seed=53)
        u0 = np.array([1.0, 0.5 - 0.25j])
        u = LatticeSignal.impulse(2, (0, 0), u0)
        traj = simulate(s, LatticeSignal(2, 2), u, n_max=5)
        series = taylor_coefficients(s, 5)
        for t, coeff in series.coefficients.items():
            np.testing.assert_allclose(traj.y[t], coeff @ u0, atol=1e-10)
