"""Tests for series realization and the conservative realization pipeline."""

import numpy as np
import pytest

from kreinsys.dilation import build_dilation
from kreinsys.krein import opnorm
from kreinsys.realize import (
    RealizationResult,
    jconservative_realization,
    pad_io,
    shift_register_realization,
)
from kreinsys.systems import jconservativity_defect
from kreinsys.transfer import (
    TruncatedOperatorSeries,
    eval_series,
    eval_transfer,
    taylor_coefficients,
)

from oracles import word_count
from test_systems import hyperbolic_system


def series(n, degree, coeffs, shape=(1, 1)):
    return TruncatedOperatorSeries(
        n=n,
        degree=degree,
        coefficients={t: np.asarray(m, dtype=np.complex128) for t, m in coeffs.items()},
    )


def random_series(n, degree, dy, du, seed):
    rng = np.random.default_rng(seed)
    coeffs = {}
    from kreinsys.transfer import multi_indices

    for level in range(1, degree + 1):
        for t in multi_indices(n, level):
            coeffs[t] = rng.uniform(-1, 1, (dy, du)) + 1j * rng.uniform(-1, 1, (dy, du))
    return TruncatedOperatorSeries(n=n, degree=degree, coefficients=coeffs)


class TestShiftRegister:
    def test_product_of_two_variables(self):
        theta = series(2, 2, {(1, 1): [[1.0]]})
        alpha = shift_register_realization(theta)
        assert alpha.state_dim == 2
        # each of the two monomial words carries weight 1/2
        assert alpha.c[0][0, 1] == pytest.approx(0.5)
        assert alpha.c[1][0, 0] == pytest.approx(0.5)
        out = taylor_coefficients(alpha, 4)
        assert out.coefficient((1, 1))[0, 0] == pytest.approx(1.0, abs=1e-14)
        total = sum(
            opnorm(m) for t, m in out.coefficients.items() if t != (1, 1)
        )
        assert total <= 1e-14

    def test_degree_one_constant_block(self):
        c = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        theta = series(1, 1, {(1,): c}, shape=(2, 3))
        alpha = shift_register_realization(theta)
        assert alpha.state_dim == 0
        np.testing.assert_array_equal(alpha.d[0], c)
        np.testing.assert_allclose(eval_transfer(alpha, [0.3]), 0.3 * c, atol=1e-15)

    def test_cubic_single_word(self):
        theta = series(1, 3, {(3,): [[2.0]]})
        alpha = shift_register_realization(theta)
        assert alpha.state_dim == 2
        out = taylor_coefficients(alpha, 3)
        assert out.coefficient((3,))[0, 0] == pytest.approx(2.0, abs=1e-14)
        assert opnorm(out.coefficient((1,))) <= 1e-15
        assert opnorm(out.coefficient((2,))) <= 1e-15

    def test_multinomial_weights_invert_word_counts(self):
        from kreinsys.realize import _word_normalization
        from kreinsys.transfer import multi_indices

        for level in range(1, 4):
            for t in multi_indices(2, level):
                assert word_count(t) * _word_normalization(t) == pytest.approx(1.0)

    def test_random_series_reproduced_exactly(self):
        theta = random_series(2, 3, 2, 1, seed=0)
        alpha = shift_register_realization(theta)
        out = taylor_coefficients(alpha, 3)
        for t, m in theta.coefficients.items():
            np.testing.assert_allclose(out.coefficient(t), m, atol=1e-12)

    def test_three_directions(self):
        theta = random_series(3, 3, 1, 2, seed=1)
        alpha = shift_register_realization(theta)
        out = taylor_coefficients(alpha, 3)
        for t, m in theta.coefficients.items():
            np.testing.assert_allclose(out.coefficient(t), m, atol=1e-12)

    def test_nonvanishing_at_zero_rejected(self):
        theta = series(1, 2, {(0,): [[1.0]], (1,): [[1.0]]})
        with pytest.raises(ValueError, match="vanish"):
            shift_register_realization(theta)

    def test_content_beyond_degree_rejected(self):
        theta = series(1, 3, {(3,): [[1.0]]})
        with pytest.raises(ValueError, match="beyond degree"):
            shift_register_realization(theta, d=2)

    def test_register_cap_for_many_directions(self):
        theta = random_series(3, 7, 1, 1, seed=2)
        with pytest.raises(ValueError, match="cap"):
            shift_register_realization(theta)


class TestConservativeRealization:
    def test_product_of_two_variables_end_to_end(self):
        theta = series(2, 2, {(1, 1): [[1.0]]})
        res = jconservative_realization(theta, tol=1e-5)
        assert res.max_coefficient_residual() <= 1e-12
        assert max(jconservativity_defect(res.system, res.j)) <= 1e-8
        assert res.sample_residual <= 1e-5
        # coefficients up to degree 4: exactly the single product term
        out = taylor_coefficients(res.system, 4)
        got = out.coefficient((1, 1))
        assert got[0, 0] == pytest.approx(1.0, abs=1e-12)
        rest = sum(
            opnorm(m) for t, m in out.coefficients.items() if t != (1, 1)
        )
        assert rest <= 1e-10

    def test_hyperbolic_series_degree_eight(self):
        s, _ = hyperbolic_system()
        theta = taylor_coefficients(s, 8)
        res = jconservative_realization(theta, tol=1e-4)
        assert res.max_coefficient_residual() <= 1e-12
        assert res.sample_residual <= 1e-5
        # boundary sample of the certified polydisk
        got = res.corner_transfer(np.array([0.5]))[0, 0]
        want = eval_series(theta, [0.5])[0, 0]
        assert abs(got - want) <= 1e-5

    def test_zero_series_gives_definite_symmetry(self):
        theta = series(1, 3, {(1,): [[0.0]]})
        res = jconservative_realization(theta, tol=1e-5)
        assert res.j.signature[1] == 0
        assert res.sample_residual <= 1e-5
        assert res.max_coefficient_residual() <= 1e-13

    def test_rectangular_series_padded(self):
        theta = random_series(1, 2, 2, 1, seed=3)
        res = jconservative_realization(theta, tol=1e-4)
        assert res.system.input_dim == res.system.output_dim == 2
        assert res.output_dim == 2 and res.input_dim == 1
        assert res.max_coefficient_residual() <= 1e-12
        z = np.array([0.2 + 0.1j])
        assert res.corner_transfer(z).shape == (2, 1)
        want = eval_series(theta, z)
        assert opnorm(res.corner_transfer(z) - want) <= 1e-5

    def test_sample_count_reaches_the_dilation(self, monkeypatch):
        import kreinsys.realize as realize_module

        seen = []

        def recording_build(*args, **kwargs):
            seen.append(kwargs.get("samples"))
            return build_dilation(*args, **kwargs)

        monkeypatch.setattr(realize_module, "build_dilation", recording_build)
        theta = series(1, 2, {(2,): [[0.5]]})
        jconservative_realization(theta, tol=1e-5, samples=7)
        jconservative_realization(theta, tol=1e-5)
        assert seen == [7, 100]

    def test_result_carries_dilation_defects(self):
        theta = series(1, 2, {(2,): [[0.5]]})
        res = jconservative_realization(theta, tol=1e-5)
        assert isinstance(res, RealizationResult)
        assert res.dilation.max_defect() <= 1e-5
        assert res.radius == 0.5


class TestPadIO:
    def test_reexported_and_corner_recovery(self):
        theta = random_series(1, 2, 2, 1, seed=4)
        alpha = shift_register_realization(theta)
        padded = pad_io(alpha)
        assert padded.input_dim == padded.output_dim == 2
        for z in ([0.3], [0.1 + 0.2j]):
            orig = eval_transfer(alpha, z)
            wide = eval_transfer(padded, z)
            assert opnorm(wide[:2, :1] - orig) <= 1e-14
            assert opnorm(wide[:, 1:]) <= 1e-14
