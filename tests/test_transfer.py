"""Tests for transfer evaluation, Taylor coefficients, and series evaluation."""

import re

import numpy as np
import pytest

from kreinsys.lattice import LatticeSignal, simulate
from kreinsys.systems import MultiparametricSystem, conjugate_system
from kreinsys.transfer import (
    ResolventError,
    TruncatedOperatorSeries,
    eval_series,
    eval_transfer,
    multi_indices,
    taylor_coefficients,
    z_transform_check,
)

from oracles import interpolated_coefficient, word_count, words_coefficient
from test_systems import hyperbolic_system, matrix_unit_system, random_system

#: the widest complex type of the platform, for the extended-precision recursion
WIDE = getattr(np, "complex256", np.complex128)


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
    """The resolvent gate on I - zA as eval_transfer meets it."""

    def test_matrix_unit_singular_point(self):
        s, _ = matrix_unit_system()
        with pytest.raises(ResolventError, match="singular"):
            eval_transfer(s, [1.0, 0.0])


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


def ones_orthogonal_pencil(kappa):
    # the near-null direction (1, -1, 0, 0, 0) / sqrt(2) is orthogonal to the
    # all-ones vector, which a fixed all-ones probe would never see
    v = np.array([1.0, -1.0, 0.0, 0.0, 0.0]) / np.sqrt(2.0)
    return (np.eye(5) + (1.0 / kappa - 1.0) * np.outer(v, v)).astype(np.complex128)


def haar_unitary(n, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def unitary_pencil(n):
    # U diag(sigma) U* with singular values from 1 down to 1 / kappa
    u = haar_unitary(n, 100 + n)

    def family(kappa):
        return (u * np.geomspace(1.0, 1.0 / kappa, n)) @ u.conj().T

    family.__name__ = f"unitary_pencil_{n}"
    return family


GATE_FAMILIES = (
    diagonal_pencil,
    similar_pencil,
    jordan_pencil,
    dense_row_pencil,
    ones_orthogonal_pencil,
    *(unitary_pencil(n) for n in (5, 47, 228)),
)

#: z = 1, where each family's pencil is m, between two points where it is (I + m) / 2 or better
BATCH = np.array([[0.5], [1.0], [0.25]])


def names_point_one():
    return pytest.raises(ResolventError, match=re.escape("z = [(1+0j)]"))


class TestResolventGate:
    """The probe-screened gate rejects exactly the points the 2-norm test rejects."""

    kappas = np.concatenate(
        [np.geomspace(1e8, 1e16, 41), RESOLVENT_LIMIT * np.geomspace(0.5, 2.0, 61)]
    )

    @pytest.mark.parametrize("family", GATE_FAMILIES)
    def test_rejects_exactly_above_the_limit(self, family):
        rejected = accepted = 0
        for kappa in self.kappas:
            s = pencil_system(family(kappa))
            m = np.eye(s.state_dim) - s.a[0]
            cond = np.linalg.cond(m)
            if cond > RESOLVENT_LIMIT:
                with pytest.raises(ResolventError, match="singular"):
                    eval_transfer(s, [1.0])
                rejected += 1
                continue
            value = eval_transfer(s, [1.0])
            reference = s.d[0] + s.c[0] @ np.linalg.inv(m) @ s.b[0]
            err = np.linalg.norm(value - reference) / np.linalg.norm(reference)
            assert err <= 1e-12 * cond
            accepted += 1
        assert rejected >= 10 and accepted >= 10

    @pytest.mark.parametrize("family", GATE_FAMILIES)
    def test_batch_rejects_what_its_points_reject(self, family):
        # a batch raises for z = 1 exactly when z = 1 alone raises, and names it
        for kappa in self.kappas:
            s = pencil_system(family(kappa))
            try:
                alone = eval_transfer(s, [1.0])
            except ResolventError:
                with names_point_one():
                    eval_transfer(s, BATCH)
                continue
            assert eval_transfer(s, BATCH)[1].tobytes() == alone.tobytes()

    def test_exactly_singular_point(self):
        s = pencil_system(np.diag([0.0, 0.5, 1.3]).astype(np.complex128))
        with pytest.raises(ResolventError, match="singular"):
            eval_transfer(s, [1.0])

    @pytest.mark.parametrize("n", [5, 47, 228])
    def test_exactly_singular_pencils_raise_resolvent_error(self, n):
        # a permuted exact zero pivot, and a repeated row; numpy's own
        # LinAlgError must never escape the gate
        rng = np.random.default_rng(n)
        perm = rng.permutation(n)
        diag = np.diag(np.r_[0.0, rng.uniform(0.5, 2.0, n - 1)]).astype(np.complex128)
        dense = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        dense[n // 2] = dense[0]
        for m in (diag[perm][:, perm], dense):
            s = pencil_system(m)
            assert np.linalg.matrix_rank(np.eye(n) - s.a[0]) < n
            with pytest.raises(ResolventError, match="singular"):
                eval_transfer(s, [1.0])
            # in a batch the failing factorization is the singular point's alone
            with names_point_one():
                eval_transfer(s, BATCH)

    def test_non_finite_pencil(self):
        m = np.diag([0.5, 1.3]).astype(np.complex128)
        m[0, 1] = np.nan
        # a system with a non-finite A is rejected when it is built ...
        with pytest.raises(ValueError, match=r"a\[0\] has a non-finite entry"):
            pencil_system(m)
        # ... and a finite one meets a non-finite pencil only at a non-finite point
        m[0, 1] = 0.25
        s = pencil_system(m)
        with pytest.raises(ResolventError, match="non-finite"):
            eval_transfer(s, [np.nan])
        with pytest.raises(ResolventError, match=r"non-finite entries at z = \[\(nan"):
            eval_transfer(s, [[0.5], [np.nan], [0.25]])


class TestTaylorCoefficients:
    def test_hyperbolic_geometric_coefficients(self):
        s, _ = hyperbolic_system()
        for dtype in (np.complex128, WIDE):
            series = taylor_coefficients(s, 8, dtype=dtype)
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

    # the complex128 runs keep their plain seed ids
    @pytest.mark.parametrize(
        "seed, dtype",
        [pytest.param(seed, np.complex128, id=str(seed)) for seed in range(4)]
        + [pytest.param(seed, WIDE, id=f"{seed}-wide") for seed in range(4)],
    )
    def test_matches_explicit_word_enumeration(self, seed, dtype):
        n = 2 + seed % 2
        s = random_system(n, 2, 2, 1, seed=40 + seed)
        series = taylor_coefficients(s, 4, dtype=dtype)
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

    def test_degree_must_be_positive(self):
        s, _ = hyperbolic_system()
        with pytest.raises(ValueError):
            taylor_coefficients(s, 0)


class TestSeriesEvaluation:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_coefficient_raises(self, value):
        with pytest.raises(ValueError, match=r"coefficient at \(0, 1\) has a non-finite entry"):
            TruncatedOperatorSeries(
                n=2, degree=1, coefficients={(1, 0): [[1.0]], (0, 1): [[value]]}
            )

    def test_constant_series(self):
        series = TruncatedOperatorSeries(
            n=2, degree=0, coefficients={(0, 0): [[1.0, 2.0], [3.0, 4.0]]}
        )
        np.testing.assert_allclose(eval_series(series, [0.3, -0.7j]), [[1, 2], [3, 4]])

    def test_geometric_scalar_series(self):
        coeffs = {(m,): [[1.0]] for m in range(11)}
        series = TruncatedOperatorSeries(n=1, degree=10, coefficients=coeffs)
        value = eval_series(series, [0.5])
        np.testing.assert_allclose(value, [[2.0 - 2.0**-10]], atol=1e-15)

    def test_hyperbolic_series_matches_transfer(self):
        s, _ = hyperbolic_system()
        series = taylor_coefficients(s, 30)
        np.testing.assert_allclose(eval_series(series, [0.5]), [[1.0]], atol=1e-6)

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
