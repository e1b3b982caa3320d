"""Tests for the conservative dilation pipeline."""

import functools
import importlib.util
import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import kreinsys
from kreinsys import bundles, cli, dilation, krein
from kreinsys.agler import minimal_factor
from kreinsys.dilation import (
    DEFECT_NAMES,
    _Assembly,
    _disk_samples,
    build_dilation,
    verify_dilation,
    verify_linear_tf,
)
from kreinsys.krein import CanonicalSymmetry, opnorm, regularize_subspace
from kreinsys.realize import jconservative_realization, shift_register_realization
from kreinsys.systems import (
    MultiparametricSystem,
    SystemOperatorTuple,
    _mix,
    jconservativity_defect,
    pad_io,
    system_from_operators,
    system_operators,
)
from kreinsys.transfer import TruncatedOperatorSeries, eval_transfer

from test_agler import polydisk_pairs, readme_ops
from test_systems import hyperbolic_system, matrix_unit_system


def disk_points(n, radius, count, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, (count, n)) + 1j * rng.uniform(-1, 1, (count, n))
    return radius / np.sqrt(2) * pts


class TestMatrixUnitExact:
    def setup_method(self):
        self.alpha, _ = matrix_unit_system()
        self.res = build_dilation(self.alpha, 4, tol=1e-10)

    def test_state_and_symmetry(self):
        # each G_k has rank one, so the minimal factor has M = q = 2 rows,
        # K_0 is trivial and the dilated state is the original one
        assert self.res.state_dim == 1
        assert self.res.j.signature == (1, 0)

    def test_all_defects_at_machine_level(self):
        assert set(self.res.defects) == set(DEFECT_NAMES)
        assert self.res.max_defect() <= 1e-12

    def test_transfer_is_second_variable(self):
        for z in disk_points(2, 0.9, 50, 0):
            val = eval_transfer(self.res.alpha_tilde, z)
            assert abs(val[0, 0] - z[1]) <= 1e-12

    def test_dilated_system_is_conservative(self):
        assert max(jconservativity_defect(self.res.alpha_tilde, self.res.j)) <= 1e-12

    def test_compressions_reproduce_alpha(self):
        at = self.res.alpha_tilde
        lead = at.state_dim - 1
        for k in range(2):
            np.testing.assert_allclose(
                at.a[k][lead:, lead:], self.alpha.a[k], atol=1e-14
            )
            np.testing.assert_allclose(at.d[k], self.alpha.d[k], atol=1e-14)


class TestHyperbolic:
    def setup_method(self):
        self.alpha, _ = hyperbolic_system()
        self.res = build_dilation(self.alpha, 24, tol=1e-6)

    def test_defects_within_tolerance(self):
        assert self.res.max_defect() <= 1e-6

    def test_negative_signature_present(self):
        assert self.res.j.signature[1] >= 1

    def test_exact_stages_at_machine_level(self):
        d = self.res.defects
        for name in ("semiunitarity", "isometry", "extension", "compression"):
            assert d[name] <= 1e-12, name

    def test_state_layout(self):
        k0 = self.res.k0_basis.shape[1]
        assert self.res.state_dim == k0 + 1

    def test_transfer_coincidence_at_half(self):
        val = eval_transfer(self.res.alpha_tilde, np.array([0.5]))
        assert abs(val[0, 0] - 1.0) <= 1e-6

    def test_verify_dilation_report(self):
        report = verify_dilation(
            self.alpha, self.res.alpha_tilde, self.res.j, disk_points(1, 0.5, 50, 1)
        )
        assert report["compression"] <= 1e-12
        assert report["transfer"] <= 1e-6
        assert report["conservativity"] <= 1e-10

    def test_degree_controls_transfer_residual(self):
        res12 = build_dilation(self.alpha, 12, tol=1e-2)
        assert res12.defects["transfer-coincidence"] >= self.res.defects[
            "transfer-coincidence"
        ]
        assert res12.defects["transfer-coincidence"] <= 1e-3


class TestZeroSystem:
    def test_zero_system_dilates_to_identity_metric(self):
        alpha = MultiparametricSystem(
            n=1,
            a=(np.zeros((1, 1)),),
            b=(np.zeros((1, 1)),),
            c=(np.zeros((1, 1)),),
            d=(np.zeros((1, 1)),),
        )
        # the coefficient Gram of the zero pencil is I/N at every degree, so
        # the dilation transfer tail decays like r^(d+1) alone; degree 26
        # puts it below 1e-6
        res = build_dilation(alpha, 26, tol=1e-6)
        assert res.j.signature[1] == 0
        for z in disk_points(1, 0.5, 20, 2):
            assert abs(eval_transfer(res.alpha_tilde, z)[0, 0]) <= 1e-6


def reduce_spans(system, degree, tol=1e-8):
    """Column-matching spans (basis, images, defect) of the minimal factor,
    with the two symmetries (j_m, j_ran) they live in."""
    g = system_operators(system)
    asm = _Assembly(minimal_factor(g, degree)[0], g)
    return (*asm.reduce_spans(tol), asm.j_m, asm.j_ran)


class TestBuildU:
    def test_hyperbolic_column_matching(self):
        # U sends the degree-(n+1) column of zF to the degree-(n+1)
        # column of F - F(0) stacked with the degree-n column of zG
        alpha, _ = hyperbolic_system()
        g = system_operators(alpha)
        res = build_dilation(alpha, 8, tol=1e-2)
        dec = res.decomposition
        phi0, j0, jm = res.k0_basis, res.k0_symmetry, dec.j_m()
        k0 = phi0.shape[1]
        for t in range(1, dec.degree + 1):
            dom_col = dec.stacked_coefficient((t - 1,))
            f_t = dec.stacked_coefficient((t,))
            xi = j0.matrix @ phi0.conj().T @ jm.matrix @ f_t
            ran_col = np.vstack([xi, g[0] if t == 1 else np.zeros((2, 2))])
            np.testing.assert_allclose(res.u_matrix @ dom_col, ran_col, atol=1e-10)

    def test_span_dimensions_agree(self):
        alpha, _ = hyperbolic_system()
        dom, u, defect, j_m, j_ran = reduce_spans(alpha, 10)
        assert dom.shape[1] == u.shape[1]
        assert defect <= 1e-12
        # both spans are regular: regularization finds no neutral direction
        regularize_subspace(dom, j_m)
        regularize_subspace(u, j_ran)

    def test_matrix_unit_exact_spans(self):
        alpha, _ = matrix_unit_system()
        dom, u, defect, _, _ = reduce_spans(alpha, 4)
        assert dom.shape[1] == 2
        assert defect <= 1e-14


class TestVerifiers:
    def test_linear_tf_negative_control(self):
        # an identity in place of the matched extension breaks the realization
        alpha, _ = hyperbolic_system()
        res = build_dilation(alpha, 8, tol=1e-2)
        k0 = res.k0_basis.shape[1]
        t_tilde = np.hstack([res.k0_basis, res.decomposition.f0()])
        bad = MultiparametricSystem(
            n=1,
            a=(t_tilde[:k0, :k0],),
            b=(t_tilde[:k0, k0:],),
            c=(t_tilde[k0:, :k0],),
            d=(t_tilde[k0:, k0:],),
        )
        g = system_operators(alpha)
        assert verify_linear_tf(bad, g, disk_points(1, 0.5, 20, 3)) >= 1e-2

    def test_linear_tf_zero_horizon(self):
        alpha, _ = matrix_unit_system()
        res = build_dilation(alpha, 4, tol=1e-10)
        k0 = res.k0_basis.shape[1]
        check = MultiparametricSystem(
            n=2,
            a=tuple(m[:k0, :k0] for m in res.check_operators),
            b=tuple(m[:k0, k0:] for m in res.check_operators),
            c=tuple(m[k0:, :k0] for m in res.check_operators),
            d=tuple(m[k0:, k0:] for m in res.check_operators),
        )
        g = system_operators(alpha)
        assert verify_linear_tf(check, g, disk_points(2, 0.5, 20, 4)) <= 1e-13

    def test_verify_dilation_trivial(self):
        alpha, j = matrix_unit_system()
        report = verify_dilation(alpha, alpha, j, disk_points(2, 0.5, 20, 5))
        assert max(report.values()) <= 1e-14

    def test_verify_dilation_flags_perturbation(self):
        alpha, _ = hyperbolic_system()
        res = build_dilation(alpha, 12, tol=1e-3)
        at = res.alpha_tilde
        lead = at.state_dim - 1
        a0 = np.array(at.a[0])
        a0[lead, lead] += 1e-3
        bad = MultiparametricSystem(n=1, a=(a0,), b=at.b, c=at.c, d=at.d)
        report = verify_dilation(alpha, bad, res.j, disk_points(1, 0.5, 10, 6))
        assert report["compression"] == pytest.approx(1e-3, rel=1e-6)

    def test_verify_dilation_embedding_error(self):
        alpha, _ = hyperbolic_system()
        small = MultiparametricSystem(
            n=1,
            a=(np.zeros((0, 0)),),
            b=(np.zeros((0, 1)),),
            c=(np.zeros((1, 0)),),
            d=(np.ones((1, 1)),),
        )
        with pytest.raises(ValueError, match="embed"):
            verify_dilation(alpha, small, CanonicalSymmetry.identity(0), [])


class TestErrorPaths:
    def test_rectangular_io_rejected(self):
        alpha = MultiparametricSystem(
            n=1,
            a=(np.zeros((1, 1)),),
            b=(np.zeros((1, 2)),),
            c=(np.zeros((1, 1)),),
            d=(np.zeros((1, 2)),),
        )
        with pytest.raises(ValueError, match="pad"):
            build_dilation(alpha, 4)

    def test_failure_names_stage(self):
        alpha, _ = hyperbolic_system()
        with pytest.raises(ValueError, match=r"stage 'lin-tf' residual \S+ exceeds tol 1\.0e-06"):
            build_dilation(alpha, 6, tol=1e-6)

    def test_first_failing_stage_stops_the_build(self):
        # the minimal factor of this decomposition is off by a few ulps, so
        # a tiny tol fails the first stage before any later one runs
        alpha, _ = hyperbolic_system()
        with pytest.raises(ValueError) as info:
            build_dilation(alpha, 6, tol=1e-20)
        message = str(info.value)
        assert re.fullmatch(r"stage 'factor' residual \S+ exceeds tol 1\.0e-20", message)
        assert "lin-tf" not in message and "transfer-coincidence" not in message


def hyp8_series():
    """The degree-8 hyperbolic series that the `realize-hyp8` benchmark realizes."""
    coeffs = {(m,): [[1.25 if m == 1 else 0.5625 * 1.25 ** (m - 2)]] for m in range(1, 9)}
    return TruncatedOperatorSeries(1, 8, coeffs)


def hyp8_register():
    """The padded shift register that `realize` dilates for the degree-8 hyperbolic series."""
    return pad_io(shift_register_realization(hyp8_series(), 8))


def chained_product_norms(check, z, n_max):
    """||zC (zA)^n zB|| for n = 0..n_max, one opnorm call per product."""
    za, zb, zc = (_mix(blocks, z) for blocks in (check.a, check.b, check.c))
    norms, chain = [], zb
    for _ in range(n_max + 1):
        norms.append(opnorm(zc @ chain))
        chain = za @ chain
    return norms


def reference_linear_tf(check, g, z_samples, n_max):
    """verify_linear_tf as a loop of per-product opnorm calls."""
    worst = max(opnorm(check.d[k] - g[k]) for k in range(g.n))
    for z in z_samples:
        z = np.asarray(z, dtype=np.complex128).reshape(-1)
        worst = max(worst, opnorm(eval_transfer(check, z) - g.pencil(z)))
        worst = max([worst, *chained_product_norms(check, z, n_max)])
    return float(worst)


class TestBatchedLinearTf:
    @pytest.mark.parametrize("system, seed", [("readme", 7), ("readme", 807), ("hyp8", 7)])
    def test_equals_the_per_product_loop(self, system, seed, monkeypatch):
        alpha = system_from_operators(readme_ops()) if system == "readme" else hyp8_register()
        g = system_operators(alpha)
        res = build_dilation(alpha, 20, tol=1e-4, seed=seed)
        check = system_from_operators(res.check_operators)
        dec = res.decomposition
        assert not dec.exact
        horizon = min(check.state_dim + 2, max(dec.degree - 2, 0))
        z_samples = _disk_samples(g.n, dec.radius, 100, seed)
        got = verify_linear_tf(check, g, z_samples, n_max=horizon)
        assert got == res.defects["lin-tf"]
        assert got == reference_linear_tf(check, g, z_samples, horizon)
        # with the transfer and corner terms zeroed, only the chained
        # products remain, and each sample's batch equals its loop bit for bit;
        # at 4z the products grow with n, so the last ones decide the max
        corner = SystemOperatorTuple(check.d, g.state_dim, g.input_dim, g.output_dim)
        monkeypatch.setattr(dilation, "eval_transfer", lambda system, z: corner.pencil(z))
        for z in [*z_samples, *(4 * z_samples)]:
            want = max(chained_product_norms(check, z, horizon))
            assert verify_linear_tf(check, corner, [z], n_max=horizon) == want


@functools.cache
def snapped_build(case):
    """A dilation of the README bundle at degree 8, 12 or 20, or the one that
    `realize` builds for the degree-8 hyperbolic series.  The gate is loose:
    the snap does not depend on it, and degree 8 misses 1e-4 on lin-tf."""
    if case == "hyp8":
        return jconservative_realization(hyp8_series(), tol=1e-4, samples=5).dilation
    return build_dilation(system_from_operators(readme_ops()), int(case), tol=1e-1, samples=5)


def roundoff_cut(res):
    """n eps ||U_full||_2, n the row count of each U_full P_k T."""
    return res.u_matrix.shape[0] * np.finfo(float).eps * res.u_norm


def unsnapped_products(res):
    """U_full P_k [Phi_0 | F(0)] for each k, as computed before the snap."""
    t_tilde = np.hstack([res.k0_basis, res.decomposition.f0()])
    products = []
    for lo, hi in res.decomposition.component_row_ranges():
        pk_t = np.zeros_like(t_tilde)
        pk_t[lo:hi] = t_tilde[lo:hi]
        products.append(res.u_matrix @ pk_t)
    return products


def parts(m):
    """Real and imaginary parts of a complex matrix, interleaved."""
    return np.ascontiguousarray(m).view(np.float64)


SNAP_CASES = ["8", "12", "20", "hyp8"]


class TestRoundoffSnap:
    @pytest.mark.parametrize("case", SNAP_CASES)
    def test_every_part_is_zero_or_above_the_cut(self, case):
        res = snapped_build(case)
        cut = roundoff_cut(res)
        at = res.alpha_tilde
        for m in (*at.a, *at.b, *at.c, *at.d, *res.check_operators):
            p = np.abs(parts(m))
            assert np.all((p == 0) | (p > cut))

    @pytest.mark.parametrize("case", SNAP_CASES)
    def test_smallest_kept_part_is_far_above_the_cut(self, case):
        # the cut sits orders of magnitude below the structural content, so
        # no entry of the construction is lost to it
        res = snapped_build(case)
        kept = [np.abs(p[p != 0]) for p in map(parts, res.check_operators)]
        assert np.concatenate(kept).min() >= 1e6 * roundoff_cut(res)

    @pytest.mark.parametrize("case", SNAP_CASES)
    def test_kept_parts_are_the_unsnapped_product(self, case):
        res = snapped_build(case)
        cut = roundoff_cut(res)
        for got, raw in zip(res.check_operators, unsnapped_products(res)):
            got, raw = parts(got), parts(raw)
            kept = got != 0
            assert np.array_equal(got[kept], raw[kept])
            assert np.all(np.abs(raw[~kept]) <= cut)

    def test_written_bundle_verifies(self, tmp_path, capsys):
        system, dil = str(tmp_path / "n2.json"), str(tmp_path / "dil.json")
        gen = ["gen", "--n", "2", "--state-dim", "3", "--input-dim", "2", "--signs", "++-"]
        assert cli.main(gen + ["--seed", "0", "--out", system]) == 0
        args = ["--tol", "1e-4", "--samples", "25", "--seed", "7"]
        assert cli.main(["dilate", system, "--degree", "20", *args, "--out", dil]) == 0
        capsys.readouterr()
        assert cli.main(["verify-dilation", system, dil, *args, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["residuals"]["compression"] <= 1e-12
        # the exact zeros survive the round trip through the bundle
        stored, _, _ = bundles.dilation_from_bundle(bundles.load_bundle(dil))
        cut = roundoff_cut(snapped_build("20"))
        for m in (*stored.a, *stored.b, *stored.c, *stored.d):
            p = np.abs(parts(m))
            assert np.all((p == 0) | (p > cut))


class TestBuildCost:
    def test_dense_checks_do_not_grow_with_samples_or_seed(self, monkeypatch):
        # the conservativity stage is closed-form: no per-point dense
        # J-unitarity checks of the pencil at sampled torus points
        counts = Counter()
        for name in ("hermitian_opnorm", "j_unitarity_defect"):
            original = getattr(krein, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module in (kreinsys.agler, dilation, krein, kreinsys.realize, kreinsys.systems):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        alpha = system_from_operators(readme_ops())
        for samples, seed in [(5, 0), (25, 7), (40, 807)]:
            counts.clear()
            build_dilation(alpha, 20, tol=1e-4, samples=samples, seed=seed)
            assert counts == {"hermitian_opnorm": 7, "j_unitarity_defect": 1}


@pytest.mark.parametrize(
    "script, expected",
    [
        ("dilation_demo", ["hyperbolic benchmark", "coefficient conservativity of the dilation"]),
        ("realization_demo", ["hyperbolic transfer truncated at degree 8", "realized state dim"]),
    ],
    ids=["dilation_demo", "realization_demo"],
)
def test_dilation_demo_script_runs(script, expected, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{script}.py"
    spec = importlib.util.spec_from_file_location(script, path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    out = capsys.readouterr().out
    for phrase in expected:
        assert phrase in out
