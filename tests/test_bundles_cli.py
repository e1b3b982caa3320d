"""File format round-trips and command line behavior."""

import json
import re
import subprocess
import sys

import numpy as np
import pytest

from kreinsys import bundles
from kreinsys.agler import construct_pencil_decomposition
from kreinsys.cli import main
from kreinsys.dilation import build_dilation
from kreinsys.krein import CanonicalSymmetry
from kreinsys.systems import (
    MultiparametricSystem,
    random_jconservative,
    system_operators,
)
from kreinsys.transfer import TruncatedOperatorSeries

from test_systems import hyperbolic_system, matrix_unit_system


def write_system(path, system, j=None, metadata=None):
    bundles.save_bundle(bundles.system_to_bundle(system, j=j, metadata=metadata), path)
    return str(path)


class TestBundleRoundTrips:
    def test_system_bit_identical(self):
        system, j = random_jconservative(2, 3, 2, seed=11)
        data = bundles.system_to_bundle(system, j=j, metadata={"name": "x", "seed": 11})
        text = bundles.dumps_canonical(data)
        back, jback, meta = bundles.system_from_bundle(json.loads(text))
        for name in ("a", "b", "c", "d"):
            for lhs, rhs in zip(getattr(system, name), getattr(back, name)):
                assert np.array_equal(lhs, rhs)
        assert np.array_equal(j.matrix, jback.matrix)
        assert meta == {"name": "x", "seed": 11}

    def test_system_without_j(self):
        system, _ = hyperbolic_system()
        back, j, meta = bundles.system_from_bundle(bundles.system_to_bundle(system))
        assert j is None and meta == {}
        assert np.array_equal(back.a[0], system.a[0])

    def test_state_zero_system(self):
        system = MultiparametricSystem(
            n=2,
            a=(np.zeros((0, 0)), np.zeros((0, 0))),
            b=(np.zeros((0, 1)), np.zeros((0, 1))),
            c=(np.zeros((1, 0)), np.zeros((1, 0))),
            d=([[0.5]], [[0.25]]),
        )
        back, _, _ = bundles.system_from_bundle(bundles.system_to_bundle(system))
        assert back.dims == (0, 1, 1)
        assert np.array_equal(back.d[1], system.d[1])

    def test_series_round_trip(self):
        series = TruncatedOperatorSeries(
            n=2,
            degree=3,
            coefficients={
                (1, 0): [[0.5 + 0.25j, 0.0], [1.0, -2.0]],
                (1, 2): [[0.0, 1e-300], [np.pi, 3.0]],
            },
        )
        back = bundles.series_from_bundle(bundles.series_to_bundle(series))
        assert back.n == 2 and back.degree == 3
        assert set(back.coefficients) == set(series.coefficients)
        for t, m in series.coefficients.items():
            assert np.array_equal(back.coefficients[t], m)

    def test_decomposition_round_trip(self):
        system, _ = hyperbolic_system()
        g = system_operators(system)
        dec = construct_pencil_decomposition(g, 2.0, 8, radius=0.5)
        back = bundles.decomposition_from_bundle(bundles.decomposition_to_bundle(dec))
        assert back.n == dec.n
        assert back.epsilon == dec.epsilon
        assert back.radius == dec.radius
        assert back.degree == dec.degree
        assert back.eta == dec.eta
        assert back.exact == dec.exact
        assert back.signature == dec.signature
        for lhs, rhs in zip(dec.components, back.components):
            assert (lhs.m_plus, lhs.m_minus) == (rhs.m_plus, rhs.m_minus)
            for t, m in lhs.series.coefficients.items():
                assert np.array_equal(rhs.series.coefficient(t), m)

    def test_dilation_round_trip(self):
        system, _ = matrix_unit_system()
        g = system_operators(system)
        dec = construct_pencil_decomposition(g, 1.0, 4, radius=0.5)
        result = build_dilation(system, dec, tol=1e-8)
        data = bundles.dilation_to_bundle(result, original=system)
        back_sys, back_j, defects, k2 = bundles.dilation_from_bundle(data)
        assert back_sys.state_dim == result.alpha_tilde.state_dim
        assert np.array_equal(back_j.matrix, result.j.matrix)
        assert defects == {k: float(v) for k, v in result.defects.items()}
        assert k2 == result.k2_dim
        assert data["original_dims"] == {"state": 1, "input": 1, "output": 1}

    def test_canonical_text_is_deterministic(self):
        system, j = random_jconservative(2, 2, 2, seed=3)
        a = bundles.dumps_canonical(bundles.system_to_bundle(system, j=j))
        b = bundles.dumps_canonical(bundles.system_to_bundle(system, j=j))
        assert a == b


class TestBundleErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(bundles.BundleError, match="cannot read"):
            bundles.load_bundle(tmp_path / "missing.json")

    def test_not_a_bundle(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(bundles.BundleError, match="format"):
            bundles.load_bundle(path)

    def test_wrong_format(self, tmp_path):
        system, _ = hyperbolic_system()
        path = write_system(tmp_path / "sys.json", system)
        with pytest.raises(bundles.BundleError, match="series-v1"):
            bundles.load_bundle(path, bundles.SERIES_FORMAT)

    def test_inconsistent_dims(self):
        system, _ = hyperbolic_system()
        data = bundles.system_to_bundle(system)
        data["dims"]["state"] = 2
        with pytest.raises(bundles.BundleError, match="shape"):
            bundles.system_from_bundle(data)

    def test_bad_matrix_nesting(self):
        with pytest.raises(bundles.BundleError, match="re, im"):
            bundles.matrix_from_json([[1.0, 2.0]])


def poisoned(data, path, value):
    """Copy of a bundle dict with the entry at ``path`` replaced by ``value``."""
    data = json.loads(json.dumps(data))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


@pytest.fixture()
def hyp_bundle(tmp_path):
    system, j = hyperbolic_system()
    return write_system(tmp_path / "hyp.json", system, j=j, metadata={"name": "hyp"})


@pytest.fixture()
def unit_bundle(tmp_path):
    system, j = matrix_unit_system()
    return write_system(tmp_path / "unit.json", system, j=j)


class TestCliCommands:
    def test_check_passes(self, hyp_bundle, capsys):
        code = main(["check", hyp_bundle, "--tol", "1e-10"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 5 and "torus" in out

    def test_check_json_report(self, hyp_bundle, capsys):
        code = main(["check", hyp_bundle, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["pass"] is True
        assert set(report["residuals"]) == {"r1", "r2", "r3", "r4", "torus"}
        assert report["signature"] == [0, 1]

    def test_check_fails_on_perturbed_system(self, tmp_path, capsys):
        system, j = hyperbolic_system()
        bad = MultiparametricSystem(
            n=1, a=([[1.26]],), b=system.b, c=system.c, d=system.d
        )
        path = write_system(tmp_path / "bad.json", bad, j=j)
        code = main(["check", path])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL" in captured.out and "stage" in captured.err

    def test_simulate_energy_table(self, unit_bundle, capsys):
        code = main(["simulate", unit_bundle, "--levels", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "balance" in out and out.count("\n") >= 12

    def test_simulate_random_input(self, hyp_bundle, capsys):
        code = main(["simulate", hyp_bundle, "--levels", "6", "--input", "random"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_transfer_value(self, hyp_bundle, capsys):
        code = main(["transfer", hyp_bundle, "--at", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "theta(0.5) = 1.0" in out

    def test_transfer_taylor_json(self, unit_bundle, capsys):
        code = main(["transfer", unit_bundle, "--degree", "3", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        coeffs = {tuple(t): np.asarray(m) for t, m in report["taylor"]["coefficients"]}
        value = coeffs[(0, 1)][..., 0] + 1j * coeffs[(0, 1)][..., 1]
        assert np.allclose(value, [[1.0]])
        assert all(
            np.allclose(m, 0) for t, m in coeffs.items() if t != (0, 1)
        )

    def test_transfer_needs_a_request(self, hyp_bundle):
        assert main(["transfer", hyp_bundle]) == 2

    def test_transfer_bad_point(self, hyp_bundle):
        assert main(["transfer", hyp_bundle, "--at", "0.5,0.5"]) == 2

    def test_decompose_writes_bundle(self, hyp_bundle, tmp_path, capsys):
        out_path = tmp_path / "dec.json"
        code = main(
            [
                "decompose",
                hyp_bundle,
                "--degree",
                "10",
                "--tol",
                "1e-4",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        dec = bundles.decomposition_from_bundle(
            bundles.load_bundle(out_path, bundles.DECOMPOSITION_FORMAT)
        )
        assert dec.degree == 10 and abs(dec.epsilon - 2.0) <= 1e-12

    def test_decompose_exact_branch(self, unit_bundle, capsys):
        code = main(
            ["decompose", unit_bundle, "--epsilon", "1", "--degree", "4", "--tol", "1e-12"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "exact = True" in out

    def test_dilate_and_verify(self, unit_bundle, tmp_path, capsys):
        dil_path = tmp_path / "dil.json"
        code = main(
            [
                "dilate",
                unit_bundle,
                "--epsilon",
                "1",
                "--degree",
                "4",
                "--tol",
                "1e-10",
                "--out",
                str(dil_path),
            ]
        )
        assert code == 0
        assert "state dim 3" in capsys.readouterr().out
        code = main(["verify-dilation", unit_bundle, str(dil_path), "--tol", "1e-10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "compression" in out and "conservativity" in out

    def test_dilate_stage_failure_names_stage(self, hyp_bundle, capsys):
        code = main(["dilate", hyp_bundle, "--degree", "12", "--tol", "1e-8"])
        captured = capsys.readouterr()
        assert code == 1
        assert "lin-tf" in captured.err

    def test_realize_degree_one_series(self, tmp_path, capsys):
        series = TruncatedOperatorSeries(
            n=2, degree=1, coefficients={(1, 0): [[0.5]], (0, 1): [[0.3]]}
        )
        series_path = tmp_path / "lin.json"
        bundles.save_bundle(bundles.series_to_bundle(series), series_path)
        sys_path = tmp_path / "realized.json"
        code = main(
            ["realize", str(series_path), "--tol", "1e-4", "--out", str(sys_path)]
        )
        assert code == 0
        assert "coefficient" in capsys.readouterr().out
        code = main(["check", str(sys_path), "--tol", "1e-8"])
        capsys.readouterr()
        assert code == 0

    def test_gen_then_check(self, tmp_path, capsys):
        path = tmp_path / "gen.json"
        code = main(
            [
                "gen",
                "--n",
                "2",
                "--state-dim",
                "3",
                "--input-dim",
                "2",
                "--signs",
                "++-",
                "--seed",
                "5",
                "--out",
                str(path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["check", str(path), "--tol", "1e-10"]) == 0
        capsys.readouterr()
        data = bundles.load_bundle(path, bundles.SYSTEM_FORMAT)
        assert data["metadata"] == {"name": "random-jconservative", "seed": 5}

    def test_gen_bad_signs(self, tmp_path):
        assert (
            main(["gen", "--state-dim", "2", "--signs", "+*", "--out", str(tmp_path / "x.json")])
            == 2
        )

    def test_stage_tol_override(self, hyp_bundle, capsys):
        args = ["decompose", hyp_bundle, "--degree", "10", "--tol", "1e-12"]
        assert main(args) == 1
        capsys.readouterr()
        assert main(args + ["--stage-tol", "kernel=1e-4"]) == 0
        capsys.readouterr()


class TestCliContract:
    def test_usage_errors_exit_two(self, tmp_path):
        assert main([]) == 2
        assert main(["no-such-command"]) == 2
        assert main(["check", str(tmp_path / "missing.json")]) == 2

    def test_malformed_bundle_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["check", str(path)]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            [cmd, "--samples", value]
            for cmd in ("check", "simulate", "transfer", "decompose", "dilate", "verify-dilation")
            for value in ("0", "-3")
        ]
        + [["realize", "--samples", "0"], ["gen", "--samples", "0"]]
        + [[cmd, "--degree", "0"] for cmd in ("decompose", "dilate", "transfer", "realize")]
        + [
            [cmd, "--radius", value]
            for cmd in ("decompose", "dilate", "realize", "verify-dilation")
            for value in ("0", "1", "1.5", "-0.5", "nan")
        ]
        + [["simulate", "--levels", "-1"], ["check", "--samples", "many"]]
        + [["gen", "--n", "0"], ["gen", "--state-dim", "-1"], ["gen", "--input-dim", "-2"]],
    )
    def test_argument_domains_exit_two(self, argv, unit_bundle, tmp_path, capsys):
        cmd, rest = argv[0], argv[1:]
        positional = {
            "realize": [str(tmp_path / "series.json")],
            "verify-dilation": [unit_bundle, str(tmp_path / "dil.json")],
            "gen": ["--out", str(tmp_path / "gen.json")],
        }.get(cmd, [unit_bundle])
        assert main([cmd, *positional, *rest]) == 2
        assert "error: argument" in capsys.readouterr().err
        assert not (tmp_path / "gen.json").exists()

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_system_bundle_exits_two(self, literal, unit_bundle, tmp_path, capsys):
        data = poisoned(bundles.load_bundle(unit_bundle), ["a", 1, 0, 0, 0], float(literal))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        for cmd in (["check"], ["transfer", "--at", "0.1,0.2"]):
            assert main([cmd[0], str(path), *cmd[1:]]) == 2
            assert "'a[1]' has a non-finite entry" in capsys.readouterr().err

    def test_non_finite_point_exits_two(self, unit_bundle, capsys):
        assert main(["transfer", unit_bundle, "--at", "inf,0.2"]) == 2
        assert "not finite" in capsys.readouterr().err

    def test_non_finite_series_bundle_exits_two(self, tmp_path, capsys):
        series = TruncatedOperatorSeries(
            n=2, degree=1, coefficients={(1, 0): [[0.5]], (0, 1): [[0.3]]}
        )
        data = poisoned(bundles.series_to_bundle(series), ["coefficients", 1, 2, 0, 0], np.nan)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["realize", str(path)]) == 2
        assert "'coefficients' has a non-finite entry" in capsys.readouterr().err

    def test_non_finite_dilation_bundle_exits_two(self, unit_bundle, tmp_path, capsys):
        dil_path = tmp_path / "dil.json"
        args = ["dilate", unit_bundle, "--epsilon", "1", "--degree", "4", "--out", str(dil_path)]
        assert main(args) == 0
        capsys.readouterr()
        good = json.loads(dil_path.read_text())
        for field, path, value in [
            ("c[0]", ["system", "c", 0, 0, 0, 0], np.inf),
            ("j", ["system", "j", 0, 0, 0], np.nan),
            ("defects.compression", ["defects", "compression"], np.inf),
        ]:
            dil_path.write_text(json.dumps(poisoned(good, path, value)))
            assert main(["verify-dilation", unit_bundle, str(dil_path)]) == 2
            assert f"'{field}' has a non-finite entry" in capsys.readouterr().err

    def test_non_finite_decomposition_bundle_rejected(self):
        # no subcommand reads decompositions, so the parser is checked directly
        system, _ = hyperbolic_system()
        dec = construct_pencil_decomposition(system_operators(system), 2.0, 4, radius=0.5)
        good = bundles.decomposition_to_bundle(dec)
        for field, path, value in [
            ("components[0].coefficients", ["components", 0, "coefficients", 0, 1, 0, 0], np.inf),
            ("epsilon", ["epsilon"], np.nan),
            ("certificate.eta", ["certificate", "eta"], np.inf),
        ]:
            message = re.escape(f"'{field}' has a non-finite entry")
            with pytest.raises(bundles.BundleError, match=message):
                bundles.decomposition_from_bundle(poisoned(good, path, value))

    def test_json_reports_are_byte_identical(self, hyp_bundle, capsys):
        main(["check", hyp_bundle, "--json", "--seed", "3"])
        first = capsys.readouterr().out
        main(["check", hyp_bundle, "--json", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second
        main(["simulate", hyp_bundle, "--json", "--input", "random", "--seed", "9"])
        first = capsys.readouterr().out
        main(["simulate", hyp_bundle, "--json", "--input", "random", "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second

    def test_subprocess_entry_point(self, hyp_bundle):
        proc = subprocess.run(
            [sys.executable, "-m", "kreinsys.cli", "check", hyp_bundle, "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["command"] == "check" and report["pass"] is True

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()
