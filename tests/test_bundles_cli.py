"""File format round-trips and command line behavior."""

import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinsys import bundles
from kreinsys.agler import construct_pencil_decomposition
from kreinsys.cli import main
from kreinsys.dilation import build_dilation
from kreinsys.krein import CanonicalSymmetry, opnorm
from kreinsys.realize import jconservative_realization
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
        result = build_dilation(system, 4, tol=1e-8)
        data = bundles.dilation_to_bundle(result, original=system)
        back_sys, back_j, defects = bundles.dilation_from_bundle(data)
        assert back_sys.state_dim == result.alpha_tilde.state_dim
        assert np.array_equal(back_j.matrix, result.j.matrix)
        assert defects == {k: float(v) for k, v in result.defects.items()}
        assert data["original_dims"] == {"state": 1, "input": 1, "output": 1}
        assert "k2_dim" not in data

    def test_dilation_bundle_with_k2_dim_loads(self, tmp_path):
        # older writers stored an always-zero k2_dim field
        system, _ = matrix_unit_system()
        path = tmp_path / "dil.json"
        bundles.save_bundle(bundles.dilation_to_bundle(build_dilation(system, 4)), path)
        data = bundles.load_bundle(path, bundles.DILATION_FORMAT)
        bundles.save_bundle(dict(data, k2_dim=0), tmp_path / "old.json")
        old = bundles.load_bundle(tmp_path / "old.json", bundles.DILATION_FORMAT)
        new_sys, new_j, new_defects = bundles.dilation_from_bundle(data)
        old_sys, old_j, old_defects = bundles.dilation_from_bundle(old)
        for name in ("a", "b", "c", "d"):
            for lhs, rhs in zip(getattr(new_sys, name), getattr(old_sys, name)):
                assert np.array_equal(lhs, rhs)
        assert np.array_equal(new_j.signs, old_j.signs)
        assert new_defects == old_defects

    def test_canonical_text_is_deterministic(self):
        system, j = random_jconservative(2, 2, 2, seed=3)
        a = bundles.dumps_canonical(bundles.system_to_bundle(system, j=j))
        b = bundles.dumps_canonical(bundles.system_to_bundle(system, j=j))
        assert a == b


def plain(data):
    """``data`` with each 2-D float64 or complex128 array nested as ``tolist``
    or ``matrix_to_json`` nests it; any other array is left for json to reject."""
    if isinstance(data, np.ndarray) and data.ndim == 2:
        if data.dtype == np.float64:
            return data.tolist()
        if data.dtype == np.complex128:
            return bundles.matrix_to_json(data)
    if isinstance(data, dict):
        return {k: plain(v) for k, v in data.items()}
    if isinstance(data, (list, tuple)):
        return type(data)(plain(v) for v in data)
    return data


def reference_text(data) -> str:
    """The canonical text as json's own indent encoder writes the plain tree."""
    return json.dumps(plain(data), sort_keys=True, indent=1)


PLAIN_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e-300, 0.1]),
)
# what json writes differently from float.__repr__, or not as a float at all
ODD_ENTRIES = st.one_of(
    st.floats().map(np.float64),
    st.integers(),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
ENTRIES = st.one_of(PLAIN_FLOATS, ODD_ENTRIES)


@st.composite
def bundle_matrices(draw):
    """Rows of [re, im] pairs as matrix_to_json nests them, sometimes spoiled."""
    width = draw(st.integers(1, 4))
    pair = st.lists(PLAIN_FLOATS, min_size=2, max_size=2)
    rows = draw(st.lists(st.lists(pair, min_size=width, max_size=width), max_size=4))
    if not rows or draw(st.booleans()):
        return rows
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, width - 1))
    spoil = draw(
        st.sampled_from(
            ["non-finite", "odd entry", "short pair", "long pair", "tuple pair",
             "short row", "long row", "tuple row", "empty row"]
        )
    )
    if spoil == "non-finite":
        rows[i][j][draw(st.integers(0, 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif spoil == "odd entry":
        rows[i][j][draw(st.integers(0, 1))] = draw(ODD_ENTRIES)
    elif spoil == "short pair":
        rows[i][j] = rows[i][j][:1]
    elif spoil == "long pair":
        rows[i][j] = rows[i][j] + [draw(PLAIN_FLOATS)]
    elif spoil == "tuple pair":
        rows[i][j] = tuple(rows[i][j])
    elif spoil == "short row":
        rows[i] = rows[i][:-1]
    elif spoil == "long row":
        rows[i] = rows[i] + [draw(pair)]
    elif spoil == "tuple row":
        rows[i] = tuple(rows[i])
    else:
        rows[i] = []
    return rows


@st.composite
def array_leaves(draw):
    """2-D float64 or complex128 arrays of shape 0-4 x 0-4 in C or Fortran order,
    as transposed, strided or real-part views, sometimes spoiled by NaN or +-inf."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    complex_ = draw(st.booleans())
    parts = [
        np.array(draw(st.lists(PLAIN_FLOATS, min_size=rows * cols, max_size=rows * cols)))
        .reshape(rows, cols)
        for _ in range(2 if complex_ else 1)
    ]
    m = np.empty((rows, cols), dtype=np.complex128 if complex_ else np.float64)
    m.real = parts[0]
    if complex_:
        m.imag = parts[1]
    if m.size and draw(st.booleans()):
        view = m.view(np.float64) if complex_ else m
        view.flat[draw(st.integers(0, view.size - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf])
        )
    layout = draw(st.sampled_from(["C", "F", "transposed", "strided", "real part"]))
    if layout == "F":
        return np.asfortranarray(m)
    if layout == "transposed":
        return np.ascontiguousarray(m.T).T
    if layout == "strided":
        big = np.zeros((2 * rows, 3 * cols), dtype=m.dtype)
        big[::2, ::3] = m
        return big[::2, ::3]
    if layout == "real part" and complex_:
        return m.imag if draw(st.booleans()) else m.real
    return m


# three in four parts a signed zero, mostly +0.0: the encoder writes an entry
# of two +0.0 parts from one string
MOSTLY_ZERO_PARTS = st.integers(0, 3).flatmap(
    lambda k: PLAIN_FLOATS if k == 0 else st.sampled_from([0.0, 0.0, -0.0])
)


@st.composite
def mostly_zero_leaves(draw):
    """2-D float64 or complex128 arrays of shape 1-5 x 1-5 whose parts are
    mostly +0.0 or -0.0, with some all-zero rows, so that complex entries
    mix two zero parts, one nonzero part and two, in C or Fortran order."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    width = cols * (2 if draw(st.booleans()) else 1)
    values = draw(st.lists(MOSTLY_ZERO_PARTS, min_size=rows * width, max_size=rows * width))
    flat = np.array(values, dtype=np.float64).reshape(rows, width)
    flat[sorted(draw(st.sets(st.integers(0, rows - 1))))] = 0.0
    m = flat.view(np.complex128) if width > cols else flat
    return np.asfortranarray(m) if draw(st.booleans()) else m


JSON_TREES = st.recursive(
    st.one_of(
        st.none(),
        ENTRIES,
        st.text(),
        st.lists(PLAIN_FLOATS),
        st.lists(ENTRIES),
        bundle_matrices(),
        array_leaves(),
        mostly_zero_leaves(),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(), children, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.floats(), st.booleans()), children, max_size=3),
        st.dictionaries(st.none(), children, max_size=1),
    ),
    max_leaves=12,
)


def golden_system_bundle() -> dict:
    """A hand-built system bundle with signed zeros and extreme floats."""
    system = MultiparametricSystem(
        n=2,
        a=([[0.5, -0.0], [1 / 3, 0.25j]], [[-1e-300, 5e-324], [1e300, -0.75 + 0.1j]]),
        b=([[1.0], [0.0]], [[-0.0], [2.5 - 1j]]),
        c=([[0.1, 0.2]], [[0.3, -0.4j]]),
        d=([[0.0]], [[1.7976931348623157e308]]),
    )
    j = CanonicalSymmetry.from_signs([1.0, -1.0])
    return bundles.system_to_bundle(system, j=j, metadata={"name": "golden", "seed": 0})


def bundle_of_each_kind(kind: str) -> dict:
    if kind == "system":
        system, j = random_jconservative(2, 3, 2, seed=5)
        return bundles.system_to_bundle(system, j=j, metadata={"name": "ü", "seed": 5})
    if kind == "series":
        series = TruncatedOperatorSeries(
            n=2,
            degree=3,
            coefficients={(1, 0): [[0.5 + 0.25j, -0.0]], (1, 2): [[1e-300, np.pi - 1j]]},
        )
        return bundles.series_to_bundle(series, metadata={"name": "s"})
    if kind == "decomposition":
        system, _ = hyperbolic_system()
        dec = construct_pencil_decomposition(system_operators(system), 2.0, 8, radius=0.5)
        return bundles.decomposition_to_bundle(dec)
    system, _ = matrix_unit_system()
    return bundles.dilation_to_bundle(build_dilation(system, 4, tol=1e-8), original=system)


class TestCanonicalWriter:
    @settings(max_examples=300, deadline=None)
    @given(JSON_TREES)
    def test_matches_json_indent_encoder(self, tree):
        assert bundles.dumps_canonical(tree) == reference_text(tree)

    @pytest.mark.parametrize("kind", ["system", "series", "decomposition", "dilation"])
    def test_saved_bundle_is_the_canonical_text(self, kind, tmp_path):
        data = bundle_of_each_kind(kind)
        path = tmp_path / f"{kind}.json"
        bundles.save_bundle(data, path)
        text = path.read_text()
        assert text == bundles.dumps_canonical(data) + "\n"
        assert text == reference_text(data) + "\n"

    def test_golden_system_bundle(self, tmp_path):
        path = tmp_path / "golden.json"
        bundles.save_bundle(golden_system_bundle(), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "557722e67f859c393aeee493b59f933cf86b5061a385961a1d941cd574efc4a6"

    def test_failed_save_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "bundle.json"
        bundles.save_bundle({"a": 1}, path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            bundles.save_bundle({"a": [0.5] * 1000, "b": {1.5j}}, path)
        with pytest.raises(TypeError):
            bundles.save_bundle({"z": np.zeros((2, 2), dtype=int)}, tmp_path / "new.json")
        assert os.listdir(tmp_path) == ["bundle.json"]
        assert path.read_bytes() == before
        (tmp_path / "plain.txt").write_text("")
        assert path.stat().st_mode == (tmp_path / "plain.txt").stat().st_mode

    def test_save_peak_memory_below_half_of_the_nesting(self, tmp_path):
        rng = np.random.default_rng(0)

        def block(rows, cols):
            return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

        system = MultiparametricSystem(
            n=2,
            a=(block(200, 200), block(200, 200)),
            b=(block(200, 2), block(200, 2)),
            c=(block(2, 200), block(2, 200)),
            d=(block(2, 2), block(2, 2)),
        )
        data = bundles.system_to_bundle(system, j=CanonicalSymmetry.identity(200))
        tracemalloc.start()
        try:
            bundles.save_bundle(data, tmp_path / "big.json")
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            nested = plain(data)
            nest_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(nested["a"][0]) == 200  # the nesting is alive when its peak is read
        assert save_peak < nest_peak / 2

    def test_unserializable_values_raise_like_json(self):
        odd_arrays = [
            np.zeros(2),
            np.zeros((1, 1, 2)),
            np.zeros((2, 2), dtype=int),
            np.zeros((2, 2), dtype=np.float32),
            np.array([[None]]),
        ]
        for bad in ({"a": {1.5j}}, {(1, 2): 0.5}, *([m] for m in odd_arrays)):
            with pytest.raises(TypeError):
                reference_text(bad)
            with pytest.raises(TypeError):
                bundles.dumps_canonical(bad)


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
    data = json.loads(bundles.dumps_canonical(data))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


def readme_bundle(tmp_path) -> str:
    """The README's N=2 system bundle (generator seed 0)."""
    path = str(tmp_path / "n2.json")
    gen = ["gen", "--n", "2", "--state-dim", "3", "--input-dim", "2", "--signs", "++-"]
    assert main(gen + ["--seed", "0", "--out", path]) == 0
    return path


def hyperbolic_series_bundle(tmp_path) -> str:
    """Degree-8 truncation of the hyperbolic benchmark's transfer function."""
    coeffs = {(m,): [[1.25 if m == 1 else 0.5625 * 1.25 ** (m - 2)]] for m in range(1, 9)}
    path = tmp_path / "hyp8.json"
    bundles.save_bundle(bundles.series_to_bundle(TruncatedOperatorSeries(1, 8, coeffs)), path)
    return str(path)


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
        assert report["residuals"] == {} and "tol" not in report
        coeffs = {tuple(t): np.asarray(m) for t, m in report["taylor"]["coefficients"]}
        value = coeffs[(0, 1)][..., 0] + 1j * coeffs[(0, 1)][..., 1]
        assert np.allclose(value, [[1.0]])
        assert all(
            np.allclose(m, 0) for t, m in coeffs.items() if t != (0, 1)
        )

    def test_transfer_taylor_json_omits_zero_coefficients(self, tmp_path, capsys):
        system = str(tmp_path / "n2.json")
        gen = ["gen", "--n", "2", "--state-dim", "3", "--input-dim", "2", "--signs", "++-"]
        assert main(gen + ["--seed", "0", "--out", system]) == 0
        capsys.readouterr()
        assert main(["transfer", system, "--degree", "8", "--json"]) == 0
        indices = [tuple(t) for t, _ in json.loads(capsys.readouterr().out)["taylor"]["coefficients"]]
        assert len(indices) == 37
        assert not [t for t in indices if t[0] == 0 and t[1] >= 2]

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

    def test_decompose_default_gate_is_the_certified_bound(self, tmp_path, capsys):
        system = readme_bundle(tmp_path)
        capsys.readouterr()
        for seed in range(27):
            assert main(["decompose", system, "--seed", str(seed), "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["tol"] >= report["eta"] > 0
            assert report["residuals"]["kernel"] <= report["tol"] < 1.01 * report["eta"]
        assert main(["decompose", system, "--tol", "1e-8", "--seed", "9"]) == 1
        assert "FAIL stage kernel" in capsys.readouterr().err

    def test_decompose_exact_branch(self, unit_bundle, capsys):
        code = main(
            ["decompose", unit_bundle, "--epsilon", "1", "--degree", "4", "--tol", "1e-12"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "exact = True" in out
        # eta is 0 here: the default gate keeps the roundoff allowance
        assert main(["decompose", unit_bundle, "--epsilon", "1", "--degree", "4"]) == 0

    def test_dilate_and_verify(self, unit_bundle, tmp_path, capsys):
        dil_path = tmp_path / "dil.json"
        code = main(
            [
                "dilate",
                unit_bundle,
                "--degree",
                "4",
                "--tol",
                "1e-10",
                "--out",
                str(dil_path),
            ]
        )
        assert code == 0
        assert "state dim 1" in capsys.readouterr().out
        code = main(["verify-dilation", unit_bundle, str(dil_path), "--tol", "1e-10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "compression" in out and "conservativity" in out

    def test_dilate_readme_bundle_seed_807(self, tmp_path, capsys):
        # the explicit rows gave a dilation that is not power-stable on the
        # sampling polydisk, and lin-tf failed at 1.9e-4 for this seed
        system = readme_bundle(tmp_path)
        capsys.readouterr()
        args = ["dilate", system, "--degree", "20", "--tol", "1e-4", "--samples", "25"]
        code = main(args + ["--seed", "807", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["pass"]
        assert report["residuals"]["lin-tf"] < 1e-5

    def test_dilate_and_verify_dilation_report_one_conservativity(self, tmp_path, capsys):
        # both report the closed-form torus bound of the same dilation, which
        # no sampling seed enters
        system = readme_bundle(tmp_path)
        values = []
        for seed in ("7", "807"):
            dil = str(tmp_path / f"dil-{seed}.json")
            args = ["dilate", system, "--degree", "20", "--tol", "1e-4", "--samples", "25"]
            capsys.readouterr()
            assert main(args + ["--seed", seed, "--out", dil, "--json"]) == 0
            built = json.loads(capsys.readouterr().out)["residuals"]["conservativity"]
            assert main(["verify-dilation", system, dil, "--tol", "1e-4", "--seed", seed, "--json"]) == 0
            checked = json.loads(capsys.readouterr().out)["residuals"]["conservativity"]
            assert built == checked
            values.append(built)
        assert values[0] == values[1]

    @pytest.mark.parametrize("command", ["dilate", "realize"])
    def test_reports_u_norm(self, command, tmp_path, capsys):
        # ||U_full||_2 is the scale of the roundoff cut on the stored dilation
        if command == "dilate":
            path = readme_bundle(tmp_path)
            args = ["dilate", path, "--degree", "12", "--tol", "1e-1", "--samples", "5"]
            system, _, _ = bundles.system_from_bundle(bundles.load_bundle(path))
            built = build_dilation(system, 12, tol=1e-1, samples=5)
            expected = 11.49
        else:
            path = hyperbolic_series_bundle(tmp_path)
            args = ["realize", path, "--tol", "1e-4", "--samples", "5"]
            theta = bundles.series_from_bundle(bundles.load_bundle(path))
            built = jconservative_realization(theta, tol=1e-4, samples=5).dilation
            expected = 7.47
        capsys.readouterr()
        assert main(args) == 0
        assert f"||U_full|| = {built.u_norm:.6e}" in capsys.readouterr().out
        assert main(args + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["u_norm"] == built.u_norm == opnorm(built.u_matrix)
        assert report["u_norm"] == pytest.approx(expected, abs=5e-3)

    def test_dilate_stage_failure_names_stage(self, hyp_bundle, capsys):
        code = main(["dilate", hyp_bundle, "--degree", "12", "--tol", "1e-8"])
        captured = capsys.readouterr()
        assert code == 1
        assert re.search(r"stage 'lin-tf' residual \S+ exceeds tol 1\.0e-08", captured.err)

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

    @pytest.mark.parametrize("command", ["dilate", "realize"])
    def test_stage_tol_loosens_a_staged_build(self, command, tmp_path, capsys):
        # the build must not abort at --tol on a stage whose own gate is looser
        if command == "dilate":
            args = ["dilate", readme_bundle(tmp_path), "--degree", "12", "--samples", "25"]
            args += ["--tol", "1e-6", "--stage-tol", "lin-tf=1e-3"]
            loose = ["--stage-tol", "transfer-coincidence=1e-3"]
        else:
            args = ["realize", hyperbolic_series_bundle(tmp_path), "--tol", "1e-8"]
            args += ["--stage-tol", "lin-tf=1e-4", "--stage-tol", "sample=1e-4"]
            loose = ["--stage-tol", "transfer-coincidence=1e-4"]
        assert main(args + loose) == 0
        capsys.readouterr()
        if command == "dilate":
            assert main(args + ["--stage-tol", "transfer-coincidence=1e-5"]) == 1
            err = capsys.readouterr().err
            assert "FAIL stage transfer-coincidence: residual" in err

    @pytest.mark.parametrize(
        "command, name, valid",
        [("decompose", "kernal", "kernel"), ("dilate", "lin_tf", "lin-tf")],
    )
    def test_unknown_stage_name_exits_two(self, command, name, valid, tmp_path, capsys):
        # a misspelt stage was ignored, and in dilate it loosened the abort threshold
        args = [command, readme_bundle(tmp_path), "--degree", "10", "--tol", "1e-12"]
        capsys.readouterr()
        assert main(args + ["--stage-tol", f"{name}=1"]) == 2
        err = capsys.readouterr().err
        assert f"unknown stage {name!r}" in err
        assert valid in re.search(r"valid stages: (.*)$", err, re.M).group(1).split(", ")

    @pytest.mark.parametrize(
        "command", ["check", "simulate", "decompose", "dilate", "verify-dilation", "realize", "gen"]
    )
    def test_stage_tol_names_are_the_report_residuals(
        self, command, unit_bundle, tmp_path, capsys
    ):
        dil_path = str(tmp_path / "dil.json")
        dilate = ["dilate", unit_bundle, "--degree", "4", "--tol", "1e-10"]
        series_path = tmp_path / "lin.json"
        coefficients = {(1, 0): [[0.5]], (0, 1): [[0.3]]}
        series = TruncatedOperatorSeries(n=2, degree=1, coefficients=coefficients)
        bundles.save_bundle(bundles.series_to_bundle(series), series_path)
        argv = {
            "dilate": dilate,
            "verify-dilation": ["verify-dilation", unit_bundle, dil_path],
            "realize": ["realize", str(series_path), "--tol", "1e-4"],
            "gen": ["gen", "--out", str(tmp_path / "gen.json")],
        }.get(command, [command, unit_bundle])
        assert main(dilate + ["--out", dil_path]) == 0
        capsys.readouterr()
        main(argv + ["--json"])
        reported = json.loads(capsys.readouterr().out)["residuals"]
        assert main(argv + ["--stage-tol", "no-such-stage=1"]) == 2
        listed = re.search(r"valid stages: (.*)$", capsys.readouterr().err, re.M).group(1)
        assert sorted(listed.split(", ")) == sorted(reported)


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
            for cmd in ("check", "decompose", "dilate", "verify-dilation")
            for value in ("0", "-3")
        ]
        + [["realize", "--samples", "0"]]
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

    @pytest.mark.parametrize(
        "argv",
        [
            [cmd, "--samples", value]
            for cmd in ("simulate", "transfer", "gen")
            for value in ("5", "0", "-3")
        ]
        + [["transfer", "--seed", "3"], ["transfer", "--stage-tol", "x=1"]]
        + [["transfer", "--degree", "2", "--tol", "1e-300"]]
        + [[cmd, "--epsilon", "2"] for cmd in ("dilate", "realize")],
    )
    def test_removed_flags_exit_two(self, argv, unit_bundle, tmp_path, capsys):
        # simulate, transfer and gen never sample; transfer judges no residual;
        # the dilation is built from G and the degree alone, with no scale
        cmd, rest = argv[0], argv[1:]
        positional = ["--out", str(tmp_path / "gen.json")] if cmd == "gen" else [unit_bundle]
        assert main([cmd, *positional, *rest]) == 2
        assert "error: unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "gen.json").exists()

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_system_bundle_exits_two(self, literal, unit_bundle, tmp_path, capsys):
        data = poisoned(bundles.load_bundle(unit_bundle), ["a", 1, 0, 0, 0], float(literal))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        for cmd in (["check"], ["transfer", "--at", "0.1,0.2"]):
            assert main([cmd[0], str(path), *cmd[1:]]) == 2
            assert "'a[1]' has a non-finite entry" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_j", [[[0.0, 1.0], [1.0, 0.0]], [[0.5, 0.0], [0.0, 1.0]]])
    def test_non_signature_j_system_bundle_exits_two(self, bad_j, tmp_path, capsys):
        data = two_state_bundle()
        data["j"] = bundles.matrix_to_json(np.array(bad_j))
        path = tmp_path / "bad.json"
        path.write_text(bundles.dumps_canonical(data))
        for cmd in ("check", "simulate"):
            assert main([cmd, str(path)]) == 2
            assert "field 'j' is not a signature matrix" in capsys.readouterr().err

    def test_non_finite_point_exits_two(self, unit_bundle, capsys):
        assert main(["transfer", unit_bundle, "--at", "inf,0.2"]) == 2
        assert "not finite" in capsys.readouterr().err

    def test_non_finite_series_bundle_exits_two(self, tmp_path, capsys):
        series = TruncatedOperatorSeries(
            n=2, degree=1, coefficients={(1, 0): [[0.5]], (0, 1): [[0.3]]}
        )
        data = poisoned(bundles.series_to_bundle(series), ["coefficients", 1, 2, 0, 0], np.nan)
        path = tmp_path / "bad.json"
        path.write_text(bundles.dumps_canonical(data))
        assert main(["realize", str(path)]) == 2
        assert "'coefficients' has a non-finite entry" in capsys.readouterr().err

    def test_non_finite_dilation_bundle_exits_two(self, hyp_bundle, tmp_path, capsys):
        dil_path = tmp_path / "dil.json"
        # a pencil off the exact branch, so the dilated state has room for the swap
        args = ["dilate", hyp_bundle, "--degree", "8", "--tol", "1e-2"]
        assert main(args + ["--out", str(dil_path)]) == 0
        capsys.readouterr()
        good = json.loads(dil_path.read_text())
        n = good["system"]["dims"]["state"]
        assert n >= 2
        swap = np.eye(n)[[1, 0, *range(2, n)]]  # a hermitian involution, not diagonal
        half = np.diag([0.5] + [1.0] * (n - 1))
        non_finite = "has a non-finite entry"
        for field, path, value, message in [
            ("c[0]", ["system", "c", 0, 0, 0, 0], np.inf, non_finite),
            ("j", ["system", "j", 0, 0, 0], np.nan, non_finite),
            ("defects.compression", ["defects", "compression"], np.inf, non_finite),
            ("j", ["system", "j"], bundles.matrix_to_json(swap), "is not a signature matrix"),
            ("j", ["system", "j"], bundles.matrix_to_json(half), "is not a signature matrix"),
        ]:
            dil_path.write_text(json.dumps(poisoned(good, path, value)))
            assert main(["verify-dilation", hyp_bundle, str(dil_path)]) == 2
            assert f"'{field}' {message}" in capsys.readouterr().err

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

    def test_cli_runs_without_scipy(self, hyp_bundle, unit_bundle, tmp_path):
        # every subcommand, in a fresh interpreter: the runtime needs numpy only
        series = tmp_path / "lin.json"
        coefficients = {(1, 0): [[0.5]], (0, 1): [[0.3]]}
        bundles.save_bundle(
            bundles.series_to_bundle(TruncatedOperatorSeries(2, 1, coefficients)), series
        )
        dil = str(tmp_path / "dil.json")
        runs = [
            ["gen", "--n", "2", "--state-dim", "3", "--input-dim", "2", "--out", str(tmp_path / "g.json")],
            ["check", hyp_bundle],
            ["simulate", hyp_bundle, "--input", "random"],
            ["transfer", hyp_bundle, "--at", "0.5"],
            ["decompose", unit_bundle, "--epsilon", "1", "--degree", "4", "--tol", "1e-12",
             "--out", str(tmp_path / "dec.json")],
            ["dilate", unit_bundle, "--degree", "4", "--tol", "1e-10", "--out", dil],
            ["verify-dilation", unit_bundle, dil, "--tol", "1e-10"],
            ["realize", str(series), "--tol", "1e-4", "--out", str(tmp_path / "real.json")],
        ]
        script = (
            "import contextlib, io, json, sys\n"
            "import kreinsys\n"
            "from kreinsys.cli import main\n"
            "codes = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes.append(main(argv))\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "print(json.dumps({'codes': codes, 'scipy': sorted(loaded)}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(runs)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["codes"] == [0] * len(runs), proc.stderr
        assert result["scipy"] == []

    def test_unwritable_out_exits_two(self, unit_bundle, tmp_path, capsys):
        (tmp_path / "a_dir").mkdir()
        exact = ["--degree", "4", "--tol", "1e-10"]
        commands = [
            ["gen", "--n", "1", "--state-dim", "2", "--input-dim", "1"],
            ["decompose", unit_bundle, "--epsilon", "1", *exact],
            ["dilate", unit_bundle, *exact],
        ]
        before = sorted(os.listdir(tmp_path))
        for argv in commands:
            for out in (tmp_path / "missing_dir" / "x.json", tmp_path / "a_dir"):
                capsys.readouterr()
                assert main(argv + ["--out", str(out)]) == 2
                captured = capsys.readouterr()
                assert captured.err.startswith(f"error: cannot write {out}: ")
                assert len(captured.err.splitlines()) == 1
                assert "Traceback" not in captured.out + captured.err
        assert sorted(os.listdir(tmp_path)) == before
        assert os.listdir(tmp_path / "a_dir") == []

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


def two_state_bundle() -> dict:
    """System bundle with state dimension 2 and J = diag(1, -1)."""
    j = CanonicalSymmetry.from_signs([1.0, -1.0])
    system, _ = random_jconservative(2, 2, 1, seed=5, j=j)
    return bundles.system_to_bundle(system, j=j)


_entry = st.floats(-2.0, 2.0, allow_nan=False)
_pair = st.tuples(_entry, _entry).map(list)
_sign_entries = st.lists(st.sampled_from([1.0, -1.0]), min_size=2, max_size=2).map(
    lambda s: bundles.matrix_to_json(np.diag(s))
)
_dense_entries = st.lists(st.lists(_pair, min_size=2, max_size=2), min_size=2, max_size=2)


def _identity_with(value, slot):
    """2x2 identity in bundle nesting with ``value`` written at flat index ``slot``."""
    m = np.eye(2)
    m.flat[slot] = value
    return bundles.matrix_to_json(m)


_non_finite_entries = st.builds(
    _identity_with, st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(0, 3)
)
_wrong_shape_entries = st.integers(0, 4).filter(lambda k: k != 2).flatmap(
    lambda k: st.lists(st.lists(_pair, min_size=k, max_size=k), min_size=k, max_size=k)
)


@settings(max_examples=40, deadline=None)
@given(j=st.one_of(_sign_entries, _dense_entries, _non_finite_entries, _wrong_shape_entries))
def test_check_contract_on_random_j(j):
    data = two_state_bundle()
    data["j"] = j
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "system.json"
        path.write_text(bundles.dumps_canonical(data))
        runs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["check", str(path), "--json"])
            runs.append((code, out.getvalue(), err.getvalue()))
    code, _, err = runs[0]
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert runs[0] == runs[1]
