"""Versioned JSON file formats for systems, series, decompositions, dilations.

Complex matrices serialize as nested lists [row][col] = [re, im]; series
and decomposition coefficients store the real and imaginary parts as
separate real matrices.  The json module emits shortest round-trip float
literals, so parse(serialize(x)) reproduces every finite value bit for
bit, and serialization is canonical (sorted keys) so identical data
yields identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .agler import AglerDecomposition, DecompositionComponent
from .dilation import DilationResult
from .krein import CanonicalSymmetry
from .systems import MultiparametricSystem
from .transfer import TruncatedOperatorSeries

SYSTEM_FORMAT = "system-v1"
SERIES_FORMAT = "series-v1"
DECOMPOSITION_FORMAT = "dec-v1"
DILATION_FORMAT = "dilation-v1"


class BundleError(ValueError):
    """Raised when a file does not parse as the expected bundle format."""


def matrix_to_json(m) -> list:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError("only two-dimensional matrices serialize")
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _finite(values, field: str) -> np.ndarray:
    """Real array of a bundle field, rejecting the NaN/Infinity literals json admits."""
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise BundleError(f"field {field!r} has a non-finite entry")
    return arr


def matrix_from_json(rows, shape=None, field: str = "matrix") -> np.ndarray:
    if shape is not None and (shape[0] == 0 or shape[1] == 0):
        return np.zeros(shape, dtype=np.complex128)
    arr = _finite(rows, field)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise BundleError("matrix entries must be nested as [row][col][re, im]")
    m = arr[..., 0] + 1j * arr[..., 1]
    if shape is not None and m.shape != tuple(shape):
        raise BundleError(f"matrix has shape {m.shape}, expected {tuple(shape)}")
    return m


def _real_matrix_to_json(m) -> list:
    return [[float(v) for v in row] for row in np.asarray(m, dtype=np.float64)]


def dumps_canonical(data) -> str:
    """Deterministic JSON text: sorted keys, fixed indentation."""
    return json.dumps(data, sort_keys=True, indent=1)


def save_bundle(data, path) -> None:
    Path(path).write_text(dumps_canonical(data) + "\n")


def load_bundle(path, expected_format=None) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BundleError(f"cannot read bundle {path}: {exc}") from exc
    if not isinstance(data, dict) or "format" not in data:
        raise BundleError(f"{path} is not a bundle (missing 'format' key)")
    if expected_format is not None and data["format"] != expected_format:
        raise BundleError(
            f"{path} has format {data['format']!r}, expected {expected_format!r}"
        )
    return data


def system_to_bundle(
    system: MultiparametricSystem,
    j: CanonicalSymmetry | None = None,
    metadata: dict | None = None,
) -> dict:
    dx, du, dy = system.dims
    data = {
        "format": SYSTEM_FORMAT,
        "n": system.n,
        "dims": {"state": dx, "input": du, "output": dy},
        "a": [matrix_to_json(m) for m in system.a],
        "b": [matrix_to_json(m) for m in system.b],
        "c": [matrix_to_json(m) for m in system.c],
        "d": [matrix_to_json(m) for m in system.d],
    }
    if j is not None:
        data["j"] = matrix_to_json(j.matrix)
    if metadata:
        data["metadata"] = dict(metadata)
    return data


def system_from_bundle(data: dict):
    """Parse a system bundle; returns (system, symmetry or None, metadata)."""
    _expect(data, SYSTEM_FORMAT)
    try:
        n = int(data["n"])
        dims = data["dims"]
        dx, du, dy = int(dims["state"]), int(dims["input"]), int(dims["output"])
        shapes = {"a": (dx, dx), "b": (dx, du), "c": (dy, dx), "d": (dy, du)}
        blocks = {}
        for name, shape in shapes.items():
            rows = data[name]
            if len(rows) != n:
                raise BundleError(f"field {name!r} must supply {n} blocks")
            blocks[name] = tuple(
                matrix_from_json(r, shape, f"{name}[{k}]") for k, r in enumerate(rows)
            )
        system = MultiparametricSystem(n=n, **blocks)
        j = None
        if data.get("j") is not None:
            j = CanonicalSymmetry(matrix_from_json(data["j"], (dx, dx), "j"))
    except BundleError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BundleError(f"invalid system bundle: {exc}") from exc
    return system, j, data.get("metadata", {})


def series_to_bundle(series: TruncatedOperatorSeries, metadata: dict | None = None) -> dict:
    dy, du = series.shape
    entries = [
        [list(t), _real_matrix_to_json(m.real), _real_matrix_to_json(m.imag)]
        for t, m in sorted(series.coefficients.items())
    ]
    data = {
        "format": SERIES_FORMAT,
        "n": series.n,
        "degree": series.degree,
        "shape": [dy, du],
        "coefficients": entries,
    }
    if metadata:
        data["metadata"] = dict(metadata)
    return data


def series_from_bundle(data: dict) -> TruncatedOperatorSeries:
    _expect(data, SERIES_FORMAT)
    try:
        coeffs = _coefficients_from_json(data["coefficients"], "coefficients")
        return TruncatedOperatorSeries(
            n=int(data["n"]), degree=int(data["degree"]), coefficients=coeffs
        )
    except BundleError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BundleError(f"invalid series bundle: {exc}") from exc


def _coefficients_from_json(entries, field: str) -> dict:
    """Series coefficients stored as [multi-index, real part, imaginary part]."""
    return {
        tuple(int(c) for c in t): _finite(re, field) + 1j * _finite(im, field)
        for t, re, im in entries
    }


def decomposition_to_bundle(dec: AglerDecomposition) -> dict:
    comps = []
    for comp in dec.components:
        entries = [
            [list(t), _real_matrix_to_json(m.real), _real_matrix_to_json(m.imag)]
            for t, m in sorted(comp.series.coefficients.items())
        ]
        comps.append(
            {
                "index": comp.index,
                "m_plus": comp.m_plus,
                "m_minus": comp.m_minus,
                "degree": comp.series.degree,
                "coefficients": entries,
            }
        )
    return {
        "format": DECOMPOSITION_FORMAT,
        "n": dec.n,
        "epsilon": dec.epsilon,
        "exact": dec.exact,
        "domain_dim": dec.domain_dim,
        "components": comps,
        "certificate": {"r": dec.radius, "d": dec.degree, "eta": dec.eta},
    }


def decomposition_from_bundle(data: dict) -> AglerDecomposition:
    _expect(data, DECOMPOSITION_FORMAT)
    try:
        n = int(data["n"])
        cert = data["certificate"]
        comps = []
        for i, entry in enumerate(data["components"]):
            coeffs = _coefficients_from_json(
                entry["coefficients"], f"components[{i}].coefficients"
            )
            series = TruncatedOperatorSeries(
                n=n, degree=int(entry["degree"]), coefficients=coeffs
            )
            comps.append(
                DecompositionComponent(
                    index=int(entry["index"]),
                    m_plus=int(entry["m_plus"]),
                    m_minus=int(entry["m_minus"]),
                    series=series,
                )
            )
        return AglerDecomposition(
            n=n,
            epsilon=float(_finite(data["epsilon"], "epsilon")),
            components=tuple(comps),
            radius=float(_finite(cert["r"], "certificate.r")),
            degree=int(cert["d"]),
            eta=float(_finite(cert["eta"], "certificate.eta")),
            exact=bool(data.get("exact", False)),
        )
    except BundleError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BundleError(f"invalid decomposition bundle: {exc}") from exc


def dilation_to_bundle(
    result: DilationResult,
    original: MultiparametricSystem | None = None,
    metadata: dict | None = None,
) -> dict:
    data = {
        "format": DILATION_FORMAT,
        "system": system_to_bundle(result.alpha_tilde, j=result.j),
        "defects": {k: float(v) for k, v in result.defects.items()},
        "k2_dim": result.k2_dim,
    }
    if original is not None:
        dx, du, dy = original.dims
        data["original_dims"] = {"state": dx, "input": du, "output": dy}
    if metadata:
        data["metadata"] = dict(metadata)
    return data


def dilation_from_bundle(data: dict):
    """Parse a dilation bundle; returns (system, symmetry, defects, k2_dim)."""
    _expect(data, DILATION_FORMAT)
    try:
        system, j, _ = system_from_bundle(data["system"])
        if j is None:
            raise BundleError("dilation bundle must carry the state symmetry")
        defects = {
            str(k): float(_finite(v, f"defects.{k}")) for k, v in data["defects"].items()
        }
        return system, j, defects, int(data["k2_dim"])
    except BundleError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BundleError(f"invalid dilation bundle: {exc}") from exc


def _expect(data: dict, fmt: str) -> None:
    if not isinstance(data, dict) or data.get("format") != fmt:
        found = data.get("format") if isinstance(data, dict) else type(data).__name__
        raise BundleError(f"expected a {fmt!r} bundle, found {found!r}")
