"""Versioned JSON file formats for systems, series, decompositions, dilations.

Complex matrices serialize as nested lists [row][col] = [re, im]; series
and decomposition coefficients store the real and imaginary parts as
separate real matrices.  Floats are written as shortest round-trip
literals, so parse(serialize(x)) reproduces every finite value bit for
bit, and serialization is canonical (sorted keys, one-space indentation)
so identical data yields identical bytes.  The ``*_to_bundle`` builders
hold numpy arrays at the matrix leaves: write them with ``dumps_canonical``
or ``save_bundle``, not ``json.dumps``.
"""

from __future__ import annotations

import json
import os
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
    return np.stack([m.real, m.imag], -1).tolist()


def _finite(values, field: str, dtype=np.float64) -> np.ndarray:
    """Array of a bundle field, rejecting the NaN/Infinity literals json admits."""
    arr = np.asarray(values, dtype=dtype)
    if not np.isfinite(arr).all():
        raise BundleError(f"field {field!r} has a non-finite entry")
    return arr


def matrix_from_json(rows, shape=None, field: str = "matrix") -> np.ndarray:
    if shape is not None and (shape[0] == 0 or shape[1] == 0):
        return np.zeros(shape, dtype=np.complex128)
    if isinstance(rows, np.ndarray) and rows.dtype.kind == "c":  # an in-memory bundle
        m = _finite(rows, field, np.complex128)
    else:
        arr = _finite(rows, field)
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise BundleError("matrix entries must be nested as [row][col][re, im]")
        m = arr[..., 0] + 1j * arr[..., 1]
    if shape is not None and m.shape != tuple(shape):
        raise BundleError(f"matrix has shape {m.shape}, expected {tuple(shape)}")
    return m


def dumps_canonical(data) -> str:
    """Deterministic JSON text: sorted keys, one-space indentation.

    The text is byte for byte ``json.dumps(plain, sort_keys=True, indent=1)``,
    where ``plain`` is ``data`` with each array nested as ``matrix_to_json``
    (complex) or ``tolist`` (real) nests it.
    """
    return "".join(_encode(data, 0))


def save_bundle(data, path) -> None:
    """Write ``dumps_canonical(data)`` and a final newline, chunk by chunk.

    The text goes to a temporary file beside ``path`` that replaces ``path``
    only once it is complete, so a failed write leaves no stray file and
    an existing ``path`` untouched."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as f:
            f.writelines(_encode(data, 0))
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _encode(o, level: int):
    """Chunks of the canonical text of ``o`` at nesting depth ``level``.

    Lists and dicts are laid out as json's indent=1 encoder lays them out,
    and every scalar and key is encoded by ``json.dumps`` itself.  Arrays,
    the bulk of a bundle, are written row by row by ``_encode_matrix``.
    """
    if isinstance(o, dict):
        brackets, items = "{}", [(_encode_key(k) + ": ", v) for k, v in sorted(o.items())]
    elif isinstance(o, (list, tuple)):
        brackets, items = "[]", [("", v) for v in o]
    elif isinstance(o, np.ndarray):
        yield from _encode_matrix(o, level)
        return
    else:
        yield json.dumps(o)
        return
    if not items:
        yield brackets
        return
    inner = "\n" + " " * (level + 1)
    for i, (key, value) in enumerate(items):
        yield ("," if i else brackets[0]) + inner + key
        yield from _encode(value, level + 1)
    yield "\n" + " " * level + brackets[1]


def _encode_key(key) -> str:
    """A dict key as json encodes it: int, float, bool and None keys become
    their literals, which are then encoded as strings."""
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
            )
        key = json.dumps(key)
    return json.dumps(key)


def _encode_matrix(m: np.ndarray, level: int):
    """Chunks of the text of a 2-D float64 matrix as rows of floats, or of a
    2-D complex128 matrix as [row][col][re, im], at nesting depth ``level``:
    one %-template per matrix, filled row by row.  A real row is filled from
    its ``tolist()``; in a complex matrix an entry whose parts are both +0.0
    is written from one string, and only the other entries are formatted,
    from one ``tolist()`` of their parts."""
    if m.ndim != 2 or m.dtype not in (np.float64, np.complex128):
        raise TypeError(f"cannot encode an array of shape {m.shape} and dtype {m.dtype}")
    real = m.dtype == np.float64
    if not m.size or not np.isfinite(m).all():  # json writes [], NaN and Infinity
        yield from _encode(m.tolist() if real else matrix_to_json(m), level)
        return
    pad = ["\n" + " " * (level + k) for k in range(4)]
    entry = "%r" if real else "[" + pad[3] + "%r," + pad[3] + "%r" + pad[2] + "]"
    sep = "," + pad[2]
    row = "[" + pad[2] + sep.join([entry] * m.shape[1]) + pad[1] + "]"
    if real:
        for i, v in enumerate(m):
            yield ("," if i else "[") + pad[1] + row % tuple(v.tolist())
        yield pad[0] + "]"
        return
    pairs = np.ascontiguousarray(m).view(np.float64).reshape(*m.shape, 2)
    zeros = ~pairs.view(np.uint64).any(axis=2)  # both parts +0.0, bit for bit
    kept = pairs[~zeros].ravel().tolist()  # parts of the other entries, row by row
    zero = entry % (0.0, 0.0)
    start = 0
    for i, z in enumerate(zeros.tolist()):
        tpl = row
        if any(z):
            tpl = "[" + pad[2] + sep.join([zero if e else entry for e in z]) + pad[1] + "]"
        stop = start + 2 * (len(z) - sum(z))
        yield ("," if i else "[") + pad[1] + tpl % tuple(kept[start:stop])
        start = stop
    yield pad[0] + "]"


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
        "a": [np.asarray(m, dtype=np.complex128) for m in system.a],
        "b": [np.asarray(m, dtype=np.complex128) for m in system.b],
        "c": [np.asarray(m, dtype=np.complex128) for m in system.c],
        "d": [np.asarray(m, dtype=np.complex128) for m in system.d],
    }
    if j is not None:
        data["j"] = np.asarray(j.matrix, dtype=np.complex128)
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
            jm = matrix_from_json(data["j"], (dx, dx), "j")
            try:
                j = CanonicalSymmetry(jm)
            except ValueError as exc:
                raise BundleError(f"field 'j' is not a signature matrix: {exc}") from exc
    except BundleError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BundleError(f"invalid system bundle: {exc}") from exc
    return system, j, data.get("metadata", {})


def series_to_bundle(series: TruncatedOperatorSeries, metadata: dict | None = None) -> dict:
    dy, du = series.shape
    data = {
        "format": SERIES_FORMAT,
        "n": series.n,
        "degree": series.degree,
        "shape": [dy, du],
        "coefficients": _coefficients_to_json(series.coefficients),
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


def _coefficients_to_json(coefficients: dict) -> list:
    """Complex128 series coefficients as [multi-index, real part, imaginary part],
    sorted by multi-index."""
    return [[list(t), m.real, m.imag] for t, m in sorted(coefficients.items())]


def _coefficients_from_json(entries, field: str) -> dict:
    """Series coefficients stored as [multi-index, real part, imaginary part]."""
    return {
        tuple(int(c) for c in t): _finite(re, field) + 1j * _finite(im, field)
        for t, re, im in entries
    }


def decomposition_to_bundle(dec: AglerDecomposition) -> dict:
    comps = [
        {
            "index": comp.index,
            "m_plus": comp.m_plus,
            "m_minus": comp.m_minus,
            "degree": comp.series.degree,
            "coefficients": _coefficients_to_json(comp.series.coefficients),
        }
        for comp in dec.components
    ]
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
    result: DilationResult, original: MultiparametricSystem | None = None
) -> dict:
    data = {
        "format": DILATION_FORMAT,
        "system": system_to_bundle(result.alpha_tilde, j=result.j),
        "defects": {k: float(v) for k, v in result.defects.items()},
    }
    if original is not None:
        dx, du, dy = original.dims
        data["original_dims"] = {"state": dx, "input": du, "output": dy}
    return data


def dilation_from_bundle(data: dict):
    """Parse a dilation bundle; returns (system, symmetry, defects).

    The always-zero ``k2_dim`` field of older bundles is ignored."""
    _expect(data, DILATION_FORMAT)
    try:
        system, j, _ = system_from_bundle(data["system"])
        if j is None:
            raise BundleError("dilation bundle must carry the state symmetry")
        defects = {
            str(k): float(_finite(v, f"defects.{k}")) for k, v in data["defects"].items()
        }
        return system, j, defects
    except BundleError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BundleError(f"invalid dilation bundle: {exc}") from exc


def _expect(data: dict, fmt: str) -> None:
    if not isinstance(data, dict) or data.get("format") != fmt:
        found = data.get("format") if isinstance(data, dict) else type(data).__name__
        raise BundleError(f"expected a {fmt!r} bundle, found {found!r}")
