"""Self-describing JSON checkpoint containers for states and noise fields.

Byte layout of every coefficient block: C-order (row-major) little-endian
complex128 (interleaved float64 re/im pairs), base64-encoded.  Containers
carry the domain, the basis-ordering version tag and the array shape, so
files are portable across machines and refuse to load onto a mismatched
grid or an unknown ordering.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict

import numpy as np

from .noise import NoiseSpec
from .spectral import DomainSpec, Grid, SpectralState

__all__ = ["BASIS_ORDER_TAG", "save_state", "load_state", "save_noise", "load_noise"]

BASIS_ORDER_TAG = "lambda-lex-v1"
_FORMAT_STATE = "stochpe-checkpoint"
_FORMAT_NOISE = "stochpe-noise"


def _encode(arr: np.ndarray) -> str:
    a = np.ascontiguousarray(arr, dtype=np.complex128)
    if a.dtype.byteorder == ">":
        a = a.astype("<c16")
    return base64.b64encode(a.tobytes()).decode("ascii")


def _decode(blob: str, shape) -> np.ndarray:
    """The coefficient block ``blob`` of shape ``shape``.  A blob that is not a
    base64 string, or a shape that is not a list of nonnegative ints matching
    the blob's byte count, raises ``ValueError``."""
    if not isinstance(blob, str):
        raise ValueError(f"coefficient block is a {type(blob).__name__}, not a base64 string")
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"array shape {shape!r} is not a list of nonnegative integers")
    raw = base64.b64decode(blob.encode("ascii"))
    if len(raw) != 16 * math.prod(shape):
        raise ValueError(f"coefficient block of {len(raw)} bytes does not hold complex128 shape {shape}")
    return np.frombuffer(raw, dtype="<c16").reshape(shape).astype(np.complex128)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_header(doc, expected_format: str, grid: Grid | None) -> Grid:
    """The grid of a parsed container: ``grid``, which must match its domain, or
    the shared grid of that domain (``Grid.of``).  A container that is not a
    JSON object, has another format or basis ordering, or whose domain builds
    no ``DomainSpec`` raises ``ValueError``."""
    if not isinstance(doc, dict) or doc.get("format") != expected_format:
        raise ValueError(f"not a {expected_format} container")
    if doc.get("basis_order") != BASIS_ORDER_TAG:
        raise ValueError(f"unknown basis ordering {doc.get('basis_order')!r}")
    try:
        spec = DomainSpec(**doc["domain"])
    except TypeError as exc:
        raise ValueError(f"invalid checkpoint domain: {exc}") from exc
    if grid is None:
        return Grid.of(spec)
    if grid.spec != spec:
        raise ValueError("checkpoint domain does not match the target grid")
    return grid


def save_state(state: SpectralState, path: str) -> None:
    doc = {
        "format": _FORMAT_STATE,
        "version": 1,
        "basis_order": BASIS_ORDER_TAG,
        "domain": asdict(state.grid.spec),
        "time": state.time,
        "shape": list(state.coeffs.shape),
        "dtype": "complex128",
        "byte_order": "little",
        "layout": "C",
        "coeffs_b64": _encode(state.coeffs),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_state(path: str, grid: Grid | None = None) -> SpectralState:
    with open(path, "r") as fh:
        doc = json.load(fh)
    grid = _check_header(doc, _FORMAT_STATE, grid)
    coeffs = _decode(doc["coeffs_b64"], doc["shape"])
    if not _is_number(doc["time"]):
        raise ValueError(f"checkpoint time {doc['time']!r} is not a number")
    return SpectralState(grid, coeffs, float(doc["time"]))


def save_noise(spec: NoiseSpec, path: str) -> None:
    doc = {
        "format": _FORMAT_NOISE,
        "version": 1,
        "basis_order": BASIS_ORDER_TAG,
        "domain": asdict(spec.grid.spec),
        "family": spec.family,
        "K": spec.K,
        "include_temperature": spec.include_temperature,
        "alpha": list(map(float, spec.alpha)),
        "phi_shape": list(spec.phi.shape),
        "psi_shape": list(spec.psi.shape),
        "chi_shape": list(spec.chi.shape),
        "phi_b64": _encode(spec.phi),
        "psi_b64": _encode(spec.psi),
        "chi_b64": _encode(spec.chi),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_noise(path: str, grid: Grid | None = None) -> NoiseSpec:
    with open(path, "r") as fh:
        doc = json.load(fh)
    grid = _check_header(doc, _FORMAT_NOISE, grid)
    if not (isinstance(doc["alpha"], list) and all(map(_is_number, doc["alpha"]))):
        raise ValueError(f"noise alpha {doc['alpha']!r} is not a list of numbers")
    if not isinstance(doc["include_temperature"], bool):
        raise ValueError(f"noise include_temperature {doc['include_temperature']!r} is not a JSON boolean")
    return NoiseSpec(
        grid,
        doc["family"],
        _decode(doc["phi_b64"], doc["phi_shape"]),
        _decode(doc["psi_b64"], doc["psi_shape"]),
        _decode(doc["chi_b64"], doc["chi_shape"]),
        np.asarray(doc["alpha"], dtype=float),
        include_temperature=doc["include_temperature"],
    )
