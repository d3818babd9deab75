"""Generating vectors and rank-1 density matrices for weighted convolution.

A density vector holds one non-negative scale factor per kernel offset,
is symmetric about its centre, and has a fixed central value.  Its outer
product with itself gives the K x K matrix applied tap-wise to every
convolution kernel.  Because of the symmetry and the pinned centre, a
length-K vector carries only (K - 1) / 2 free coefficients.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

FAMILIES = ("uniform", "linear", "gaussian", "cubic")
# Shape parameters of the linear and gaussian families.
LINEAR_SLOPE = 0.3
GAUSSIAN_SIGMA = 1.5
# Largest density value: sqrt(float max) ~ 1.34e154, so that every entry of
# the density matrix alpha alpha^T is finite.
MAX_DENSITY_VALUE = math.sqrt(sys.float_info.max)


@dataclass(frozen=True, eq=False)
class DensityVector:
    """Odd-length symmetric vector of per-offset scale factors."""

    values: np.ndarray
    center_value: float = 1.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.shape[0] < 1 or vals.shape[0] % 2 == 0:
            raise ValueError(f"expected an odd-length vector, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("density values must be finite and non-negative")
        if np.any(vals > MAX_DENSITY_VALUE):
            raise ValueError(
                f"density value {float(vals.max())!r} exceeds {MAX_DENSITY_VALUE!r}: "
                "the density matrix alpha alpha^T would overflow"
            )
        if vals[vals.shape[0] // 2] != self.center_value:
            raise ValueError(
                f"central value {vals[vals.shape[0] // 2]} != {self.center_value}"
            )
        if not np.array_equal(vals, vals[::-1]):
            raise ValueError("density values must be symmetric about the centre")

    @property
    def k(self) -> int:
        return self.values.shape[0]

    @property
    def free_count(self) -> int:
        return (self.k - 1) // 2


def density_from_free(theta, k: int) -> DensityVector:
    """Build the symmetric vector [theta, 1, reversed(theta)].

    ``theta`` lists the (k - 1) / 2 independent coefficients, outermost
    offset first.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError(f"kernel extent must be odd and positive, got {k}")
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 1 or theta.shape[0] != (k - 1) // 2:
        raise ValueError(
            f"expected {(k - 1) // 2} free coefficients for extent {k}, "
            f"got shape {theta.shape}"
        )
    vals = np.concatenate([theta, [1.0], theta[::-1]])
    return DensityVector(vals)


def density_matrix(vec) -> np.ndarray:
    """Rank-1 K x K matrix: outer product of the vector with itself."""
    vals = vec.values if isinstance(vec, DensityVector) else np.asarray(vec, np.float64)
    return np.outer(vals, vals)


def named_density(family: str, k: int) -> DensityVector:
    """One of the standard comparison families, centre pinned to 1.

    uniform: all ones.  linear: 1 - LINEAR_SLOPE * |offset|, clamped at 0.
    gaussian: exp(-offset^2 / (2 GAUSSIAN_SIGMA^2)).  cubic: 1 - |offset / m|^3
    with m = (k + 1) / 2, clamped at 0.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown density family {family!r}, expected one of {FAMILIES}")
    if k < 1 or k % 2 == 0:
        raise ValueError(f"kernel extent must be odd and positive, got {k}")
    offsets = np.abs(np.arange(k, dtype=np.float64) - k // 2)
    if family == "uniform":
        vals = np.ones(k)
    elif family == "linear":
        vals = np.maximum(1.0 - LINEAR_SLOPE * offsets, 0.0)
    elif family == "gaussian":
        vals = np.exp(-(offsets**2) / (2.0 * GAUSSIAN_SIGMA**2))
    else:
        m = (k + 1) / 2.0
        vals = np.maximum(1.0 - (offsets / m) ** 3, 0.0)
    return DensityVector(vals)


def density_record(vec: DensityVector) -> dict:
    """Structured-text form {K, M, values[]} used in configs and reports."""
    return {"K": vec.k, "M": vec.center_value, "values": [float(v) for v in vec.values]}


# The keys of a density record and the types of their values.
_RECORD_KEYS = {"K": (int,), "M": (int, float), "values": (list,)}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def density_from_record(record) -> DensityVector:
    """Inverse of density_record; raises ValueError naming the key when the
    record is not an object, has an unknown key or a value of the wrong type,
    or lacks "K" or "values"."""
    if not isinstance(record, dict):
        raise ValueError(f"density record must be a JSON object, got {record!r}")
    for key, value in record.items():
        if key not in _RECORD_KEYS:
            raise ValueError(f"unknown key {key!r} in density record, expected "
                             f"one of {sorted(_RECORD_KEYS)}")
        if isinstance(value, bool) or not isinstance(value, _RECORD_KEYS[key]) or (
                key == "values" and not all(map(_is_number, value))):
            raise ValueError(f"density record value {key!r} = {value!r} has the wrong type")
    for key in ("K", "values"):
        if key not in record:
            raise ValueError(f"density record has no {key!r} key")
    vec = DensityVector(np.asarray(record["values"], dtype=np.float64),
                        float(record.get("M", 1.0)))
    if vec.k != record["K"]:
        raise ValueError(f"record K={record['K']} does not match {vec.k} values")
    return vec
