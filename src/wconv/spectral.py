"""Numerical checks of weighted-convolution identities on periodic grids.

The weighted circular convolution h(z) = sum_x f(x) g(z-x) phi(z-x) is
computed directly in the signal domain, as a product with the circulant
matrix of f; the FFT enters only as the independent oracle for the
convolution theorem and the plain-convolution reduction.  Signals are 1-D
vectors or 2-D grids, square or not, with circular indexing, the one
discrete setting where the transform identities are exact.

The circulant index matrix of each size is built once and shared, read-only,
by every later call of that size: building it on every call would take about
a third of a ``verify`` run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


def _check_signals(*signals):
    """The signals as float64 arrays of one shape, 1-D or 2-D (any rows and
    columns); raises ShapeError otherwise."""
    arrays = [np.asarray(s, dtype=np.float64) for s in signals]
    shape = arrays[0].shape
    for arr in arrays[1:]:
        if arr.shape != shape:
            raise ShapeError(f"signal shape mismatch: {arr.shape} vs {shape}")
    if arrays[0].ndim not in (1, 2):
        raise ShapeError(f"signals must be 1-D or 2-D, got rank {arrays[0].ndim}")
    return arrays


@functools.cache
def _shifts(n):
    """Index matrix [z, y] -> (z - y) mod n, built once per size and shared
    by every caller, so it is read-only.  The cache keeps one per distinct
    size for the life of the process."""
    idx = np.subtract.outer(np.arange(n), np.arange(n)) % n
    idx.flags.writeable = False
    return idx


def _weighted_conv(f, g, density):
    """sum_y f(z - y) (g . density)(y) for one filter g or a stack of them
    along g's leading axes.  1-D: a product with the circulant
    C[z, y] = f[z - y].  2-D: P[x1, y1, z2] = sum_y2 f[x1, z2 - y2] gphi[y1, y2]
    through the row circulants, then h[z1, z2] = sum_y1 P[z1 - y1, y1, z2],
    so no (rows * cols)^2 matrix is formed."""
    gphi = g * density
    circ = f[..., _shifts(f.shape[-1])]
    if f.ndim == 1:
        return gphi @ circ.T
    rows = f.shape[0]
    part = gphi[..., None, :, :] @ circ.swapaxes(-1, -2)
    return part[..., _shifts(rows), np.arange(rows), :].sum(axis=-2)


def circular_weighted_conv(f, g, density) -> np.ndarray:
    """h(z) = sum_x f(x) * g(z - x) * density(z - x), indices wrapping."""
    return _weighted_conv(*_check_signals(f, g, density))


def circular_conv_fft(f, g) -> np.ndarray:
    """Plain circular convolution through the FFT; oracle for the direct path."""
    f, g = _check_signals(f, g)
    return np.real(np.fft.ifftn(np.fft.fftn(f) * np.fft.fftn(g)))


def _reversed_about(arr, z):
    """Array of arr[(z - x) mod n] over all grid points x."""
    if np.isscalar(z) or isinstance(z, (int, np.integer)):
        z = (int(z),)
    idx = tuple((z[d] - np.arange(arr.shape[d])) % arr.shape[d]
                for d in range(arr.ndim))
    return arr[np.ix_(*idx)]


def check_convolution_theorem(f, g, density) -> float:
    """Max |DFT(f * g_phi) - DFT(f) . DFT(g . phi)| over all frequencies."""
    f, g, density = _check_signals(f, g, density)
    lhs = np.fft.fftn(circular_weighted_conv(f, g, density))
    rhs = np.fft.fftn(f) * np.fft.fftn(g * density)
    return float(np.max(np.abs(lhs - rhs)))


def check_commutativity(f, g, density) -> float:
    """Max |(f * g_phi) - (g_phi * f)|, the second side premultiplied."""
    f, g, density = _check_signals(f, g, density)
    lhs = circular_weighted_conv(f, g, density)
    rhs = circular_weighted_conv(g * density, f, np.ones_like(f))
    return float(np.max(np.abs(lhs - rhs)))


def check_differentiability(f, density, step: float = 1e-6, seed: int = 0) -> float:
    """Normalized max error between the analytic Jacobian of h in the filter
    and central finite differences.

    The derivative of h(z) with respect to g(s) is f(z - s) * density(s),
    independent of g itself.
    """
    f, density = _check_signals(f, density)
    if f.ndim != 1:
        raise ShapeError("differentiability check is defined on 1-D signals")
    n = f.shape[0]
    # indexed here rather than through _shifts, so that a wrong kernel index
    # cannot also move the reference
    analytic = f[(np.arange(n)[:, None] - np.arange(n)) % n] * density
    g = np.random.default_rng(seed).standard_normal(n)
    bumps = step * np.eye(n)
    # row s of each stack is the filter g +- step e_s
    plus = _weighted_conv(f, g + bumps, density)
    minus = _weighted_conv(f, g - bumps, density)
    fd = ((plus - minus) / (2.0 * step)).T
    scale = max(np.max(np.abs(analytic)), np.max(np.abs(fd)), 1e-30)
    return float(np.max(np.abs(analytic - fd)) / scale)


def check_density_identity(f, g, density, z) -> float:
    """Pointwise residual |(f * g_phi)(z) - (f_psi * g)(z)| with
    psi(x) = phi(z - x) built for that z."""
    f, g, density = _check_signals(f, g, density)
    psi = _reversed_about(density, z)
    lhs = circular_weighted_conv(f, g, density)
    rhs = circular_weighted_conv(f * psi, g, np.ones_like(f))
    if np.isscalar(z) or isinstance(z, (int, np.integer)):
        z = (int(z),)
    return float(abs(lhs[tuple(z)] - rhs[tuple(z)]))


def check_density_identity_constant(f, g, const: float) -> float:
    """Residual of the same identity with a constant density, where one
    psi = const works for every z simultaneously."""
    f, g = _check_signals(f, g)
    density = np.full_like(f, const)
    lhs = circular_weighted_conv(f, g, density)
    rhs = circular_weighted_conv(f * const, g, np.ones_like(f))
    return float(np.max(np.abs(lhs - rhs)))


def check_young(f, g, density) -> tuple[float, float, bool]:
    """Discrete Young bound: ||f * g_phi||_1 <= ||phi||_inf ||f||_1 ||g||_1."""
    f, g, density = _check_signals(f, g, density)
    lhs = float(np.sum(np.abs(circular_weighted_conv(f, g, density))))
    rhs = float(np.max(np.abs(density)) * np.sum(np.abs(f)) * np.sum(np.abs(g)))
    return lhs, rhs, lhs <= rhs + 1e-12


@dataclass
class PropertyCheck:
    name: str
    instances: int
    max_error: float
    tolerance: float
    passed: bool


TOLERANCES = {
    "convolution_theorem": 1e-9,
    "commutativity": 1e-11,
    "differentiability": 1e-6,
    "density_identity_pointwise": 1e-12,
    "density_identity_constant": 1e-12,
    "young_inequality": 1e-12,
    "fft_reduction": 1e-10,
}


def run_verification(instances: int = 100, sizes=(8, 16, 64),
                     young_triples: int = 1000, seed: int = 0) -> list[PropertyCheck]:
    """Run every property check on seeded random instances.

    Returns one record per property with the worst error observed across
    all instances and sizes.  Raises ValueError, naming the CLI flag, when
    there would be nothing to check.
    """
    if instances < 1:
        raise ValueError(f"--instances must be >= 1, got {instances}")
    if young_triples < 1:
        raise ValueError(f"--young-triples must be >= 1, got {young_triples}")
    if not sizes or min(sizes) < 1:
        raise ValueError(f"--sizes must list sizes >= 1, got {list(sizes)}")
    rng = np.random.default_rng(seed)
    errors = {name: 0.0 for name in TOLERANCES}
    counts = {name: 0 for name in TOLERANCES}
    young_ok = True

    def bump(name, err):
        errors[name] = max(errors[name], err)
        counts[name] += 1

    for n in sizes:
        for _ in range(instances):
            f = rng.standard_normal(n)
            g = rng.standard_normal(n)
            density = rng.uniform(0.0, 2.0, n)
            bump("convolution_theorem", check_convolution_theorem(f, g, density))
            bump("commutativity", check_commutativity(f, g, density))
            z = int(rng.integers(0, n))
            bump("density_identity_pointwise",
                 check_density_identity(f, g, density, z))
            bump("density_identity_constant",
                 check_density_identity_constant(f, g, float(rng.uniform(0.0, 2.0))))
            bump("fft_reduction", float(np.max(np.abs(
                circular_weighted_conv(f, g, np.ones(n)) - circular_conv_fft(f, g)))))
        for i in range(instances):
            f = rng.standard_normal(n)
            density = rng.uniform(0.0, 2.0, n)
            bump("differentiability",
                 check_differentiability(f, density, seed=seed + i))
    per_size = -(-young_triples // len(sizes))
    done = 0
    for n in sizes:
        for _ in range(min(per_size, young_triples - done)):
            f = rng.standard_normal(n)
            g = rng.standard_normal(n)
            density = rng.uniform(0.0, 2.0, n)
            lhs, rhs, holds = check_young(f, g, density)
            young_ok = young_ok and holds
            bump("young_inequality", max(lhs - rhs, 0.0))
            done += 1

    reports = []
    for name, tol in TOLERANCES.items():
        passed = errors[name] <= tol
        if name == "young_inequality":
            passed = passed and young_ok
        reports.append(PropertyCheck(name, counts[name], errors[name], tol, passed))
    return reports
