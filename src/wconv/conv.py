"""Direct 2-D convolution, its density-weighted variant, and analytic gradients.

All operators use "same" zero padding: the output pixel (i, j) at stride s
is the inner product of the kernel with the K x K input window centred at
(i * s, j * s), entries outside the image counting as zero.  Only
``conv2d_weighted``, the paper's operator, scales each tap by the density
inside its tap loop; the overhead benchmark (``bench``, criterion 8) times
it.  The other operators take the density folded into the kernel once
(``scale_kernel``, equal up to rounding), as training does every step.

Every operator loops over the K x K taps and mixes channels once per tap.
How a tap mixes depends on the channel counts alone: a broadcast product
when one channel is contracted, ``np.einsum`` while filters x channels stays
below ``_BLAS_MIN_CHANNELS``, and one BLAS ``np.matmul`` (after copying the
tap's strided window to contiguous memory) from there on.  No im2col buffer
of all taps is built, so memory stays at one window per tap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ShapeError


@dataclass
class KernelStack:
    """Trainable conv weights (filters, in_channels, K, K) plus optional bias.

    The bias length must match the channel count of the operator's output:
    ``filters`` for the forward direction, ``in_channels`` for the
    transposed direction.
    """

    weights: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 4:
            raise ShapeError(f"weights must be 4-D, got rank {w.ndim}")
        if w.shape[2] != w.shape[3]:
            raise ShapeError(f"kernel must be square, got {w.shape[2]}x{w.shape[3]}")
        if w.shape[2] % 2 == 0:
            raise ValueError(f"kernel extent must be odd, got {w.shape[2]}")
        if not np.all(np.isfinite(w)):
            raise ValueError("kernel weights must be finite")
        self.weights = w
        if self.bias is not None:
            b = np.asarray(self.bias, dtype=np.float64)
            if b.ndim != 1 or not np.all(np.isfinite(b)):
                raise ValueError("bias must be a finite 1-D vector")
            self.bias = b

    @property
    def filters(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def k(self) -> int:
        return self.weights.shape[2]


def scale_kernel(kernel: KernelStack, density: np.ndarray) -> KernelStack:
    """Kernel with every filter premultiplied tap-wise by the density matrix."""
    density = _check_density(density, kernel.k)
    return KernelStack(kernel.weights * density, kernel.bias)


def _check_density(density, k: int) -> np.ndarray:
    density = np.asarray(density, dtype=np.float64)
    if density.shape != (k, k):
        raise ShapeError(f"density shape {density.shape} does not match kernel {k}x{k}")
    return density


def _check_operand(x, channels: int | None, step, name: str = "input",
                   step_name: str = "stride") -> np.ndarray:
    """Float64 4-D operand with ``channels`` channels (None: any) and a
    positive-integer stride or upsample factor ``step``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ShapeError(f"{name} must be (batch, channel, row, col), got rank {x.ndim}")
    if channels is not None and x.shape[1] != channels:
        raise ShapeError(f"{name} has {x.shape[1]} channels, kernel expects {channels}")
    if not isinstance(step, (int, np.integer)) or step < 1:
        raise ValueError(f"{step_name} must be a positive integer, got {step!r}")
    return x


def _check_bias(kernel: KernelStack, channels: int) -> None:
    if kernel.bias is not None and kernel.bias.shape[0] != channels:
        raise ShapeError(f"bias length {kernel.bias.shape[0]} != output channels {channels}")


def _window(xp, a, b, stride, ro, co):
    return xp[:, :, a:a + (ro - 1) * stride + 1:stride,
              b:b + (co - 1) * stride + 1:stride]


# Filters x channels from which a tap's channel mixing goes through BLAS.
# Timed per tap at the desk (20 images, 64 x 64) and wide-train (8 and 48
# images, 32 x 32 outputs) shapes: at 2 x 2 the einsum was as fast or faster
# in the forward and weight-gradient kernels, from 8 on matmul was faster or
# level in all three.
_BLAS_MIN_CHANNELS = 8


def _mix(w, x):
    """One tap's channel mixing, out[b, f] = sum_c w[f, c] * x[b, c].

    ``w`` is (filters, channels); ``x`` is (batch, channels, rows, cols),
    possibly a strided window.
    """
    fout, cin = w.shape
    if cin == 1:
        return x * w[:, 0, None, None]
    if fout * cin < _BLAS_MIN_CHANNELS:
        return np.einsum("bcij,fc->bfij", x, w)
    bsz, _, rows, cols = x.shape
    flat = np.ascontiguousarray(x).reshape(bsz, cin, rows * cols)
    return np.matmul(w, flat).reshape(bsz, fout, rows, cols)


def _mix_grad(upstream, x):
    """One tap's weight gradient, g[f, c] = sum_{b,i,j} upstream[b, f] * x[b, c]."""
    bsz, fout, rows, cols = upstream.shape
    cin = x.shape[1]
    if fout * cin < _BLAS_MIN_CHANNELS:
        return np.einsum("bfij,bcij->fc", upstream, x)
    flat = np.ascontiguousarray(x).reshape(bsz, cin, rows * cols)
    per_image = np.matmul(upstream.reshape(bsz, fout, rows * cols),
                          flat.transpose(0, 2, 1))
    return per_image.sum(axis=0)


def _forward(x, weights, density, bias, stride):
    bsz, _, rows, cols = x.shape
    fout, _, k, _ = weights.shape
    pad = k // 2
    ro = -(-rows // stride)
    co = -(-cols // stride)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((bsz, fout, ro, co))
    for a in range(k):
        for b in range(k):
            term = _mix(weights[:, :, a, b], _window(xp, a, b, stride, ro, co))
            if density is not None:
                term *= density[a, b]
            out += term
    if bias is not None:
        out += bias[:, None, None]
    return out


def conv2d(x, kernel: KernelStack, stride: int = 1) -> np.ndarray:
    """Standard convolution; output (batch, filters, ceil(R/s), ceil(C/s))."""
    x = _check_operand(x, kernel.in_channels, stride)
    _check_bias(kernel, kernel.filters)
    return _forward(x, kernel.weights, None, kernel.bias, stride)


def conv2d_weighted(x, kernel: KernelStack, density, stride: int = 1) -> np.ndarray:
    """Weighted convolution: each tap scaled by the density value at that offset.

    A uniform all-ones density reproduces ``conv2d`` bit-for-bit.
    """
    x = _check_operand(x, kernel.in_channels, stride)
    density = _check_density(density, kernel.k)
    _check_bias(kernel, kernel.filters)
    return _forward(x, kernel.weights, density, kernel.bias, stride)


def _scatter_input(weights, upstream, rows, cols, stride):
    bsz, _, ro, co = upstream.shape
    _, cin, k, _ = weights.shape
    pad = k // 2
    gxp = np.zeros((bsz, cin, rows + 2 * pad, cols + 2 * pad))
    for a in range(k):
        for b in range(k):
            w_ab = weights[:, :, a, b]
            gxp[:, :, a:a + (ro - 1) * stride + 1:stride,
                b:b + (co - 1) * stride + 1:stride] += _mix(w_ab.T, upstream)
    return gxp[:, :, pad:pad + rows, pad:pad + cols]


def conv2d_transposed_weighted(y, kernel: KernelStack, density=None,
                               upsample: int = 1) -> np.ndarray:
    """Adjoint of the stride-``upsample`` weighted convolution.

    Maps (batch, filters, r, c) to (batch, in_channels, r * upsample,
    c * upsample); satisfies <conv(x), y> == <x, conv_T(y)> when the bias
    is absent.
    """
    y = _check_operand(y, kernel.filters, upsample, step_name="upsample factor")
    _check_bias(kernel, kernel.in_channels)
    weights = kernel.weights if density is None else scale_kernel(kernel, density).weights
    out = _scatter_input(weights, y, y.shape[2] * upsample, y.shape[3] * upsample,
                         upsample)
    if kernel.bias is not None:
        out += kernel.bias[:, None, None]
    return out


class WeightGrad(NamedTuple):
    """Weight and bias gradients.  Unlike a ``KernelStack`` they are not
    checked for finiteness: an overflow is a divergence, which the
    trainer's loss check reports, not invalid input."""

    weights: np.ndarray
    bias: np.ndarray


def grad_weights(x, density, upstream, k: int | None = None,
                 stride: int = 1) -> WeightGrad:
    """Loss gradient with respect to the kernel weights and bias.

    ``upstream`` is the loss gradient at the conv output.  A density
    multiplies each tap's gradient, giving the gradient of the weights
    behind a folded kernel.  ``k`` is only needed when ``density`` is None.
    """
    x = _check_operand(x, None, stride)
    upstream = _check_operand(upstream, None, stride, "upstream")
    if density is not None:
        k = np.shape(density)[0]
        density = _check_density(density, k)
    elif k is None:
        raise ValueError("kernel extent required when no density is given")
    if x.shape[0] != upstream.shape[0]:
        raise ShapeError("input and upstream must have matching batch")
    bsz, cin, rows, cols = x.shape
    _, fout, ro, co = upstream.shape
    if ro != -(-rows // stride) or co != -(-cols // stride):
        raise ShapeError(f"upstream spatial {ro}x{co} inconsistent with stride {stride}")
    pad = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gw = np.zeros((fout, cin, k, k))
    for a in range(k):
        for b in range(k):
            gw[:, :, a, b] = _mix_grad(upstream, _window(xp, a, b, stride, ro, co))
    if density is not None:
        gw *= density
    return WeightGrad(gw, upstream.sum(axis=(0, 2, 3)))


def grad_input(kernel: KernelStack, density, upstream, input_hw=None,
               stride: int = 1) -> np.ndarray:
    """Loss gradient with respect to the conv input (adjoint map on upstream)."""
    upstream = _check_operand(upstream, kernel.filters, stride, "upstream")
    weights = kernel.weights if density is None else scale_kernel(kernel, density).weights
    if input_hw is None:
        input_hw = (upstream.shape[2] * stride, upstream.shape[3] * stride)
    rows, cols = input_hw
    if -(-rows // stride) != upstream.shape[2] or -(-cols // stride) != upstream.shape[3]:
        raise ShapeError(f"input size {rows}x{cols} inconsistent with upstream/stride")
    return _scatter_input(weights, upstream, rows, cols, stride)


def grad_density(x, kernel: KernelStack, upstream, stride: int = 1) -> np.ndarray:
    """Loss gradient with respect to the K x K density matrix (diagnostic).

    Each tap's density value scales that tap's weights, so its gradient is
    the unweighted weight gradient times the weights, summed over filters
    and channels.
    """
    x = _check_operand(x, kernel.in_channels, stride)
    upstream = _check_operand(upstream, kernel.filters, stride, "upstream")
    gw = grad_weights(x, None, upstream, kernel.k, stride).weights
    return np.sum(gw * kernel.weights, axis=(0, 1))


def flop_count(rows: int, cols: int, filters: int, k: int, weighted: bool) -> int:
    """Operation count of the direct conv: R*C*F*(3 or 2)*K^2.

    The weighted form spends one extra multiply per tap and output pixel.
    """
    if min(rows, cols, filters, k) <= 0:
        raise ValueError("all dimensions must be positive")
    per_tap = 3 if weighted else 2
    return rows * cols * filters * per_tap * k * k
