"""Direct 2-D convolution, its density-weighted variant, and analytic gradients.

All operators use "same" zero padding: the output pixel (i, j) at stride s
is the inner product of the kernel with the K x K input window centred at
(i * s, j * s), entries outside the image counting as zero.  Only
``conv2d_weighted``, the paper's operator, scales each tap by the density
as it gathers the taps; the overhead benchmark (``bench``, criterion 8) times
it.  The other operators take the density folded into the kernel
(``scale_kernel``, equal up to rounding), as training does once per step:
``conv2d`` and the adjoint operators, the transposed conv and the input
gradient, take the folded kernel, and ``grad_weights`` takes the density and
returns the gradient of the weights behind the folded kernel.

Every operator is a gather followed by ``np.matmul`` (im2col; Chellapilla,
Puri & Simard, 2006).  For a chunk of images, the taps of every channel
are gathered into one (images, channels * taps, pixels) matrix, which is
contracted against the (filters, channels * taps) kernel matrix.  The
forward pass and the weight gradient gather the K x K strided windows of
the input.  The transposed direction (the transposed conv and the input
gradient) is itself a direct convolution: at stride s each of the s x s
output phases ``out[:, :, pi::s, pj::s]`` is a stride-1 conv of the
upstream with the taps that reach that phase, channel-swapped (Dumoulin &
Visin, 2016), so it gathers too and nothing is scattered back.  The chunk
holds as many images as fit ``_COLUMN_BYTES``, so the buffer never grows
with the batch.  No BLAS product contracts more than ``_GEMM_DEPTH``
terms, so results do not depend on the BLAS thread count, and none is
wider than ``_GEMM_WIDTH`` pixels, where threaded OpenBLAS slows down.
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
        if w.shape[0] == 0 or w.shape[1] == 0:
            raise ShapeError(f"weights need at least one filter and one input "
                             f"channel, got shape {w.shape}")
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
    if 0 in x.shape:
        raise ShapeError(f"{name} has an empty extent: shape {x.shape}")
    if channels is not None and x.shape[1] != channels:
        raise ShapeError(f"{name} has {x.shape[1]} channels, kernel expects {channels}")
    if not isinstance(step, (int, np.integer)) or step < 1:
        raise ValueError(f"{step_name} must be a positive integer, got {step!r}")
    return x


def _check_bias(kernel: KernelStack, channels: int) -> None:
    if kernel.bias is not None and kernel.bias.shape[0] != channels:
        raise ShapeError(f"bias length {kernel.bias.shape[0]} != output channels {channels}")


def _tap_range(offset, stride, size, out_size):
    """(output slice, input slice) of one tap offset along one axis: the
    outputs whose tap lands inside the image and the input entries read;
    None if the tap lands only in the padding."""
    lo = max(0, -(offset // stride))
    hi = min(out_size, (size - 1 - offset) // stride + 1)
    if hi <= lo:
        return None
    return slice(lo, hi), slice(lo * stride + offset, (hi - 1) * stride + offset + 1, stride)


# Byte budget of one column buffer.  The batch is lowered a chunk of images
# at a time so the buffer stays cache-sized and the full-dataset loss pass
# never holds all K x K windows of its input at once; an image larger than
# the budget is lowered alone.  Median training times on a 2-core Xeon
# (2 MiB L2 per core), desk shape (20 x 64 x 64, c=2, K=3, 10 epochs) and
# wide-train shape (48 images, c=16, K=5, stride 2, 1 epoch): 0.25, 0.5,
# 1, 2 and 4 MiB gave 0.189, 0.179, 0.164, 0.169 and 0.182 s (desk) and
# 0.299, 0.281, 0.275, 0.285 and 0.285 s (wide).
_COLUMN_BYTES = 1 << 20


def _chunk(per_image_columns: int) -> int:
    """Images per chunk for ``per_image_columns`` float64 column entries."""
    return max(1, _COLUMN_BYTES // (8 * per_image_columns))


# Longest contraction handed to one BLAS call.  OpenBLAS cuts a product
# deeper than its block into pieces one way in its threaded driver and
# another in its serial one, so the sums, and every trained output, would
# change with OPENBLAS_NUM_THREADS.  With OpenBLAS 0.3.31 on a 2-core Xeon,
# 16 x K x 4096 products matched at 1 and 2 threads up to K = 384 and
# differed at K = 400; 256 leaves room for cores with a shallower block.
_GEMM_DEPTH = 256

# Widest product handed to one BLAS call, in output columns (pixels).  With
# OpenBLAS 0.3.31 at 2 threads on a 2-core Xeon, the (1 x 25) . (25 x 36864)
# and (1 x 49) . (49 x 36864) products of one 192 x 192 image at K = 5 and
# 7 took 8.0 ms each; at 1 thread, or cut into products of at most 4096
# columns, they took 0.39 and 0.73 ms.  A desk image is 4096 pixels.
_GEMM_WIDTH = 4096


def _matmul(a, b):
    """``a @ b`` for stacks a (..., M, K) and b (..., K, N), as products of
    at most ``_GEMM_WIDTH`` columns that each sum their K terms in blocks of
    at most ``_GEMM_DEPTH``, so the result does not depend on the BLAS
    thread count and no product is too wide to run fast."""
    width = b.shape[-1]
    if width <= _GEMM_WIDTH:
        return _deep_matmul(a, b)
    out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
                   + (a.shape[-2], width))
    for j in range(0, width, _GEMM_WIDTH):
        out[..., j:j + _GEMM_WIDTH] = _deep_matmul(a, b[..., j:j + _GEMM_WIDTH])
    return out


def _deep_matmul(a, b):
    """``a @ b`` with the K terms summed in blocks of ``_GEMM_DEPTH``."""
    depth = a.shape[-1]
    if depth <= _GEMM_DEPTH:
        return np.matmul(a, b)
    blocks, rest = divmod(depth, _GEMM_DEPTH)
    whole = blocks * _GEMM_DEPTH
    a_blocks = a[..., :whole].reshape(*a.shape[:-1], blocks,
                                      _GEMM_DEPTH).swapaxes(-2, -3)
    b_blocks = b[..., :whole, :].reshape(*b.shape[:-2], blocks, _GEMM_DEPTH,
                                         b.shape[-1])
    out = np.matmul(a_blocks, b_blocks).sum(axis=-3)
    if rest:
        out += np.matmul(a[..., whole:], b[..., whole:, :])
    return out


def _columns(x, offsets, stride, ro, co, density=None):
    """Yield ``(start, columns)`` for each chunk of images of ``x``: the
    (images, channels * Tr * Tc, ro * co) im2col matrix whose row (c, a, b)
    holds ``x[:, c, i * stride + offsets[0][a], j * stride + offsets[1][b]]``
    at output (i, j), for the Tr row and Tc column tap offsets in
    ``offsets``; zero outside the image and scaled by ``density[a, b]``
    when a density is given.  One buffer serves every chunk, so each
    matrix is valid until the next."""
    bsz, cin, rows, cols = x.shape
    row_offsets, col_offsets = offsets
    row_ranges = [_tap_range(o, stride, rows, ro) for o in row_offsets]
    col_ranges = [_tap_range(o, stride, cols, co) for o in col_offsets]
    # Taps that land only in the padding read nothing and stay zero.
    taps = [((slice(None), slice(None), a, b, rr[0], cr[0]),
             (slice(None), slice(None), rr[1], cr[1]))
            for a, rr in enumerate(row_ranges) if rr is not None
            for b, cr in enumerate(col_ranges) if cr is not None]
    depth = cin * len(row_offsets) * len(col_offsets)
    chunk = _chunk(depth * ro * co)
    # Zeroed once: every chunk writes the same in-image entries.
    buf = np.zeros((min(chunk, bsz), cin, len(row_offsets), len(col_offsets),
                    ro, co))
    for s0 in range(0, bsz, chunk):
        n = min(chunk, bsz - s0)
        col, xs = buf[:n], x[s0:s0 + n]
        for dst, src in taps:
            np.copyto(col[dst], xs[src])
        if density is not None:
            # One pass over the gathered taps: a multiply per tap, pixel
            # and channel, the weighted operator's cost over ``conv2d``.
            col *= density[:, :, None, None]
        yield s0, col.reshape(n, depth, ro * co)


def _centred(k):
    """Row and column offsets of the K x K taps of a forward window."""
    offsets = range(-(k // 2), k - k // 2)
    return offsets, offsets


def _contract(out, w2, x, offsets, stride, density=None):
    """Fill ``out`` (batch, M, ro, co), which may be a strided view, with
    the (M, depth) matrix ``w2`` times the columns of ``x`` that
    ``_columns`` gathers at ``offsets``, a chunk of images at a time."""
    _, m, ro, co = out.shape
    for s0, col in _columns(x, offsets, stride, ro, co, density):
        n = col.shape[0]
        out[s0:s0 + n] = _matmul(w2, col).reshape(n, m, ro, co)


def _forward(x, weights, density, bias, stride):
    bsz, cin, rows, cols = x.shape
    fout, _, k, _ = weights.shape
    out = np.empty((bsz, fout, -(-rows // stride), -(-cols // stride)))
    _contract(out, weights.reshape(fout, cin * k * k), x, _centred(k), stride,
              density)
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


def _phase_taps(k, stride, phase):
    """Taps of a K-tap kernel that reach the output phase ``phase`` of a
    stride-``stride`` transposed conv along one axis, and their offsets
    into the upstream: output ``phase + stride * u`` sums upstream
    ``u + offset`` at tap ``a``."""
    pad = k // 2
    taps = [a for a in range(k) if (a - pad - phase) % stride == 0]
    return taps, [(phase - a + pad) // stride for a in taps]


def _transposed(weights, upstream, rows, cols, stride):
    """Adjoint of the stride-``stride`` conv with ``weights``: the
    (batch, in_channels, rows, cols) map of ``upstream``.  Each of the
    stride x stride output phases ``out[:, :, pi::s, pj::s]`` is a stride-1
    conv of the upstream with the phase's taps, channel-swapped (Dumoulin &
    Visin, 2016); at stride 1 that is the whole flipped kernel."""
    _, cin, k, _ = weights.shape
    out = np.zeros((upstream.shape[0], cin, rows, cols))
    for pi in range(min(stride, rows)):
        row_taps, row_offsets = _phase_taps(k, stride, pi)
        for pj in range(min(stride, cols)):
            col_taps, col_offsets = _phase_taps(k, stride, pj)
            if not row_taps or not col_taps:
                continue  # no tap reaches this phase: it stays zero
            sub = weights[:, :, row_taps][:, :, :, col_taps]
            _contract(out[:, :, pi::stride, pj::stride],
                      sub.transpose(1, 0, 2, 3).reshape(cin, -1), upstream,
                      (row_offsets, col_offsets), 1)
    return out


def conv2d_transposed_weighted(y, kernel: KernelStack,
                               upsample: int = 1) -> np.ndarray:
    """Adjoint of the stride-``upsample`` convolution with ``kernel``, the
    density already folded in (``scale_kernel``).

    Maps (batch, filters, r, c) to (batch, in_channels, r * upsample,
    c * upsample); satisfies <conv(x), y> == <x, conv_T(y)> when the bias
    is absent.
    """
    y = _check_operand(y, kernel.filters, upsample, step_name="upsample factor")
    _check_bias(kernel, kernel.in_channels)
    out = _transposed(kernel.weights, y, y.shape[2] * upsample,
                      y.shape[3] * upsample, upsample)
    if kernel.bias is not None:
        out += kernel.bias[:, None, None]
    return out


class WeightGrad(NamedTuple):
    """Weight and bias gradients.  Unlike a ``KernelStack`` they are not
    checked for finiteness: an overflow is a divergence, which the
    trainer's loss check reports, not invalid input."""

    weights: np.ndarray
    bias: np.ndarray


def grad_weights(x, density, upstream, stride: int = 1) -> WeightGrad:
    """Loss gradient with respect to the kernel weights and bias.

    ``upstream`` is the loss gradient at the conv output.  The density
    multiplies each tap's gradient, giving the gradient of the weights
    behind the folded kernel; an all-ones density gives the plain
    gradient bit for bit.
    """
    x = _check_operand(x, None, stride)
    upstream = _check_operand(upstream, None, stride, "upstream")
    k = np.shape(density)[0] if np.ndim(density) else 0
    density = _check_density(density, k)
    if x.shape[0] != upstream.shape[0]:
        raise ShapeError("input and upstream must have matching batch")
    bsz, cin, rows, cols = x.shape
    _, fout, ro, co = upstream.shape
    if ro != -(-rows // stride) or co != -(-cols // stride):
        raise ShapeError(f"upstream spatial {ro}x{co} inconsistent with stride {stride}")
    up = upstream.reshape(bsz, fout, ro * co)
    gw = np.zeros((fout, cin * k * k))
    for s0, col in _columns(x, _centred(k), stride, ro, co):
        per_image = _matmul(up[s0:s0 + col.shape[0]], col.transpose(0, 2, 1))
        gw += per_image.sum(axis=0)
    gw = gw.reshape(fout, cin, k, k)
    gw *= density
    return WeightGrad(gw, upstream.sum(axis=(0, 2, 3)))


def grad_input(kernel: KernelStack, upstream, input_hw=None,
               stride: int = 1) -> np.ndarray:
    """Loss gradient with respect to the conv input (adjoint map on
    upstream) for ``kernel``, the density already folded in."""
    upstream = _check_operand(upstream, kernel.filters, stride, "upstream")
    if input_hw is None:
        input_hw = (upstream.shape[2] * stride, upstream.shape[3] * stride)
    rows, cols = input_hw
    if -(-rows // stride) != upstream.shape[2] or -(-cols // stride) != upstream.shape[3]:
        raise ShapeError(f"input size {rows}x{cols} inconsistent with upstream/stride")
    return _transposed(kernel.weights, upstream, rows, cols, stride)


def flop_count(rows: int, cols: int, filters: int, k: int, weighted: bool) -> int:
    """Operation count of the direct conv: R*C*F*(3 or 2)*K^2.

    The weighted form spends one extra multiply per tap and output pixel.
    """
    if min(rows, cols, filters, k) <= 0:
        raise ValueError("all dimensions must be positive")
    per_tap = 3 if weighted else 2
    return rows * cols * filters * per_tap * k * k
