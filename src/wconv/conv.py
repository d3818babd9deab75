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

Every operator but the two lowerings described further down is a gather
followed by ``np.matmul`` (im2col; Chellapilla, Puri & Simard, 2006).
For a chunk of images, the taps of every channel are gathered into one
(images, channels * taps, pixels) matrix, which is contracted against
the (filters, channels * taps) kernel matrix.  The forward pass and the
weight gradient gather the K x K strided windows of the input.  The
transposed direction (the transposed conv and the input
gradient) is itself a direct convolution: at stride s each of the s x s
output phases ``out[:, :, pi::s, pj::s]`` is a stride-1 conv of the
upstream with the taps that reach that phase, channel-swapped (Dumoulin &
Visin, 2016), so it gathers too and nothing is scattered back.  The chunk
holds as many images as fit ``_COLUMN_BYTES``, so the buffer never grows
with the batch.  No BLAS product contracts more than ``_GEMM_DEPTH``
terms, so results do not depend on the BLAS thread count, and none is
wider than ``_GEMM_WIDTH`` pixels, where threaded OpenBLAS slows down.

A transposed conv with many filters per input channel (``filters >=
_FILTERS_FIRST_RATIO * in_channels``, 8; a rule on the kernel's shape
alone) is lowered the other way round: its filters are contracted first,
``Z = W^T y`` with in_channels * K * K rows per upstream pixel, and each
tap's plane of Z is then added, shifted, into its output phase.  The
phase gather would move filters / in_channels times as much data: for 16
filters to 1 channel, K=5, stride 2, a call takes a third of the gather's
time.  With fewer filters per channel the K x K shifted additions cost
more than the gather saves (the measurements are at the constant), so
such kernels, the desk's 2 -> 1 among them, keep the gather.

A stride-1 ``conv2d``, and the fused stride-1 ``grad_input``, of a kernel
with at least ``_MEC_CHANNELS`` (4) filters and at least as many input
channels are lowered by rows instead (MEC; Cho & Brand, 2017); the rule
looks at the kernel's shape alone.  A chunk of images is copied K times,
once per column offset, into a buffer with K // 2 zero rows above and
below each image; im2col copies it K x K times.  One product of the
(filters * K, channels * K) weights with that buffer gives one plane per
filter and row offset.  The output is the sum of the K planes, each read
from its row offset on, added in the order of the offsets.  The fused
input gradient does the same with the flipped, channel-swapped kernel on
the upstream, and takes the weight gradient from one product of the
upstream's buffer with K row-shifted copies of the input.  Measured per
call, rows won for every kernel with at least 2 filters and 2 channels,
counting a layer's forward pass and fused gradient together (the numbers
are at the constant).  The constant is 4 to keep three sets of kernels on
the gather.  The desk's layers have at most 2 channels, so desk outputs
stay byte-identical.  Criterion 8 (1 -> 1) and ``bench``'s defaults (3
channels) time the weighted conv against the standard conv; the weighted
conv always gathers taps, because it scales each tap by the density, so
both must lower alike.  ``grad_weights`` always gathers too: no workload
calls it at stride 1 on a kernel above the constant.

A layer's backward pass takes both of its gradients from one gather, and
the gradient operators return only what that gather makes; the bias
gradient, the upstream summed per channel, is the layer's own.  The weight
gradient of a stride-1 conv is its input times the transposed upstream
columns that the input gradient gathers (``grad_input`` given the input,
stride 1 only), and the input gradient of a transposed conv is the strided
conv of the upstream windows that its weight gradient gathers
(``grad_weights`` given the kernel).  Every operator that training calls
writes into a caller's array when given one (``out``), so a training step
can reuse its buffers.  ``conv2d`` and the transposed conv may write over
their own input when it has the output's shape, which a loss-only pass
does to hold one activation fewer, and ``grad_weights`` given the kernel
may write its input gradient over its upstream, which a training step
does; the fused ``grad_input`` may not write over its input.
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


def _matmul(a, b, out=None):
    """``a @ b`` for stacks a (..., M, K) and b (..., K, N), as products of
    at most ``_GEMM_WIDTH`` columns that each sum their K terms in blocks of
    at most ``_GEMM_DEPTH``, so the result does not depend on the BLAS
    thread count and no product is too wide to run fast.  Written into
    ``out`` when given."""
    width = b.shape[-1]
    if width <= _GEMM_WIDTH:
        return _deep_matmul(a, b, out)
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
                       + (a.shape[-2], width))
    for j in range(0, width, _GEMM_WIDTH):
        _deep_matmul(a, b[..., j:j + _GEMM_WIDTH], out[..., j:j + _GEMM_WIDTH])
    return out


def _deep_matmul(a, b, out=None):
    """``a @ b`` with the K terms summed in blocks of ``_GEMM_DEPTH``,
    written into ``out`` when given."""
    depth = a.shape[-1]
    if depth <= _GEMM_DEPTH:
        return np.matmul(a, b, out=out)
    blocks, rest = divmod(depth, _GEMM_DEPTH)
    whole = blocks * _GEMM_DEPTH
    a_blocks = a[..., :whole].reshape(*a.shape[:-1], blocks,
                                      _GEMM_DEPTH).swapaxes(-2, -3)
    b_blocks = b[..., :whole, :].reshape(*b.shape[:-2], blocks, _GEMM_DEPTH,
                                         b.shape[-1])
    out = np.matmul(a_blocks, b_blocks).sum(axis=-3, out=out)
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


# Smallest channel count, of the filters and of the input channels alike,
# from which a stride-1 ``conv2d`` and the fused stride-1 ``grad_input``
# lower by rows (``_mec``) instead of gathering taps (im2col).  Medians of
# interleaved calls on a 2-core AMD EPYC, 8 images of 32 x 32, rows against
# the gather, for the forward and the fused gradient, over two or three
# runs (the gather slows more when other processes load the machine):
# 16 -> 16 channels at K=5 x0.36-0.56 and x0.56-0.70; 4 -> 4 at K=3
# x0.68-0.70 and x0.82-0.93, at K=5 x0.44-0.45 and x0.72-0.73; 2 -> 2 at
# K=3 x0.56-0.60 and x0.82-0.84.  With few filters for the gradient to
# gather, the gradient alone is slower and the layer still faster: 16 -> 4
# at K=3 x0.52-0.53 and x1.25.  Below 4 the desk, criterion 8 and
# ``bench`` shapes keep the gather (see the module docstring).
_MEC_CHANNELS = 4


def _lowers_by_rows(weights) -> bool:
    """Whether a stride-1 conv with ``weights`` takes the MEC lowering."""
    return min(weights.shape[:2]) >= _MEC_CHANNELS


def _mec(x, weights, out, y=None):
    """Stride-1 conv of ``x`` with ``weights`` (M, channels, K, K) into
    ``out`` (batch, M, rows, cols), which may be a strided view, lowered by
    rows (MEC; Cho & Brand, 2017), a chunk of images at a time.

    The chunk is copied once per column offset b into a row buffer of
    (images, channels, K, rows + K - 1, cols), with K // 2 zero rows above
    and below each image: row (c, b) holds ``x[:, c, r - K // 2,
    j + b - K // 2]`` at padded row r and column j, zero outside the image.
    One product of depth channels * K, of the (M * K, channels * K) weights
    with rows (f, a) and the buffer, gives a plane per filter f and row
    offset a, and ``out`` is the sum over a, in the order of a, of plane a
    read from padded row a on.

    With ``y`` (batch, N, rows, cols), also return the (channels * K,
    N * K) sum over images of the row buffer times the transposed row
    shifts of ``y``, else None: entry ((c, b), (n, a)) sums
    ``x[:, c, i, j + b - K // 2] * y[:, n, i + a - K // 2, j]`` over pixels
    (i, j).  The shifts are K copies of the chunk of ``y``, one per row
    offset, into a buffer of the row buffer's shape, so the sum is one
    product per chunk."""
    bsz, _, rows, cols = x.shape
    m, cin, k, _ = weights.shape
    pad, padded = k // 2, rows + k - 1
    ny = 0 if y is None else y.shape[1]
    # The chunk's budget holds its buffers and its product.
    chunk = min(_chunk((cin + m + ny) * k * padded * cols), bsz)
    # Zeroed once: every chunk writes the same in-image entries.
    buf = np.zeros((chunk, cin, k, padded, cols))
    flat = buf.reshape(chunk, cin * k, padded * cols)
    col_ranges = [_tap_range(b - pad, 1, cols, cols) for b in range(k)]
    copies = [((slice(None), slice(None), b, slice(pad, pad + rows), cr[0]),
               (Ellipsis, cr[1]))
              for b, cr in enumerate(col_ranges) if cr is not None]
    w2 = weights.transpose(0, 2, 1, 3).reshape(m * k, cin * k)
    planes = np.empty((chunk, m, k, padded, cols))
    acc = None
    if y is not None:
        shifts = np.zeros((chunk, ny, k, padded, cols))
        row_ranges = [_tap_range(a - 2 * pad, 1, rows, padded) for a in range(k)]
        shift_copies = [((slice(None), slice(None), a, rr[0]),
                         (Ellipsis, rr[1], slice(None)))
                        for a, rr in enumerate(row_ranges) if rr is not None]
        acc = np.zeros((cin * k, ny * k))
    for s0 in range(0, bsz, chunk):
        n = min(chunk, bsz - s0)
        for dst, src in copies:
            np.copyto(buf[:n][dst], x[s0:s0 + n][src])
        _matmul(w2, flat[:n], planes[:n].reshape(n, m * k, padded * cols))
        target = out[s0:s0 + n]
        np.copyto(target, planes[:n, :, 0, :rows])
        for a in range(1, k):
            target += planes[:n, :, a, a:a + rows]
        if y is not None:
            for dst, src in shift_copies:
                np.copyto(shifts[:n][dst], y[s0:s0 + n][src])
            sflat = shifts[:n].reshape(n, ny * k, padded * cols)
            acc += _matmul(flat[:n], sflat.swapaxes(1, 2)).sum(axis=0)
    return acc


def _contract(x, offsets, stride, ro, co, density=None, *, w2=None, out=None,
              up=None):
    """One gather of the columns of ``x`` that ``_columns`` makes at
    ``offsets``, a chunk of images at a time, feeding up to two products:
    ``out`` (batch, M, ro, co), which may be a strided view, is filled with
    the (M, depth) matrix ``w2`` times the columns, and with ``up``
    (batch, N, ro * co) the (N, depth) sum over images of ``up`` times the
    transposed columns is returned, else None.  A chunk's rows of ``up``
    are read before its rows of ``out`` are written, so ``out`` may be the
    array that ``up`` reshapes."""
    depth = x.shape[1] * len(offsets[0]) * len(offsets[1])
    acc = None if up is None else np.zeros((up.shape[1], depth))
    for s0, col in _columns(x, offsets, stride, ro, co, density):
        n = col.shape[0]
        if up is not None:
            acc += _matmul(up[s0:s0 + n], col.transpose(0, 2, 1)).sum(axis=0)
        if w2 is not None:
            dst = out[s0:s0 + n]
            if dst.flags.c_contiguous:
                _matmul(w2, col, dst.reshape(n, -1, ro * co))
            else:
                dst[...] = _matmul(w2, col).reshape(n, -1, ro, co)
    return acc


def _output(out, shape):
    """``out``, checked to have ``shape``, or a new array of that shape."""
    if out is None:
        return np.empty(shape)
    if out.shape != shape:
        raise ShapeError(f"out has shape {out.shape}, the result {shape}")
    return out


def _forward(x, weights, density, bias, stride, out=None):
    bsz, cin, rows, cols = x.shape
    fout, _, k, _ = weights.shape
    ro, co = -(-rows // stride), -(-cols // stride)
    out = _output(out, (bsz, fout, ro, co))
    if density is None and stride == 1 and _lowers_by_rows(weights):
        _mec(x, weights, out)
    else:
        _contract(x, _centred(k), stride, ro, co, density,
                  w2=weights.reshape(fout, cin * k * k), out=out)
    if bias is not None:
        out += bias[:, None, None]
    return out


def conv2d(x, kernel: KernelStack, stride: int = 1, *, out=None) -> np.ndarray:
    """Standard convolution; output (batch, filters, ceil(R/s), ceil(C/s)),
    written into ``out`` when given.

    ``out`` may be ``x`` itself (stride 1 and as many filters as input
    channels), and the result is the same to the bit.  Both lowerings work
    a chunk of images at a time and copy the chunk into a buffer of their
    own before they write its outputs (``_columns`` gathers its columns,
    ``_mec`` copies it into its row buffer), and no chunk's outputs depend
    on another chunk's images, so every input image is read before its
    output overwrites it."""
    x = _check_operand(x, kernel.in_channels, stride)
    _check_bias(kernel, kernel.filters)
    return _forward(x, kernel.weights, None, kernel.bias, stride, out)


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


def _transposed(weights, upstream, rows, cols, stride, out=None, x=None):
    """Adjoint of the stride-``stride`` conv with ``weights``: the
    (batch, in_channels, rows, cols) map of ``upstream``.  Each of the
    stride x stride output phases ``out[:, :, pi::s, pj::s]`` is a stride-1
    conv of the upstream with the phase's taps, channel-swapped (Dumoulin &
    Visin, 2016); at stride 1 that is the whole flipped kernel.  With the
    conv's input ``x`` (stride 1 only), also return the (in_channels,
    filters * K * K) sum over images of ``x`` times the transposed upstream
    columns, taps in ``_phase_taps`` order: the weight gradient, from the
    gather the input gradient makes anyway."""
    bsz = upstream.shape[0]
    _, cin, k, _ = weights.shape
    out = _output(out, (bsz, cin, rows, cols))
    xs = None if x is None else x.reshape(bsz, cin, rows * cols)
    acc = None
    for pi in range(min(stride, rows)):
        row_taps, row_offsets = _phase_taps(k, stride, pi)
        for pj in range(min(stride, cols)):
            col_taps, col_offsets = _phase_taps(k, stride, pj)
            phase = out[:, :, pi::stride, pj::stride]
            if not row_taps or not col_taps:
                phase[...] = 0.0  # no tap reaches this phase
                continue
            sub = weights[:, :, row_taps][:, :, :, col_taps]
            w2 = sub.transpose(1, 0, 2, 3).reshape(cin, -1)
            acc = _contract(upstream, (row_offsets, col_offsets), 1,
                            *phase.shape[2:], w2=w2, out=phase, up=xs)
    return out, acc


# Filters per input channel from which the transposed conv contracts the
# filters before it shifts (``_filters_first``) instead of gathering every
# filter's windows (``_transposed``).  Contracting first moves in_channels
# / filters of the data, but adds K x K shifted planes per chunk one numpy
# call at a time.  Medians of 60 interleaved calls on a 2-core Xeon, K=5,
# stride 2, 32 x 32 upstream, filters first against the gather: 16 -> 1
# channels 0.93 against 2.74 ms for 8 images (x0.34) and 5.0 against 16.3
# ms for 48; 8 -> 1 x0.52.  At 4 filters per channel two runs read x0.76
# and x0.82 (4 -> 1) but x0.84 and x1.04 (16 -> 4), no steady gain; below
# that it is slower: x1.36 at 4 -> 2 and at the desk's 2 -> 1 (20 images
# of 64 x 64, K=3, stride 1).
_FILTERS_FIRST_RATIO = 8


def _filters_first(weights, upstream, stride, out=None):
    """The map of ``_transposed`` at ``upsample = stride``, contracted the
    other way round, a chunk of images at a time: first ``Z = W^T y``,
    in_channels * K * K values per upstream pixel; then each tap adds its
    plane of Z, shifted by the tap's offset, into the one output phase
    that the tap reaches.  The phases are summed in a contiguous buffer
    and copied into ``out`` once."""
    bsz, fout, r, c = upstream.shape
    _, cin, k, _ = weights.shape
    out = _output(out, (bsz, cin, r * stride, c * stride))
    chunk = min(_chunk(cin * k * k * r * c), bsz)
    z = np.empty((chunk, cin, k, k, r, c))
    phases = np.empty((chunk, cin, stride, stride, r, c))
    # (phase slice, plane of Z) of every tap that lands inside the upstream.
    adds = []
    for pi in range(stride):
        row_taps = [(a, _tap_range(o, 1, r, r))
                    for a, o in zip(*_phase_taps(k, stride, pi))]
        for pj in range(stride):
            col_taps = [(b, _tap_range(o, 1, c, c))
                        for b, o in zip(*_phase_taps(k, stride, pj))]
            adds += [(phases[:, :, pi, pj, rr[0], cr[0]], z[:, :, a, b, rr[1], cr[1]])
                     for a, rr in row_taps if rr is not None
                     for b, cr in col_taps if cr is not None]
    wt = weights.reshape(fout, cin * k * k).T
    ys = upstream.reshape(bsz, fout, r * c)
    for s0 in range(0, bsz, chunk):
        n = min(chunk, bsz - s0)
        _matmul(wt, ys[s0:s0 + n], z[:n].reshape(n, cin * k * k, r * c))
        phases.fill(0.0)  # a phase or pixel that no tap reaches stays zero
        for dst, src in adds:
            dst = dst[:n]
            np.add(dst, src[:n], out=dst)
        for pi in range(stride):
            for pj in range(stride):
                out[s0:s0 + n, :, pi::stride, pj::stride] = phases[:n, :, pi, pj]
    return out


def conv2d_transposed_weighted(y, kernel: KernelStack, upsample: int = 1, *,
                               out=None) -> np.ndarray:
    """Adjoint of the stride-``upsample`` convolution with ``kernel``, the
    density already folded in (``scale_kernel``).

    Maps (batch, filters, r, c) to (batch, in_channels, r * upsample,
    c * upsample), written into ``out`` when given; satisfies
    <conv(x), y> == <x, conv_T(y)> when the bias is absent.  A kernel with
    at least ``_FILTERS_FIRST_RATIO`` filters per input channel contracts
    its filters first (``_filters_first``); any other gathers per phase.

    ``out`` may be ``y`` itself (upsample 1 and as many filters as input
    channels), and the result is the same to the bit: such a kernel
    gathers its one phase a chunk of images at a time, as ``conv2d`` does,
    before it writes the chunk's outputs.
    """
    y = _check_operand(y, kernel.filters, upsample, step_name="upsample factor")
    _check_bias(kernel, kernel.in_channels)
    if kernel.filters >= _FILTERS_FIRST_RATIO * kernel.in_channels:
        out = _filters_first(kernel.weights, y, upsample, out)
    else:
        out, _ = _transposed(kernel.weights, y, y.shape[2] * upsample,
                             y.shape[3] * upsample, upsample, out)
    if kernel.bias is not None:
        out += kernel.bias[:, None, None]
    return out


class WeightGrad(NamedTuple):
    """The weight gradient, and a layer's input gradient (``input``) when
    the call made it from the same gather; no bias gradient.  Unlike a
    ``KernelStack`` they are not checked for finiteness: an overflow is a
    divergence, which the trainer's loss check reports, not invalid input."""

    weights: np.ndarray
    input: np.ndarray | None = None


def grad_weights(x, density, upstream, stride: int = 1, *,
                 kernel: KernelStack | None = None, out=None) -> WeightGrad:
    """Loss gradient with respect to the kernel weights.

    ``upstream`` is the loss gradient at the conv output.  The density
    multiplies each tap's gradient, giving the gradient of the weights
    behind the folded kernel; an all-ones density gives the plain
    gradient bit for bit.

    With ``kernel``, the folded kernel of this conv, ``input`` is also
    ``conv2d(x, KernelStack(kernel.weights), stride)`` (written into
    ``out`` when given), from the windows of ``x`` the weight gradient
    gathers: the input gradient of the transposed conv layer that maps
    ``upstream`` back to ``x``, whose weight gradient this is.  An input
    gradient has no bias, so ``kernel.bias`` is ignored.  ``out`` may be
    ``upstream`` itself, and the result is the same to the bit: each chunk
    of images reads its rows of the upstream before it writes its rows of
    ``out``, and no chunk reads another chunk's rows.
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
    if kernel is not None:
        if kernel.weights.shape != (fout, cin, k, k):
            raise ShapeError(f"kernel shape {kernel.weights.shape} does not match "
                             f"the gradient's {(fout, cin, k, k)}")
        out = _output(out, upstream.shape)
    gw = _contract(x, _centred(k), stride, ro, co,
                   w2=None if kernel is None else kernel.weights.reshape(fout, -1),
                   out=out, up=upstream.reshape(bsz, fout, ro * co))
    gw = gw.reshape(fout, cin, k, k)
    gw *= density
    return WeightGrad(gw, None if kernel is None else out)


def grad_input(kernel: KernelStack, upstream, input_hw=None, stride: int = 1,
               *, x=None, density=None, out=None):
    """Loss gradient with respect to the conv input (adjoint map on
    upstream) for ``kernel``, the density already folded in; written into
    ``out`` when given.

    With the conv's input ``x`` and its ``density`` (stride 1 only),
    returns the ``WeightGrad`` that ``grad_weights(x, density, upstream)``
    would, equal up to rounding, with the input gradient as its ``input``:
    the weight gradient is ``x`` times the transposed upstream columns
    that the input gradient gathers, so the pass gathers once.  ``out``
    must not overlap ``x``: the row lowering copies ``x`` into its row
    shifts after it writes a chunk's input gradient.
    """
    upstream = _check_operand(upstream, kernel.filters, stride, "upstream")
    if input_hw is None:
        input_hw = (upstream.shape[2] * stride, upstream.shape[3] * stride)
    rows, cols = input_hw
    if -(-rows // stride) != upstream.shape[2] or -(-cols // stride) != upstream.shape[3]:
        raise ShapeError(f"input size {rows}x{cols} inconsistent with upstream/stride")
    if x is None:
        return _transposed(kernel.weights, upstream, rows, cols, stride, out)[0]
    if stride != 1:
        raise ValueError(f"the fused input and weight gradient needs stride 1, "
                         f"got stride {stride}")
    x = _check_operand(x, kernel.in_channels, stride)
    if x.shape != (upstream.shape[0], kernel.in_channels, rows, cols):
        raise ShapeError(f"input shape {x.shape} does not match upstream and "
                         f"input size {rows}x{cols}")
    density = _check_density(density, kernel.k)
    fout, cin, k, _ = kernel.weights.shape
    if _lowers_by_rows(kernel.weights):
        # The adjoint is the conv with the flipped, channel-swapped kernel,
        # and entry ((f, b), (c, a)) of _mec's sum is the weight gradient
        # at tap (a, K - 1 - b).
        dx = _output(out, x.shape)
        flipped = kernel.weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        acc = _mec(upstream, flipped, dx, x)
        gw = acc.reshape(fout, k, cin, k).transpose(0, 2, 3, 1)[..., ::-1]
        gw = np.ascontiguousarray(gw)
    else:
        dx, acc = _transposed(kernel.weights, upstream, rows, cols, 1, out, x)
        gw = np.ascontiguousarray(acc.reshape(cin, fout, k, k).transpose(1, 0, 2, 3))
    gw *= density
    return WeightGrad(gw, dx)


def flop_count(rows: int, cols: int, filters: int, k: int, weighted: bool) -> int:
    """Operation count of the direct conv: R*C*F*(3 or 2)*K^2.

    The weighted form spends one extra multiply per tap and output pixel.
    """
    if min(rows, cols, filters, k) <= 0:
        raise ValueError("all dimensions must be positive")
    per_tap = 3 if weighted else 2
    return rows * cols * filters * per_tap * k * k
