"""Image-to-image learning model and its plain-SGD trainer.

The model is three density-weighted convolution layers, each followed by
batch normalisation and a ReLU: a strided 1->c layer, a c->c layer, and a
transposed c->1 layer that undoes the stride.  All three share one density
matrix, which scales kernel taps but is never trained; the trainable
parameters (weights, biases, batch-norm scale/shift) are updated with
stochastic gradient descent on the mean squared error.  Each layer folds
the density into its kernel once per step and runs the plain conv
operators; no density folds as all ones, which changes no weight.

The training set is held once, as a ``Dataset``: stacked (N, 1, rows,
cols) noisy and clean arrays, which a full-batch step and every pass over
the whole set read as they are, without a copy; a minibatch step copies
its batch's rows.  No pass writes the network's input.

Only a pass that a backward pass will read keeps activations.  A training
step's forward pass (``keep=True``, the default) caches each conv's input
and each batch norm's normalised input and rectified output, from which
the backward pass reads the ReLU masks.  A training step holds exactly
what its backward pass reads, carved out of one block when a batch shape
first appears and reused while it holds: per layer, batch norm's
normalised input and rectified output, and one bool ReLU mask of conv3's
input shape.  There are no working arrays.  Each conv writes its output
into its batch norm's normalised input, which batch norm normalises in
place, and the backward pass writes each operator's result over an array
that is dead after it (Chen, Xu, Zhang & Guestrin, 2016, §3), so a step
allocates nothing large after the first.  A loss-only pass (``keep=False``:
the trainer's final loss, a minibatch run's initial loss) drops that
block, caches nothing and works in place: batch norm and the ReLU
overwrite each conv output, and a conv whose output has its input's shape
(the c->c layer) writes it over that input, which no later operation
reads.  Its memory is then one layer output plus a conv's chunk buffers,
rather than every layer's caches for the whole dataset.  A minibatch
run's initial loss is computed only when it is read, on a fresh model
initialised alike; a full-batch run takes it from its first step's forward
pass.

Batch norm normalises with each batch's own statistics in training and
in a loss-only pass, and stores them.  ``DenoiseNet.infer`` (a holdout
score) normalises with the stored ones instead, which after training are
those of the final loss pass over the whole training set, so an image's
score does not depend on the images it is scored with.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .conv import (KernelStack, conv2d, conv2d_transposed_weighted,
                   conv2d_weighted,  # uncalled: the benchmark's tracer wraps it here
                   grad_input, grad_weights)
from .errors import DegenerateBatchError, DivergenceError, ShapeError


@dataclass
class ModelConfig:
    channels: int = 4
    stride: int = 1
    kernel: int = 3
    density: np.ndarray | None = None
    epochs: int = 20
    learning_rate: float = 0.01
    batch_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError(f"kernel extent must be odd, got {self.kernel}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, "
                             f"got {self.learning_rate}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.density is not None:
            d = np.asarray(self.density, dtype=np.float64)
            if d.shape != (self.kernel, self.kernel):
                raise ShapeError(
                    f"density shape {d.shape} does not match kernel "
                    f"{self.kernel}x{self.kernel}"
                )
            self.density = d


def kaiming_init(shape, fan_in: int, seed) -> np.ndarray:
    """Zero-mean normal draws with standard deviation sqrt(2 / fan_in)."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def mse_loss(pred, target) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff))


def _cached(value):
    """An array that a forward pass cached for the backward pass."""
    if value is None:
        raise RuntimeError("backward needs the caches of a forward pass "
                           "run with keep=True")
    return value


def _reuse(buf, shape):
    """``buf`` if it has ``shape``, otherwise a new array of that shape."""
    return buf if buf is not None and buf.shape == shape else np.empty(shape)


# Bytes of one channel block of batch norm's elementwise passes.  A block's
# input, normalised input and output stay in cache across the passes over
# it: on a 2-core Xeon (4 MiB L2 per core), BatchNorm2d.forward at the desk
# shape (20 x 2 x 64 x 64, 0.66 MB per channel) took 0.48 ms a channel at a
# time and 0.79 ms over both channels at once.  A block holds at least one
# channel.
_CHANNEL_BLOCK_BYTES = 1 << 20


def _channel_blocks(x) -> list[slice]:
    """Slices of the channels of ``x`` in blocks of ``_CHANNEL_BLOCK_BYTES``."""
    per_channel = x.nbytes // x.shape[1]
    step = max(1, _CHANNEL_BLOCK_BYTES // per_channel)
    return [slice(c, c + step) for c in range(0, x.shape[1], step)]


class BatchNorm2d:
    """Per-channel normalisation over (batch, row, col).

    ``forward`` (training mode) normalises with the batch's own statistics
    and stores them; ``infer`` (inference mode; Ioffe & Szegedy, 2015,
    §3.1) normalises with the stored ones, so that each image's output
    does not depend on the rest of its batch.  ``mean`` and ``var`` hold
    the per-channel mean and variance of the last ``forward`` pass, None
    before it.  The variance is the biased one, the mean square over the
    pass's count m of samples per channel, with no m/(m-1) factor: the
    statistics that ``infer`` is given are those of the whole training
    set, from ``sgd_train``'s final loss pass, not an estimate averaged
    over minibatches, and ``infer`` on that same set then gives the bits
    of the pass.  (At the desk shape the factor would be 1 + 1.2e-5.)

    A ``keep=True`` pass writes the normalised input, which ``backward``
    reads, and the output into arrays the layer owns and reuses from one
    training step to the next while the input shape holds.
    """

    EPS = 1e-5  # added to the variance before its square root

    def __init__(self, channels: int):
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.grad_gamma = np.zeros(channels)
        self.grad_beta = np.zeros(channels)
        self.mean = self.var = None
        self.release()

    def release(self) -> None:
        """Drop the kept arrays, so that ``backward`` raises."""
        self._xhat = self._inv_std = self._out = None

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        """``x`` normalised with its own batch statistics, which are stored
        in ``mean`` and ``var``, then scaled and shifted.  ``keep`` writes
        the normalised input into the layer's ``_xhat`` for ``backward``
        and returns the layer's output array, ``_out``; the next pass of
        the same shape writes both again.  ``x`` may be ``_xhat`` itself (a
        training step's conv writes its output there), and is then
        normalised in place; any other ``x`` is left as it is.  With
        ``keep=False`` nothing is kept, an earlier pass's arrays are
        dropped, and ``x`` itself is overwritten with the result and
        returned: the same operations in the same order, so the same
        bits."""
        count = x.shape[0] * x.shape[2] * x.shape[3]
        if count < 2:
            raise DegenerateBatchError(
                f"need at least 2 samples per channel, got {count}"
            )
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        if keep:
            xhat = _reuse(self._xhat, x.shape)
            out = self._out = _reuse(self._out, x.shape)
        else:
            self.release()
            xhat = out = x
        blocks = _channel_blocks(x)
        for c in blocks:
            np.subtract(x[:, c], mean[:, c], out=xhat[:, c])
        var = np.einsum("bcij,bcij->c", xhat, xhat) / count
        self.mean, self.var = mean.ravel(), var
        inv_std = 1.0 / np.sqrt(var[:, None, None] + self.EPS)
        if keep:
            self._xhat, self._inv_std = xhat, inv_std
        self._scale_shift(xhat, out, inv_std, blocks)
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        """``x`` normalised with the stored ``mean`` and ``var``, then scaled
        and shifted, overwritten with the result and returned; nothing is
        kept.  Each element goes through the operations of ``forward``, in
        the same order."""
        if self.var is None:
            raise RuntimeError("infer needs the statistics of a forward pass")
        blocks = _channel_blocks(x)
        mean = self.mean[None, :, None, None]
        for c in blocks:
            np.subtract(x[:, c], mean[:, c], out=x[:, c])
        self._scale_shift(x, x, 1.0 / np.sqrt(self.var[:, None, None] + self.EPS),
                          blocks)
        return x

    def _scale_shift(self, xhat, out, inv_std, blocks) -> None:
        """``out = gamma * (xhat * inv_std) + beta``, where ``xhat`` is the
        centred input; ``xhat`` is scaled in place, and ``out`` may be it."""
        gamma, beta = self.gamma[:, None, None], self.beta[:, None, None]
        for c in blocks:
            xc, oc = xhat[:, c], out[:, c]
            xc *= inv_std[c]
            np.multiply(xc, gamma[c], out=oc)
            oc += beta[c]

    def backward(self, upstream: np.ndarray, out=None) -> np.ndarray:
        """The input gradient, written into ``out`` when given; fills the
        parameter gradients.

        ``out`` may be the layer's own ``_xhat``, and the result is the same
        to the bit: both reductions read ``_xhat`` before the loop, and in
        each channel block the first write to ``out`` reads the block's
        ``_xhat`` first.  ``_xhat`` then holds the gradient, so a second
        ``backward`` needs a new forward pass.  ``out`` must not be
        ``upstream``, which each block reads after its first write."""
        # With g = gamma * upstream, mean(g) = gamma * grad_beta / count and
        # mean(g * xhat) = gamma * grad_gamma / count, so the two parameter
        # gradients are the only reductions the input gradient needs.
        xhat = _cached(self._xhat)
        count = xhat.size // xhat.shape[1]
        self.grad_gamma = np.einsum("bcij,bcij->c", upstream, xhat)
        self.grad_beta = np.einsum("bcij->c", upstream)
        a = (self.grad_gamma / count)[:, None, None]
        b = (self.grad_beta / count)[:, None, None]
        scale = self.gamma[:, None, None] * self._inv_std
        dx = np.empty(xhat.shape) if out is None else out
        for c in _channel_blocks(xhat):
            dc = dx[:, c]
            np.multiply(xhat[:, c], a[c], out=dc)
            np.subtract(upstream[:, c], dc, out=dc)
            dc -= b[c]
            dc *= scale[c]
        return dx


class _WeightedConv:
    """Conv layer that runs the plain operators on ``folded = density *
    kernel``, refolded every forward pass; its weight gradient is
    ``density * dL/dfolded``, which ``grad_weights`` returns given the
    density, and its bias gradient the upstream summed per channel."""

    def __init__(self, kernel: KernelStack, density: np.ndarray, stride: int):
        self.kernel = kernel
        self.density = density
        self.stride = stride
        self.folded = KernelStack(kernel.weights.copy(), kernel.bias)  # shares the bias
        self._fold()
        self.grad_w = np.zeros_like(kernel.weights)
        self.grad_b = np.zeros_like(kernel.bias)
        self._x = None

    def _fold(self) -> KernelStack:
        # In place rather than through scale_kernel, here and in __init__: a
        # fold that overflows, from a huge density or from weights that
        # overflowed in the last step, must reach sgd_train's divergence
        # check, not KernelStack's finiteness check.
        np.multiply(self.kernel.weights, self.density, out=self.folded.weights)
        return self.folded

    def out_shape(self, shape) -> tuple:
        """The output shape for an input of ``shape``."""
        s = self.stride
        return (shape[0], self.kernel.filters, -(-shape[2] // s), -(-shape[3] // s))

    def forward(self, x: np.ndarray, *, keep: bool = True, out=None) -> np.ndarray:
        """The layer's output, written into ``out`` when given; ``keep``
        caches ``x`` for ``backward``."""
        self._x = x if keep else None
        return conv2d(x, self._fold(), self.stride, out=out)

    def backward(self, upstream: np.ndarray, input_grad: bool = True, out=None):
        """Fill the parameter gradients; return the input gradient, written
        into ``out`` when given, only if ``input_grad`` asks for it.  Both
        gradients come from one gather of the upstream (``grad_input``)."""
        x = _cached(self._x)
        if input_grad:
            g = grad_input(self.folded, upstream, x.shape[2:], self.stride,
                           x=x, density=self.density, out=out)
        else:
            g = grad_weights(x, self.density, upstream, stride=self.stride)
        self.grad_w = g.weights
        self.grad_b = upstream.sum(axis=(0, 2, 3))
        return g.input


class _TransposedWeightedConv(_WeightedConv):
    """The adjoint of a strided conv layer, upsampling by ``stride``."""

    def out_shape(self, shape) -> tuple:
        s = self.stride
        return (shape[0], self.kernel.in_channels, shape[2] * s, shape[3] * s)

    def forward(self, y: np.ndarray, *, keep: bool = True, out=None) -> np.ndarray:
        """The layer's output, written into ``out`` when given; ``keep``
        caches ``y`` for ``backward``."""
        self._x = y if keep else None
        return conv2d_transposed_weighted(y, self._fold(), self.stride, out=out)

    def backward(self, upstream: np.ndarray, out=None) -> np.ndarray:
        # The forward map is the adjoint of a strided conv, so the weight
        # gradient swaps the roles of input and upstream, and the input
        # gradient is the strided conv itself, without the bias: both read
        # the upstream's windows, gathered once.
        g = grad_weights(upstream, self.density, _cached(self._x),
                         stride=self.stride, kernel=self.folded, out=out)
        self.grad_w = g.weights
        self.grad_b = upstream.sum(axis=(0, 2, 3))
        return g.input


class DenoiseNet:
    """Three weighted conv layers with batch norm and ReLU after each."""

    def __init__(self, cfg: ModelConfig):
        c, k, s = cfg.channels, cfg.kernel, cfg.stride
        density = np.ones((k, k)) if cfg.density is None else cfg.density
        self.cfg = cfg
        w1 = kaiming_init((c, 1, k, k), fan_in=k * k, seed=[cfg.seed, 0])
        w2 = kaiming_init((c, c, k, k), fan_in=c * k * k, seed=[cfg.seed, 1])
        w3 = kaiming_init((c, 1, k, k), fan_in=c * k * k, seed=[cfg.seed, 2])
        self.conv1 = _WeightedConv(KernelStack(w1, np.zeros(c)), density, s)
        self.conv2 = _WeightedConv(KernelStack(w2, np.zeros(c)), density, 1)
        self.conv3 = _TransposedWeightedConv(KernelStack(w3, np.zeros(1)), density, s)
        self.bn1 = BatchNorm2d(c)
        self.bn2 = BatchNorm2d(c)
        self.bn3 = BatchNorm2d(1)
        self._layers = [(self.conv1, self.bn1), (self.conv2, self.bn2),
                        (self.conv3, self.bn3)]
        self.release()

    def release(self) -> None:
        """Drop every cache and the step block, so that ``backward`` raises."""
        for conv, bn in self._layers:
            conv._x = None
            bn.release()
        self._mask = self._shape = None

    def _allocate(self, shape) -> None:
        """Carve what a training step holds for inputs of ``shape`` out of
        one array: each batch norm's normalised input and rectified output,
        and one bool ReLU mask of conv3's input shape, last.  Each conv
        writes its output into its batch norm's normalised input, and the
        backward pass writes each operator's result over an array that is
        dead after it, so the step needs no working arrays.  A training
        then returns its arrays to the allocator as one block, which the
        next training gets back whole instead of faulting in fresh pages."""
        self.release()
        shapes, out = [], shape
        for conv, _ in self._layers:
            out = conv.out_shape(out)
            shapes.append(out)
        sizes = [math.prod(s) for s in shapes]
        floats = 2 * sum(sizes)
        block = np.empty(8 * floats + sizes[1], dtype=np.uint8)
        views = block[:8 * floats].view(np.float64)
        start = 0
        for (_, bn), s, size in zip(self._layers, shapes, sizes):
            bn._xhat = views[start:start + size].reshape(s)
            bn._out = views[start + size:start + 2 * size].reshape(s)
            start += 2 * size
        self._mask = block[8 * floats:].view(np.bool_).reshape(shapes[1])
        self._shape = shape

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        """The (batch, 1, rows, cols) output for a (batch, 1, rows, cols) input.

        ``keep`` (a training step) caches what ``backward`` reads: each
        conv's input and each batch norm's normalised input and rectified
        output.  Each conv writes its output into its batch norm's
        normalised input, which batch norm normalises in place, and every
        array lies in the step block, which the next pass of the same batch
        shape reuses.  The returned array is the last rectified output, and
        ``backward`` writes over it, so it is valid until the next
        ``forward`` or ``backward``.  A loss-only pass sets ``keep=False``: it
        caches nothing, drops the caches and the block of earlier passes so
        that ``backward`` raises, and works in place (``_in_place``).  The
        output is the same either way, to the bit.  Every pass stores each
        batch norm's statistics, which ``infer`` reads.
        """
        x = self._checked(x)
        if not keep:
            return self._in_place(x, lambda bn, h: bn.forward(h, keep=False))
        if x.shape != self._shape:
            self._allocate(x.shape)
        h = x
        for conv, bn in self._layers:
            h = bn.forward(conv.forward(h, out=bn._xhat))
            np.maximum(h, 0.0, out=h)
        return h

    def infer(self, x: np.ndarray) -> np.ndarray:
        """The output for ``x`` in inference mode: each batch norm normalises
        with the statistics that its last ``forward`` stored
        (``BatchNorm2d.infer``), so no image's output depends on the other
        images in ``x``.  After ``sgd_train`` these are the statistics of
        its final loss pass, the training set's under the final weights.
        Works in place as a loss-only pass does, and stores nothing."""
        return self._in_place(self._checked(x), BatchNorm2d.infer)

    def _checked(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != 1:
            raise ShapeError(f"expected (batch, 1, rows, cols), got {x.shape}")
        s = self.cfg.stride
        if x.shape[2] % s or x.shape[3] % s:
            raise ShapeError(f"spatial dims {x.shape[2:]} not divisible by stride {s}")
        return x

    def _in_place(self, x, normalise) -> np.ndarray:
        """A pass that keeps nothing, with ``normalise(bn, h)`` for each
        batch norm.  It first drops the caches and the block of earlier
        passes, then normalises and rectifies each conv output in place, so
        each layer's input is freed once the next conv has read it.  A conv
        whose output shape is its input shape writes its output over that
        input, unless the input is ``x``: the caller's array is never
        written."""
        self.release()
        h = x
        for conv, bn in self._layers:
            # conv2d and its transpose may write over their own input.
            out = h if conv.out_shape(h.shape) == h.shape and h is not x else None
            h = normalise(bn, conv.forward(h, keep=False, out=out))
            np.maximum(h, 0.0, out=h)
        return h

    def backward(self, upstream: np.ndarray) -> None:
        """Fill every layer's parameter gradients from the loss gradient at
        the output, using the caches of the last ``forward``, which must
        have kept them; returns nothing.  Each ReLU's mask is read from the
        rectified output that batch norm kept.  Every operator writes its
        result over an array that is dead after it: the output gradient
        over the output, each batch norm's input gradient over its
        normalised input, conv3's input gradient over its own input (after
        its mask is taken) and conv2's over conv2's output, which is dead
        once batch norm 2's gradient is made; ``upstream`` is not written.
        So a backward pass consumes the caches: it drops each conv's input,
        and a second ``backward`` raises until the next ``forward``.  The
        gradient at the network input is never computed: no caller reads
        it."""
        h2 = _cached(self.conv3._x)  # batch norm 2's rectified output
        out3 = self.bn3._out
        g = np.multiply(upstream, out3 > 0, out=out3)
        g = self.bn3.backward(g, out=self.bn3._xhat)
        np.greater(h2, 0.0, out=self._mask)
        g = self.conv3.backward(g, out=h2)
        g *= self._mask
        g = self.bn2.backward(g, out=self.bn2._xhat)
        g = self.conv2.backward(g, out=h2)
        np.greater(self.bn1._out, 0.0, out=self._mask)
        g *= self._mask
        g = self.bn1.backward(g, out=self.bn1._xhat)
        self.conv1.backward(g, input_grad=False)
        for conv, _ in self._layers:
            conv._x = None

    def params(self) -> list[np.ndarray]:
        out = []
        for conv, bn in self._layers:
            out += [conv.kernel.weights, conv.kernel.bias, bn.gamma, bn.beta]
        return out

    def grads(self) -> list[np.ndarray]:
        out = []
        for conv, bn in self._layers:
            out += [conv.grad_w, conv.grad_b, bn.grad_gamma, bn.grad_beta]
        return out

    @property
    def param_count(self) -> int:
        return sum(p.size for p in self.params())


@dataclass(frozen=True, eq=False)
class Dataset:
    """(noisy, clean) image pairs, held once: ``noisy`` and ``clean`` are
    stacked (N, 1, rows, cols) float64 arrays, N >= 1, which training reads
    without copying.  Iterating gives each image's (noisy, clean) pair as
    (rows, cols) views of them."""

    noisy: np.ndarray
    clean: np.ndarray

    def __post_init__(self):
        noisy = np.asarray(self.noisy, dtype=np.float64)
        clean = np.asarray(self.clean, dtype=np.float64)
        if noisy.ndim != 4 or noisy.shape[1] != 1 or clean.shape != noisy.shape:
            raise ShapeError(f"noisy and clean must both be (N, 1, rows, cols), "
                             f"got {noisy.shape} and {clean.shape}")
        if noisy.shape[0] == 0:
            raise ValueError("dataset must be non-empty")
        object.__setattr__(self, "noisy", noisy)
        object.__setattr__(self, "clean", clean)

    def __len__(self) -> int:
        return self.noisy.shape[0]

    def __iter__(self):
        return zip(self.noisy[:, 0], self.clean[:, 0])


@dataclass
class TrainReport:
    """What a training run reports.  ``initial_loss``, the untrained
    model's loss on the whole set, is computed once, on first read: a
    full-batch run takes it from its first step's forward pass, and a
    minibatch run, which has no such pass, leaves ``_initial`` as the pass
    that computes it."""

    batch_size: int
    final_loss: float
    epoch_losses: list[float]
    param_count: int
    seconds: float
    _initial: float | Callable[[], float] = field(repr=False, compare=False)
    model: DenoiseNet | None = field(default=None, repr=False, compare=False)

    @property
    def initial_loss(self) -> float:
        if callable(self._initial):
            self._initial = self._initial()
        return self._initial


# A diverging run overflows to inf and NaN inside a step; the non-finite
# loss checks report the divergence, so numpy's warnings would only repeat
# it from internal lines.
@np.errstate(over="ignore", invalid="ignore")
def _untrained_loss(cfg: ModelConfig, x, t) -> float:
    """The loss of a model as ``sgd_train`` initialises it, from a loss-only
    pass; the initialisation is seeded, so these are the bits that a pass
    before the first step would give."""
    return mse_loss(DenoiseNet(cfg).forward(x, keep=False), t)


@np.errstate(over="ignore", invalid="ignore")
def sgd_train(dataset: Dataset, cfg: ModelConfig) -> TrainReport:
    """Train the model on ``dataset``'s pairs; deterministic per seed.

    Runs epochs * ceil(N / batch) gradient steps of w <- w - lr * grad.
    The default batch size is the full set for N <= 32, otherwise 8 with
    a per-seed fixed shuffle.  A non-finite loss aborts with the epoch and
    step in the exception.  Training reads the dataset's stacked arrays
    without copying them and never writes them: a full-batch step and
    every pass over the whole set take them as they are, and a minibatch
    step copies its rows.  Only training steps keep activations; the
    final loss pass keeps none, drops the step block (so the report's
    model holds neither) and overwrites every same-shape layer's input
    with its output, but never the dataset.  That pass runs the whole set
    through the final weights, so the report's model keeps each batch
    norm's statistics of the training set, which ``DenoiseNet.infer``
    normalises with.  The initial loss costs no pass of its own at full
    batch, where the first step's forward pass gives it; a minibatch run
    computes it only when ``report.initial_loss`` is read.
    """
    x, t = dataset.noisy, dataset.clean
    n = len(dataset)
    batch = cfg.batch_size if cfg.batch_size is not None else (n if n <= 32 else 8)
    batch = min(batch, n)
    net = DenoiseNet(cfg)
    shuffle_rng = np.random.default_rng([cfg.seed, 7919])
    t0 = time.perf_counter()
    # A full-batch first step's forward pass sees the whole set with the
    # initial weights, so its loss is the initial loss; a minibatch run
    # leaves that loss to a pass of its own, run only if it is read.
    full = batch == n
    pred = net.forward(x) if full else None
    initial = mse_loss(pred, t) if full else partial(_untrained_loss, cfg, x, t)
    epoch_losses = []
    diff = None  # pred - target, reused from step to step like the step block
    for epoch in range(cfg.epochs):
        order = None if full else shuffle_rng.permutation(n)
        total = 0.0
        for step, s0 in enumerate(range(0, n, batch)):
            if order is None:
                xb, tb = x, t
            else:
                idx = order[s0:s0 + batch]
                xb, tb = x[idx], t[idx]
            if pred is None:
                pred = net.forward(xb)
            # The loss and its gradient 2 * (pred - target) / size, in
            # place on one difference.
            diff = np.subtract(pred, tb, out=_reuse(diff, pred.shape))
            loss = float(np.mean(diff * diff))
            if not np.isfinite(loss):
                raise DivergenceError(epoch, step)
            total += loss * len(tb)
            diff *= 2.0
            diff /= diff.size
            net.backward(diff)
            # Drop the step's arrays before the next pass allocates its own.
            pred = xb = tb = None
            for p, g in zip(net.params(), net.grads()):
                p -= cfg.learning_rate * g
        epoch_losses.append(total / n)
    diff = None
    # A loss-only pass: it also drops the step block, and it stores the
    # statistics that DenoiseNet.infer reads.
    final = mse_loss(net.forward(x, keep=False), t)
    if not np.isfinite(final):
        raise DivergenceError(cfg.epochs, 0)
    return TrainReport(
        batch_size=batch, final_loss=final, epoch_losses=epoch_losses,
        param_count=net.param_count, seconds=time.perf_counter() - t0,
        _initial=initial, model=net,
    )
