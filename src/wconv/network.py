"""Image-to-image learning model and its plain-SGD trainer.

The model is three density-weighted convolution layers, each followed by
batch normalisation and a ReLU: a strided 1->c layer, a c->c layer, and a
transposed c->1 layer that undoes the stride.  All three share one density
matrix, which scales kernel taps but is never trained; the trainable
parameters (weights, biases, batch-norm scale/shift) are updated with
stochastic gradient descent on the mean squared error.  Each layer folds
the density into its kernel once per step and runs the plain conv
operators; no density folds as all ones, which changes no weight.

Only a pass that a backward pass will read keeps activations.  A training
step's forward pass (``keep=True``, the default) caches each conv's input,
each batch norm's normalised input and each ReLU mask.  A loss-only pass
(``keep=False``: the trainer's initial and final losses, a holdout score)
caches none of them and works in place, so its memory is a few layer
outputs rather than every layer's caches for the whole dataset.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .conv import (KernelStack, conv2d, conv2d_transposed_weighted,
                   conv2d_weighted,  # uncalled: the benchmark's tracer wraps it here
                   grad_input, grad_weights, scale_kernel)
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
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, "
                             f"got {self.learning_rate}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
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


def mse_grad(pred, target) -> np.ndarray:
    return 2.0 * (pred - target) / pred.size


def _cached(value):
    """An array that a forward pass cached for the backward pass."""
    if value is None:
        raise RuntimeError("backward needs the caches of a forward pass "
                           "run with keep=True")
    return value


class BatchNorm2d:
    """Per-channel normalisation over (batch, row, col), training statistics."""

    EPS = 1e-5  # added to the variance before its square root

    def __init__(self, channels: int):
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.grad_gamma = np.zeros(channels)
        self.grad_beta = np.zeros(channels)
        self._xhat = None
        self._inv_std = None

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        """``x`` normalised with its own batch statistics, then scaled and
        shifted.  ``keep`` caches the normalised input for ``backward`` and
        returns a new array.  With ``keep=False`` nothing is cached, an
        earlier pass's cache is dropped, and ``x`` itself is overwritten
        with the result and returned: the same operations in the same
        order, so the same bits."""
        count = x.shape[0] * x.shape[2] * x.shape[3]
        if count < 2:
            raise DegenerateBatchError(
                f"need at least 2 samples per channel, got {count}"
            )
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        xhat = x - mean if keep else np.subtract(x, mean, out=x)
        var = np.einsum("bcij,bcij->c", xhat, xhat)[:, None, None] / count
        inv_std = 1.0 / np.sqrt(var + self.EPS)
        xhat *= inv_std
        self._xhat, self._inv_std = (xhat, inv_std) if keep else (None, None)
        gamma = self.gamma[:, None, None]
        out = xhat * gamma if keep else np.multiply(xhat, gamma, out=xhat)
        out += self.beta[:, None, None]
        return out

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        # With g = gamma * upstream, mean(g) = gamma * grad_beta / count and
        # mean(g * xhat) = gamma * grad_gamma / count, so the two parameter
        # gradients are the only reductions the input gradient needs.
        xhat = _cached(self._xhat)
        count = xhat.size // xhat.shape[1]
        dx = upstream * xhat
        self.grad_gamma = dx.sum(axis=(0, 2, 3))
        self.grad_beta = upstream.sum(axis=(0, 2, 3))
        np.multiply(xhat, (self.grad_gamma / count)[:, None, None], out=dx)
        np.subtract(upstream, dx, out=dx)
        dx -= (self.grad_beta / count)[:, None, None]
        dx *= self.gamma[:, None, None] * self._inv_std
        return dx


class _WeightedConv:
    """Conv layer that runs the plain operators on ``folded = density *
    kernel``, refolded every forward pass; its weight gradient is
    ``density * dL/dfolded``, which ``grad_weights`` returns given the density."""

    def __init__(self, kernel: KernelStack, density: np.ndarray, stride: int):
        self.kernel = kernel
        self.density = density
        self.stride = stride
        self.folded = scale_kernel(kernel, density)  # shares kernel.bias
        self.grad_w = np.zeros_like(kernel.weights)
        self.grad_b = np.zeros_like(kernel.bias)
        self._x = None

    def _fold(self) -> KernelStack:
        # In place rather than through scale_kernel: weights that overflowed
        # in the last step must reach sgd_train's divergence check, not
        # KernelStack's finiteness check.
        np.multiply(self.kernel.weights, self.density, out=self.folded.weights)
        return self.folded

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        """The layer's output; ``keep`` caches ``x`` for ``backward``."""
        self._x = x if keep else None
        return conv2d(x, self._fold(), self.stride)

    def backward(self, upstream: np.ndarray, input_grad: bool = True):
        """Fill the parameter gradients; return the input gradient only if
        ``input_grad`` asks for it."""
        x = _cached(self._x)
        g = grad_weights(x, self.density, upstream, stride=self.stride)
        self.grad_w, self.grad_b = g.weights, g.bias
        if not input_grad:
            return None
        return grad_input(self.folded, upstream, input_hw=x.shape[2:],
                          stride=self.stride)


class _TransposedWeightedConv(_WeightedConv):
    """The adjoint of a strided conv layer, upsampling by ``stride``."""

    def forward(self, y: np.ndarray, *, keep: bool = True) -> np.ndarray:
        """The layer's output; ``keep`` caches ``y`` for ``backward``."""
        self._x = y if keep else None
        return conv2d_transposed_weighted(y, self._fold(), self.stride)

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        # The forward map is the adjoint of a strided conv, so the weight
        # gradient swaps the roles of input and upstream, and the input
        # gradient is the strided conv itself.
        g = grad_weights(upstream, self.density, _cached(self._x),
                         stride=self.stride)
        self.grad_w = g.weights
        self.grad_b = upstream.sum(axis=(0, 2, 3))
        return conv2d(upstream, KernelStack(self.folded.weights, None), self.stride)


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
        self._masks = [None, None, None]

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        """The (batch, 1, rows, cols) output for a (batch, 1, rows, cols) input.

        ``keep`` (a training step) caches what ``backward`` reads: each
        conv's input, each batch norm's normalised input and each ReLU
        mask.  A loss-only pass sets ``keep=False``: it caches nothing,
        drops any earlier pass's caches so that ``backward`` raises, and
        normalises and rectifies each conv output in place, so each layer's
        input is freed once the next conv has read it.  The output is the
        same either way, to the bit.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != 1:
            raise ShapeError(f"expected (batch, 1, rows, cols), got {x.shape}")
        s = self.cfg.stride
        if x.shape[2] % s or x.shape[3] % s:
            raise ShapeError(f"spatial dims {x.shape[2:]} not divisible by stride {s}")
        if not keep:
            # Free every earlier cache before this pass allocates its arrays.
            self._masks = [None, None, None]
            for conv, bn in self._layers:
                conv._x = bn._xhat = bn._inv_std = None
        h = x
        for i, (conv, bn) in enumerate(self._layers):
            h = bn.forward(conv.forward(h, keep=keep), keep=keep)
            if keep:
                self._masks[i] = h > 0
            np.maximum(h, 0.0, out=h)
        return h

    def backward(self, upstream: np.ndarray) -> None:
        """Fill every layer's parameter gradients from the loss gradient at
        the output, using the caches of the last ``forward``, which must
        have kept them; returns nothing.  The gradient at the network input
        is never computed: no caller reads it."""
        g = self.conv3.backward(self.bn3.backward(upstream * _cached(self._masks[2])))
        # The layers' input gradients are fresh arrays: mask them in place.
        g *= self._masks[1]
        g = self.conv2.backward(self.bn2.backward(g))
        g *= self._masks[0]
        self.conv1.backward(self.bn1.backward(g), input_grad=False)

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


@dataclass
class TrainReport:
    batch_size: int
    initial_loss: float
    final_loss: float
    epoch_losses: list[float]
    param_count: int
    seconds: float
    model: DenoiseNet | None = field(default=None, repr=False, compare=False)


def _stack_pairs(dataset):
    noisy = np.stack([np.asarray(p[0], dtype=np.float64) for p in dataset])
    clean = np.stack([np.asarray(p[1], dtype=np.float64) for p in dataset])
    return noisy[:, None, :, :], clean[:, None, :, :]


# A diverging run overflows to inf and NaN inside a step; the non-finite
# loss checks report the divergence, so numpy's warnings would only repeat
# it from internal lines.
@np.errstate(over="ignore", invalid="ignore")
def sgd_train(dataset, cfg: ModelConfig) -> TrainReport:
    """Train the model on (noisy, clean) pairs; deterministic per seed.

    Runs epochs * ceil(N / batch) gradient steps of w <- w - lr * grad.
    The default batch size is the full set for N <= 32, otherwise 8 with
    a per-seed fixed shuffle.  A non-finite loss aborts with the epoch and
    step in the exception.  Only training steps keep activations; the
    final loss pass keeps none, so the report's model holds none.
    """
    if len(dataset) == 0:
        raise ValueError("dataset must be non-empty")
    x, t = _stack_pairs(dataset)
    n = x.shape[0]
    batch = cfg.batch_size if cfg.batch_size is not None else (n if n <= 32 else 8)
    batch = min(batch, n)
    net = DenoiseNet(cfg)
    shuffle_rng = np.random.default_rng([cfg.seed, 7919])
    t0 = time.perf_counter()
    # A full-batch first step reuses this pass (same input, same weights),
    # so only then does it keep the caches its backward pass reads.
    full = batch == n
    pred = net.forward(x, keep=full)
    initial = mse_loss(pred, t)
    if not full:
        pred = None
    epoch_losses = []
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
            loss = mse_loss(pred, tb)
            if not np.isfinite(loss):
                raise DivergenceError(epoch, step)
            total += loss * len(tb)
            net.backward(mse_grad(pred, tb))
            # Drop the step's arrays before the next pass allocates its own.
            pred = xb = tb = None
            for p, g in zip(net.params(), net.grads()):
                p -= cfg.learning_rate * g
        epoch_losses.append(total / n)
    final = mse_loss(net.forward(x, keep=False), t)
    if not np.isfinite(final):
        raise DivergenceError(cfg.epochs, 0)
    return TrainReport(
        batch_size=batch, initial_loss=initial, final_loss=final,
        epoch_losses=epoch_losses, param_count=net.param_count,
        seconds=time.perf_counter() - t0, model=net,
    )
