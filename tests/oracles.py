"""Brute-force reference implementations the fast paths are tested against.

Everything here except ``mse_grad``, ``grad_density`` and
``dataset_from_pairs`` is deliberately written as plain nested loops over
scalar arithmetic, independent of the vectorized code under test.
"""

import numpy as np

from wconv.conv import grad_weights
from wconv.errors import ShapeError
from wconv.network import Dataset


def conv_oracle(x, weights, bias=None, density=None, stride=1):
    """Quadruple-nested-loop direct convolution with centred zero padding."""
    bsz, cin, rows, cols = x.shape
    fout, _, k, _ = weights.shape
    pad = k // 2
    ro = -(-rows // stride)
    co = -(-cols // stride)
    out = np.zeros((bsz, fout, ro, co))
    for m in range(bsz):
        for f in range(fout):
            for i in range(ro):
                for j in range(co):
                    acc = 0.0 if bias is None else bias[f]
                    for c in range(cin):
                        for a in range(k):
                            for b in range(k):
                                r = i * stride + a - pad
                                q = j * stride + b - pad
                                if 0 <= r < rows and 0 <= q < cols:
                                    w = weights[f, c, a, b]
                                    if density is not None:
                                        w = w * density[a, b]
                                    acc += w * x[m, c, r, q]
                    out[m, f, i, j] = acc
    return out


def circular_weighted_conv_oracle(f, g, density):
    """O(n^2) modular-index loop for the periodic weighted convolution."""
    n = len(f)
    out = np.zeros(n)
    for z in range(n):
        acc = 0.0
        for x in range(n):
            acc += f[x] * g[(z - x) % n] * density[(z - x) % n]
        out[z] = acc
    return out


def circular_weighted_conv_oracle_2d(f, g, density):
    rows, cols = f.shape
    out = np.zeros((rows, cols))
    for z1 in range(rows):
        for z2 in range(cols):
            acc = 0.0
            for x1 in range(rows):
                for x2 in range(cols):
                    acc += (f[x1, x2] * g[(z1 - x1) % rows, (z2 - x2) % cols]
                            * density[(z1 - x1) % rows, (z2 - x2) % cols])
            out[z1, z2] = acc
    return out


def potentially_optimal_oracle(rects, epsilon, f_best):
    """Slope-interval definition of potential optimality, checked per rect.

    A rectangle wins when some positive slope makes its (measure, value)
    point at least as good as every other and clears the epsilon slack on
    the incumbent.  Of equal values in a size class, the rectangle earlier
    in ``rects`` wins.
    """
    best_per_class = {}
    for pos, r in enumerate(rects):
        key = int(r.levels.min())
        cur = best_per_class.get(key)
        if cur is None or r.value < cur[1].value or (r.value == cur[1].value
                                                     and pos < cur[0]):
            best_per_class[key] = (pos, r)
    cands = [r for _, r in best_per_class.values()]
    selected = []
    for rj in cands:
        dj, fj = rj.measure, rj.value
        lo, hi = 0.0, np.inf
        dominated = False
        for ri in cands:
            if ri is rj:
                continue
            di, fi = ri.measure, ri.value
            if di == dj:
                if fi < fj:
                    dominated = True
                    break
            elif di < dj:
                lo = max(lo, (fj - fi) / (dj - di))
            else:
                hi = min(hi, (fi - fj) / (di - dj))
        if dominated or lo > hi or hi < 0:
            continue
        reachable = fj - hi * dj if np.isfinite(hi) else -np.inf
        if f_best != 0:
            ok = reachable <= f_best - epsilon * abs(f_best)
        else:
            ok = reachable <= 0
        if ok:
            selected.append(rj)
    return selected


def fd_gradient(fn, x, step=1e-5):
    """Central finite differences of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        bumped = x.copy()
        bumped[idx] = x[idx] + step
        up = fn(bumped)
        bumped[idx] = x[idx] - step
        down = fn(bumped)
        grad[idx] = (up - down) / (2.0 * step)
    return grad


def rel_err(a, b):
    """Max absolute difference over the larger of the two magnitudes."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    return float(np.max(np.abs(a - b)) / scale)


def mse_grad(pred, target):
    """Gradient of the mean squared error with respect to ``pred``."""
    return 2.0 * (pred - target) / pred.size


def grad_density(x, kernel, upstream, stride=1):
    """Loss gradient of the weighted conv with respect to its K x K density.

    Each tap's density value scales that tap's weights, so its gradient is
    the plain weight gradient (``grad_weights`` at an all-ones density)
    times the weights, summed over filters and channels.
    """
    if np.shape(x)[1] != kernel.in_channels or np.shape(upstream)[1] != kernel.filters:
        raise ShapeError(f"operands {np.shape(x)} and {np.shape(upstream)} do not "
                         f"match the kernel {kernel.weights.shape}")
    plain = grad_weights(x, np.ones((kernel.k, kernel.k)), upstream, stride).weights
    return np.sum(plain * kernel.weights, axis=(0, 1))


def dataset_from_pairs(pairs):
    """The ``Dataset`` of (noisy, clean) pairs of (rows, cols) images of one
    shape, stacked in order."""
    pairs = list(pairs)
    return Dataset(np.stack([p[0] for p in pairs])[:, None],
                   np.stack([p[1] for p in pairs])[:, None])
