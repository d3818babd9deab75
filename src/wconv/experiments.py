"""Desk-scale experiment pipeline: synthetic denoising data, the nested
density optimization, robustness sweeps, density-family comparison, and
the convolution overhead benchmark.

The outer objective is the final training loss of the model for a given
density, trained with a pinned weight-init seed so every evaluation is a
deterministic function of the density coefficients alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .conv import KernelStack, conv2d, conv2d_weighted, scale_kernel
from .density import (DensityVector, density_from_free, density_matrix,
                      named_density)
from .directl import DirectConfig, TraceRow, minimize
from .errors import DivergenceError, SearchDivergedError
from .network import ModelConfig, mse_loss, sgd_train


@dataclass(frozen=True)
class DatasetSpec:
    n_images: int = 20
    rows: int = 64
    cols: int = 64
    noise_sigma: float = 0.1
    seed: int = 0
    smoothness: float = 4.0

    def __post_init__(self):
        if self.n_images < 1 or self.rows < 1 or self.cols < 1:
            raise ValueError("n_images, rows, cols must be positive")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and non-negative, "
                             f"got {self.noise_sigma!r}")
        if not 0 < self.smoothness < math.inf:
            raise ValueError(f"smoothness must be finite and positive, "
                             f"got {self.smoothness!r}")


def _lowpass(grid: np.ndarray, cutoff: float) -> np.ndarray:
    rows, cols = grid.shape
    fu = np.fft.fftfreq(rows) * rows
    fv = np.fft.fftfreq(cols) * cols
    gain = np.exp(-(fu[:, None] ** 2 + fv[None, :] ** 2) / (2.0 * cutoff**2))
    return np.real(np.fft.ifft2(np.fft.fft2(grid) * gain))


def gen_dataset(spec: DatasetSpec):
    """Seeded (noisy, clean) image pairs.

    Clean images are low-pass-filtered white noise rescaled to [0, 1];
    noisy ones add zero-mean Gaussian noise of the requested deviation,
    clipped back to [0, 1].
    """
    rng = np.random.default_rng(spec.seed)
    pairs = []
    for _ in range(spec.n_images):
        smooth = _lowpass(rng.standard_normal((spec.rows, spec.cols)),
                          spec.smoothness)
        lo, hi = smooth.min(), smooth.max()
        clean = (smooth - lo) / (hi - lo) if hi > lo else np.zeros_like(smooth)
        noisy = clean + rng.standard_normal(clean.shape) * spec.noise_sigma
        pairs.append((np.clip(noisy, 0.0, 1.0), clean))
    return pairs


@dataclass
class OuterResult:
    alpha: DensityVector
    objective: float
    baseline: float
    improvement: float
    evals: int
    iterations: int
    trace: list[TraceRow]
    bounds: tuple[float, float]


def default_alpha_bounds(k: int) -> tuple[float, float]:
    """Search box for the free coefficients: [0, 2] at K=3, widened to
    [0, 4] for larger kernels whose optima can exceed twice the centre."""
    return (0.0, 2.0) if k == 3 else (0.0, 4.0)


def build_direct_config(k: int, max_evals: int = 60, max_iters: int = 40,
                        f_tol: float = DirectConfig.f_tol,
                        epsilon: float = DirectConfig.epsilon,
                        alpha_lo: float | None = None,
                        alpha_hi: float | None = None) -> DirectConfig:
    """DIRECT over the free coefficients, each in [alpha_lo, alpha_hi]
    (default ``default_alpha_bounds(k)``), checked before any training.
    The tolerances default to ``DirectConfig``'s."""
    if (alpha_lo is None) != (alpha_hi is None):
        raise ValueError("alpha_lo and alpha_hi must be given together")
    lo, hi = (alpha_lo, alpha_hi) if alpha_lo is not None else default_alpha_bounds(k)
    if lo < 0:
        raise ValueError(f"alpha_lo must be >= 0, got {lo!r}")
    n_free = (k - 1) // 2
    return DirectConfig(np.full(n_free, lo), np.full(n_free, hi),
                        f_tol=f_tol, max_evals=max_evals, max_iters=max_iters,
                        epsilon=epsilon)


def _training_objective(dataset, model_cfg: ModelConfig):
    """Final training loss as a function of the free density coefficients
    ``theta`` of a ``model_cfg.kernel``-tap density; NaN on divergence,
    which includes a run whose final loss is not below its initial loss."""
    def objective(theta) -> float:
        phi = density_matrix(density_from_free(theta, model_cfg.kernel))
        cfg = replace(model_cfg, density=phi)
        try:
            report = sgd_train(dataset, cfg)
        except DivergenceError:
            return float("nan")
        if report.final_loss >= report.initial_loss:
            return float("nan")
        return report.final_loss
    return objective


def optimize_density(model_cfg: ModelConfig, direct_cfg: DirectConfig,
                     dataset) -> OuterResult:
    """Nested optimization: derivative-free search over the coefficients
    of a ``model_cfg.kernel``-tap density, each evaluation a full SGD
    training run.

    The all-ones density is the forced first evaluation, so the incumbent
    can never be worse than the uniform baseline and the improvement
    fraction 1 - best/uniform is non-negative.  A diverged baseline leaves
    nothing to improve on and raises ``SearchDivergedError`` before any
    other training run.
    """
    k = model_cfg.kernel
    if k < 3:
        raise ValueError(f"kernel extent must be >= 3 to have a density to "
                         f"search, got {k}")
    if len(dataset) == 0:
        raise ValueError("dataset must be non-empty")
    n_free = (k - 1) // 2
    if direct_cfg.lower.shape[0] != n_free:
        raise ValueError(
            f"direct config has {direct_cfg.lower.shape[0]} dims, "
            f"kernel {k} needs {n_free}"
        )
    train = _training_objective(dataset, model_cfg)
    first = True

    def objective(theta) -> float:
        # minimize evaluates the uniform init first; if that diverged, no
        # later evaluation could report an improvement, so stop there.
        nonlocal first
        value = train(theta)
        if first and not np.isfinite(value):
            raise SearchDivergedError("the uniform baseline's training run "
                                      "diverged: there is no improvement to report")
        first = False
        return value

    res = minimize(objective, direct_cfg, init=np.ones(n_free))
    baseline = res.evals[0][1]
    improvement = 1.0 - res.best_value / baseline if baseline > 0 else float("nan")
    return OuterResult(
        alpha=density_from_free(res.best_point, k),
        objective=res.best_value, baseline=baseline, improvement=improvement,
        evals=res.eval_count, iterations=res.iterations, trace=res.trace,
        bounds=(float(direct_cfg.lower[0]), float(direct_cfg.upper[0])),
    )


SWEEP_AXES = ("stride", "epochs", "n_images", "image_size", "channels")


def _outer_row(axis: str, value, result: OuterResult | None, error: str = ""):
    row = {"axis": axis, "axis_value": value}
    if result is not None:
        for i, a in enumerate(result.alpha.values[: result.alpha.free_count], 1):
            row[f"alpha_{i}"] = float(a)
        row["objective"] = result.objective
        row["baseline"] = result.baseline
        row["improvement"] = result.improvement
    row["error"] = error
    return row


def sweep_hyperparams(axis: str, values, dataset_spec: DatasetSpec,
                      model_cfg: ModelConfig,
                      direct_opts: dict | None = None) -> list[dict]:
    """One nested optimization per axis value, everything else held fixed.

    Image size stays fixed on the stride axis.  A run that diverges or
    rejects its input becomes a row with its error message and the sweep
    continues; any other exception is a bug and propagates.  Rows come
    back sorted by axis value.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}, expected one of {SWEEP_AXES}")
    if len(values) == 0:
        raise ValueError("sweep needs at least one value")
    direct_cfg = build_direct_config(model_cfg.kernel, **(direct_opts or {}))
    rows = []
    for value in sorted(values):
        try:
            ds, mc = dataset_spec, model_cfg
            if axis == "stride":
                mc = replace(mc, stride=int(value))
            elif axis == "epochs":
                mc = replace(mc, epochs=int(value))
            elif axis == "channels":
                mc = replace(mc, channels=int(value))
            elif axis == "n_images":
                ds = replace(ds, n_images=int(value))
            else:
                ds = replace(ds, rows=int(value), cols=int(value))
            result = optimize_density(mc, direct_cfg, gen_dataset(ds))
            rows.append(_outer_row(axis, value, result))
        except (DivergenceError, SearchDivergedError, ValueError) as exc:
            rows.append(_outer_row(axis, value, None, error=str(exc)))
    return rows


# Share of a dataset held out from training when densities are compared;
# compare-densities searches the optimal density on the rest.
HOLDOUT_FRACTION = 0.2


def split_dataset(dataset, seed: int):
    """Deterministic train/holdout split of ``HOLDOUT_FRACTION`` of the
    images; at least one image held out."""
    n = len(dataset)
    order = np.random.default_rng([seed, 131]).permutation(n)
    n_hold = max(1, int(round(HOLDOUT_FRACTION * n)))
    hold = [dataset[i] for i in order[:n_hold]]
    train = [dataset[i] for i in order[n_hold:]]
    return train, hold


def compare_densities(families, model_cfg: ModelConfig, dataset,
                      optimal: DensityVector | None = None) -> list[dict]:
    """Train the model once per density family under identical seeds.

    ``families`` draws from the named families, at ``model_cfg.kernel``
    taps, plus "optimal", which requires the vector from a prior density
    optimization.  Reports the final training loss and the mean squared
    error on the held-out ``HOLDOUT_FRACTION`` of the images.
    """
    train, hold = split_dataset(dataset, model_cfg.seed)
    hx = np.stack([p[0] for p in hold])[:, None, :, :]
    ht = np.stack([p[1] for p in hold])[:, None, :, :]
    rows = []
    for family in families:
        if family == "optimal":
            if optimal is None:
                raise ValueError("'optimal' family requires the optimized vector")
            vec = optimal
        else:
            vec = named_density(family, model_cfg.kernel)
        cfg = replace(model_cfg, density=density_matrix(vec))
        report = sgd_train(train, cfg)
        holdout = mse_loss(report.model.forward(hx), ht)
        rows.append({
            "family": family,
            "alpha": " ".join(repr(float(v)) for v in vec.values),
            "final_loss": report.final_loss,
            "holdout_mse": holdout,
        })
    return rows


def _interleaved_medians_ms(fns, repeats: int) -> list[float]:
    # Two warm-up rounds, then one round times every callable back to back,
    # so cache state and background load hit all of them alike.
    for _ in range(2):
        for fn in fns:
            fn()
    times = [[] for _ in fns]
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            times[i].append(time.perf_counter() - t0)
    return [float(np.median(t) * 1000.0) for t in times]


def bench_overhead(k_list=(3, 5, 7), out_channel_list=(1, 3),
                   image_shape=(1, 3, 128, 128), repeats: int = 11,
                   seed: int = 0) -> list[dict]:
    """Median wall time of the standard vs the weighted convolution.

    Also times the premultiplied route (density folded into the kernel
    once), whose per-call cost matches the standard convolution.
    """
    if repeats < 10:
        raise ValueError(f"need at least 10 repeats, got {repeats}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(image_shape)
    rows = []
    for k in k_list:
        density = density_matrix(named_density("gaussian", k))
        for fout in out_channel_list:
            kernel = KernelStack(rng.standard_normal((fout, image_shape[1], k, k)))
            premultiplied = scale_kernel(kernel, density)
            t_std, t_wgt, t_pre = _interleaved_medians_ms(
                [lambda: conv2d(x, kernel),
                 lambda: conv2d_weighted(x, kernel, density),
                 lambda: conv2d(x, premultiplied)], repeats)
            rows.append({
                "kernel": k, "out_channels": fout,
                "standard_ms": t_std, "weighted_ms": t_wgt,
                "ratio": t_wgt / t_std,
                "premultiplied_ms": t_pre, "premultiplied_ratio": t_pre / t_std,
            })
    return rows
