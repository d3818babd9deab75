"""Desk-scale experiment pipeline: synthetic denoising data, the nested
density optimization, robustness sweeps, density-family comparison, and
the convolution overhead benchmark.

The outer objective is the final training loss of the model for a given
density, trained with a pinned weight-init seed so every evaluation is a
deterministic function of the density coefficients alone.  Every search
decision has one owner here: the searches take the DIRECT box as a
``DirectConfig``, ``_training_objective`` is the one objective (and stops
a search whose uniform baseline diverged), ``compare_densities`` draws the
one holdout split and searches the optimal density on the rest, and
``alpha_columns`` names the coefficient columns of every record and
``result_columns`` a search's result columns.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .conv import KernelStack, conv2d, conv2d_weighted, scale_kernel
from .density import (MAX_DENSITY_VALUE, DensityVector, density_from_free,
                      density_matrix, named_density)
from .directl import DirectConfig, TraceRow, minimize
from .errors import DivergenceError, SearchDivergedError
from .network import Dataset, ModelConfig, mse_loss, sgd_train


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
        # _lowpass divides by this width: it must not overflow or underflow.
        try:
            width = 2.0 * self.smoothness**2
        except OverflowError:
            width = math.inf
        if not 0 < width < math.inf:
            raise ValueError(f"smoothness {self.smoothness!r} is out of range: "
                             "2 * smoothness**2 must be finite and positive")


def _lowpass(grid: np.ndarray, cutoff: float) -> np.ndarray:
    rows, cols = grid.shape
    fu = np.fft.fftfreq(rows) * rows
    fv = np.fft.fftfreq(cols) * cols
    # A tiny cutoff overflows the exponent to -inf, whose gain is exactly 0.
    with np.errstate(over="ignore"):
        gain = np.exp(-(fu[:, None] ** 2 + fv[None, :] ** 2) / (2.0 * cutoff**2))
    return np.real(np.fft.ifft2(np.fft.fft2(grid) * gain))


def gen_dataset(spec: DatasetSpec) -> Dataset:
    """Seeded (noisy, clean) image pairs, written image by image into the
    two stacked arrays of a ``Dataset``, which holds them once.

    Clean images are low-pass-filtered white noise rescaled to [0, 1];
    noisy ones add zero-mean Gaussian noise of the requested deviation,
    clipped back to [0, 1].  Noise that overflows float64 saturates
    without a warning: it is +-inf and clips to 0 or 1, so at
    ``noise_sigma`` = 1e308 every noisy pixel is 0 or 1.  A smoothness so
    small that the filter leaves an image of more than one pixel constant
    is a ``ValueError``; a 1x1 image is constant by nature and comes out
    as 0.
    """
    rng = np.random.default_rng(spec.seed)
    shape = (spec.n_images, 1, spec.rows, spec.cols)
    data = Dataset(np.empty(shape), np.empty(shape))
    for noisy, clean in data:
        smooth = _lowpass(rng.standard_normal((spec.rows, spec.cols)),
                          spec.smoothness)
        lo, hi = smooth.min(), smooth.max()
        if hi > lo:
            np.subtract(smooth, lo, out=clean)
            clean /= hi - lo
        elif smooth.size == 1:
            clean[...] = 0.0
        else:
            raise ValueError(f"smoothness {spec.smoothness!r} is too small: the "
                             f"low-pass filter leaves {spec.rows}x{spec.cols} "
                             "images constant")
        with np.errstate(over="ignore"):
            np.add(clean, rng.standard_normal(clean.shape) * spec.noise_sigma,
                   out=noisy)
        np.clip(noisy, 0.0, 1.0, out=noisy)
    return data


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
    (default ``default_alpha_bounds(k)``), checked before any training:
    both bounds finite, alpha_lo >= 0, alpha_hi at most
    ``MAX_DENSITY_VALUE`` so that no density in the box overflows, and
    alpha_lo <= 1 <= alpha_hi with alpha_lo < alpha_hi, because the
    uniform density is the search's forced first evaluation.  The
    tolerances default to ``DirectConfig``'s."""
    if (alpha_lo is None) != (alpha_hi is None):
        raise ValueError("alpha_lo and alpha_hi must be given together")
    lo, hi = (alpha_lo, alpha_hi) if alpha_lo is not None else default_alpha_bounds(k)
    for name, bound in (("alpha_lo", lo), ("alpha_hi", hi)):
        if not math.isfinite(bound):
            raise ValueError(f"{name} must be finite, got {bound!r}")
    if lo < 0:
        raise ValueError(f"alpha_lo must be >= 0, got {lo!r}")
    if hi > MAX_DENSITY_VALUE:
        raise ValueError(f"alpha_hi {hi!r} exceeds {MAX_DENSITY_VALUE!r}: the "
                         "density matrix alpha alpha^T would overflow")
    if not lo <= 1.0 <= hi:
        raise ValueError(f"alpha_lo {lo!r} and alpha_hi {hi!r} must hold 1 "
                         "between them: the search evaluates the uniform "
                         "density (every coefficient 1) first, as its baseline")
    if not lo < hi:
        raise ValueError(f"alpha_lo {lo!r} must be below alpha_hi {hi!r}")
    n_free = (k - 1) // 2
    return DirectConfig(np.full(n_free, lo), np.full(n_free, hi),
                        f_tol=f_tol, max_evals=max_evals, max_iters=max_iters,
                        epsilon=epsilon)


def _training_objective(dataset: Dataset, model_cfg: ModelConfig):
    """Final training loss as a function of the free density coefficients
    ``theta`` of a ``model_cfg.kernel``-tap density; NaN on divergence,
    which includes a run whose final loss is not below its initial loss.

    The first evaluation is the search's uniform baseline: if it diverges,
    no later evaluation could report an improvement, so it raises
    ``SearchDivergedError`` instead.
    """
    first = True

    def objective(theta) -> float:
        nonlocal first
        phi = density_matrix(density_from_free(theta, model_cfg.kernel))
        try:
            report = sgd_train(dataset, replace(model_cfg, density=phi))
            value = (report.final_loss if report.final_loss < report.initial_loss
                     else float("nan"))
        except DivergenceError:
            value = float("nan")
        if first and not np.isfinite(value):
            raise SearchDivergedError("the uniform baseline's training run "
                                      "diverged: there is no improvement to report")
        first = False
        return value
    return objective


def _free_count(model_cfg: ModelConfig, direct_cfg: DirectConfig) -> int:
    """The number of free density coefficients a search of
    ``model_cfg.kernel`` taps in ``direct_cfg``'s box varies; a kernel with
    no density to search, or a box of another dimension, is a
    ``ValueError``."""
    k = model_cfg.kernel
    if k < 3:
        raise ValueError(f"kernel extent must be >= 3 to have a density to "
                         f"search, got {k}")
    n_free = (k - 1) // 2
    if direct_cfg.lower.shape[0] != n_free:
        raise ValueError(
            f"direct config has {direct_cfg.lower.shape[0]} dims, "
            f"kernel {k} needs {n_free}"
        )
    return n_free


def optimize_density(model_cfg: ModelConfig, direct_cfg: DirectConfig,
                     dataset: Dataset) -> OuterResult:
    """Nested optimization: derivative-free search over the coefficients
    of a ``model_cfg.kernel``-tap density, each evaluation a full SGD
    training run.

    The all-ones density is the forced first evaluation, so the incumbent
    can never be worse than the uniform baseline and the improvement
    fraction 1 - best/uniform is non-negative.  A diverged baseline leaves
    nothing to improve on and raises ``SearchDivergedError`` before any
    other training run.
    """
    n_free = _free_count(model_cfg, direct_cfg)
    res = minimize(_training_objective(dataset, model_cfg), direct_cfg,
                   init=np.ones(n_free))
    baseline = res.evals[0][1]
    improvement = 1.0 - res.best_value / baseline if baseline > 0 else float("nan")
    return OuterResult(
        alpha=density_from_free(res.best_point, model_cfg.kernel),
        objective=res.best_value, baseline=baseline, improvement=improvement,
        evals=res.eval_count, iterations=res.iterations, trace=res.trace,
        bounds=(float(direct_cfg.lower[0]), float(direct_cfg.upper[0])),
    )


def alpha_columns(point) -> dict:
    """The ``alpha_1``..``alpha_n`` columns of a point of ``n`` free density
    coefficients, outermost first, as floats; a ``None`` coefficient (of a
    run that found no point) stays ``None``, an empty cell."""
    return {f"alpha_{i}": None if c is None else float(c)
            for i, c in enumerate(point, 1)}


def result_columns(result: OuterResult | None, n_free: int) -> dict:
    """A search's ``alpha_1``..``alpha_n``, ``objective``, ``baseline`` and
    ``improvement`` columns, for ``n`` = ``n_free`` free coefficients; a run
    that found no result (``None``) has every column, left empty."""
    point = result.alpha.values[:n_free] if result is not None else [None] * n_free
    return {**alpha_columns(point),
            **{key: getattr(result, key, None)
               for key in ("objective", "baseline", "improvement")}}


# Each sweep axis: the config section it sets ("model" or "dataset", as in
# cli.SETTINGS) and the fields of that section it sets to the axis value.
SWEEP_AXES = {
    "stride": ("model", ("stride",)),
    "epochs": ("model", ("epochs",)),
    "n_images": ("dataset", ("n_images",)),
    "image_size": ("dataset", ("rows", "cols")),
    "channels": ("model", ("channels",)),
}


def sweep_hyperparams(axis: str, values, dataset_spec: DatasetSpec,
                      model_cfg: ModelConfig, direct_cfg: DirectConfig) -> list[dict]:
    """One nested optimization in ``direct_cfg``'s box per axis value,
    everything else held fixed.

    Image size stays fixed on the stride axis.  The kernel and the box,
    which no axis changes, are checked once (``_free_count``), before any
    dataset is generated.  A run that diverges or rejects its input becomes
    a row with its error message, and every other column empty, and the
    sweep continues; any other exception is a bug and propagates.  Rows
    come back sorted by axis value.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}, expected one of "
                         f"{', '.join(SWEEP_AXES)}")
    if len(values) == 0:
        raise ValueError("sweep needs at least one value")
    n_free = _free_count(model_cfg, direct_cfg)
    section, fields = SWEEP_AXES[axis]
    rows = []
    for value in sorted(values):
        result, error = None, ""
        try:
            configs = {"dataset": dataset_spec, "model": model_cfg}
            configs[section] = replace(configs[section],
                                       **dict.fromkeys(fields, int(value)))
            result = optimize_density(configs["model"], direct_cfg,
                                      gen_dataset(configs["dataset"]))
        except (DivergenceError, SearchDivergedError, ValueError) as exc:
            error = str(exc)
        rows.append({"axis": axis, "axis_value": value,
                     **result_columns(result, n_free), "error": error})
    return rows


# Share of a dataset held out from training when densities are compared;
# compare-densities searches the optimal density on the rest.
HOLDOUT_FRACTION = 0.2


def split_dataset(dataset: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic train/holdout split of ``HOLDOUT_FRACTION`` of the
    images, at least one held out, each part a ``Dataset`` that copies its
    images in the split's order."""
    n = len(dataset)
    order = np.random.default_rng([seed, 131]).permutation(n)
    n_hold = max(1, int(round(HOLDOUT_FRACTION * n)))
    hold, train = order[:n_hold], order[n_hold:]
    return (Dataset(dataset.noisy[train], dataset.clean[train]),
            Dataset(dataset.noisy[hold], dataset.clean[hold]))


def compare_densities(families, model_cfg: ModelConfig, dataset: Dataset,
                      direct_cfg: DirectConfig
                      ) -> tuple[list[dict], OuterResult | None]:
    """Train the model once per density family under identical seeds.

    ``families`` draws from the named families, at ``model_cfg.kernel``
    taps, plus "optimal".  The dataset is split once (``split_dataset``
    at ``model_cfg.seed``): every family trains on the training split, and
    "optimal" is the density that ``optimize_density`` finds in
    ``direct_cfg``'s box on that same split, searched before any family
    trains.  Returns the rows, each with the final training loss and the
    mean squared error on the held-out images, and the search's
    ``OuterResult`` (``None`` when "optimal" is not asked for).  The
    held-out images are scored in inference mode, with the batch norm
    statistics of the training set (``DenoiseNet.infer``), so that no
    image's score depends on the others held out.  Fewer
    than 2 images is a ``ValueError``, before any search or training: the
    held-out image would leave none to train on.
    """
    if len(dataset) < 2:
        raise ValueError(f"n_images must be >= 2 to compare densities: one "
                         f"image is held out for scoring, got {len(dataset)}")
    vectors = {family: named_density(family, model_cfg.kernel)
               for family in families if family != "optimal"}
    train, hold = split_dataset(dataset, model_cfg.seed)
    search = (optimize_density(model_cfg, direct_cfg, train)
              if "optimal" in families else None)
    rows = []
    for family in families:
        vec = search.alpha if family == "optimal" else vectors[family]
        cfg = replace(model_cfg, density=density_matrix(vec))
        report = sgd_train(train, cfg)
        holdout = mse_loss(report.model.infer(hold.noisy), hold.clean)
        rows.append({
            "family": family,
            "alpha": " ".join(repr(float(v)) for v in vec.values),
            "final_loss": report.final_loss,
            "holdout_mse": holdout,
        })
    return rows, search


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
