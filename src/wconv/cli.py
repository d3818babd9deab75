"""Command-line entry point.

Subcommands: gen-data, train, optimize-density, sweep, compare-densities,
bench, verify.  All outputs land under --out-dir (or $WCONV_OUT_DIR) as
CSV/JSON/WCT1 files written atomically; wall-clock timings go to stdout
only, so files are byte-stable across reruns with the same seeds.  Exit
codes: 0 success, 1 domain failure (divergence, a search whose every
evaluation diverged, verification FAIL, bad data files), 2 usage or
validation error.
"""

from __future__ import annotations

import argparse
import csv
import glob
import io
import json
import os
import sys
import tempfile
from dataclasses import replace

from .density import (density_from_free, density_from_record,
                      density_matrix, density_record, named_density, FAMILIES)
from .errors import DivergenceError, FormatError, SearchDivergedError
from .experiments import (SWEEP_AXES, DatasetSpec, OuterResult,
                          bench_overhead, build_direct_config,
                          compare_densities, gen_dataset, optimize_density,
                          split_dataset, sweep_hyperparams)
from .network import ModelConfig, sgd_train
from .spectral import run_verification
from .tensors import tensor_read, tensor_write

DEFAULT_FAMILIES = ("uniform", "linear", "gaussian", "cubic", "optimal")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return "" if value is None else str(value)


def write_csv(path: str, rows: list[dict], fieldnames: list[str]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_fmt(row.get(name)) for name in fieldnames])
    _atomic_write(path, buf.getvalue())


def emit_report(result: OuterResult, fmt: str, path: str) -> None:
    """Serialize an outer optimization result as one CSV row or as text."""
    n_free = result.alpha.free_count
    if fmt == "csv":
        fields = [f"alpha_{i}" for i in range(1, n_free + 1)]
        row = {f"alpha_{i}": float(result.alpha.values[i - 1])
               for i in range(1, n_free + 1)}
        row.update(objective=result.objective, baseline=result.baseline,
                   improvement=result.improvement, evals=result.evals,
                   iterations=result.iterations,
                   bounds_lo=result.bounds[0], bounds_hi=result.bounds[1])
        write_csv(path, [row], fields + ["objective", "baseline", "improvement",
                                         "evals", "iterations",
                                         "bounds_lo", "bounds_hi"])
    elif fmt == "text":
        lines = [
            f"kernel: {result.alpha.k}",
            "alpha: " + " ".join(repr(float(v)) for v in result.alpha.values),
            f"objective: {result.objective!r}",
            f"uniform baseline: {result.baseline!r}",
            f"improvement: loss reduced by {100.0 * result.improvement:.1f}% "
            "relative to the uniform density",
            f"evaluations: {result.evals}",
            f"iterations: {result.iterations}",
            f"bounds: [{result.bounds[0]!r}, {result.bounds[1]!r}]",
        ]
        _atomic_write(path, "\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def _write_trace(path: str, trace) -> None:
    rows = []
    for row in trace:
        rec = {"iter": row.iteration, "evals": row.evals,
               "best_value": row.best_value}
        for i, c in enumerate(row.best_point, 1):
            rec[f"alpha_{i}"] = float(c)
        rows.append(rec)
    n = len(trace[0].best_point) if trace else 0
    write_csv(path, rows, ["iter", "evals", "best_value"]
              + [f"alpha_{i}" for i in range(1, n + 1)])


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wconv",
        description="Weighted convolution training, density optimization, and "
                    "operator verification.")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out-dir", default=None,
                        help="output directory (default: $WCONV_OUT_DIR or ./wconv-out)")
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted but unused: every command runs in one "
                             "Python thread")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_flags(p):
        p.add_argument("--n-images", type=int, default=None)
        p.add_argument("--rows", type=int, default=None)
        p.add_argument("--cols", type=int, default=None)
        p.add_argument("--noise-sigma", type=float, default=None)
        p.add_argument("--smoothness", type=float, default=None)

    def add_model_flags(p, kernel_required=False):
        p.add_argument("--kernel", type=int, default=None, required=kernel_required)
        p.add_argument("--channels", type=int, default=None)
        p.add_argument("--stride", type=int, default=None)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--lr", type=float, default=None)
        p.add_argument("--batch-size", type=int, default=None)

    def add_direct_flags(p):
        p.add_argument("--max-evals", type=int, default=None)
        p.add_argument("--max-iters", type=int, default=None)
        p.add_argument("--f-tol", type=float, default=None)
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--alpha-lo", type=float, default=None)
        p.add_argument("--alpha-hi", type=float, default=None)

    p = sub.add_parser("gen-data", help="write a synthetic denoising dataset")
    add_dataset_flags(p)

    p = sub.add_parser("train", help="train the model once with a fixed density")
    add_dataset_flags(p)
    add_model_flags(p)
    p.add_argument("--data-dir", default=None, help="read WCT1 pairs instead of generating")
    p.add_argument("--density-family", choices=FAMILIES, default=None)
    p.add_argument("--alpha", default=None,
                   help="comma-separated free density coefficients")
    p.add_argument("--density-file", default=None, help="JSON density record")

    p = sub.add_parser("optimize-density", help="nested search for the optimal density")
    add_dataset_flags(p)
    add_model_flags(p, kernel_required=True)
    add_direct_flags(p)
    p.add_argument("--format", choices=("csv", "text"), default="csv")

    p = sub.add_parser("sweep", help="repeat the optimization along one hyperparameter axis")
    add_dataset_flags(p)
    add_model_flags(p)
    add_direct_flags(p)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", required=True, type=_int_list)

    p = sub.add_parser("compare-densities", help="train once per density family")
    add_dataset_flags(p)
    add_model_flags(p, kernel_required=True)
    add_direct_flags(p)
    p.add_argument("--families", default=",".join(DEFAULT_FAMILIES))

    p = sub.add_parser("bench", help="time the weighted vs the standard convolution")
    p.add_argument("--kernels", type=_int_list, default=[3, 5, 7])
    p.add_argument("--out-channels", type=_int_list, default=[1, 3])
    p.add_argument("--image-shape", type=_int_list, default=[1, 3, 128, 128])
    p.add_argument("--repeats", type=int, default=11)

    p = sub.add_parser("verify", help="check the operator identities numerically")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--sizes", type=_int_list, default=[8, 16, 64])
    p.add_argument("--young-triples", type=int, default=1000)
    return parser


def _merge(section: dict, **flags) -> dict:
    merged = dict(section)
    for key, value in flags.items():
        if value is not None:
            merged[key] = value
    return merged


_INT, _NUMBER = (int,), (int, float)
# The keys each config section may hold and the types of their values, as
# _dataset_spec, _model_cfg and _direct_opts read them (density_from_record
# checks "density").  No seed key: --seed (default 0) seeds data and model.
_CONFIG_KEYS = {
    "dataset": {"n_images": _INT, "rows": _INT, "cols": _INT,
                "noise_sigma": _NUMBER, "smoothness": _NUMBER},
    "model": {"channels": _INT, "stride": _INT, "kernel": _INT, "epochs": _INT,
              "learning_rate": _NUMBER, "batch_size": (int, type(None)),
              "bn_eps": _NUMBER},
    "direct": {"max_evals": _INT, "max_iters": _INT, "f_tol": _NUMBER,
               "epsilon": _NUMBER, "alpha_lo": _NUMBER, "alpha_hi": _NUMBER,
               "bounds": (list,)},
}


def _check_config(config) -> None:
    """Reject a section or key that nothing reads, or a value of the wrong type."""
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    for name, section in config.items():
        if name == "density":
            density_from_record(section)
            continue
        if name not in _CONFIG_KEYS:
            raise ValueError(f"unknown config section {name!r}, expected one of "
                             f"{sorted([*_CONFIG_KEYS, 'density'])}")
        if not isinstance(section, dict):
            raise ValueError(f"config section {name!r} must be a JSON object")
        for key, value in section.items():
            types = _CONFIG_KEYS[name].get(key)
            if types is None:
                raise ValueError(f"unknown key {key!r} in config section {name!r}, "
                                 f"expected one of {sorted(_CONFIG_KEYS[name])}")
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(f"config value {name}.{key} = {value!r} "
                                 "has the wrong type")


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    _check_config(config)
    return config


def _dataset_spec(args, config, seed) -> DatasetSpec:
    section = _merge(config.get("dataset", {}), n_images=args.n_images,
                     rows=args.rows, cols=args.cols, noise_sigma=args.noise_sigma,
                     smoothness=args.smoothness, seed=seed)
    return DatasetSpec(**section)


def _model_cfg(args, config, seed, density=None) -> ModelConfig:
    section = _merge(config.get("model", {}), channels=args.channels,
                     stride=args.stride, kernel=args.kernel, epochs=args.epochs,
                     learning_rate=args.lr, batch_size=args.batch_size, seed=seed)
    return ModelConfig(density=density, **section)


def _direct_opts(args, config) -> dict:
    section = _merge(config.get("direct", {}), max_evals=args.max_evals,
                     max_iters=args.max_iters, f_tol=args.f_tol,
                     epsilon=args.epsilon)
    lo = args.alpha_lo if args.alpha_lo is not None else section.pop("alpha_lo", None)
    hi = args.alpha_hi if args.alpha_hi is not None else section.pop("alpha_hi", None)
    if (lo is None) != (hi is None):
        raise ValueError("--alpha-lo and --alpha-hi must be given together")
    if lo is not None:
        section["bounds"] = (lo, hi)
    return section


def _resolve_density(args, config, kernel):
    chosen = [x for x in (args.density_family, args.alpha, args.density_file)
              if x is not None]
    if len(chosen) > 1:
        raise ValueError("give at most one of --density-family, --alpha, --density-file")
    if args.density_family is not None:
        return named_density(args.density_family, kernel)
    if args.alpha is not None:
        return density_from_free(_float_list(args.alpha), kernel)
    if args.density_file is not None:
        with open(args.density_file, "r", encoding="utf-8") as fh:
            return density_from_record(json.load(fh))
    if "density" in config:
        return density_from_record(config["density"])
    return None


def _load_data_dir(path):
    noisy_files = sorted(glob.glob(os.path.join(path, "noisy_*.wct")))
    if not noisy_files:
        raise FormatError(f"no noisy_*.wct files under {path}")
    pairs = []
    for nf in noisy_files:
        cf = os.path.join(path, os.path.basename(nf).replace("noisy_", "clean_"))
        if not os.path.exists(cf):
            raise FormatError(f"missing clean counterpart for {nf}")
        pairs.append((tensor_read(nf), tensor_read(cf)))
    return pairs


def _cmd_gen_data(args, config, seed, out_dir) -> int:
    spec = _dataset_spec(args, config, seed)
    pairs = gen_dataset(spec)
    for i, (noisy, clean) in enumerate(pairs):
        tensor_write(noisy, os.path.join(out_dir, f"noisy_{i:03d}.wct"))
        tensor_write(clean, os.path.join(out_dir, f"clean_{i:03d}.wct"))
    record = {"n_images": spec.n_images, "rows": spec.rows, "cols": spec.cols,
              "noise_sigma": spec.noise_sigma, "smoothness": spec.smoothness,
              "seed": spec.seed}
    _atomic_write(os.path.join(out_dir, "dataset.json"),
                  json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(pairs)} image pairs to {out_dir}")
    return 0


def _cmd_train(args, config, seed, out_dir) -> int:
    cfg = _model_cfg(args, config, seed)
    vec = _resolve_density(args, config, cfg.kernel)
    if vec is not None:
        cfg = replace(cfg, density=density_matrix(vec))
    dataset = (_load_data_dir(args.data_dir) if args.data_dir
               else gen_dataset(_dataset_spec(args, config, seed)))
    report = sgd_train(dataset, cfg)
    alpha = " ".join(repr(float(v)) for v in vec.values) if vec is not None else "uniform"
    row = {"seed": report.seed, "kernel": report.kernel, "alpha": alpha,
           "epochs": report.epochs, "lr": report.learning_rate,
           "stride": report.stride, "channels": report.channels,
           "final_loss": report.final_loss}
    write_csv(os.path.join(out_dir, "train_report.csv"), [row], list(row))
    write_csv(os.path.join(out_dir, "losses.csv"),
              [{"epoch": i + 1, "loss": loss}
               for i, loss in enumerate(report.epoch_losses)],
              ["epoch", "loss"])
    print(f"final loss {report.final_loss:.6g} "
          f"({report.param_count} parameters, {report.seconds:.2f}s)")
    return 0


def _cmd_optimize(args, config, seed, out_dir) -> int:
    cfg = _model_cfg(args, config, seed)
    dataset = gen_dataset(_dataset_spec(args, config, seed))
    direct_cfg = build_direct_config(cfg.kernel, **_direct_opts(args, config))
    result = optimize_density(cfg.kernel, cfg, direct_cfg, dataset)
    emit_report(result, "csv", os.path.join(out_dir, "outer_result.csv"))
    if args.format == "text":
        emit_report(result, "text", os.path.join(out_dir, "summary.txt"))
    _write_trace(os.path.join(out_dir, "trace.csv"), result.trace)
    _atomic_write(os.path.join(out_dir, "optimal_density.json"),
                  json.dumps(density_record(result.alpha), sort_keys=True) + "\n")
    print("alpha: " + " ".join(f"{v:.4f}" for v in result.alpha.values)
          + f"  improvement: {100.0 * result.improvement:.1f}%"
          + f"  evals: {result.evals}")
    return 0


def _cmd_sweep(args, config, seed, out_dir) -> int:
    cfg = _model_cfg(args, config, seed)
    spec = _dataset_spec(args, config, seed)
    if args.axis == "stride":
        print("note: image size is held fixed while the stride varies")
    rows = sweep_hyperparams(args.axis, args.values, spec, cfg,
                             k=cfg.kernel, direct_opts=_direct_opts(args, config))
    n_free = (cfg.kernel - 1) // 2
    fields = (["axis", "axis_value"] + [f"alpha_{i}" for i in range(1, n_free + 1)]
              + ["objective", "baseline", "improvement", "error"])
    write_csv(os.path.join(out_dir, f"sweep_{args.axis}.csv"), rows, fields)
    for row in rows:
        alpha_1 = row.get("alpha_1")
        status = row["error"] or (f"alpha_1={alpha_1:.4f}" if alpha_1 is not None else "")
        print(f"{args.axis}={row['axis_value']}: {status}")
    return 0


def _cmd_compare(args, config, seed, out_dir) -> int:
    cfg = _model_cfg(args, config, seed)
    dataset = gen_dataset(_dataset_spec(args, config, seed))
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    optimal = None
    if "optimal" in families:
        train_split, _ = split_dataset(dataset, 0.2, cfg.seed)
        direct_cfg = build_direct_config(cfg.kernel, **_direct_opts(args, config))
        outer = optimize_density(cfg.kernel, cfg, direct_cfg, train_split)
        optimal = outer.alpha
        _atomic_write(os.path.join(out_dir, "optimal_density.json"),
                      json.dumps(density_record(optimal), sort_keys=True) + "\n")
    rows = compare_densities(families, cfg.kernel, cfg, dataset, optimal=optimal)
    write_csv(os.path.join(out_dir, "compare.csv"), rows,
              ["family", "alpha", "final_loss", "holdout_mse"])
    for row in rows:
        print(f"{row['family']:<10} final_loss={row['final_loss']:.6g} "
              f"holdout_mse={row['holdout_mse']:.6g}")
    return 0


def _cmd_bench(args, config, seed, out_dir) -> int:
    if len(args.image_shape) != 4:
        raise ValueError("--image-shape needs 4 comma-separated extents")
    rows = bench_overhead(args.kernels, args.out_channels,
                          tuple(args.image_shape), args.repeats, seed=seed)
    write_csv(os.path.join(out_dir, "bench.csv"), rows,
              ["kernel", "out_channels", "standard_ms", "weighted_ms", "ratio",
               "premultiplied_ms", "premultiplied_ratio"])
    for row in rows:
        print(f"K={row['kernel']} F={row['out_channels']}: "
              f"standard {row['standard_ms']:.2f}ms, weighted {row['weighted_ms']:.2f}ms, "
              f"ratio {row['ratio']:.3f}, premultiplied ratio {row['premultiplied_ratio']:.3f}")
    return 0


def _cmd_verify(args, config, seed, out_dir) -> int:
    reports = run_verification(args.instances, tuple(args.sizes),
                               args.young_triples, seed)
    rows = []
    for rep in reports:
        verdict = "PASS" if rep.passed else "FAIL"
        print(f"{rep.name:<28} instances={rep.instances:<5} "
              f"max_error={rep.max_error:.3e}  tol={rep.tolerance:.0e}  {verdict}")
        rows.append({"property": rep.name, "instances": rep.instances,
                     "max_error": rep.max_error, "tolerance": rep.tolerance,
                     "result": verdict})
    write_csv(os.path.join(out_dir, "verify.csv"), rows,
              ["property", "instances", "max_error", "tolerance", "result"])
    return 0 if all(rep.passed for rep in reports) else 1


_HANDLERS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "optimize-density": _cmd_optimize,
    "sweep": _cmd_sweep,
    "compare-densities": _cmd_compare,
    "bench": _cmd_bench,
    "verify": _cmd_verify,
}


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.threads is not None and args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else 0
    out_dir = args.out_dir or os.environ.get("WCONV_OUT_DIR") or "wconv-out"
    try:
        config = _load_config(args.config)
        os.makedirs(out_dir, exist_ok=True)
        return _HANDLERS[args.command](args, config, seed, out_dir)
    except (DivergenceError, SearchDivergedError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
