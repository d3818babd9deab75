"""Command-line entry point.

Subcommands: gen-data, train, optimize-density, sweep, compare-densities,
bench, verify.  All outputs land under --out-dir (or $WCONV_OUT_DIR) as
CSV/JSON/WCT1 files written atomically; wall-clock timings go to stdout
only, so files are byte-stable across reruns with the same seeds.  Exit
codes: 0 success, 1 domain failure (divergence, a search whose every
evaluation or uniform baseline diverged, verification FAIL, bad data
files), 2 usage or validation error.
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
from dataclasses import asdict, replace

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

COMPARE_FAMILIES = (*FAMILIES, "optimal")

# Every dataset, model and DIRECT setting and the type of its value.  Each
# is a key of its config section and a flag of the subcommands that read the
# section (n_images is --n-images, learning_rate is --lr); a flag given
# overrides the config.  No seed: --seed (default 0) seeds data and model.
SETTINGS = {
    "dataset": {"n_images": int, "rows": int, "cols": int,
                "noise_sigma": float, "smoothness": float},
    "model": {"kernel": int, "channels": int, "stride": int, "epochs": int,
              "learning_rate": float, "batch_size": int},
    "direct": {"max_evals": int, "max_iters": int, "f_tol": float,
               "epsilon": float, "alpha_lo": float, "alpha_hi": float},
}


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


def _add_setting_flags(p, *sections, kernel_required=False) -> None:
    for section in sections:
        for key, kind in SETTINGS[section].items():
            flag = "--lr" if key == "learning_rate" else "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, type=kind, default=None,
                           required=kernel_required and key == "kernel")


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

    p = sub.add_parser("gen-data", help="write a synthetic denoising dataset")
    _add_setting_flags(p, "dataset")

    p = sub.add_parser("train", help="train the model once with a fixed density")
    _add_setting_flags(p, "dataset", "model")
    p.add_argument("--data-dir", default=None, help="read WCT1 pairs instead of generating")
    p.add_argument("--density-family", choices=FAMILIES, default=None)
    p.add_argument("--alpha", default=None,
                   help="comma-separated free density coefficients")
    p.add_argument("--density-file", default=None, help="JSON density record")

    p = sub.add_parser("optimize-density", help="nested search for the optimal density")
    _add_setting_flags(p, "dataset", "model", "direct", kernel_required=True)
    p.add_argument("--format", choices=("csv", "text"), default="csv")

    p = sub.add_parser("sweep", help="repeat the optimization along one hyperparameter axis")
    _add_setting_flags(p, "dataset", "model", "direct")
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", required=True, type=_int_list)

    p = sub.add_parser("compare-densities", help="train once per density family")
    _add_setting_flags(p, "dataset", "model", "direct", kernel_required=True)
    p.add_argument("--families", default=",".join(COMPARE_FAMILIES))

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


def _check_config(config) -> None:
    """Reject a section or key that nothing reads, or a value of the wrong type."""
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    for name, section in config.items():
        if name == "density":
            density_from_record(section)
            continue
        if name not in SETTINGS:
            raise ValueError(f"unknown config section {name!r}, expected one of "
                             f"{sorted([*SETTINGS, 'density'])}")
        if not isinstance(section, dict):
            raise ValueError(f"config section {name!r} must be a JSON object")
        for key, value in section.items():
            kind = SETTINGS[name].get(key)
            if kind is None:
                raise ValueError(f"unknown key {key!r} in config section {name!r}, "
                                 f"expected one of {sorted(SETTINGS[name])}")
            types = (int,) if kind is int else (int, float)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, types)):
                raise ValueError(f"config value {name}.{key} = {value!r} "
                                 "has the wrong type")


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    _check_config(config)
    return config


def _settings(args, config, section) -> dict:
    """``section``'s settings from the config, overridden by the flags given;
    a setting that neither gives, or that the config sets to null, is left
    out so that it keeps its default."""
    merged = dict(config.get(section, {}))
    merged.update((key, getattr(args, key)) for key in SETTINGS[section]
                  if getattr(args, key) is not None)
    return {key: value for key, value in merged.items() if value is not None}


def _dataset_spec(args, config, seed) -> DatasetSpec:
    return DatasetSpec(seed=seed, **_settings(args, config, "dataset"))


def _model_cfg(args, config, seed) -> ModelConfig:
    return ModelConfig(seed=seed, **_settings(args, config, "model"))


def _search(direct_cfg, cfg, dataset, out_dir) -> OuterResult:
    """The nested density search on ``dataset``; writes optimal_density.json."""
    result = optimize_density(cfg, direct_cfg, dataset)
    _atomic_write(os.path.join(out_dir, "optimal_density.json"),
                  json.dumps(density_record(result.alpha), sort_keys=True) + "\n")
    return result


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


def _read_image(path):
    """One (rows, cols) image of a data directory; a bad file names itself
    in the ``FormatError``."""
    try:
        image = tensor_read(path)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    if image.ndim != 2:
        raise FormatError(f"{path}: expected a (rows, cols) image, got shape "
                          f"{image.shape}")
    return image


def _load_data_dir(path):
    noisy_files = sorted(glob.glob(os.path.join(path, "noisy_*.wct")))
    if not noisy_files:
        raise FormatError(f"no noisy_*.wct files under {path}")
    pairs = []
    for nf in noisy_files:
        cf = os.path.join(path, os.path.basename(nf).replace("noisy_", "clean_"))
        if not os.path.exists(cf):
            raise FormatError(f"missing clean counterpart for {nf}")
        pairs.append((_read_image(nf), _read_image(cf)))
        shape = pairs[0][0].shape
        for name, image in zip((nf, cf), pairs[-1]):
            if image.shape != shape:
                raise FormatError(f"{name}: shape {image.shape} differs from "
                                  f"{shape} in {noisy_files[0]}")
    return pairs


def _cmd_gen_data(args, config, seed, out_dir) -> int:
    spec = _dataset_spec(args, config, seed)
    pairs = gen_dataset(spec)
    for i, (noisy, clean) in enumerate(pairs):
        tensor_write(noisy, os.path.join(out_dir, f"noisy_{i:03d}.wct"))
        tensor_write(clean, os.path.join(out_dir, f"clean_{i:03d}.wct"))
    _atomic_write(os.path.join(out_dir, "dataset.json"),
                  json.dumps(asdict(spec), indent=2, sort_keys=True) + "\n")
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
    row = {"seed": cfg.seed, "kernel": cfg.kernel, "alpha": alpha,
           "epochs": cfg.epochs, "lr": cfg.learning_rate, "stride": cfg.stride,
           "channels": cfg.channels, "final_loss": report.final_loss}
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
    direct_cfg = build_direct_config(cfg.kernel, **_settings(args, config, "direct"))
    result = _search(direct_cfg, cfg,
                     gen_dataset(_dataset_spec(args, config, seed)), out_dir)
    emit_report(result, "csv", os.path.join(out_dir, "outer_result.csv"))
    if args.format == "text":
        emit_report(result, "text", os.path.join(out_dir, "summary.txt"))
    _write_trace(os.path.join(out_dir, "trace.csv"), result.trace)
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
                             direct_opts=_settings(args, config, "direct"))
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
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    if not families or not set(families) <= set(COMPARE_FAMILIES):
        raise ValueError(f"--families {args.families!r} must name one or more of "
                         f"{', '.join(COMPARE_FAMILIES)}")
    direct_cfg = build_direct_config(cfg.kernel, **_settings(args, config, "direct"))
    dataset = gen_dataset(_dataset_spec(args, config, seed))
    optimal = None
    if "optimal" in families:
        train_split, _ = split_dataset(dataset, cfg.seed)
        optimal = _search(direct_cfg, cfg, train_split, out_dir).alpha
    rows = compare_densities(families, cfg, dataset, optimal=optimal)
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
