"""The benchmark's workloads: CLI arguments, output parsing and reference checks.

Each workload is one ``wconv`` subcommand run in-process through
``wconv.cli.dispatch``.  Its outputs are parsed from the CSV files the
command writes to ``--out-dir`` and compared, as numbers at a stated
tolerance, with the reference outputs recorded from the seed code in
``reference.json``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Inputs come from the workload seed taken modulo this count; references are
# recorded for every input seed below it.
INPUT_SEEDS = 16

# Relative tolerance on losses and objectives.  Folding the density into the
# kernel or switching to im2col reorders float64 sums, which moves a final
# loss after a few dozen SGD steps by far less than this; a wrong gradient
# or a skipped step moves it by far more.
LOSS_RTOL = 1e-6
# Absolute tolerance on the optimized density coefficient.  DIRECT samples
# exact grid points, so the coefficient only moves if a search decision flips.
ALPHA_ATOL = 1e-6
# A verify max error may grow by at most this factor over the reference
# (plus a floor for properties whose reference error is exactly zero) and
# must stay within the property's own tolerance.
VERIFY_ERROR_FACTOR = 100.0
VERIFY_ERROR_FLOOR = 1e-15


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


def _shape_flags(shape: dict) -> tuple[str, ...]:
    """The command-line flags that give the dataset this shape."""
    return tuple(f for key, value in shape.items()
                 for f in (f"--{key.replace('_', '-')}", str(value)))


# ---------------------------------------------------------------- desk-optimize

DESK_SHAPE = {"n_images": 20, "rows": 64, "cols": 64}
DESK_EPOCHS = 10
DESK_FLAGS = ("optimize-density", "--kernel", "3", "--channels", "2",
              "--stride", "1", *_shape_flags(DESK_SHAPE),
              "--epochs", str(DESK_EPOCHS), "--max-evals", "16")


def _desk_parse(out_dir: Path) -> dict:
    row = _read_rows(out_dir / "outer_result.csv")[0]
    trace = _read_rows(out_dir / "trace.csv")
    cumulative = [int(r["evals"]) for r in trace]
    return {
        "alpha_1": float(row["alpha_1"]),
        "objective": float(row["objective"]),
        "baseline": float(row["baseline"]),
        "evals": int(row["evals"]),
        "iterations": int(row["iterations"]),
        # Evaluations made in each DIRECT iteration, from the cumulative
        # counts in trace.csv (row 0 is the initial point).
        "evals_per_iter": [b - a for a, b in zip(cumulative, cumulative[1:])],
    }


def _desk_check(out: dict, ref: dict) -> list[str]:
    problems = []
    if out["evals"] != ref["evals"]:
        problems.append(f"evals {out['evals']} != reference {ref['evals']}")
    for key in ("objective", "baseline"):
        if not _close(out[key], ref[key], LOSS_RTOL):
            problems.append(f"{key} {out[key]!r} differs from reference "
                            f"{ref[key]!r} by more than rtol {LOSS_RTOL}")
    if abs(out["alpha_1"] - ref["alpha_1"]) > ALPHA_ATOL:
        problems.append(f"alpha_1 {out['alpha_1']!r} differs from reference "
                        f"{ref['alpha_1']!r} by more than {ALPHA_ATOL}")
    return problems


def _desk_work(out: dict) -> dict:
    mpx = DESK_EPOCHS * DESK_SHAPE["n_images"] * DESK_SHAPE["rows"] * DESK_SHAPE["cols"] / 1e6
    return {"evals": out["evals"], "train_mpx": out["evals"] * mpx}


# ------------------------------------------------------------------- wide-train

WIDE_SHAPE = {"n_images": 48, "rows": 64, "cols": 64}
WIDE_EPOCHS = 2
WIDE_FLAGS = ("train", "--channels", "16", "--kernel", "5", "--stride", "2",
              *_shape_flags(WIDE_SHAPE), "--batch-size", "8", "--density-family", "gaussian",
              "--epochs", str(WIDE_EPOCHS))


def _wide_parse(out_dir: Path) -> dict:
    row = _read_rows(out_dir / "train_report.csv")[0]
    return {"final_loss": float(row["final_loss"]), "epochs": int(row["epochs"])}


def _wide_check(out: dict, ref: dict) -> list[str]:
    problems = []
    if out["epochs"] != ref["epochs"]:
        problems.append(f"epochs {out['epochs']} != reference {ref['epochs']}")
    if not _close(out["final_loss"], ref["final_loss"], LOSS_RTOL):
        problems.append(f"final_loss {out['final_loss']!r} differs from reference "
                        f"{ref['final_loss']!r} by more than rtol {LOSS_RTOL}")
    return problems


def _wide_work(out: dict) -> dict:
    pixels = WIDE_SHAPE["n_images"] * WIDE_SHAPE["rows"] * WIDE_SHAPE["cols"]
    return {"train_mpx": out["epochs"] * pixels / 1e6}


# ----------------------------------------------------------------------- verify

VERIFY_FLAGS = ("verify", "--instances", "30", "--young-triples", "300")


def _verify_parse(out_dir: Path) -> dict:
    return {row["property"]: {"instances": int(row["instances"]),
                              "max_error": float(row["max_error"]),
                              "tolerance": float(row["tolerance"]),
                              "result": row["result"]}
            for row in _read_rows(out_dir / "verify.csv")}


def _verify_check(out: dict, ref: dict) -> list[str]:
    problems = []
    if sorted(out) != sorted(ref):
        problems.append(f"properties {sorted(out)} != reference {sorted(ref)}")
    for name, r in ref.items():
        o = out.get(name)
        if o is None:
            continue
        if o["result"] != "PASS":
            problems.append(f"{name}: {o['result']}")
        if o["instances"] != r["instances"]:
            problems.append(f"{name}: {o['instances']} instances, reference "
                            f"{r['instances']}")
        limit = min(r["tolerance"],
                    VERIFY_ERROR_FACTOR * r["max_error"] + VERIFY_ERROR_FLOOR)
        if not o["max_error"] <= limit:
            problems.append(f"{name}: max error {o['max_error']!r} above "
                            f"{limit!r} (reference {r['max_error']!r})")
    return problems


def _verify_work(out: dict) -> dict:
    return {"verify_instances": sum(p["instances"] for p in out.values())}


# --------------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple[str, ...]
    parse: Callable[[Path], dict]
    check: Callable[[dict, dict], list[str]]
    work: Callable[[dict], dict]
    # Work unit behind the workload's work_per_s metric.
    unit: str
    # Dataset a fresh process generates during set-up, or None.
    dataset: dict | None
    # Tiny run of the same subcommand that warms the process up.
    warmup: tuple[str, ...]
    # Whether the timed run passes --threads <nproc>.
    parallel: bool = False

    def argv(self, seed: int, out_dir: Path, threads: int = 1) -> list[str]:
        head = ["--seed", str(seed), "--out-dir", str(out_dir)]
        if self.parallel:
            head += ["--threads", str(threads)]
        return head + list(self.flags)


WORKLOADS = {w.name: w for w in (
    Workload("desk-optimize", DESK_FLAGS, _desk_parse, _desk_check, _desk_work,
             unit="evals", dataset=DESK_SHAPE, parallel=True,
             warmup=("optimize-density", "--kernel", "3", "--channels", "2",
                     "--n-images", "2", "--rows", "8", "--cols", "8",
                     "--epochs", "1", "--max-evals", "3")),
    Workload("wide-train", WIDE_FLAGS, _wide_parse, _wide_check, _wide_work,
             unit="train_mpx", dataset=WIDE_SHAPE,
             warmup=("train", "--channels", "16", "--kernel", "5", "--stride", "2",
                     "--n-images", "2", "--rows", "8", "--cols", "8",
                     "--batch-size", "1", "--epochs", "1")),
    Workload("verify", VERIFY_FLAGS, _verify_parse, _verify_check, _verify_work,
             unit="verify_instances", dataset=None,
             warmup=("verify", "--instances", "1", "--sizes", "8",
                     "--young-triples", "1")),
)}


def input_seed(seed: int) -> int:
    return seed % INPUT_SEEDS


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def reference_for(reference: dict, workload: str, seed: int) -> dict:
    return reference["workloads"][workload][str(input_seed(seed))]
