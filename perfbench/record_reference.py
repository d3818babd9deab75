"""Record the reference outputs that the benchmark checks every run against.

    python3 perfbench/record_reference.py

Runs every workload once per input seed and writes the parsed outputs to
``reference.json``, replacing it.  Record references from a commit whose outputs are
trusted; a change that is meant to move results must say so, since every
benchmark run is compared with this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import run
import workloads

# Outputs that describe the run rather than its result.
UNCHECKED = ("evals_per_iter", "iterations")


def record(cli, workload: workloads.Workload, seed: int) -> dict:
    out_dir = run.OUT / "reference" / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.dispatch(workload.argv(seed, out_dir))
    if code != 0:
        raise SystemExit(f"{workload.name} seed {seed}: exit code {code}")
    outputs = workload.parse(out_dir)
    if workload.name == "desk-optimize" and not math.isfinite(outputs["objective"]):
        raise SystemExit(f"{workload.name} seed {seed}: non-finite objective")
    return {k: v for k, v in outputs.items() if k not in UNCHECKED}


def main() -> int:
    cli = run.load_wconv()
    reference = {
        "tolerances": {"loss_rtol": workloads.LOSS_RTOL,
                       "alpha_atol": workloads.ALPHA_ATOL,
                       "verify_error_factor": workloads.VERIFY_ERROR_FACTOR,
                       "verify_error_floor": workloads.VERIFY_ERROR_FLOOR},
        "workloads": {}}
    for name, workload in sorted(workloads.WORKLOADS.items()):
        reference["workloads"][name] = {
            str(seed): record(cli, workload, seed)
            for seed in range(workloads.INPUT_SEEDS)}
        print(f"recorded {name}", file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0

if __name__ == "__main__":
    sys.exit(main())
