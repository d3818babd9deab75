"""Tests of the benchmark itself: reference checks, failure counting, tracing.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import replace
from pathlib import Path

import pytest

import run
import tracing
import workloads

CLI = run.load_wconv()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REFERENCE = workloads.load_reference()


def _write_csv(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _fake_desk(ref: dict, objective: float):
    def call(argv):
        out = Path(argv[argv.index("--out-dir") + 1])
        _write_csv(out / "outer_result.csv",
                   [{"alpha_1": ref["alpha_1"], "objective": objective,
                     "baseline": ref["baseline"], "evals": ref["evals"],
                     "iterations": 3}])
        _write_csv(out / "trace.csv", [{"iter": 0, "evals": 1},
                                       {"iter": 3, "evals": ref["evals"]}])
        return 0
    return call


def _fake_wide(ref: dict, loss: float):
    def call(argv):
        out = Path(argv[argv.index("--out-dir") + 1])
        _write_csv(out / "train_report.csv",
                   [{"epochs": ref["epochs"], "final_loss": loss}])
        return 0
    return call


def _fake_verify(ref: dict, scale: float):
    def call(argv):
        out = Path(argv[argv.index("--out-dir") + 1])
        _write_csv(out / "verify.csv", [
            {"property": name, "instances": p["instances"],
             "max_error": p["max_error"] * scale + (1e-13 if scale > 1 else 0.0),
             "tolerance": p["tolerance"], "result": p["result"]}
            for name, p in ref.items()])
        return 0
    return call


def _rep(tmp_path, name, call):
    workload = workloads.WORKLOADS[name]
    ref = workloads.reference_for(REFERENCE, name, 0)
    return run.run_rep(call, workload, workload.argv(0, tmp_path / "out"),
                       tmp_path / "out", ref)


@pytest.mark.parametrize("name, make, good, bad", [
    ("desk-optimize", _fake_desk, lambda r: r["objective"],
     lambda r: r["objective"] * (1 + 1e-5)),
    ("wide-train", _fake_wide, lambda r: r["final_loss"],
     lambda r: r["final_loss"] * (1 - 1e-5)),
    ("verify", _fake_verify, lambda r: 1.0, lambda r: 1e3),
])
def test_output_outside_reference_tolerance_is_a_failed_run(tmp_path, name, make,
                                                            good, bad):
    ref = workloads.reference_for(REFERENCE, name, 0)
    assert not _rep(tmp_path, name, make(ref, good(ref))).failed
    rep = _rep(tmp_path, name, make(ref, bad(ref)))
    assert rep.failed and rep.outputs is not None


def test_crash_nonzero_exit_and_missing_output_are_failed_runs(tmp_path):
    def crash(argv):
        raise TypeError("boom")

    assert _rep(tmp_path, "wide-train", crash).failed
    assert _rep(tmp_path, "wide-train", lambda argv: 1).failed
    assert _rep(tmp_path, "wide-train", lambda argv: 0).failed


def test_input_seeds_have_references():
    for name in workloads.WORKLOADS:
        assert sorted(REFERENCE["workloads"][name], key=int) == [
            str(s) for s in range(workloads.INPUT_SEEDS)]
    assert workloads.input_seed(workloads.INPUT_SEEDS + 3) == 3


def test_self_times_account_for_the_root_span():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.002)

    def middle():
        traced_leaf()
        traced_leaf()

    traced_leaf = tracer.wrap(leaf, "conv.leaf")
    root = tracer.wrap(tracer.wrap(middle, "network.middle"), "cli.root")
    root()
    own = tracing.self_times(tracer.spans)
    assert [s.name for s in tracer.spans] == ["cli.root", "network.middle",
                                              "conv.leaf", "conv.leaf"]
    assert tracer.spans[2].parent == 1
    assert sum(own) == pytest.approx(tracer.spans[0].seconds, abs=1e-12)
    assert min(own) >= 0


def test_install_wraps_every_target_and_restore_undoes_it():
    import wconv.network
    original = wconv.network.conv2d_weighted
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert wconv.network.conv2d_weighted is not original
    finally:
        tracer.restore()
    assert wconv.network.conv2d_weighted is original
    assert "forward" in vars(wconv.network.DenoiseNet)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    # A tiny search stands in for the workload; its outputs are not
    # reference-checked here.
    workload = replace(workloads.WORKLOADS["desk-optimize"], check=lambda out, ref: [])
    argv = ["--seed", "0", "--out-dir", str(tmp_path / "out"), *workload.warmup]
    tracer = tracing.Tracer()
    reps = [run.run_rep(CLI.dispatch, workload, argv, tmp_path / "out", {})]
    tracer.install()
    try:
        reps.append(run.run_rep(tracer.wrap(CLI.dispatch, "cli.dispatch"),
                                workload, argv, tmp_path / "out", {}, traced=True))
    finally:
        tracer.restore()
    metrics = run.traced_metrics(reps, tracer)
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert metrics["directl.evals"][0] == 3
    assert metrics["directl.useful_eval_ratio"][0] == 1.0
    assert metrics["conv.calls"][0] > 0 and metrics["conv.gflop_per_s"][0] > 0
    assert metrics["conv.fwd_s"][0] > 0 and metrics["conv.bwd_s"][0] > 0
    assert 0.5 < metrics["trace.coverage"][0] <= 1.0
    layer_self = sum(metrics[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
    assert layer_self == pytest.approx(reps[1].seconds, rel=0.05)


def test_end_to_end_metrics_match_benchmark_json():
    workload = workloads.WORKLOADS["verify"]
    ref = workloads.reference_for(REFERENCE, "verify", 0)
    reps = [run.Rep(2.0, False, [], ref)]
    metrics = run.end_to_end(reps, [0.1, 0.2, 0.3], workload)
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert metrics["work_per_s"][0] == pytest.approx(840 / 2.0)
    assert metrics["setup_s"][0] == 0.2
    assert metrics["run_s"][0] == 2.0
