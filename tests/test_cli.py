import csv
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import wconv
import wconv.cli as cli
import wconv.experiments as experiments
from wconv.cli import dispatch, write_outer_result, write_summary
from wconv.density import DensityVector, density_matrix, named_density
from wconv.errors import DivergenceError
from wconv.experiments import OuterResult
from wconv.spectral import PropertyCheck
from wconv.tensors import tensor_read, tensor_write


MICRO_DATA = ["--n-images", "4", "--rows", "12", "--cols", "12"]
MICRO_MODEL = ["--channels", "2", "--epochs", "2", "--kernel", "3"]
MICRO_DIRECT = ["--max-evals", "6", "--max-iters", "4"]


def run(tmp_path, *argv, name="out"):
    out = tmp_path / name
    code = dispatch(["--out-dir", str(out), *argv])
    return code, out


def count_trainings(monkeypatch):
    """The list of every training run the nested search starts from now on."""
    calls = []
    real_train = experiments.sgd_train

    def counted(dataset, cfg):
        calls.append(cfg)
        return real_train(dataset, cfg)

    monkeypatch.setattr(experiments, "sgd_train", counted)
    return calls


def read_text(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestUsageErrors:
    def test_unknown_flag_exits_2(self, tmp_path, capsys):
        code, _ = run(tmp_path, "gen-data", "--bogus", "1")
        assert code == 2

    def test_missing_kernel_on_optimize_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "optimize-density", *MICRO_DATA)
        assert code == 2

    def test_zero_epochs_rejected(self, tmp_path, capsys):
        code, _ = run(tmp_path, "train", *MICRO_DATA, "--kernel", "3",
                      "--epochs", "0")
        assert code == 2
        assert "epochs" in capsys.readouterr().err

    def test_threads_must_be_positive(self, tmp_path):
        assert dispatch(["--threads", "0", "verify"]) == 2

    @pytest.mark.parametrize("command", [
        ["optimize-density"], ["compare-densities"],
        ["sweep", "--axis", "epochs", "--values", "1,2"]])
    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_negative_alpha_bound_rejected_before_any_training(
            self, tmp_path, capsys, monkeypatch, command, source):
        trainings = count_trainings(monkeypatch)
        argv = [*command, *MICRO_DATA, *MICRO_MODEL, *MICRO_DIRECT]
        if source == "config":
            cfg_file = tmp_path / "cfg.json"
            cfg_file.write_text(json.dumps(
                {"direct": {"alpha_lo": -1, "alpha_hi": 2}}))
            argv = ["--config", str(cfg_file), *argv]
        else:
            argv += ["--alpha-lo", "-1", "--alpha-hi", "2"]
        code, _ = run(tmp_path, *argv)
        assert code == 2
        assert "alpha_lo must be >= 0" in capsys.readouterr().err
        assert trainings == []

    # (alpha_lo, alpha_hi, what the message says): a box that is not finite,
    # is empty, or leaves out the uniform density, the search's first point.
    @pytest.mark.parametrize("alpha_lo, alpha_hi, says", [
        ("nan", "2", "alpha_lo must be finite, got nan"),
        ("0", "0", "alpha_lo 0.0 and alpha_hi 0.0 must hold 1"),
        ("1", "1", "alpha_lo 1.0 must be below alpha_hi 1.0"),
        ("1.5", "2", "alpha_lo 1.5 and alpha_hi 2.0 must hold 1"),
    ])
    @pytest.mark.parametrize("command", [
        ["optimize-density"], ["compare-densities"],
        ["sweep", "--axis", "epochs", "--values", "1,2"]])
    def test_bad_box_rejected_before_any_data(self, tmp_path, capsys,
                                              monkeypatch, command, alpha_lo,
                                              alpha_hi, says):
        generated = []
        for module in (cli, experiments):
            monkeypatch.setattr(module, "gen_dataset",
                                lambda spec: generated.append(spec))
        code, out = run(tmp_path, *command, *MICRO_DATA, *MICRO_MODEL,
                        *MICRO_DIRECT, "--alpha-lo", alpha_lo,
                        "--alpha-hi", alpha_hi)
        assert code == 2
        err = capsys.readouterr().err
        assert says in err and "usage:" in err
        assert generated == []
        assert not out.exists() or list(out.iterdir()) == []

    # (command, setting, value, what the message names): a NaN or infinite
    # float setting of each section, on a command that reads it.
    NON_FINITE = [
        (["gen-data"], "noise_sigma", "nan", "noise_sigma"),
        (["gen-data"], "smoothness", "nan", "smoothness"),
        (["train"], "smoothness", "inf", "smoothness"),
        (["train"], "learning_rate", "nan", "learning_rate"),
        (["train"], "learning_rate", "inf", "learning_rate"),
        (["optimize-density"], "epsilon", "nan", "epsilon"),
        (["optimize-density"], "f_tol", "nan", "f_tol"),
        (["optimize-density"], "alpha_hi", "inf", "alpha_hi"),
        (["compare-densities"], "epsilon", "inf", "epsilon"),
        (["sweep", "--axis", "epochs", "--values", "1,2"], "f_tol", "nan", "f_tol"),
        (["sweep", "--axis", "epochs", "--values", "1,2"], "learning_rate", "nan",
         "learning_rate"),
    ]

    @pytest.mark.parametrize("command, key, value, named", NON_FINITE)
    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_non_finite_setting_rejected_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, key, value, named,
            source):
        trainings = count_trainings(monkeypatch)
        # train calls sgd_train through cli: count those runs too.
        monkeypatch.setattr(cli, "sgd_train", experiments.sgd_train)
        section = next(s for s, keys in cli.SETTINGS.items() if key in keys)
        settings = {key: float(value)}
        if key == "alpha_hi":
            settings["alpha_lo"] = 0.0
        argv = [*command, *MICRO_DATA]
        if section != "dataset":
            argv += MICRO_MODEL
        if section == "direct":
            argv += MICRO_DIRECT
        if source == "config":
            cfg_file = tmp_path / "cfg.json"
            cfg_file.write_text(json.dumps({section: settings}))
            argv = ["--config", str(cfg_file), *argv]
        else:
            for name, v in settings.items():
                flag = "--lr" if name == "learning_rate" else "--" + name.replace("_", "-")
                argv += [flag, str(v)]
        code, out = run(tmp_path, *argv)
        assert code == 2
        err = capsys.readouterr().err
        assert f"{named} must be finite" in err and "usage:" in err
        assert trainings == []
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ["train"], ["sweep", "--axis", "epochs", "--values", "1,2"]])
    @pytest.mark.parametrize("value", [0.0, -0.0])
    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_zero_learning_rate_rejected_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, value, source):
        trainings = count_trainings(monkeypatch)
        monkeypatch.setattr(cli, "sgd_train", experiments.sgd_train)
        argv = [*command, *MICRO_DATA, *MICRO_MODEL]
        if source == "config":
            cfg_file = tmp_path / "cfg.json"
            cfg_file.write_text(json.dumps({"model": {"learning_rate": value}}))
            argv = ["--config", str(cfg_file), *argv]
        else:
            argv += ["--lr", str(value)]
        code, out = run(tmp_path, *argv)
        assert code == 2
        err = capsys.readouterr().err
        assert "learning_rate must be finite and > 0" in err and "usage:" in err
        assert trainings == []
        assert not out.exists() or list(out.iterdir()) == []

    # 2 * smoothness**2 overflows, or underflows to zero, in float64.
    @pytest.mark.parametrize("smoothness", ["1e300", "1e-200"])
    def test_smoothness_out_of_float_range_rejected(self, tmp_path, capsys,
                                                    smoothness):
        code, out = run(tmp_path, "gen-data", "--n-images", "2", "--rows", "8",
                        "--cols", "8", "--smoothness", smoothness)
        assert code == 2
        err = capsys.readouterr().err
        assert "smoothness" in err and "usage:" in err
        assert not out.exists() or list(out.iterdir()) == []

    # alpha alpha^T overflows float64 for a value above sqrt(float max).
    @pytest.mark.parametrize("source", ["alpha", "density-file", "config"])
    def test_density_that_overflows_rejected(self, tmp_path, capsys, monkeypatch,
                                             source):
        trainings = count_trainings(monkeypatch)
        monkeypatch.setattr(cli, "sgd_train", experiments.sgd_train)
        argv = ["train", "--n-images", "2", "--rows", "8", "--cols", "8",
                "--epochs", "1", "--kernel", "3"]
        record = {"K": 3, "M": 1.0, "values": [1e308, 1.0, 1e308]}
        if source == "alpha":
            argv += ["--alpha", "1e308"]
        elif source == "density-file":
            path = tmp_path / "density.json"
            path.write_text(json.dumps(record))
            argv += ["--density-file", str(path)]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"density": record}))
            argv = ["--config", str(path), *argv]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run(tmp_path, *argv)
        assert code == 2
        err = capsys.readouterr().err
        assert "density value 1e+308 exceeds" in err and "usage:" in err
        assert "Warning" not in err and caught == []
        assert trainings == []
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_alpha_hi_whose_density_overflows_rejected(self, tmp_path, capsys,
                                                       monkeypatch, source):
        trainings = count_trainings(monkeypatch)
        generated = []
        monkeypatch.setattr(cli, "gen_dataset",
                            lambda spec: generated.append(spec))
        argv = ["optimize-density", "--kernel", "3", "--n-images", "2",
                "--rows", "8", "--cols", "8", "--epochs", "1", "--max-evals", "3"]
        if source == "config":
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"direct": {"alpha_lo": 0, "alpha_hi": 1e308}}))
            argv = ["--config", str(path), *argv]
        else:
            argv += ["--alpha-lo", "0", "--alpha-hi", "1e308"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run(tmp_path, *argv)
        assert code == 2
        err = capsys.readouterr().err
        assert "alpha_hi 1e+308 exceeds" in err and "usage:" in err
        assert "Warning" not in err and caught == []
        assert trainings == [] and generated == []
        assert not out.exists() or list(out.iterdir()) == []

    # Every non-constant frequency's gain vanishes or falls below rounding,
    # so the clean images would come out constant (they were all zero).
    @pytest.mark.parametrize("smoothness", ["0.1", "0.01", "1e-160"])
    def test_smoothness_that_leaves_constant_images_rejected(self, tmp_path, capsys,
                                                            smoothness):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run(tmp_path, "gen-data", "--n-images", "2", "--rows", "8",
                            "--cols", "8", "--smoothness", smoothness)
        assert code == 2
        err = capsys.readouterr().err
        assert "smoothness" in err and "constant" in err and "usage:" in err
        assert "Warning" not in err and caught == []
        assert not out.exists() or list(out.iterdir()) == []

    def test_internal_type_error_is_not_a_usage_error(self, tmp_path,
                                                      monkeypatch):
        def broken(*args):
            raise TypeError("internal bug")

        monkeypatch.setitem(cli._HANDLERS, "verify", broken)
        with pytest.raises(TypeError, match="internal bug"):
            run(tmp_path, "verify")


class TestGenData:
    def test_writes_pairs_and_manifest(self, tmp_path):
        code, out = run(tmp_path, "gen-data", *MICRO_DATA)
        assert code == 0
        noisy = sorted(out.glob("noisy_*.wct"))
        clean = sorted(out.glob("clean_*.wct"))
        assert len(noisy) == len(clean) == 4
        img = tensor_read(noisy[0])
        assert img.shape == (12, 12)
        manifest = json.loads((out / "dataset.json").read_text())
        assert manifest["n_images"] == 4 and manifest["rows"] == 12

    def test_byte_identical_across_runs(self, tmp_path):
        _, a = run(tmp_path, "--seed", "5", "gen-data", *MICRO_DATA, name="a")
        _, b = run(tmp_path, "--seed", "5", "gen-data", *MICRO_DATA, name="b")
        for fa in sorted(a.iterdir()):
            fb = b / fa.name
            assert read_text(fa) == read_text(fb)


class TestTrain:
    def test_overflowing_noise_sigma_saturates_without_warning(self, tmp_path,
                                                               capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run(tmp_path, "train", "--n-images", "2", "--rows", "8",
                            "--cols", "8", "--epochs", "1", "--kernel", "3",
                            "--noise-sigma", "1e308")
        assert code == 0
        assert "Warning" not in capsys.readouterr().err and caught == []
        assert (out / "train_report.csv").exists()

    # alpha alpha^T is just inside float range, so folding it into a kaiming
    # weight above 1 in magnitude overflows: at every seed that is the
    # divergence the loss check reports, whichever layer's fold overflows.
    @pytest.mark.parametrize("seed", range(4))
    def test_density_whose_fold_overflows_is_a_divergence(self, tmp_path, capsys,
                                                          seed):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = run(tmp_path, "--seed", str(seed), "train", "--n-images", "2",
                          "--rows", "8", "--cols", "8", "--epochs", "1",
                          "--kernel", "3", "--channels", "4", "--alpha", "1.34e154")
        assert code == 1
        err = capsys.readouterr().err
        assert "non-finite loss" in err
        assert "Traceback" not in err and "Warning" not in err and caught == []

    def test_report_files_written(self, tmp_path):
        code, out = run(tmp_path, "train", *MICRO_DATA, *MICRO_MODEL)
        assert code == 0
        with open(out / "train_report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert set(rows[0]) == {"seed", "kernel", "alpha", "epochs", "lr",
                                "stride", "channels", "final_loss"}
        assert float(rows[0]["final_loss"]) > 0
        with open(out / "losses.csv", newline="") as fh:
            losses = list(csv.DictReader(fh))
        assert len(losses) == 2

    def test_density_flag_variants(self, tmp_path):
        code, out = run(tmp_path, "train", *MICRO_DATA, *MICRO_MODEL,
                        "--alpha", "0.42", name="alpha")
        assert code == 0
        code2, _ = run(tmp_path, "train", *MICRO_DATA, *MICRO_MODEL,
                       "--density-family", "gaussian", name="family")
        assert code2 == 0
        with pytest.raises(SystemExit):
            # argparse rejects unknown family before dispatch returns
            cli.build_parser().parse_args(["train", "--density-family", "bad"])

    def test_conflicting_density_flags_rejected(self, tmp_path):
        code, _ = run(tmp_path, "train", *MICRO_DATA, *MICRO_MODEL,
                      "--alpha", "0.4", "--density-family", "uniform")
        assert code == 2

    @pytest.mark.parametrize("record, missing", [
        ({"K": 3}, "'values'"),
        ({"values": [0.5, 1.0, 0.5]}, "'K'"),
        ([0.5, 1.0, 0.5], "JSON object"),
        ({"K": None, "values": [0.5, 1.0, 0.5]}, "'K'"),
        ({"K": "3", "values": [0.5, 1.0, 0.5]}, "'K'"),
        ({"K": True, "values": [0.5, 1.0, 0.5]}, "'K'"),
        ({"K": 3, "M": "1", "values": [0.5, 1.0, 0.5]}, "'M'"),
        ({"K": 3, "values": [0.5, {}, 0.5]}, "'values'"),
        ({"K": 3, "values": [0.5, 1.0, 0.5], "valeus": 1}, "'valeus'"),
    ])
    @pytest.mark.parametrize("source", ["density-file", "config"])
    def test_malformed_density_record_is_a_usage_error(self, tmp_path, capsys,
                                                       record, missing, source):
        path = tmp_path / "record.json"
        if source == "config":
            path.write_text(json.dumps({"density": record}))
            argv = ["--config", str(path), "train"]
        else:
            path.write_text(json.dumps(record))
            argv = ["train", "--density-file", str(path)]
        code, _ = run(tmp_path, *argv, "--n-images", "2", "--rows", "8",
                      "--cols", "8", "--epochs", "1")
        assert code == 2
        assert missing in capsys.readouterr().err

    def test_train_from_data_dir(self, tmp_path):
        _, data = run(tmp_path, "gen-data", *MICRO_DATA, name="data")
        code, out = run(tmp_path, "train", *MICRO_MODEL, "--data-dir",
                        str(data), name="trained")
        assert code == 0
        assert (out / "train_report.csv").exists()

    def test_data_dir_is_held_once(self, tmp_path):
        # The stacks are sized up front and each file is copied into its
        # slot: the load holds the set and about one image file besides.
        _, data = run(tmp_path, "gen-data", "--n-images", "48", "--rows", "64",
                      "--cols", "64", name="data")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loaded = cli._load_data_dir(str(data))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        held = loaded.noisy.nbytes + loaded.clean.nbytes
        assert held == 2 * 48 * 64 * 64 * 8
        assert peak < 1.2 * held
        want = experiments.gen_dataset(experiments.DatasetSpec(
            n_images=48, rows=64, cols=64))
        assert loaded.noisy.tobytes() == want.noisy.tobytes()
        assert loaded.clean.tobytes() == want.clean.tobytes()

    # Files that gen-data never writes, and the one each case must name.
    @pytest.mark.parametrize("shapes, named", [
        ({"noisy_000": (8, 8), "clean_000": (6, 6)}, "clean_000.wct"),
        ({"noisy_000": (8, 8), "clean_000": (8, 8),
          "noisy_001": (6, 6), "clean_001": (6, 6)}, "noisy_001.wct"),
        ({"noisy_000": (1, 8, 8), "clean_000": (1, 8, 8)}, "noisy_000.wct"),
        ({"noisy_000": (8, 8), "clean_000": None}, "clean_000.wct"),
    ])
    def test_bad_data_file_is_a_domain_failure_naming_the_file(
            self, tmp_path, capsys, monkeypatch, shapes, named):
        trainings = []
        monkeypatch.setattr(cli, "sgd_train", lambda *a: trainings.append(a))
        data = tmp_path / "data"
        data.mkdir()
        for name, shape in shapes.items():
            if shape is None:
                (data / f"{name}.wct").write_bytes(b"not a tensor")
            else:
                tensor_write(np.full(shape, 0.5), str(data / f"{name}.wct"))
        code, out = run(tmp_path, "train", *MICRO_MODEL, "--data-dir", str(data))
        assert code == 1
        err = capsys.readouterr().err
        assert str(data / named) in err and "usage:" not in err
        assert trainings == []
        assert list(out.iterdir()) == []

    def test_data_too_small_to_train_on_is_a_domain_failure(self, tmp_path,
                                                            capsys):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("noisy_000", "clean_000"):
            tensor_write(np.full((1, 1), 0.5), str(data / f"{name}.wct"))
        code, _ = run(tmp_path, "train", *MICRO_MODEL, "--data-dir", str(data))
        assert code == 1
        err = capsys.readouterr().err
        assert str(data) in err and "usage:" not in err
        # The same shape given by flags stays a usage error.
        code, _ = run(tmp_path, "train", *MICRO_MODEL, "--n-images", "1",
                      "--rows", "1", "--cols", "1")
        assert code == 2

    def test_missing_data_dir_exits_1(self, tmp_path):
        code, _ = run(tmp_path, "train", *MICRO_MODEL, "--data-dir",
                      str(tmp_path / "nowhere"))
        assert code == 1

    def test_byte_identical_across_runs(self, tmp_path):
        _, a = run(tmp_path, "train", *MICRO_DATA, *MICRO_MODEL, name="a")
        _, b = run(tmp_path, "train", *MICRO_DATA, *MICRO_MODEL, name="b")
        assert read_text(a / "train_report.csv") == read_text(b / "train_report.csv")
        assert read_text(a / "losses.csv") == read_text(b / "losses.csv")


class TestOptimizeDensity:
    def test_outputs(self, tmp_path):
        code, out = run(tmp_path, "optimize-density", *MICRO_DATA, *MICRO_MODEL,
                        *MICRO_DIRECT, "--format", "text")
        assert code == 0
        with open(out / "outer_result.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert "alpha_1" in rows[0]
        assert float(rows[0]["improvement"]) >= 0.0
        with open(out / "trace.csv", newline="") as fh:
            trace = list(csv.DictReader(fh))
        assert trace and set(trace[0]) == {"iter", "evals", "best_value",
                                           "alpha_1"}
        record = json.loads((out / "optimal_density.json").read_text())
        assert record["K"] == 3
        summary = (out / "summary.txt").read_text()
        assert "improvement" in summary and "%" in summary

    def test_all_evaluations_diverged_exits_1(self, tmp_path, capsys):
        # Every training run blows up at this learning rate, so the search
        # never has an incumbent; that is a domain failure, not a usage error.
        # The uniform baseline is evaluated first, and its divergence ends
        # the search.  The overflow along the way raises no numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run(tmp_path, "optimize-density", "--kernel", "3",
                          "--n-images", "4", "--rows", "12", "--cols", "12",
                          "--epochs", "3", "--lr", "1e200", "--max-evals", "6")
        assert code == 1
        err = capsys.readouterr().err
        assert "uniform baseline's training run diverged" in err
        assert "usage:" not in err

    def test_blown_up_losses_are_not_an_improvement(self, tmp_path, capsys):
        # At this learning rate the training runs end near 1e33, far above
        # their starting loss; one blow-up is no improvement on another.
        code, out = run(tmp_path, "optimize-density", "--kernel", "3",
                        "--n-images", "4", "--rows", "12", "--cols", "12",
                        "--epochs", "3", "--lr", "1e6", "--max-evals", "8")
        assert code == 1
        assert "diverged" in capsys.readouterr().err
        assert not (out / "outer_result.csv").exists()

    def test_diverged_baseline_exits_1(self, tmp_path, capsys, monkeypatch):
        # Only the uniform density diverges, so the search has an
        # incumbent but nothing to measure an improvement against.
        # The search stops at the baseline instead of training the rest of
        # its 6-eval budget.
        real_train = experiments.sgd_train
        calls = []

        def uniform_diverges(dataset, cfg):
            calls.append(cfg.density)
            if np.all(cfg.density == 1.0):
                raise DivergenceError(0, 0)
            return real_train(dataset, cfg)

        monkeypatch.setattr(experiments, "sgd_train", uniform_diverges)
        code, _ = run(tmp_path, "optimize-density", *MICRO_DATA, *MICRO_MODEL,
                      *MICRO_DIRECT)
        assert code == 1
        assert len(calls) == 1
        err = capsys.readouterr().err
        assert "uniform baseline" in err and "usage:" not in err

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # Every conv contracts in np.matmul, over 32 x 32 pixels here,
        # enough for OpenBLAS to use two threads.  At 16 channels and K=5
        # the middle layer lowers by rows: its forward products are C * K =
        # 80 terms deep, and its weight gradient sums over the 36 x 32
        # padded pixels, longer than one OpenBLAS block, in _GEMM_DEPTH
        # blocks.  The paper's desk shape (c=2) runs on one BLAS thread at
        # either setting.
        src = os.path.dirname(os.path.dirname(wconv.__file__))
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            subprocess.run(
                [sys.executable, "-m", "wconv.cli", "--out-dir", str(out),
                 "optimize-density", "--n-images", "4", "--rows", "32",
                 "--cols", "32", "--channels", "16", "--epochs", "2",
                 "--kernel", "5", *MICRO_DIRECT],
                env=env, capture_output=True, text=True, check=True, timeout=300)
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert "outer_result.csv" in names
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_byte_identical_across_runs(self, tmp_path):
        _, a = run(tmp_path, "optimize-density", *MICRO_DATA, *MICRO_MODEL,
                   *MICRO_DIRECT, name="a")
        _, b = run(tmp_path, "optimize-density", *MICRO_DATA, *MICRO_MODEL,
                   *MICRO_DIRECT, name="b")
        for fname in ("outer_result.csv", "trace.csv", "optimal_density.json"):
            assert read_text(a / fname) == read_text(b / fname)


class TestSweep:
    def test_sweep_csv(self, tmp_path):
        code, out = run(tmp_path, "sweep", "--axis", "epochs", "--values",
                        "1,2", *MICRO_DATA, *MICRO_MODEL, *MICRO_DIRECT)
        assert code == 0
        with open(out / "sweep_epochs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["axis_value"] for r in rows] == ["1", "2"]
        assert all(r["error"] == "" for r in rows)

    def test_search_that_fails_for_every_value_is_a_usage_error(
            self, tmp_path, capsys, monkeypatch):
        generated = []
        monkeypatch.setattr(experiments, "gen_dataset",
                            lambda spec: generated.append(spec))
        code, out = run(tmp_path, "sweep", "--axis", "epochs", "--values", "1,2",
                        "--kernel", "1", "--n-images", "2", "--rows", "8",
                        "--cols", "8")
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("kernel extent must be >= 3") == 1 and "usage:" in err
        assert generated == []
        assert list(out.iterdir()) == []

    def test_sweep_whose_every_search_diverges_fails(self, tmp_path, capsys):
        # A learning rate of 1e200 overflows, so the uniform baseline's
        # search diverges: the rows are written, then exit 1.
        code, out = run(tmp_path, "sweep", "--axis", "epochs", "--values", "1",
                        "--lr", "1e200", "--kernel", "3", "--n-images", "4",
                        "--rows", "8", "--cols", "8", "--max-evals", "3")
        assert code == 1
        assert "every search of the sweep failed" in capsys.readouterr().err
        with open(out / "sweep_epochs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["axis_value"] for r in rows] == ["1"]
        assert "diverged" in rows[0]["error"]

    def test_value_that_fails_alone_is_an_error_row(self, tmp_path):
        code, out = run(tmp_path, "sweep", "--axis", "channels", "--values",
                        "0,2", *MICRO_DATA, *MICRO_MODEL, *MICRO_DIRECT)
        assert code == 0
        with open(out / "sweep_channels.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert "channels must be >= 1" in rows[0]["error"]
        assert rows[1]["error"] == ""


class TestCompare:
    def test_compare_csv_all_families(self, tmp_path):
        code, out = run(tmp_path, "compare-densities", *MICRO_DATA,
                        *MICRO_MODEL, *MICRO_DIRECT)
        assert code == 0
        with open(out / "compare.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["family"] for r in rows] == ["uniform", "linear", "gaussian",
                                               "cubic", "optimal"]
        assert (out / "optimal_density.json").exists()

    def test_no_search_no_density_record(self, tmp_path):
        code, out = run(tmp_path, "compare-densities", *MICRO_DATA,
                        *MICRO_MODEL, *MICRO_DIRECT, "--families", "uniform,cubic")
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["compare.csv"]

    def test_failed_family_leaves_no_partial_record(self, tmp_path, capsys,
                                                    monkeypatch):
        # The optimal search succeeds; a family trained after it diverges.
        real_train = experiments.sgd_train
        linear = density_matrix(named_density("linear", 3))

        def linear_diverges(dataset, cfg):
            if np.array_equal(cfg.density, linear):
                raise DivergenceError(0, 0)
            return real_train(dataset, cfg)

        monkeypatch.setattr(experiments, "sgd_train", linear_diverges)
        code, out = run(tmp_path, "compare-densities", *MICRO_DATA,
                        *MICRO_MODEL, *MICRO_DIRECT, "--families",
                        "optimal,uniform,linear")
        assert code == 1
        assert "usage:" not in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("families", ["uniform,bogus,optimal", ",", ""])
    def test_bad_families_rejected_before_any_training(self, tmp_path, capsys,
                                                       monkeypatch, families):
        trainings = count_trainings(monkeypatch)
        code, out = run(tmp_path, "compare-densities", *MICRO_DATA,
                        *MICRO_MODEL, *MICRO_DIRECT, "--families", families)
        assert code == 2
        assert "--families" in capsys.readouterr().err
        assert trainings == []
        assert not (out / "compare.csv").exists()

    def test_one_image_is_a_usage_error_before_any_training(
            self, tmp_path, capsys, monkeypatch):
        trainings = count_trainings(monkeypatch)
        code, out = run(tmp_path, "compare-densities", "--n-images", "1",
                        "--rows", "8", "--cols", "8", *MICRO_MODEL,
                        *MICRO_DIRECT)
        assert code == 2
        err = capsys.readouterr().err
        assert "n_images must be >= 2" in err and "held out" in err
        assert trainings == []
        assert list(out.iterdir()) == []


class TestBench:
    def test_bench_csv(self, tmp_path):
        code, out = run(tmp_path, "bench", "--kernels", "3", "--out-channels",
                        "1", "--image-shape", "1,1,32,32", "--repeats", "10")
        assert code == 0
        with open(out / "bench.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["ratio"]) > 0

    @pytest.mark.parametrize("flags", [["--image-shape", "1,3,0,0"],
                                       ["--image-shape", "0,3,8,8"],
                                       ["--out-channels", "0"]])
    def test_zero_size_is_a_usage_error(self, tmp_path, capsys, flags):
        code, out = run(tmp_path, "bench", "--kernels", "3", "--repeats", "10",
                        *flags)
        assert code == 2
        assert "usage:" in capsys.readouterr().err
        assert not (out / "bench.csv").exists()

    @pytest.mark.parametrize("flag", ["--kernels", "--out-channels"])
    def test_empty_list_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                         flag):
        # A bench that times nothing would write a header-only bench.csv.
        timed = []
        monkeypatch.setattr(cli, "bench_overhead",
                            lambda *args, **kwargs: timed.append(args) or [])
        code, out = run(tmp_path, "bench", "--image-shape", "1,1,8,8",
                        "--repeats", "10", flag, "")
        assert code == 2
        err = capsys.readouterr().err
        assert flag in err and "usage:" in err
        assert timed == []
        assert not (out / "bench.csv").exists()


class TestVerify:
    def test_seven_pass_lines_exit_zero(self, tmp_path, capsys):
        code, out = run(tmp_path, "verify", "--instances", "3", "--sizes",
                        "8", "--young-triples", "10")
        lines = [l for l in capsys.readouterr().out.splitlines() if "PASS" in l]
        assert code == 0
        assert len(lines) == 7
        with open(out / "verify.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7 and all(r["result"] == "PASS" for r in rows)

    @pytest.mark.parametrize("flags, named", [
        (["--instances", "0", "--young-triples", "0"], "--instances"),
        (["--instances", "-1"], "--instances"),
        (["--young-triples", "0"], "--young-triples"),
        (["--sizes", "0"], "--sizes"),
        (["--sizes", "8,0"], "--sizes"),
        (["--sizes", ","], "--sizes"),
    ])
    def test_empty_verification_is_a_usage_error(self, tmp_path, capsys,
                                                 flags, named):
        code, out = run(tmp_path, "verify", *flags)
        captured = capsys.readouterr()
        assert code == 2
        assert named in captured.err
        assert "PASS" not in captured.out
        assert not (out / "verify.csv").exists()

    def test_failing_property_exits_one(self, tmp_path, monkeypatch):
        fake = [PropertyCheck("convolution_theorem", 1, 1.0, 1e-9, False)]
        monkeypatch.setattr(cli, "run_verification",
                            lambda *a, **k: fake)
        code, _ = run(tmp_path, "verify")
        assert code == 1


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "dataset": {"n_images": 4, "rows": 12, "cols": 12},
            "model": {"channels": 2, "epochs": 5, "kernel": 3},
        }))
        code, out = run(tmp_path, "--config", str(cfg_file), "train",
                        "--epochs", "2")
        assert code == 0
        with open(out / "train_report.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["epochs"] == "2"
        assert row["channels"] == "2"

    # The flag of each setting, a config value and an overriding flag value,
    # all off their defaults.
    SETTING_VALUES = {
        "n_images": ("--n-images", 3, 5), "rows": ("--rows", 10, 14),
        "cols": ("--cols", 10, 14), "noise_sigma": ("--noise-sigma", 0.05, 0.2),
        "smoothness": ("--smoothness", 2.0, 3.0),
        "kernel": ("--kernel", 5, 7), "channels": ("--channels", 3, 5),
        "stride": ("--stride", 2, 4), "epochs": ("--epochs", 3, 4),
        "learning_rate": ("--lr", 0.02, 0.03),
        "batch_size": ("--batch-size", 2, 3),
        "max_evals": ("--max-evals", 7, 8), "max_iters": ("--max-iters", 5, 6),
        "f_tol": ("--f-tol", 1e-5, 1e-4), "epsilon": ("--epsilon", 1e-3, 1e-2),
        "alpha_lo": ("--alpha-lo", 0.1, 0.2), "alpha_hi": ("--alpha-hi", 3.0, 3.5),
    }

    def test_every_setting_has_a_case(self):
        assert sorted(self.SETTING_VALUES) == sorted(
            key for section in cli.SETTINGS.values() for key in section)

    @pytest.mark.parametrize("section, key", [
        (section, key) for section, keys in cli.SETTINGS.items() for key in keys])
    def test_setting_reaches_its_consumer_and_its_flag_overrides(
            self, tmp_path, monkeypatch, section, key):
        flag, config_value, flag_value = self.SETTING_VALUES[key]
        seen = {}

        def fake_direct(k, **opts):
            seen.update(direct=opts)

        def fake_sweep(axis, values, spec, cfg, direct_cfg):
            seen.update(dataset=vars(spec), model=vars(cfg))
            return [{"axis": axis, "axis_value": values[0], "error": ""}]

        monkeypatch.setattr(cli, "build_direct_config", fake_direct)
        monkeypatch.setattr(cli, "sweep_hyperparams", fake_sweep)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({section: {key: config_value}}))
        argv = ["--config", str(cfg_file), "sweep", "--axis", "epochs",
                "--values", "1"]
        assert run(tmp_path, *argv)[0] == 0
        assert seen[section][key] == config_value
        assert run(tmp_path, *argv, flag, str(flag_value))[0] == 0
        assert seen[section][key] == flag_value
        assert type(seen[section][key]) is type(flag_value)

    def test_null_config_value_keeps_the_default(self, tmp_path, monkeypatch):
        seen = []

        def record(dataset, cfg):
            seen.append(cfg)
            raise DivergenceError(0, 0)

        monkeypatch.setattr(cli, "sgd_train", record)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"model": {"batch_size": None,
                                                  "epochs": None}}))
        code, _ = run(tmp_path, "--config", str(cfg_file), "train", *MICRO_DATA)
        assert code == 1
        assert seen[0].batch_size is None and seen[0].epochs == 20

    @pytest.mark.parametrize("config, named", [
        ({"model": {"chanels": 2}}, "'chanels'"),
        ({"modle": {"channels": 2}}, "'modle'"),
        ({"model": {"density": [[1.0]]}}, "'density'"),
        ({"dataset": {"seed": 3}}, "'seed'"),
        ({"model": {"channels": "2"}}, "model.channels"),
        ({"dataset": {"n_images": 2.5}}, "dataset.n_images"),
        ({"direct": {"f_tol": True}}, "direct.f_tol"),
        ({"density": {"K": 3, "valeus": [1.0, 1.0, 1.0]}}, "'valeus'"),
        ({"dataset": [4]}, "'dataset'"),
        ([], "JSON object"),
        ({"direct": {"bounds": [0.0, 2.0]}}, "'bounds'"),
        ({"model": {"bn_eps": 1e-5}}, "'bn_eps'"),
    ])
    def test_bad_config_is_a_usage_error(self, tmp_path, capsys, config, named):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(config))
        code, _ = run(tmp_path, "--config", str(cfg_file), "train",
                      *MICRO_DATA, *MICRO_MODEL)
        assert code == 2
        err = capsys.readouterr().err
        assert named in err
        assert "usage:" in err


    @pytest.mark.parametrize("command, section, key, extra", [
        ("train", "model", "learning_rate", []),
        ("optimize-density", "direct", "alpha_hi", ["--kernel", "3"])])
    def test_integer_too_large_for_a_float_is_a_usage_error(
            self, tmp_path, capsys, monkeypatch, command, section, key, extra):
        generated = []
        monkeypatch.setattr(cli, "gen_dataset", lambda spec: generated.append(spec))
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({section: {key: 10 ** 400}}))
        code, out = run(tmp_path, "--config", str(cfg_file), command,
                        "--n-images", "2", "--rows", "8", "--cols", "8",
                        "--epochs", "1", *extra)
        assert code == 2
        err = capsys.readouterr().err
        assert f"{section}.{key}" in err and "usage:" in err
        assert "Traceback" not in err
        assert generated == [] and not out.exists()


def flag_of(key):
    return "--lr" if key == "learning_rate" else "--" + key.replace("_", "-")


# Edge values of each setting type.  Sizes get only 0 and -1: a huge
# n_images, rows or epochs would be run, not rejected, so huge sizes stay
# untested.
EDGE_VALUES = {float: ("0", "-0.0", "-1", "nan", "inf", "-inf", "1e308", "5e-324"),
               int: ("0", "-1")}
# The sections each subcommand reads, and its other arguments.
CONTRACT_COMMANDS = {
    "gen-data": (("dataset",), []),
    "train": (("dataset", "model"), []),
    "optimize-density": (("dataset", "model", "direct"), []),
    "sweep": (("dataset", "model", "direct"), ["--axis", "epochs", "--values", "1"]),
    "compare-densities": (("dataset", "model", "direct"), []),
}
CONTRACT_MICRO = {"dataset": ["--n-images", "4", "--rows", "8", "--cols", "8"],
                  "model": ["--kernel", "3", "--channels", "2", "--epochs", "1"],
                  "direct": ["--max-evals", "3", "--max-iters", "2"]}
# alpha_lo and alpha_hi are given together: each edge value gets a valid
# partner.
CONTRACT_PARTNER = {"alpha_lo": ["--alpha-hi", "2"], "alpha_hi": ["--alpha-lo", "0"]}


class TestSettingsContract:
    """Every setting of ``cli.SETTINGS``, on every subcommand that reads it,
    at the edge values of its type: a run ends with a documented exit code
    and no traceback or warning, and a usage error names the setting and
    writes nothing."""

    @pytest.mark.parametrize("command, key, value", [
        pytest.param(command, key, value, id=f"{command}-{key}={value}")
        for command, (sections, _) in CONTRACT_COMMANDS.items()
        for section in sections
        for key, kind in cli.SETTINGS[section].items()
        for value in EDGE_VALUES[kind]])
    def test_edge_value(self, tmp_path, capsys, command, key, value):
        sections, extra = CONTRACT_COMMANDS[command]
        argv = [command, *extra,
                *(arg for section in sections for arg in CONTRACT_MICRO[section]),
                *CONTRACT_PARTNER.get(key, []), f"{flag_of(key)}={value}"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run(tmp_path, *argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert "Traceback" not in err and "Warning" not in err and caught == []
        if code == 2:
            assert key in err
            assert not out.exists() or list(out.iterdir()) == []
        if command == "sweep" and code == 0:
            # A sweep whose every value failed exits 1, and a usage error
            # must not become a row per value.
            with open(out / "sweep_epochs.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert any(row["error"] == "" for row in rows)


class TestOutDirDiscipline:
    def test_env_var_default(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("WCONV_OUT_DIR", str(target))
        monkeypatch.chdir(tmp_path)
        assert dispatch(["gen-data", *MICRO_DATA]) == 0
        assert (target / "dataset.json").exists()

    def test_nothing_written_outside_out_dir(self, tmp_path, monkeypatch):
        scratch = tmp_path / "cwd"
        scratch.mkdir()
        monkeypatch.chdir(scratch)
        before = set(os.listdir(scratch))
        code, out = run(tmp_path, "train", *MICRO_DATA, *MICRO_MODEL)
        assert code == 0
        assert set(os.listdir(scratch)) == before


class TestEmitReport:
    def make_result(self):
        return OuterResult(alpha=DensityVector(np.array([0.42, 1.0, 0.42])),
                           objective=0.044, baseline=0.05, improvement=0.12,
                           evals=40, iterations=20, trace=[], bounds=(0.0, 2.0))

    def test_csv_schema(self, tmp_path):
        path = tmp_path / "r.csv"
        write_outer_result(str(path), self.make_result())
        with open(path, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["alpha_1"] == "0.42"
        assert float(row["improvement"]) == 0.12

    def test_text_includes_percentage(self, tmp_path):
        path = tmp_path / "r.txt"
        write_summary(str(path), self.make_result())
        text = path.read_text()
        assert "12.0%" in text
