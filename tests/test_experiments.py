import numpy as np
import pytest

import wconv.experiments as experiments
from wconv.density import MAX_DENSITY_VALUE
from wconv.errors import DivergenceError, SearchDivergedError
from wconv.experiments import (DatasetSpec, bench_overhead,
                               build_direct_config, compare_densities,
                               default_alpha_bounds, gen_dataset,
                               optimize_density, split_dataset,
                               sweep_hyperparams)
from wconv.network import Dataset, ModelConfig, sgd_train
from dataclasses import replace


TINY_SPEC = DatasetSpec(n_images=6, rows=16, cols=16, noise_sigma=0.1, seed=0)
TINY_MODEL = ModelConfig(channels=2, kernel=3, epochs=2, seed=0)


def tiny_direct(max_evals=9, max_iters=6):
    return build_direct_config(3, max_evals=max_evals, max_iters=max_iters)


class TestGenDataset:
    def test_deterministic_per_seed(self):
        a = gen_dataset(TINY_SPEC)
        b = gen_dataset(TINY_SPEC)
        for (na, ca), (nb, cb) in zip(a, b):
            assert na.tobytes() == nb.tobytes()
            assert ca.tobytes() == cb.tobytes()

    def test_zero_noise_copies_clean(self):
        pairs = gen_dataset(replace(TINY_SPEC, noise_sigma=0.0))
        for noisy, clean in pairs:
            np.testing.assert_array_equal(noisy, clean)

    def test_clean_images_span_unit_interval(self):
        for noisy, clean in gen_dataset(TINY_SPEC):
            assert clean.min() == 0.0 and clean.max() == 1.0
            assert noisy.min() >= 0.0 and noisy.max() <= 1.0

    def test_noise_deviation_statistics(self):
        # Where 0.3 < clean < 0.7, only noise beyond 3 sigma is clipped, which
        # moves the deviation by far less than the bound.
        spec = DatasetSpec(n_images=24, rows=256, cols=256, noise_sigma=0.1,
                           seed=3)
        pairs = gen_dataset(spec)
        residual = np.concatenate([(n - c)[(c > 0.3) & (c < 0.7)]
                                   for n, c in pairs])
        assert residual.size >= 1_000_000
        assert abs(residual.std() - 0.1) / 0.1 < 0.03

    def test_overflowing_noise_saturates_without_warning(self):
        # The noise overflows to +-inf, which numpy would warn of (an error
        # under this suite's warning filter); every noisy pixel clips.
        for noisy, _ in gen_dataset(replace(TINY_SPEC, noise_sigma=1e308)):
            assert set(np.unique(noisy)) == {0.0, 1.0}

    def test_one_pixel_image_stays_zero_at_any_smoothness(self):
        for smoothness in (4.0, 1e-160):
            [(noisy, clean)] = gen_dataset(DatasetSpec(
                n_images=1, rows=1, cols=1, noise_sigma=0.0, smoothness=smoothness))
            assert clean.tolist() == [[0.0]] and noisy.tolist() == [[0.0]]

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            DatasetSpec(n_images=0)
        with pytest.raises(ValueError):
            DatasetSpec(noise_sigma=-0.5)


class TestOptimizeDensity:
    def test_single_eval_returns_uniform_baseline(self):
        data = gen_dataset(TINY_SPEC)
        res = optimize_density(TINY_MODEL, tiny_direct(max_evals=1), data)
        np.testing.assert_array_equal(res.alpha.values, [1.0, 1.0, 1.0])
        assert res.improvement == 0.0
        assert res.objective == res.baseline
        assert res.evals == 1

    def test_improvement_non_negative_and_bounded_alpha(self):
        data = gen_dataset(TINY_SPEC)
        res = optimize_density(TINY_MODEL, tiny_direct(max_evals=15), data)
        assert res.improvement >= 0.0
        lo, hi = default_alpha_bounds(3)
        assert lo <= res.alpha.values[0] <= hi
        assert res.objective <= res.baseline

    def test_deterministic(self):
        data = gen_dataset(TINY_SPEC)
        a = optimize_density(TINY_MODEL, tiny_direct(), data)
        b = optimize_density(TINY_MODEL, tiny_direct(), data)
        assert a.objective == b.objective
        assert a.baseline == b.baseline
        np.testing.assert_array_equal(a.alpha.values, b.alpha.values)
        assert [r.best_value for r in a.trace] == [r.best_value for r in b.trace]

    def test_inner_divergence_scored_infinite(self, monkeypatch):
        calls = []
        real_train = experiments.sgd_train

        def flaky_train(dataset, cfg):
            theta = cfg.density[0, 1]
            calls.append(theta)
            if theta < 0.5:
                raise DivergenceError(0, 0)
            return real_train(dataset, cfg)

        monkeypatch.setattr(experiments, "sgd_train", flaky_train)
        data = gen_dataset(TINY_SPEC)
        res = optimize_density(TINY_MODEL, tiny_direct(max_evals=12), data)
        assert any(t < 0.5 for t in calls)
        assert res.alpha.values[0] >= 0.5
        assert np.isfinite(res.objective)

    def test_alpha_hi_whose_density_overflows_rejected(self):
        cfg = build_direct_config(3, alpha_lo=0.0, alpha_hi=MAX_DENSITY_VALUE)
        assert cfg.upper.tolist() == [MAX_DENSITY_VALUE]
        with pytest.raises(ValueError, match="alpha_hi 1e[+]155 exceeds"):
            build_direct_config(3, alpha_lo=0.0, alpha_hi=1e155)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            optimize_density(replace(TINY_MODEL, kernel=5), tiny_direct(),
                             gen_dataset(TINY_SPEC))

    def test_loss_not_below_its_start_scores_as_diverged(self, monkeypatch):
        real_train = experiments.sgd_train

        def stalled_train(dataset, cfg):
            report = real_train(dataset, cfg)
            if cfg.density[0, 1] > 1.5:
                report.final_loss = report.initial_loss
            return report

        monkeypatch.setattr(experiments, "sgd_train", stalled_train)
        objective = experiments._training_objective(gen_dataset(TINY_SPEC),
                                                    TINY_MODEL)
        assert np.isfinite(objective(np.array([1.2])))
        assert np.isnan(objective(np.array([1.8])))

    def test_diverged_first_evaluation_ends_the_search(self, monkeypatch):
        # The first evaluation is the uniform baseline; once it is finite, a
        # diverged point only scores NaN.
        def diverging_train(dataset, cfg):
            raise DivergenceError(0, 0)

        monkeypatch.setattr(experiments, "sgd_train", diverging_train)
        objective = experiments._training_objective(gen_dataset(TINY_SPEC),
                                                    TINY_MODEL)
        with pytest.raises(SearchDivergedError, match="uniform baseline"):
            objective(np.array([1.0]))


class TestGoldenSearch:
    """Pins two tiny searches so a refactor of DIRECT that changes a result
    fails here.  The densities are DIRECT grid points and must match
    exactly; the objective goes through float64 training."""

    SPEC = DatasetSpec(n_images=4, rows=12, cols=12, seed=7)

    @pytest.mark.parametrize("k, per_iteration, alpha, objective", [
        (3, [1, 2, 2, 4, 6, 6, 2, 0], [1.9958847736625513, 1.0,
                                       1.9958847736625513],
         0.36655296131115883),
        (5, [2, 4, 6, 4, 8], [2.0, 2.5925925925925926, 1.0,
                              2.5925925925925926, 2.0], 0.376266504446521),
    ])
    def test_tiny_search_result(self, k, per_iteration, alpha, objective):
        res = optimize_density(ModelConfig(channels=2, kernel=k, epochs=3,
                                           seed=7),
                               build_direct_config(k, max_evals=24,
                                                   max_iters=12),
                               gen_dataset(self.SPEC))
        counts = [0] + [row.evals for row in res.trace]
        assert [b - a for a, b in zip(counts, counts[1:])] == per_iteration
        assert res.alpha.values.tolist() == alpha
        np.testing.assert_allclose(res.objective, objective, rtol=1e-12)


class TestSweep:
    def test_single_value_matches_lone_run(self):
        data_cfg = TINY_SPEC
        rows = sweep_hyperparams("epochs", [2], data_cfg, TINY_MODEL,
                                 tiny_direct())
        lone = optimize_density(replace(TINY_MODEL, epochs=2), tiny_direct(),
                                gen_dataset(data_cfg))
        assert len(rows) == 1
        assert rows[0]["objective"] == lone.objective
        assert rows[0]["alpha_1"] == lone.alpha.values[0]
        assert rows[0]["error"] == ""

    def test_rows_sorted_and_schema_fixed(self):
        rows = sweep_hyperparams("n_images", [6, 4], TINY_SPEC, TINY_MODEL,
                                 tiny_direct(max_evals=5, max_iters=4))
        assert [r["axis_value"] for r in rows] == [4, 6]
        for row in rows:
            assert set(row) == {"axis", "axis_value", "alpha_1", "objective",
                                "baseline", "improvement", "error"}

    def test_failed_row_recorded_and_sweep_continues(self):
        rows = sweep_hyperparams("channels", [0, 2], TINY_SPEC, TINY_MODEL,
                                 tiny_direct(max_evals=5, max_iters=4))
        assert rows[0]["axis_value"] == 0
        assert rows[0]["error"] != ""
        assert rows[1]["error"] == ""
        # The failed row has every column of the good one, left empty.
        assert list(rows[0]) == list(rows[1])
        assert all(rows[0][key] is None for key in
                   ("alpha_1", "objective", "baseline", "improvement"))

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            sweep_hyperparams("widths", [1], TINY_SPEC, TINY_MODEL,
                              tiny_direct())

    def test_code_bug_propagates_instead_of_becoming_a_row(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("a bug, not a failed run")

        monkeypatch.setattr(experiments, "optimize_density", broken)
        with pytest.raises(TypeError, match="a bug"):
            sweep_hyperparams("epochs", [1], TINY_SPEC, TINY_MODEL,
                              tiny_direct(max_evals=5, max_iters=4))


class TestCompareDensities:
    def test_five_families_five_rows(self):
        data = gen_dataset(TINY_SPEC)
        rows, search = compare_densities(["uniform", "linear", "gaussian",
                                          "cubic", "optimal"], TINY_MODEL,
                                         data, tiny_direct(max_evals=5))
        assert len(rows) == 5
        assert rows[-1]["alpha"] == " ".join(
            repr(float(v)) for v in search.alpha.values)
        assert [r["family"] for r in rows] == ["uniform", "linear", "gaussian",
                                               "cubic", "optimal"]
        for row in rows:
            assert np.isfinite(row["final_loss"])
            assert np.isfinite(row["holdout_mse"])

    def test_uniform_row_equals_plain_conv_training(self):
        data = gen_dataset(TINY_SPEC)
        rows, search = compare_densities(["uniform"], TINY_MODEL, data,
                                         tiny_direct())
        train, _ = split_dataset(data, TINY_MODEL.seed)
        plain = sgd_train(train, TINY_MODEL)
        assert rows[0]["final_loss"] == plain.final_loss
        assert search is None

    def test_search_runs_on_the_split_the_rows_hold_out_from(self, monkeypatch):
        data = gen_dataset(replace(TINY_SPEC, n_images=10))
        searched, scored = [], []
        real_optimize, real_mse = experiments.optimize_density, experiments.mse_loss

        def recording_optimize(model_cfg, direct_cfg, dataset):
            searched.append(dataset)
            return real_optimize(model_cfg, direct_cfg, dataset)

        def recording_mse(prediction, target):
            scored.append(target)
            return real_mse(prediction, target)

        monkeypatch.setattr(experiments, "optimize_density", recording_optimize)
        monkeypatch.setattr(experiments, "mse_loss", recording_mse)
        compare_densities(["uniform", "optimal"], TINY_MODEL, data,
                          tiny_direct(max_evals=3))
        train, hold = split_dataset(data, TINY_MODEL.seed)

        def images(pairs):
            return [(x.tobytes(), t.tobytes()) for x, t in pairs]

        [searched] = searched
        assert images(searched) == images(train)
        assert len(scored) == 2
        for target in scored:
            assert [t.tobytes() for t in target[:, 0]] == [t.tobytes()
                                                          for _, t in hold]
        held_out = {x for pair in images(hold) for x in pair}
        assert not held_out & {x for pair in images(searched) for x in pair}

    def test_an_images_score_does_not_depend_on_the_others_held_out(
            self, monkeypatch):
        # One training split, and holdouts of one image each and of all
        # three: the images have one size, so the score of the three is the
        # mean of their scores alone.  With batch statistics it is not.
        data = gen_dataset(replace(TINY_SPEC, n_images=7))
        train = Dataset(data.noisy[3:], data.clean[3:])

        def score(held):
            hold = Dataset(data.noisy[held], data.clean[held])
            monkeypatch.setattr(experiments, "split_dataset",
                                lambda dataset, seed: (train, hold))
            rows, _ = compare_densities(["uniform"], TINY_MODEL, data,
                                        tiny_direct())
            return rows[0]["holdout_mse"]

        alone = [score([i]) for i in range(3)]
        assert len(set(alone)) == 3
        assert score([0, 1, 2]) == pytest.approx(np.mean(alone), rel=1e-12)

    def test_unknown_family_rejected(self, monkeypatch):
        trainings = []
        monkeypatch.setattr(experiments, "sgd_train",
                            lambda *args: trainings.append(args))
        with pytest.raises(ValueError, match="triangular"):
            compare_densities(["optimal", "triangular"], TINY_MODEL,
                              gen_dataset(TINY_SPEC), tiny_direct())
        assert trainings == []


class TestSplitDataset:
    def test_split_sizes_and_determinism(self):
        data = gen_dataset(replace(TINY_SPEC, n_images=10))
        train_a, hold_a = split_dataset(data, seed=4)
        train_b, hold_b = split_dataset(data, seed=4)
        assert len(hold_a) == 2 and len(train_a) == 8
        for (xa, _), (xb, _) in zip(hold_a, hold_b):
            assert xa.tobytes() == xb.tobytes()

    def test_holdout_never_empty(self):
        data = gen_dataset(replace(TINY_SPEC, n_images=2))
        train, hold = split_dataset(data, seed=0)
        assert len(hold) == 1 and len(train) == 1


class TestBenchOverhead:
    def test_weighted_slower_premultiplied_comparable(self):
        rows = bench_overhead((3,), (1,), (1, 1, 192, 192), repeats=11, seed=0)
        assert len(rows) == 1
        row = rows[0]
        assert row["ratio"] >= 1.0
        assert 0.8 <= row["premultiplied_ratio"] <= 1.2

    def test_too_few_repeats_rejected(self):
        with pytest.raises(ValueError):
            bench_overhead((3,), (1,), (1, 1, 32, 32), repeats=5)
