import numpy as np
import pytest

from oracles import potentially_optimal_oracle
from wconv.directl import (DirectConfig, HyperRect, minimize,
                           select_potentially_optimal, trisect)
from wconv.errors import SearchDivergedError


def make_rect(levels, value):
    levels = np.asarray(levels, dtype=np.int64)
    return HyperRect(np.full(levels.shape[0], 0.5), levels, value)


def positions(rects, chosen):
    """The positions in ``rects`` of the rectangles in ``chosen``."""
    return {i for i, r in enumerate(rects) if any(r is c for c in chosen)}


class TestSelectPotentiallyOptimal:
    def test_single_rect_selected(self):
        rect = make_rect([0], 3.0)
        assert select_potentially_optimal([rect], 1e-4, 3.0) == [rect]

    def test_equal_measure_keeps_lower_value(self):
        a = make_rect([1], 1.0)
        b = make_rect([1], 2.0)
        assert select_potentially_optimal([a, b], 1e-4, 1.0) == [a]

    def test_hand_built_five_rect_hull(self):
        rects = [make_rect([0], 5.0), make_rect([1], 3.0),
                 make_rect([1], 4.0), make_rect([2], 1.0),
                 make_rect([2], 2.0)]
        got = select_potentially_optimal(rects, epsilon=1e-4, f_best=1.0)
        want = potentially_optimal_oracle(rects, 1e-4, 1.0)
        assert positions(rects, got) == positions(rects, want) == {0, 3}

    def test_matches_slope_oracle_on_random_configs(self):
        rng = np.random.default_rng(0)
        for trial in range(60):
            ndim = int(rng.integers(1, 4))
            rects = []
            for i in range(int(rng.integers(2, 12))):
                levels = rng.integers(0, 4, ndim)
                rects.append(make_rect(levels, float(rng.uniform(-5, 5))))
            f_best = min(r.value for r in rects)
            got = positions(rects,
                            select_potentially_optimal(rects, 1e-4, f_best))
            want = positions(rects,
                             potentially_optimal_oracle(rects, 1e-4, f_best))
            assert got == want, f"trial {trial}: {got} != {want}"


def counting(fn):
    """``fn`` with a ``calls`` list of the points it was evaluated at."""
    def evaluate(xn):
        evaluate.calls.append(xn.copy())
        return fn(xn)
    evaluate.calls = []
    return evaluate


class TestTrisect:
    def test_unit_interval_three_cells(self):
        evaluate = counting(lambda x: float(x[0]))
        root = HyperRect(np.array([0.5]), np.zeros(1, dtype=np.int64), 0.5)
        children = trisect(root, evaluate)
        assert len(evaluate.calls) == 2
        assert len(children) == 2
        widths = [c.measure for c in children] + [root.measure]
        assert widths == [1 / 3, 1 / 3, 1 / 3]
        centers = sorted(c.center[0] for c in children)
        np.testing.assert_allclose(centers, [0.5 - 1 / 3, 0.5 + 1 / 3])

    def test_eval_accounting_two_per_split_dimension(self):
        for levels in ([0, 0], [0, 1], [1, 1, 1]):
            n = len(levels)
            evaluate = counting(lambda x: float(np.sum(x)))
            rect = HyperRect(np.full(n, 0.5), np.asarray(levels, np.int64), 0.0)
            n_longest = sum(1 for v in levels if v == min(levels))
            trisect(rect, evaluate)
            assert len(evaluate.calls) == 2 * n_longest

    def test_children_partition_parent_volume(self):
        def volume(r):
            return float(np.prod(3.0 ** -r.levels.astype(np.float64)))

        rect = HyperRect(np.full(2, 0.5), np.ones(2, dtype=np.int64), 0.0)
        parent_volume = volume(rect)
        children = trisect(rect, lambda x: float(np.sum(x**2)))
        total = volume(rect) + sum(volume(c) for c in children)
        assert abs(total - parent_volume) < 1e-12 * parent_volume


def quad_1d(x):
    return (x[0] - 0.42) ** 2


class TestMinimize:
    def test_recovers_1d_quadratic_minimum(self):
        cfg = DirectConfig(np.array([0.0]), np.array([2.0]), max_evals=200,
                           max_iters=100)
        res = minimize(quad_1d, cfg, init=np.array([1.0]))
        assert abs(res.best_point[0] - 0.42) < 1e-3
        assert res.eval_count <= 200

    def test_recovers_2d_quadratic_minimum(self):
        cfg = DirectConfig(np.zeros(2), np.full(2, 4.0), max_evals=600,
                           max_iters=300)
        res = minimize(lambda x: (x[0] - 0.38) ** 2 + (x[1] - 2.21) ** 2, cfg,
                       init=np.ones(2))
        assert np.max(np.abs(res.best_point - [0.38, 2.21])) < 1e-2
        assert res.eval_count <= 600

    def test_constant_objective_runs_to_max_iters(self):
        cfg = DirectConfig(np.array([0.0]), np.array([1.0]), max_evals=10_000,
                           max_iters=20)
        res = minimize(lambda x: 5.0, cfg)
        assert res.iterations == 20
        assert res.best_value == 5.0

    def test_constant_objective_stops_after_50_stalled_iterations(self):
        # No iteration improves the incumbent, and both budgets are out of
        # reach, so only the stall rule can end the search.
        cfg = DirectConfig(np.array([0.0]), np.array([1.0]), max_evals=10_000,
                           max_iters=100)
        res = minimize(lambda x: 5.0, cfg)
        assert res.iterations == 50
        assert res.eval_count < 10_000

    def test_deterministic_trace(self):
        cfg = DirectConfig(np.zeros(2), np.full(2, 4.0), max_evals=300,
                           max_iters=100)
        runs = [minimize(lambda x: np.sin(3 * x[0]) + (x[1] - 1) ** 2, cfg)
                for _ in range(2)]
        a, b = runs
        assert a.eval_count == b.eval_count and a.best_value == b.best_value
        assert len(a.trace) == len(b.trace)
        for ra, rb in zip(a.trace, b.trace):
            assert ra.evals == rb.evals
            assert ra.best_value == rb.best_value
            assert np.array_equal(ra.best_point, rb.best_point)
        assert len(a.evals) == len(b.evals) == a.eval_count
        for (pa, va), (pb, vb) in zip(a.evals, b.evals):
            assert np.array_equal(pa, pb) and va == vb

    def test_best_value_monotone_non_increasing(self):
        cfg = DirectConfig(np.zeros(2), np.ones(2), max_evals=400, max_iters=80)
        res = minimize(lambda x: np.cos(9 * x[0]) * np.sin(7 * x[1]), cfg)
        values = [row.best_value for row in res.trace]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_all_samples_inside_bounds(self):
        seen = []

        def objective(x):
            seen.append(x.copy())
            return float(np.sum((x - 1.7) ** 2))

        lo, hi = np.array([-2.0, 0.5]), np.array([3.0, 2.5])
        res = minimize(objective, DirectConfig(lo, hi, max_evals=300,
                                               max_iters=60))
        assert res.eval_count == len(seen)
        for point in seen:
            assert np.all(point >= lo) and np.all(point <= hi)
        for (point, value), called in zip(res.evals, seen):
            assert np.array_equal(point, called)
            assert value == float(np.sum((called - 1.7) ** 2))

    def test_nan_objective_scored_infinite_and_flagged(self):
        def objective(x):
            return float("nan") if x[0] < 0.3 else (x[0] - 0.5) ** 2

        cfg = DirectConfig(np.array([0.0]), np.array([1.0]), max_evals=120,
                           max_iters=40)
        res = minimize(objective, cfg)
        nan_points = [p for p, v in res.evals if np.isnan(v)]
        assert len(nan_points) > 0
        assert all(p[0] < 0.3 for p in nan_points)
        assert abs(res.best_point[0] - 0.5) < 1e-2
        assert np.isfinite(res.best_value)

    def test_all_nan_objective_raises(self):
        cfg = DirectConfig(np.array([0.0]), np.array([1.0]), max_evals=7,
                           max_iters=5)
        with pytest.raises(SearchDivergedError, match="all 7 objective"):
            minimize(lambda x: float("nan"), cfg)

    def test_nan_init_leaves_no_incumbent_in_first_trace_row(self):
        def objective(x):
            return float("nan") if x[0] == 0.5 else (x[0] - 0.2) ** 2

        cfg = DirectConfig(np.array([0.0]), np.array([1.0]), max_evals=40,
                           max_iters=10)
        res = minimize(objective, cfg)
        assert np.isinf(res.trace[0].best_value)
        assert np.all(np.isnan(res.trace[0].best_point))
        assert np.isfinite(res.best_value)
        assert abs(res.best_point[0] - 0.2) < 5e-2

    def test_single_eval_budget_returns_init(self):
        cfg = DirectConfig(np.array([0.0]), np.array([2.0]), max_evals=1)
        res = minimize(quad_1d, cfg, init=np.array([1.0]))
        assert res.eval_count == 1
        assert res.iterations == 0
        np.testing.assert_array_equal(res.best_point, [1.0])
        assert res.best_value == quad_1d([1.0]) == res.evals[0][1]
        np.testing.assert_array_equal(res.evals[0][0], [1.0])

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            DirectConfig(np.array([1.0]), np.array([1.0]))

    def test_init_outside_bounds_rejected(self):
        cfg = DirectConfig(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            minimize(quad_1d, cfg, init=np.array([2.0]))

    def test_branin_matches_dense_grid_oracle(self):
        b_coef = 5.1 / (4 * np.pi**2)
        c_coef = 5 / np.pi
        t_coef = 1 / (8 * np.pi)

        def branin_unit(x):
            x1 = 15.0 * x[0] - 5.0
            x2 = 15.0 * x[1]
            return ((x2 - b_coef * x1**2 + c_coef * x1 - 6.0) ** 2
                    + 10.0 * (1 - t_coef) * np.cos(x1) + 10.0)

        # vectorized dense-grid oracle, 400 x 400
        g = np.linspace(0.0, 1.0, 400)
        u1 = 15.0 * g[:, None] - 5.0
        u2 = 15.0 * g[None, :]
        grid = ((u2 - b_coef * u1**2 + c_coef * u1 - 6.0) ** 2
                + 10.0 * (1 - t_coef) * np.cos(u1) + 10.0)
        oracle_min = float(grid.min())

        cfg = DirectConfig(np.zeros(2), np.ones(2), max_evals=600,
                           max_iters=200)
        res = minimize(branin_unit, cfg)
        assert res.eval_count <= 600
        assert abs(res.best_value - oracle_min) < 1e-3
