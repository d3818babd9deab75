"""Release acceptance suite.

Each test enforces one criterion at its stated tolerance and prints one
PASS/FAIL line.  Criteria 6, 7 and 9 run the desk-scale pipeline (small
synthetic dataset, short trainings); they are the slow part of the suite.
"""

import time

import numpy as np
import pytest

from oracles import conv_oracle, fd_gradient, grad_density, mse_grad, rel_err
from wconv.cli import dispatch
from wconv.conv import (KernelStack, conv2d, conv2d_weighted, grad_input,
                        grad_weights, scale_kernel)
from wconv.density import density_matrix, named_density
from wconv.directl import DirectConfig, minimize
from wconv.experiments import (DatasetSpec, bench_overhead,
                               build_direct_config, compare_densities,
                               gen_dataset, optimize_density,
                               sweep_hyperparams)
from wconv.network import DenoiseNet, ModelConfig, mse_loss
from wconv.spectral import run_verification

pytestmark = pytest.mark.acceptance

DESK_SPEC = DatasetSpec(n_images=20, rows=64, cols=64, noise_sigma=0.1, seed=0)
DESK_MODEL = ModelConfig(channels=2, kernel=3, epochs=10, seed=0)

# one line per criterion, echoed by the terminal-summary hook in conftest
RESULT_LINES = []


def report(number, passed, elapsed, detail):
    line = (f"ACCEPTANCE {number:2d}: {'PASS' if passed else 'FAIL'} "
            f"[{elapsed:6.1f}s] {detail}")
    RESULT_LINES.append(line)
    print(line, flush=True)
    assert passed, line


def test_criterion_01_reduction_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(100):
        k = int(rng.choice([3, 5, 7]))
        cin, fout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        rows, cols = int(rng.integers(4, 9)), int(rng.integers(4, 9))
        stride = int(rng.choice([1, 2]))
        x = rng.standard_normal((2, cin, rows, cols))
        kernel = KernelStack(rng.standard_normal((fout, cin, k, k)),
                             rng.standard_normal(fout))
        plain = conv2d(x, kernel, stride)
        weighted = conv2d_weighted(x, kernel, np.ones((k, k)), stride)
        worst = max(worst, float(np.max(np.abs(plain - weighted))))
    elapsed = time.perf_counter() - t0
    report(1, worst == 0.0 and elapsed < 10.0, elapsed,
           f"uniform-density reduction, 100 instances, max |diff| = {worst}")


def test_criterion_02_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(200)
    worst = 0.0
    for i in range(50):
        k = (3, 5, 7)[i % 3]
        cin, fout = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        rows, cols = int(rng.integers(5, 9)), int(rng.integers(5, 9))
        stride = int(rng.choice([1, 2]))
        x = rng.standard_normal((1, cin, rows, cols))
        kernel = KernelStack(rng.standard_normal((fout, cin, k, k)),
                             rng.standard_normal(fout))
        phi = rng.uniform(0.0, 2.0, (k, k))
        worst = max(worst, rel_err(conv2d(x, kernel, stride),
                                   conv_oracle(x, kernel.weights, kernel.bias,
                                               None, stride)))
        worst = max(worst, rel_err(conv2d_weighted(x, kernel, phi, stride),
                                   conv_oracle(x, kernel.weights, kernel.bias,
                                               phi, stride)))
    elapsed = time.perf_counter() - t0
    report(2, worst < 1e-12 and elapsed < 30.0, elapsed,
           f"brute-force oracle match, 50 instances, K in {{3,5,7}}, "
           f"max rel err = {worst:.2e}")


def test_criterion_03_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(300)
    worst_op = 0.0
    for i in range(50):
        k = (3, 5)[i % 2]
        stride = (1, 2)[(i // 2) % 2]
        cin, fout = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        rows = cols = int(rng.integers(5, 8))
        x = rng.standard_normal((1, cin, rows, cols))
        w = rng.standard_normal((fout, cin, k, k))
        kernel = KernelStack(w)
        phi = rng.uniform(0.1, 2.0, (k, k))
        out_shape = conv2d_weighted(x, kernel, phi, stride).shape
        up = rng.standard_normal(out_shape)

        gw = grad_weights(x, phi, up, stride=stride).weights
        fd_w = fd_gradient(lambda wv: np.vdot(
            conv2d_weighted(x, KernelStack(wv), phi, stride), up), w)
        worst_op = max(worst_op, rel_err(gw, fd_w))

        gx = grad_input(scale_kernel(kernel, phi), up, input_hw=(rows, cols),
                        stride=stride)
        fd_x = fd_gradient(lambda xv: np.vdot(
            conv2d_weighted(xv, kernel, phi, stride), up), x)
        worst_op = max(worst_op, rel_err(gx, fd_x))

        gd = grad_density(x, kernel, up, stride=stride)
        fd_d = fd_gradient(lambda pv: np.vdot(
            conv2d_weighted(x, kernel, pv, stride), up), phi)
        worst_op = max(worst_op, rel_err(gd, fd_d))

    # end-to-end model gradient on an 8x8 input, c=2, all parameters
    phi = density_matrix(named_density("gaussian", 3))
    net = DenoiseNet(ModelConfig(channels=2, kernel=3, seed=5, density=phi))
    x = rng.standard_normal((2, 1, 8, 8))
    t = rng.standard_normal((2, 1, 8, 8))
    net.backward(mse_grad(net.forward(x), t))
    grads = [g.copy() for g in net.grads()]
    scale = max(np.max(np.abs(g)) for g in grads)
    worst_model = 0.0
    for p, g in zip(net.params(), grads):
        fd = np.zeros_like(p)
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + 1e-6
            up_l = mse_loss(net.forward(x), t)
            p[idx] = orig - 1e-6
            dn_l = mse_loss(net.forward(x), t)
            p[idx] = orig
            fd[idx] = (up_l - dn_l) / 2e-6
        worst_model = max(worst_model, float(np.max(np.abs(g - fd)) / scale))
    elapsed = time.perf_counter() - t0
    report(3, worst_op < 1e-6 and worst_model < 1e-4 and elapsed < 120.0,
           elapsed, f"per-op FD err = {worst_op:.2e} (< 1e-6), "
                    f"model FD err = {worst_model:.2e} (< 1e-4)")


def test_criterion_04_operator_property_suite():
    t0 = time.perf_counter()
    checks = run_verification(instances=100, sizes=(8, 16, 64),
                              young_triples=1000, seed=0)
    by_name = {c.name: c for c in checks}
    ok = (by_name["convolution_theorem"].max_error < 1e-9
          and by_name["commutativity"].max_error < 1e-11
          and by_name["differentiability"].max_error < 1e-6
          and by_name["density_identity_pointwise"].max_error < 1e-12
          and by_name["young_inequality"].passed
          and all(c.passed for c in checks))
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{c.name}={c.max_error:.1e}" for c in checks)
    report(4, ok and elapsed < 60.0, elapsed, detail)


def test_criterion_05_direct_correctness():
    t0 = time.perf_counter()
    cfg1 = DirectConfig(np.array([0.0]), np.array([2.0]), max_evals=200,
                        max_iters=100)
    res1 = minimize(lambda x: (x[0] - 0.42) ** 2, cfg1, init=np.array([1.0]))
    ok1 = abs(res1.best_point[0] - 0.42) < 1e-3 and res1.eval_count <= 200

    cfg2 = DirectConfig(np.zeros(2), np.full(2, 4.0), max_evals=600,
                        max_iters=300)
    objective = lambda x: (x[0] - 0.38) ** 2 + (x[1] - 2.21) ** 2
    res2 = minimize(objective, cfg2, init=np.ones(2))
    ok2 = (np.max(np.abs(res2.best_point - [0.38, 2.21])) < 1e-2
           and res2.eval_count <= 600)

    res2b = minimize(objective, cfg2, init=np.ones(2))
    ok3 = (res2.eval_count == res2b.eval_count
           and all(a.best_value == b.best_value
                   and np.array_equal(a.best_point, b.best_point)
                   for a, b in zip(res2.trace, res2b.trace)))
    elapsed = time.perf_counter() - t0
    report(5, ok1 and ok2 and ok3 and elapsed < 5.0, elapsed,
           f"1-D err = {abs(res1.best_point[0] - 0.42):.1e} in "
           f"{res1.eval_count} evals, 2-D err = "
           f"{np.max(np.abs(res2.best_point - [0.38, 2.21])):.1e} in "
           f"{res2.eval_count} evals, trace deterministic = {ok3}")


def test_criterion_06_desk_scale_density_optimization():
    t0 = time.perf_counter()
    dataset = gen_dataset(DESK_SPEC)
    direct_cfg = build_direct_config(3, max_evals=50, max_iters=30)
    res = optimize_density(DESK_MODEL, direct_cfg, dataset)
    a1 = float(res.alpha.values[0])
    elapsed = time.perf_counter() - t0
    ok = 0.0 < a1 < 1.0 and res.improvement >= 0.05 and elapsed < 1800.0
    report(6, ok, elapsed,
           f"alpha_1 = {a1:.4f} in (0,1), improvement = "
           f"{100 * res.improvement:.1f}% (>= 5%)")


def test_criterion_07_density_family_comparison():
    t0 = time.perf_counter()
    dataset = gen_dataset(DESK_SPEC)
    rows, _ = compare_densities(["uniform", "linear", "gaussian", "cubic",
                                 "optimal"], DESK_MODEL, dataset,
                                build_direct_config(3, max_evals=50, max_iters=30))
    losses = {r["family"]: r["final_loss"] for r in rows}
    optimal = losses.pop("optimal")
    ok = all(optimal < v for v in losses.values())
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{k}={v:.4f}" for k, v in losses.items())
    report(7, ok and elapsed < 1200.0, elapsed,
           f"optimal = {optimal:.4f} strictly below {detail}")


def test_criterion_08_overhead_benchmark():
    t0 = time.perf_counter()
    rows = bench_overhead((3, 5, 7), (1,), (1, 1, 192, 192), repeats=15,
                          seed=0)
    ratios = {r["kernel"]: r["ratio"] for r in rows}
    ok = all(1.0 <= v <= 1.5 for v in ratios.values())
    elapsed = time.perf_counter() - t0
    report(8, ok and elapsed < 300.0, elapsed,
           "weighted/standard ratios " +
           ", ".join(f"K={k}: {v:.3f}" for k, v in ratios.items()))


def test_criterion_09_epochs_sweep_trend():
    t0 = time.perf_counter()
    rows = sweep_hyperparams("epochs", [1, 5, 20], DESK_SPEC, DESK_MODEL,
                             build_direct_config(3, max_evals=50, max_iters=30))
    alphas = [r["alpha_1"] for r in rows]
    ok = (all(r["error"] == "" for r in rows)
          and all(a >= b for a, b in zip(alphas, alphas[1:])))
    elapsed = time.perf_counter() - t0
    report(9, ok and elapsed < 5400.0, elapsed,
           "alpha_1 over epochs {1,5,20} = "
           + ", ".join(f"{a:.4f}" for a in alphas) + " (non-increasing)")


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    data = ["--n-images", "4", "--rows", "12", "--cols", "12"]
    model = ["--channels", "2", "--epochs", "2", "--kernel", "3"]
    direct = ["--max-evals", "6", "--max-iters", "4"]
    commands = {
        "gen-data": ["gen-data", *data],
        "train": ["train", *data, *model],
        "optimize-density": ["optimize-density", *data, *model, *direct,
                             "--format", "text"],
        "sweep": ["sweep", "--axis", "epochs", "--values", "1,2", *data,
                  *model, *direct],
        "compare-densities": ["compare-densities", *data, *model, *direct],
        "verify": ["verify", "--instances", "3", "--sizes", "8",
                   "--young-triples", "10"],
    }
    # bench output is wall-clock measurement, inherently not reproducible,
    # so it is the one subcommand exempted here
    mismatches = []
    for name, argv in commands.items():
        dirs = []
        for run_id in ("a", "b"):
            out = tmp_path / f"{name}-{run_id}"
            code = dispatch(["--seed", "7", "--threads", "1", "--out-dir",
                             str(out), *argv])
            assert code == 0, f"{name} run {run_id} exited {code}"
            dirs.append(out)
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        if files_a != files_b:
            mismatches.append(f"{name}: file sets differ")
            continue
        for fname in files_a:
            if (dirs[0] / fname).read_bytes() != (dirs[1] / fname).read_bytes():
                mismatches.append(f"{name}/{fname}")
    elapsed = time.perf_counter() - t0
    report(10, not mismatches, elapsed,
           "byte-identical outputs for " + ", ".join(commands)
           + (f"; mismatches: {mismatches}" if mismatches else ""))
