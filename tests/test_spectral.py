import os
import subprocess
import sys

import numpy as np
import pytest

import wconv
import wconv.spectral as spectral
from oracles import (circular_weighted_conv_oracle,
                     circular_weighted_conv_oracle_2d)
from wconv.errors import ShapeError
from wconv.spectral import (check_commutativity, check_convolution_theorem,
                            check_density_identity,
                            check_density_identity_constant,
                            check_differentiability, check_young,
                            circular_conv_fft, circular_weighted_conv,
                            run_verification)


def rand_signals(n, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n), rng.standard_normal(n),
            rng.uniform(0.0, 2.0, n))


class TestCircularWeightedConv:
    def test_uniform_density_is_plain_circular_conv(self):
        f, g, _ = rand_signals(32, 0)
        got = circular_weighted_conv(f, g, np.ones(32))
        want = circular_conv_fft(f, g)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_delta_filter_reproduces_input(self):
        f, _, _ = rand_signals(16, 1)
        g = np.zeros(16)
        g[0] = 1.0
        phi = np.ones(16)
        np.testing.assert_allclose(circular_weighted_conv(f, g, phi), f,
                                   rtol=0, atol=1e-14)

    def test_matches_loop_oracle(self):
        f, g, phi = rand_signals(16, 2)
        got = circular_weighted_conv(f, g, phi)
        want = circular_weighted_conv_oracle(f, g, phi)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_matches_loop_oracle_2d(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((6, 6))
        g = rng.standard_normal((6, 6))
        phi = rng.uniform(0.0, 2.0, (6, 6))
        got = circular_weighted_conv(f, g, phi)
        want = circular_weighted_conv_oracle_2d(f, g, phi)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_matches_loop_oracle_at_verify_sizes(self, n):
        f, g, phi = rand_signals(n, 20 + n)
        got = circular_weighted_conv(f, g, phi)
        want = circular_weighted_conv_oracle(f, g, phi)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("shape", [(5, 7), (1, 6), (6, 1)])
    def test_matches_loop_oracle_on_rectangular_grids(self, shape):
        rng = np.random.default_rng(sum(shape))
        f = rng.standard_normal(shape)
        g = rng.standard_normal(shape)
        phi = rng.uniform(0.0, 2.0, shape)
        got = circular_weighted_conv(f, g, phi)
        want = circular_weighted_conv_oracle_2d(f, g, phi)
        assert got.shape == shape
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("shape", [(12,), (4, 5)])
    def test_filter_stack_matches_one_filter_at_a_time(self, shape):
        rng = np.random.default_rng(21)
        f = rng.standard_normal(shape)
        phi = rng.uniform(0.0, 2.0, shape)
        stack = rng.standard_normal((3, *shape))
        got = spectral._weighted_conv(f, stack, phi)
        want = [circular_weighted_conv(f, g, phi) for g in stack]
        assert np.max(np.abs(got - want)) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            circular_weighted_conv(np.ones(8), np.ones(9), np.ones(8))


class TestShifts:
    """The circulant index of each size is built once and shared read-only."""

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_values_are_z_minus_y_mod_n(self, n):
        np.testing.assert_array_equal(
            spectral._shifts(n), np.subtract.outer(np.arange(n), np.arange(n)) % n)

    def test_second_call_returns_the_same_read_only_array(self):
        idx = spectral._shifts(7)
        assert spectral._shifts(7) is idx
        with pytest.raises(ValueError):
            idx[0, 0] = 1

    def test_run_verification_builds_each_size_once(self):
        spectral._shifts.cache_clear()
        run_verification(3, (8, 16), 10)
        assert spectral._shifts.cache_info().misses == 2


class TestConvolutionTheorem:
    def test_random_instance(self):
        f, g, phi = rand_signals(64, 4)
        assert check_convolution_theorem(f, g, phi) < 1e-9

    def test_delta_triple(self):
        d = np.zeros(8)
        d[0] = 1.0
        assert check_convolution_theorem(d, d, d) < 1e-12

    def test_scaling_preserves_identity(self):
        f, g, phi = rand_signals(64, 5)
        assert check_convolution_theorem(2.0 * f, g, phi) < 1e-9


class TestCommutativity:
    def test_random_triple(self):
        f, g, phi = rand_signals(32, 6)
        assert check_commutativity(f, g, phi) < 1e-11

    def test_uniform_density_plain_commutativity(self):
        f, g, _ = rand_signals(24, 7)
        assert check_commutativity(f, g, np.ones(24)) < 1e-11

    def test_zero_input(self):
        _, g, phi = rand_signals(16, 8)
        assert check_commutativity(np.zeros(16), g, phi) == 0.0


class TestDifferentiability:
    def test_random_instance(self):
        rng = np.random.default_rng(9)
        f = rng.standard_normal(12)
        phi = rng.uniform(0.0, 2.0, 12)
        assert check_differentiability(f, phi) < 1e-6

    def test_zero_density_zero_jacobian(self):
        rng = np.random.default_rng(10)
        f = rng.standard_normal(10)
        assert check_differentiability(f, np.zeros(10)) == 0.0

    def test_kernel_without_the_density_fails_the_check(self, monkeypatch):
        # the finite differences run through the operator's own kernel, so
        # breaking the kernel must show in the check
        kernel = spectral._weighted_conv
        monkeypatch.setattr(spectral, "_weighted_conv",
                            lambda f, g, density: kernel(f, g, np.ones(f.shape)))
        rng = np.random.default_rng(9)
        f = rng.standard_normal(12)
        phi = rng.uniform(0.0, 2.0, 12)
        assert check_differentiability(f, phi) > 1e-6

    def test_delta_input_gives_diagonal_density_jacobian(self):
        n = 9
        rng = np.random.default_rng(11)
        phi = rng.uniform(0.0, 2.0, n)
        f = np.zeros(n)
        f[0] = 1.0
        # d h(z) / d g(s) = f(z - s) phi(s): a delta input leaves exactly
        # the density on the diagonal
        jac = np.empty((n, n))
        for s in range(n):
            jac[:, s] = f[(np.arange(n) - s) % n] * phi[s]
        np.testing.assert_array_equal(jac, np.diag(phi))


class TestDensityIdentity:
    def test_pointwise_residual(self):
        f, g, phi = rand_signals(32, 12)
        for z in (0, 5, 31):
            assert check_density_identity(f, g, phi, z) < 1e-12

    def test_constant_density_holds_globally(self):
        f, g, _ = rand_signals(16, 13)
        assert check_density_identity_constant(f, g, 1.37) < 1e-12

    def test_zero_density(self):
        f, g, _ = rand_signals(16, 14)
        assert check_density_identity(f, g, np.zeros(16), 3) == 0.0


class TestYoung:
    def test_thousand_random_triples(self):
        rng = np.random.default_rng(15)
        for _ in range(1000):
            n = int(rng.choice([4, 8, 16]))
            f = rng.standard_normal(n)
            g = rng.standard_normal(n)
            phi = rng.uniform(0.0, 2.0, n)
            lhs, rhs, holds = check_young(f, g, phi)
            assert holds and lhs <= rhs + 1e-12

    def test_delta_triple_is_tight(self):
        d = np.zeros(8)
        d[0] = 1.0
        lhs, rhs, holds = check_young(d, d, d)
        assert lhs == rhs == 1.0 and holds

    def test_zero_filter(self):
        f, _, phi = rand_signals(8, 16)
        lhs, rhs, holds = check_young(f, np.zeros(8), phi)
        assert lhs == 0.0 and holds


class TestRunVerification:
    def test_all_properties_pass(self):
        reports = run_verification(instances=10, sizes=(8, 16), young_triples=50,
                                   seed=0)
        names = {r.name for r in reports}
        assert names == {"convolution_theorem", "commutativity",
                         "differentiability", "density_identity_pointwise",
                         "density_identity_constant", "young_inequality",
                         "fft_reduction"}
        assert all(r.passed for r in reports)
        assert all(r.instances > 0 for r in reports)

    def test_records_are_the_recorded_golden_values(self):
        # max_error and instances of each property, recorded before the
        # circulant index was cached: the cached index must give the same
        # gathers and products, bit for bit.
        golden = {
            "convolution_theorem": (6, "0x1.6a09e667f3bcdp-47"),
            "commutativity": (6, "0x1.0000000000000p-49"),
            "differentiability": (6, "0x1.069293101ae8ep-32"),
            "density_identity_pointwise": (6, "0x1.0000000000000p-51"),
            "density_identity_constant": (6, "0x1.0000000000000p-48"),
            "young_inequality": (10, "0x0.0p+0"),
            "fft_reduction": (6, "0x1.0000000000000p-48"),
        }
        got = {r.name: (r.instances, r.max_error.hex())
               for r in run_verification(3, (8, 16), 10, seed=0)}
        assert got == golden

    def test_records_do_not_depend_on_blas_threads(self):
        script = ("from wconv.spectral import run_verification; "
                  "print(repr(run_verification(instances=3, sizes=(8, 64), "
                  "young_triples=10)))")
        src = os.path.dirname(os.path.dirname(wconv.__file__))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True,
                                  timeout=120)
            outputs.append(done.stdout)
        assert "PropertyCheck" in outputs[0]
        assert outputs[0] == outputs[1]
