import numpy as np
import pytest

from oracles import fd_gradient, rel_err
from wconv.conv import conv2d_transposed_weighted, conv2d_weighted, scale_kernel
from wconv.density import density_matrix, named_density
from wconv.errors import DegenerateBatchError, DivergenceError, ShapeError
from wconv.network import (BatchNorm2d, DenoiseNet, ModelConfig, kaiming_init,
                           mse_grad, mse_loss, sgd_train)


class TestKaimingInit:
    def test_std_close_to_target(self):
        draws = kaiming_init((100_000,), fan_in=9, seed=0)
        target = np.sqrt(2.0 / 9.0)
        assert abs(draws.std() - target) / target < 0.02

    def test_mean_near_zero(self):
        n = 100_000
        draws = kaiming_init((n,), fan_in=9, seed=1)
        std_err = np.sqrt(2.0 / 9.0) / np.sqrt(n)
        assert abs(draws.mean()) < 3 * std_err

    def test_deterministic_per_seed(self):
        a = kaiming_init((4, 4), fan_in=16, seed=42)
        b = kaiming_init((4, 4), fan_in=16, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_zero_fan_in_rejected(self):
        with pytest.raises(ValueError):
            kaiming_init((3, 3), fan_in=0, seed=0)


class TestBatchNorm:
    def test_constant_channel_maps_to_zero(self):
        bn = BatchNorm2d(2)
        x = np.ones((3, 2, 4, 4)) * 7.0
        np.testing.assert_allclose(bn.forward(x), 0.0, rtol=0, atol=1e-12)

    def test_output_moments(self):
        rng = np.random.default_rng(1)
        bn = BatchNorm2d(3)
        out = bn.forward(rng.standard_normal((4, 3, 8, 8)))
        mean = out.mean(axis=(0, 2, 3))
        var = out.var(axis=(0, 2, 3))
        assert np.max(np.abs(mean)) < 1e-10
        assert np.max(np.abs(var - 1.0)) < 1e-4

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        bn = BatchNorm2d(2)
        x = rng.standard_normal((2, 2, 4, 4))
        up = rng.standard_normal((2, 2, 4, 4))
        bn.forward(x)
        dx = bn.backward(up)
        fd = fd_gradient(lambda xv: np.vdot(bn.forward(xv), up), x, step=1e-6)
        assert rel_err(dx, fd) < 1e-5

    def test_backward_gamma_beta(self):
        rng = np.random.default_rng(3)
        bn = BatchNorm2d(2)
        x = rng.standard_normal((2, 2, 4, 4))
        up = rng.standard_normal((2, 2, 4, 4))
        bn.forward(x)
        bn.backward(up)
        for param, grad in ((bn.gamma, bn.grad_gamma), (bn.beta, bn.grad_beta)):
            def loss(pv, param=param):
                saved = param.copy()
                param[:] = pv
                out = np.vdot(bn.forward(x), up)
                param[:] = saved
                return out
            fd = fd_gradient(loss, param.copy(), step=1e-6)
            assert rel_err(grad, fd) < 1e-6

    def test_singleton_statistics_rejected(self):
        with pytest.raises(DegenerateBatchError):
            BatchNorm2d(1).forward(np.ones((1, 1, 1, 1)))


class TestMseLoss:
    def test_identical_is_zero(self):
        x = np.arange(8.0).reshape(2, 4)
        assert mse_loss(x, x) == 0.0

    def test_single_pixel(self):
        assert mse_loss(np.array([2.0]), np.array([0.0])) == 4.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 5))
        b = rng.standard_normal((3, 5))
        want = sum((x - y) ** 2 for x, y in zip(a.ravel(), b.ravel())) / a.size
        assert abs(mse_loss(a, b) - want) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(np.ones(3), np.ones(4))


class TestModelForward:
    def test_layer_shapes_with_stride(self):
        cfg = ModelConfig(channels=4, stride=2, kernel=3, seed=0)
        net = DenoiseNet(cfg)
        x = np.random.default_rng(0).standard_normal((2, 1, 64, 64))
        h1 = net.bn1.forward(net.conv1.forward(x))
        assert h1.shape == (2, 4, 32, 32)
        h2 = net.conv2.forward(np.maximum(h1, 0.0))
        assert h2.shape == (2, 4, 32, 32)
        out = net.forward(x)
        assert out.shape == (2, 1, 64, 64)

    def test_parameter_count(self):
        assert DenoiseNet(ModelConfig(channels=4, kernel=3)).param_count == 243

    def test_parameter_count_independent_of_density(self):
        plain = DenoiseNet(ModelConfig(channels=4, kernel=3))
        phi = density_matrix(named_density("gaussian", 3))
        weighted = DenoiseNet(ModelConfig(channels=4, kernel=3, density=phi))
        assert plain.param_count == weighted.param_count

    def test_uniform_density_equals_plain_network(self):
        x = np.random.default_rng(1).standard_normal((2, 1, 8, 8))
        plain = DenoiseNet(ModelConfig(channels=2, kernel=3, seed=3))
        ones = DenoiseNet(ModelConfig(channels=2, kernel=3, seed=3,
                                      density=np.ones((3, 3))))
        np.testing.assert_array_equal(plain.forward(x), ones.forward(x))

    def test_folded_layers_match_the_in_loop_operators(self):
        # The layers fold the density into their kernels; the paper's
        # operator scales each tap inside the loop.  The two agree to
        # rounding.  The transposed conv takes a folded kernel either way.
        phi = density_matrix(named_density("gaussian", 3))
        net = DenoiseNet(ModelConfig(channels=3, stride=2, kernel=3, seed=4,
                                     density=phi))
        x = np.random.default_rng(7).standard_normal((2, 1, 8, 8))

        def bn_relu(h):  # a fresh BatchNorm2d is the untrained net's
            return np.maximum(BatchNorm2d(h.shape[1]).forward(h), 0.0)

        h = bn_relu(conv2d_weighted(x, net.conv1.kernel, phi, stride=2))
        h = bn_relu(conv2d_weighted(h, net.conv2.kernel, phi))
        want = bn_relu(conv2d_transposed_weighted(
            h, scale_kernel(net.conv3.kernel, phi), 2))
        assert rel_err(net.forward(x), want) < 1e-12

    def test_indivisible_spatial_dims_rejected(self):
        net = DenoiseNet(ModelConfig(channels=2, stride=2, kernel=3))
        with pytest.raises(ShapeError):
            net.forward(np.zeros((1, 1, 7, 8)))

    def test_end_to_end_gradient(self):
        rng = np.random.default_rng(5)
        phi = density_matrix(named_density("gaussian", 3))
        net = DenoiseNet(ModelConfig(channels=2, kernel=3, seed=5, density=phi))
        x = rng.standard_normal((2, 1, 8, 8))
        t = rng.standard_normal((2, 1, 8, 8))
        pred = net.forward(x)
        net.backward(mse_grad(pred, t))
        grads = [g.copy() for g in net.grads()]
        params = net.params()
        scale = max(np.max(np.abs(g)) for g in grads)
        worst = 0.0
        for p, g in zip(params, grads):
            fd = np.zeros_like(p)
            for idx in np.ndindex(p.shape):
                orig = p[idx]
                p[idx] = orig + 1e-6
                up = mse_loss(net.forward(x), t)
                p[idx] = orig - 1e-6
                down = mse_loss(net.forward(x), t)
                p[idx] = orig
                fd[idx] = (up - down) / 2e-6
            worst = max(worst, np.max(np.abs(g - fd)) / scale)
        assert worst < 1e-4

    def test_backward_skips_the_network_input_gradient(self, monkeypatch):
        import wconv.network
        calls = []
        real = wconv.network.grad_input

        def counted(kernel, *args, **kwargs):
            calls.append(kernel.in_channels)
            return real(kernel, *args, **kwargs)

        monkeypatch.setattr(wconv.network, "grad_input", counted)
        net = DenoiseNet(ModelConfig(channels=3, kernel=3, seed=2))
        x = np.random.default_rng(6).standard_normal((2, 1, 8, 8))
        assert net.backward(mse_grad(net.forward(x), np.zeros_like(x))) is None
        # conv3's input gradient is a strided conv, conv2's goes through
        # grad_input, conv1's (to the image) is never needed.
        assert calls == [3]


def tiny_dataset(n=4, size=16, sigma=0.05, seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        clean = rng.uniform(0.2, 0.8, (size, size))
        pairs.append((clean + rng.standard_normal((size, size)) * sigma, clean))
    return pairs


class TestSgdTrain:
    def test_zero_learning_rate_changes_nothing(self):
        report = sgd_train(tiny_dataset(), ModelConfig(channels=2, kernel=3,
                                                       epochs=3, learning_rate=0.0))
        assert report.final_loss == report.initial_loss

    def test_identity_task_halves_loss(self):
        rng = np.random.default_rng(6)
        img = rng.uniform(0.0, 1.0, (16, 16))
        cfg = ModelConfig(channels=2, kernel=3, epochs=50, seed=0,
                          learning_rate=0.1)
        report = sgd_train([(img, img)], cfg)
        assert report.final_loss < 0.5 * report.initial_loss
        # trend check: late epochs sit well below early ones
        losses = report.epoch_losses
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_deterministic_per_seed(self):
        cfg = ModelConfig(channels=2, kernel=3, epochs=4, seed=9, batch_size=2)
        a = sgd_train(tiny_dataset(), cfg)
        b = sgd_train(tiny_dataset(), cfg)
        assert a.epoch_losses == b.epoch_losses
        assert a.final_loss == b.final_loss

    def test_uniform_density_trajectory_identical_to_plain(self):
        data = tiny_dataset()
        plain = sgd_train(data, ModelConfig(channels=2, kernel=3, epochs=4, seed=2))
        ones = sgd_train(data, ModelConfig(channels=2, kernel=3, epochs=4, seed=2,
                                           density=np.ones((3, 3))))
        assert plain.epoch_losses == ones.epoch_losses
        assert plain.final_loss == ones.final_loss

    def test_divergence_reports_epoch_and_step(self):
        # squared error against an overflow-scale target goes non-finite
        # on the first forward pass
        pairs = [(np.full((8, 8), 0.5), np.full((8, 8), 1e200))]
        cfg = ModelConfig(channels=2, kernel=3, epochs=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as info:
                sgd_train(pairs, cfg)
        assert info.value.epoch == 0 and info.value.step == 0
        assert "epoch 0" in str(info.value)

    def test_weights_overflowed_by_a_step_are_a_divergence(self):
        # lr * grad overflows some weights to inf while the loss is still
        # finite; the next step's density fold must leave them to the loss
        # check rather than reject them as invalid kernel weights.
        data = [(noisy, 30.0 * clean) for noisy, clean in tiny_dataset(size=12)]
        phi = density_matrix(named_density("gaussian", 3))
        cfg = ModelConfig(channels=2, kernel=3, epochs=3, learning_rate=1.5e308,
                          density=phi)
        with pytest.raises(DivergenceError) as info:
            sgd_train(data, cfg)
        assert (info.value.epoch, info.value.step) == (1, 0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            sgd_train([], ModelConfig())

    def test_report_fields(self):
        report = sgd_train(tiny_dataset(), ModelConfig(channels=2, kernel=3, epochs=2))
        assert report.batch_size == 4
        assert len(report.epoch_losses) == 2
        assert report.param_count == DenoiseNet(ModelConfig(channels=2)).param_count
        assert report.seconds > 0
        assert all(np.isfinite(v) and v >= 0 for v in report.epoch_losses)


def reference_losses(dataset, cfg):
    """Losses of a loop that runs a separate initial pass and a forward pass
    on copied rows at every step: (initial, epoch losses, final)."""
    x = np.stack([p[0] for p in dataset])[:, None]
    t = np.stack([p[1] for p in dataset])[:, None]
    n = x.shape[0]
    batch = min(cfg.batch_size or n, n)
    net = DenoiseNet(cfg)
    rng = np.random.default_rng([cfg.seed, 7919])
    initial = mse_loss(net.forward(x), t)
    epoch_losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n) if batch < n else np.arange(n)
        total = 0.0
        for s0 in range(0, n, batch):
            idx = order[s0:s0 + batch]
            pred = net.forward(x[idx])
            total += mse_loss(pred, t[idx]) * len(idx)
            net.backward(mse_grad(pred, t[idx]))
            for p, g in zip(net.params(), net.grads()):
                p -= cfg.learning_rate * g
        epoch_losses.append(total / n)
    return initial, epoch_losses, mse_loss(net.forward(x), t)


class TestForwardPasses:
    """A full-batch step reuses the initial pass; a minibatch run keeps it.
    Recorded losses: 6 images of 12 x 12, c=2, K=3, stride 2, gaussian
    density, 3 epochs, lr 0.05, seed 1, from the trainer that ran
    ``epochs + 2`` passes.  The transposed conv's phase gather has since
    reordered its sums, which moved them by at most 2 ulp (3.4e-16)."""

    RECORDED = {
        None: (0.3910250990960153,
               [0.3910250990960153, 0.3554297953394239, 0.3277934773615024],
               0.3062291140389377),
        4: (0.3910250990960153,
            [0.3846552277107713, 0.31790631957604065, 0.28779813435268425],
            0.2657339877625625),
    }

    @pytest.mark.parametrize("batch_size,passes", [(None, 3 + 1),
                                                   (4, 3 * 2 + 2)])
    def test_forward_passes_and_losses(self, batch_size, passes, monkeypatch):
        data = tiny_dataset(n=6, size=12, seed=3)
        cfg = ModelConfig(channels=2, kernel=3, stride=2, epochs=3,
                          learning_rate=0.05, seed=1, batch_size=batch_size,
                          density=density_matrix(named_density("gaussian", 3)))
        expected = reference_losses(data, cfg)
        calls = []
        forward = DenoiseNet.forward

        def counted(net, x):
            calls.append(x.shape[0])
            return forward(net, x)

        monkeypatch.setattr(DenoiseNet, "forward", counted)
        report = sgd_train(data, cfg)
        assert len(calls) == passes
        got = (report.initial_loss, report.epoch_losses, report.final_loss)
        assert got == expected
        initial, epochs, final = self.RECORDED[batch_size]
        np.testing.assert_allclose(report.initial_loss, initial, rtol=1e-12)
        np.testing.assert_allclose(report.epoch_losses, epochs, rtol=1e-12)
        np.testing.assert_allclose(report.final_loss, final, rtol=1e-12)


class TestModelConfigValidation:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(epochs=0)

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(learning_rate=-0.1)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(kernel=4)

    def test_density_shape_checked(self):
        with pytest.raises(ShapeError):
            ModelConfig(kernel=3, density=np.ones((5, 5)))
