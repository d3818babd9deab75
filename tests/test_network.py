import tracemalloc

import numpy as np
import pytest

from oracles import dataset_from_pairs, fd_gradient, mse_grad, rel_err
from wconv import conv, network
from wconv.conv import conv2d_transposed_weighted, conv2d_weighted, scale_kernel
from wconv.density import density_matrix, named_density
from wconv.errors import DegenerateBatchError, DivergenceError, ShapeError
from wconv.network import (BatchNorm2d, Dataset, DenoiseNet, ModelConfig,
                           kaiming_init, mse_loss, sgd_train)


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
    return dataset_from_pairs(pairs)


class TestSgdTrain:
    def test_zero_learning_rate_rejected(self):
        # a step of 0 can never lower the loss
        for lr in (0.0, -0.0):
            with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
                ModelConfig(channels=2, kernel=3, epochs=3, learning_rate=lr)

    def test_identity_task_halves_loss(self):
        rng = np.random.default_rng(6)
        img = rng.uniform(0.0, 1.0, (16, 16))
        cfg = ModelConfig(channels=2, kernel=3, epochs=50, seed=0,
                          learning_rate=0.1)
        report = sgd_train(dataset_from_pairs([(img, img)]), cfg)
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
                sgd_train(dataset_from_pairs(pairs), cfg)
        assert info.value.epoch == 0 and info.value.step == 0
        assert "epoch 0" in str(info.value)

    def test_weights_overflowed_by_a_step_are_a_divergence(self):
        # lr * grad overflows some weights to inf while the loss is still
        # finite; the next step's density fold must leave them to the loss
        # check rather than reject them as invalid kernel weights.
        data = dataset_from_pairs([(noisy, 30.0 * clean)
                                  for noisy, clean in tiny_dataset(size=12)])
        phi = density_matrix(named_density("gaussian", 3))
        cfg = ModelConfig(channels=2, kernel=3, epochs=3, learning_rate=1.5e308,
                          density=phi)
        with pytest.raises(DivergenceError) as info:
            sgd_train(data, cfg)
        assert (info.value.epoch, info.value.step) == (1, 0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            sgd_train(dataset_from_pairs([]), ModelConfig())

    def test_report_fields(self):
        report = sgd_train(tiny_dataset(), ModelConfig(channels=2, kernel=3, epochs=2))
        assert report.batch_size == 4
        assert len(report.epoch_losses) == 2
        assert report.param_count == DenoiseNet(ModelConfig(channels=2)).param_count
        assert report.seconds > 0
        assert all(np.isfinite(v) and v >= 0 for v in report.epoch_losses)


class TestDataset:
    """The dataset is held once, as two stacked arrays that training reads
    without copying and never writes."""

    def test_from_pairs_stacks_in_order_and_iterates_views(self):
        pairs = [(np.full((3, 2), float(i)), np.full((3, 2), -float(i)))
                 for i in range(4)]
        data = dataset_from_pairs(pairs)
        assert len(data) == 4
        assert data.noisy.shape == data.clean.shape == (4, 1, 3, 2)
        for i, (noisy, clean) in enumerate(data):
            assert noisy.shape == (3, 2)
            assert np.shares_memory(noisy, data.noisy)
            assert np.shares_memory(clean, data.clean)
            assert (noisy == i).all() and (clean == -i).all()

    def test_shapes_are_checked(self):
        with pytest.raises(ShapeError):
            Dataset(np.zeros((2, 1, 4, 4)), np.zeros((2, 1, 4, 3)))
        with pytest.raises(ShapeError):
            Dataset(np.zeros((2, 2, 4, 4)), np.zeros((2, 2, 4, 4)))
        with pytest.raises(ValueError, match="non-empty"):
            Dataset(np.zeros((0, 1, 4, 4)), np.zeros((0, 1, 4, 4)))

    # (channels, stride, batch size): at c = 1 and stride 1 conv1 has the
    # same shape in and out, and must still not write the dataset.
    CASES = [(2, 2, None), (2, 2, 2), (1, 1, None), (1, 1, 2)]

    @pytest.mark.parametrize("channels,stride,batch_size", CASES)
    def test_training_reads_the_dataset_without_copying_it(
            self, channels, stride, batch_size, monkeypatch):
        data = tiny_dataset(n=4, size=8, seed=7)
        noisy, clean = data.noisy.tobytes(), data.clean.tobytes()
        cfg = ModelConfig(channels=channels, stride=stride, kernel=3, epochs=2,
                          batch_size=batch_size, seed=3)
        inputs = []
        forward = DenoiseNet.forward

        def recorded(net, x, **kwargs):
            inputs.append(x)
            return forward(net, x, **kwargs)

        monkeypatch.setattr(DenoiseNet, "forward", recorded)
        report = sgd_train(data, cfg)
        report.initial_loss  # a minibatch run's own pass over the whole set
        whole = [x for x in inputs if len(x) == len(data)]
        # Full batch: every step and the final pass; minibatch: the final
        # and the initial pass.
        assert len(whole) == (cfg.epochs + 1 if batch_size is None else 2)
        assert all(x is data.noisy for x in whole)
        assert data.noisy.tobytes() == noisy and data.clean.tobytes() == clean


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
    """A full-batch step reuses the initial pass; a minibatch run makes its
    initial pass only when ``initial_loss`` is read.  Recorded losses: 6
    images of 12 x 12, c=2, K=3, stride 2, gaussian density, 3 epochs, lr
    0.05, seed 1, from the trainer that ran ``epochs + 2`` passes.  The
    transposed conv's phase gather has since reordered its sums, which
    moved them by at most 2 ulp (3.4e-16)."""

    RECORDED = {
        None: (0.3910250990960153,
               [0.3910250990960153, 0.3554297953394239, 0.3277934773615024],
               0.3062291140389377),
        4: (0.3910250990960153,
            [0.3846552277107713, 0.31790631957604065, 0.28779813435268425],
            0.2657339877625625),
    }

    # Only a pass that a backward pass reads keeps caches: the initial pass
    # when the first full-batch step reuses it, every step, never the final.
    KEEPS = {None: [True] * 3 + [False],
             4: [True] * 3 * 2 + [False]}

    @pytest.mark.parametrize("batch_size,passes", [(None, 3 + 1),
                                                   (4, 3 * 2 + 1)])
    def test_forward_passes_and_losses(self, batch_size, passes, monkeypatch):
        data = tiny_dataset(n=6, size=12, seed=3)
        cfg = ModelConfig(channels=2, kernel=3, stride=2, epochs=3,
                          learning_rate=0.05, seed=1, batch_size=batch_size,
                          density=density_matrix(named_density("gaussian", 3)))
        expected = reference_losses(data, cfg)
        calls, kept = [], []
        forward = DenoiseNet.forward

        def counted(net, x, **kwargs):
            calls.append(x.shape[0])
            kept.append(kwargs.get("keep", True))
            return forward(net, x, **kwargs)

        monkeypatch.setattr(DenoiseNet, "forward", counted)
        report = sgd_train(data, cfg)
        assert len(calls) == passes
        assert kept == self.KEEPS[batch_size]
        got = (report.initial_loss, report.epoch_losses, report.final_loss)
        assert got == expected
        initial, epochs, final = self.RECORDED[batch_size]
        np.testing.assert_allclose(report.initial_loss, initial, rtol=1e-12)
        np.testing.assert_allclose(report.epoch_losses, epochs, rtol=1e-12)
        np.testing.assert_allclose(report.final_loss, final, rtol=1e-12)


class TestLazyInitialLoss:
    """The initial loss is computed once, when first read: from the first
    step's forward pass at full batch, and by a pass of its own otherwise."""

    @pytest.mark.parametrize("batch_size,pass_on_read", [(None, 0), (4, 1)])
    def test_passes_before_and_after_the_first_read(self, batch_size,
                                                    pass_on_read, monkeypatch):
        data = tiny_dataset(n=6, size=12, seed=3)
        cfg = ModelConfig(channels=2, kernel=3, stride=2, epochs=2, seed=4,
                          batch_size=batch_size,
                          density=density_matrix(named_density("gaussian", 3)))
        x = np.stack([p[0] for p in data])[:, None]
        t = np.stack([p[1] for p in data])[:, None]
        eager = mse_loss(DenoiseNet(cfg).forward(x, keep=False), t)
        kept = []
        forward = DenoiseNet.forward

        def counted(net, x, **kwargs):
            kept.append(kwargs.get("keep", True))
            return forward(net, x, **kwargs)

        monkeypatch.setattr(DenoiseNet, "forward", counted)
        report = sgd_train(data, cfg)
        steps = -(-len(data) // (batch_size or len(data)))
        trained = cfg.epochs * steps + 1
        assert len(kept) == trained
        assert report.initial_loss == eager
        assert kept[trained:] == [False] * pass_on_read
        assert report.initial_loss == eager
        assert len(kept) == trained + pass_on_read


def gaussian_net(channels=3, stride=2, seed=4):
    phi = density_matrix(named_density("gaussian", 3))
    return DenoiseNet(ModelConfig(channels=channels, stride=stride, kernel=3,
                                  seed=seed, density=phi))


def cached_arrays(net):
    """Every array the net holds for a backward pass, by name: the caches
    and the ReLU mask of the step block."""
    arrays = {}
    for i, (conv, bn) in enumerate([(net.conv1, net.bn1), (net.conv2, net.bn2),
                                    (net.conv3, net.bn3)], 1):
        arrays.update({f"conv{i}._x": conv._x, f"bn{i}._xhat": bn._xhat,
                       f"bn{i}._inv_std": bn._inv_std, f"bn{i}._out": bn._out})
    arrays["mask"] = net._mask
    return {name: a for name, a in arrays.items() if a is not None}


class TestLossOnlyPasses:
    """A ``keep=False`` pass caches nothing and gives the same bits."""

    def test_same_output_to_the_bit(self):
        net = gaussian_net()
        x = np.random.default_rng(8).standard_normal((3, 1, 8, 8))
        np.testing.assert_array_equal(net.forward(x, keep=False), net.forward(x))

    def test_batchnorm_overwrites_its_input(self):
        x = np.random.default_rng(9).standard_normal((2, 3, 4, 4))
        bn = BatchNorm2d(3)
        bn.gamma[:] = [0.5, 2.0, -1.0]
        bn.beta[:] = [0.1, 0.0, -0.3]
        want = bn.forward(x)
        work = x.copy()
        got = bn.forward(work, keep=False)
        assert got is work
        np.testing.assert_array_equal(got, want)

    def test_keeps_no_caches_and_drops_earlier_ones(self):
        net = gaussian_net()
        x = np.random.default_rng(10).standard_normal((2, 1, 8, 8))
        net.forward(x)
        # Each conv's input; each batch norm's normalised input, inverse
        # deviation and rectified output; one ReLU mask.
        assert len(cached_arrays(net)) == 3 + 3 * 3 + 1
        net.forward(x, keep=False)
        assert cached_arrays(net) == {}

    def test_backward_after_a_loss_only_pass_raises(self):
        net = gaussian_net()
        x = np.random.default_rng(11).standard_normal((2, 1, 8, 8))
        with pytest.raises(RuntimeError, match="keep=True"):
            net.backward(np.ones_like(x))  # no forward pass yet
        net.forward(x)
        pred = net.forward(x, keep=False)
        with pytest.raises(RuntimeError, match="keep=True"):
            net.backward(mse_grad(pred, x))
        bn = BatchNorm2d(2)
        h = np.ones((2, 2, 4, 4))
        bn.forward(h)
        bn.forward(h.copy(), keep=False)
        with pytest.raises(RuntimeError, match="keep=True"):
            bn.backward(h)

    # (channels, stride) and whether each conv writes over its input: only
    # a layer whose output has its input's shape, and never conv1, whose
    # input is the caller's array.
    IN_PLACE = [(1, 1, [False, True, True]), (2, 1, [False, True, False]),
                (4, 2, [False, True, False])]

    @pytest.mark.parametrize("channels,stride,in_place", IN_PLACE)
    def test_same_shape_layers_write_over_their_input(self, channels, stride,
                                                      in_place, monkeypatch):
        net = gaussian_net(channels=channels, stride=stride)
        x = np.random.default_rng(15).standard_normal((3, 1, 8, 8))
        want = net.forward(x).copy()
        seen = []
        for name in ("conv2d", "conv2d_transposed_weighted"):
            def recorded(h, kernel, step, *, out=None, _real=getattr(network, name)):
                seen.append(out is h)
                return _real(h, kernel, step, out=out)
            monkeypatch.setattr(network, name, recorded)
        np.testing.assert_array_equal(net.forward(x, keep=False), want)
        assert seen == in_place

    @pytest.mark.parametrize("channels,stride,in_place", IN_PLACE)
    def test_caller_input_is_never_written(self, channels, stride, in_place):
        net = gaussian_net(channels=channels, stride=stride)
        x = np.random.default_rng(16).standard_normal((3, 1, 8, 8))
        before = x.copy()
        got = net.forward(x, keep=False)
        assert got is not x
        assert x.tobytes() == before.tobytes()

    def test_loss_only_pass_holds_under_two_activations(self):
        # conv2 (8 -> 8) writes over its input, so the pass holds one
        # activation of (16, 8, 64, 64) and one conv's chunk buffers, a
        # quarter of an activation each: about 1.4 activations.  A conv2
        # output of its own makes about 2.4.  The caller's input is not
        # counted.
        net = DenoiseNet(ModelConfig(channels=8, kernel=3, seed=1))
        x = np.random.default_rng(17).standard_normal((16, 1, 64, 64))
        activation = 16 * 8 * 64 * 64 * 8
        assert activation == 4 * conv._COLUMN_BYTES
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            net.forward(x, keep=False)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 * activation

    @pytest.mark.parametrize("batch_size", [None, 2])
    def test_trained_model_holds_no_activations(self, batch_size):
        cfg = ModelConfig(channels=2, kernel=3, epochs=2, batch_size=batch_size)
        report = sgd_train(tiny_dataset(), cfg)
        assert cached_arrays(report.model) == {}

    def test_minibatch_training_peak_stays_near_a_few_activations(self):
        # A loss pass over all 16 images holds the inputs, two conv outputs
        # and one column chunk: about 3 activations of (16, 8, 32, 32).
        # Keeping every layer's caches for the whole set takes about 6.
        data = tiny_dataset(n=16, size=32, seed=5)
        cfg = ModelConfig(channels=8, kernel=3, epochs=1, batch_size=4, seed=1)
        activation = 16 * 8 * 32 * 32 * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sgd_train(data, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * activation


class TestStepBuffers:
    """A training step writes into buffers that the next step reuses."""

    def test_steady_state_steps_allocate_no_activation(self, monkeypatch):
        # The desk shape: one activation (1.3 MB) is larger than a column
        # chunk's budget.  After the first step, each step's allocations
        # beyond the buffers the net holds stay within one column chunk:
        # the gathers' buffer and small temporaries, no activation.
        data = tiny_dataset(n=20, size=64, seed=6)
        cfg = ModelConfig(channels=2, kernel=3, epochs=4, seed=2,
                          density=density_matrix(named_density("gaussian", 3)))
        assert 20 * 2 * 64 * 64 * 8 > conv._COLUMN_BYTES
        growth, start = [], []
        backward = DenoiseNet.backward

        def traced(net, upstream):
            backward(net, upstream)
            if start:
                growth.append(tracemalloc.get_traced_memory()[1] - start[-1])
            tracemalloc.reset_peak()
            start.append(tracemalloc.get_traced_memory()[0])

        monkeypatch.setattr(DenoiseNet, "backward", traced)
        tracemalloc.start()
        try:
            sgd_train(data, cfg)
        finally:
            tracemalloc.stop()
        assert len(growth) == cfg.epochs - 1
        assert max(growth) <= conv._COLUMN_BYTES

    def test_buffers_are_reused_while_the_shape_holds(self):
        net = gaussian_net()
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 1, 8, 8))
        first = net.forward(x)
        net.backward(np.ones_like(first))
        assert net.forward(2.0 * x) is first
        # One allocation holds every buffer of the step.
        bns = (net.bn1, net.bn2, net.bn3)
        held = [bn._xhat for bn in bns] + [bn._out for bn in bns] + [net._mask]
        assert all(a.base is first.base for a in held)
        again = net.forward(rng.standard_normal((3, 1, 8, 8)))
        assert again is not first and again.shape == (3, 1, 8, 8)

    def test_step_block_holds_only_what_backward_reads(self):
        net = gaussian_net()
        x = np.random.default_rng(14).standard_normal((2, 1, 8, 8))
        net.forward(x)
        # Every array but the caller's input and the per-channel inverse
        # deviations lies in one block: each batch norm's normalised input
        # and rectified output, and the ReLU mask.
        held = {name: a for name, a in cached_arrays(net).items()
                if name != "conv1._x" and "_inv_std" not in name}
        block = net.bn1._xhat.base
        assert all(a.base is block for a in held.values())
        assert net.conv1._x is x
        bns = (net.bn1, net.bn2, net.bn3)
        kept = sum(bn._xhat.nbytes + bn._out.nbytes for bn in bns)
        assert net._mask.dtype == bool and net._mask.shape == net.conv3._x.shape
        assert block.nbytes == kept + net._mask.nbytes

    def test_a_second_backward_raises(self):
        # A backward pass writes over the caches it reads.
        net = gaussian_net()
        x = np.random.default_rng(20).standard_normal((2, 1, 8, 8))
        net.backward(mse_grad(net.forward(x), x))
        with pytest.raises(RuntimeError, match="keep=True"):
            net.backward(np.ones_like(x))
        net.backward(mse_grad(net.forward(x), x))

    def test_full_batch_desk_training_peaks_below_seven_activations(self):
        # The step block holds six activations of (20, 2, 64, 64), two of
        # them at half size, and a mask; with the trainer's difference, one
        # column chunk and the gradients' temporaries a training peaks near
        # 6.3.  Two working arrays per layer output shape made about 9.2.
        data = tiny_dataset(n=20, size=64, seed=6)
        cfg = ModelConfig(channels=2, kernel=3, epochs=2, seed=2)
        activation = 20 * 2 * 64 * 64 * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sgd_train(data, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 7 * activation

    def test_batchnorm_backward_may_write_over_its_normalised_input(
            self, monkeypatch):
        # Both reductions read the normalised input before any write, and
        # each channel block reads its own before it writes there.
        rng = np.random.default_rng(18)
        x = rng.standard_normal((3, 4, 6, 5))
        up = rng.standard_normal(x.shape)
        monkeypatch.setattr(network, "_CHANNEL_BLOCK_BYTES", x.nbytes // 2)
        assert len(network._channel_blocks(x)) == 2

        def run(over_xhat):
            bn = BatchNorm2d(4)
            bn.gamma[:] = [0.5, 2.0, -1.0, 1.5]
            bn.forward(x)
            out = bn._xhat if over_xhat else None
            dx = bn.backward(up, out=out)
            assert (dx is bn._xhat) == over_xhat
            return dx, bn.grad_gamma, bn.grad_beta

        for a, b in zip(run(False), run(True)):
            np.testing.assert_array_equal(a, b)

    def test_channel_blocks_do_not_change_the_bits(self, monkeypatch):
        # Batch norm's elementwise passes run a block of channels at a time;
        # the statistics are reduced over the whole batch either way.
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 4, 6, 5))
        up = rng.standard_normal(x.shape)

        def run():
            bn = BatchNorm2d(4)
            bn.gamma[:] = [0.5, 2.0, -1.0, 1.5]
            bn.beta[:] = [0.1, 0.0, -0.3, 0.2]
            out = bn.forward(x).copy()
            return out, bn.backward(up), bn.grad_gamma, bn.grad_beta

        whole = run()
        monkeypatch.setattr(network, "_CHANNEL_BLOCK_BYTES", x.nbytes // 4)
        assert len(network._channel_blocks(x)) == 4
        for a, b in zip(whole, run()):
            np.testing.assert_array_equal(a, b)


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


class TestInference:
    """``infer`` normalises with the statistics the last pass stored."""

    def test_training_set_gives_the_final_loss_to_the_bit(self):
        # The report's model holds the final loss pass's statistics, with
        # no m/(m-1) factor, so inference on the training set repeats it.
        data = tiny_dataset(n=6, seed=3)
        for batch_size in (None, 4):
            cfg = ModelConfig(channels=2, kernel=3, epochs=2, seed=1,
                              batch_size=batch_size)
            report = sgd_train(data, cfg)
            pred = report.model.infer(data.noisy)
            assert mse_loss(pred, data.clean) == report.final_loss

    def test_an_images_output_does_not_depend_on_its_batch(self):
        net = sgd_train(tiny_dataset(n=4), ModelConfig(
            channels=2, kernel=3, epochs=2)).model
        held = tiny_dataset(n=3, seed=9).noisy
        together = net.infer(held)
        for i in range(3):
            np.testing.assert_allclose(net.infer(held[i:i + 1]),
                                       together[i:i + 1], rtol=1e-13, atol=0)
        # Training-mode statistics of a lone image differ.
        alone = net.forward(held[:1], keep=False)
        assert not np.allclose(alone, together[:1])

    def test_keeps_nothing_and_leaves_the_input(self):
        net = gaussian_net()
        x = np.random.default_rng(19).standard_normal((2, 1, 8, 8))
        with pytest.raises(RuntimeError, match="statistics"):
            net.infer(x)
        net.forward(x)
        stats = [(bn.mean.copy(), bn.var.copy()) for bn in (net.bn1, net.bn2, net.bn3)]
        before = x.copy()
        net.infer(2.0 * x)
        assert x.tobytes() == before.tobytes()
        assert cached_arrays(net) == {}
        for bn, (mean, var) in zip((net.bn1, net.bn2, net.bn3), stats):
            np.testing.assert_array_equal(bn.mean, mean)
            np.testing.assert_array_equal(bn.var, var)
