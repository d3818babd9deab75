import numpy as np
import pytest

from oracles import conv_oracle, fd_gradient, rel_err
from wconv import conv
from wconv.conv import (KernelStack, conv2d, conv2d_transposed_weighted,
                        conv2d_weighted, flop_count, grad_density, grad_input,
                        grad_weights, scale_kernel)
from wconv.density import density_matrix
from wconv.errors import ShapeError


def delta_kernel(k=3):
    w = np.zeros((1, 1, k, k))
    w[0, 0, k // 2, k // 2] = 1.0
    return KernelStack(w)


class TestKernelStack:
    def test_even_extent_rejected(self):
        with pytest.raises(ValueError):
            KernelStack(np.zeros((1, 1, 2, 2)))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            KernelStack(np.zeros((1, 1, 3, 5)))

    def test_non_finite_rejected(self):
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            KernelStack(w)


class TestConv2d:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 1, 6, 6))
        np.testing.assert_array_equal(conv2d(x, delta_kernel()), x)

    def test_box_kernel_on_constant_image(self):
        v = 0.7
        x = np.full((1, 1, 6, 6), v)
        out = conv2d(x, KernelStack(np.ones((1, 1, 3, 3))))
        np.testing.assert_allclose(out[0, 0, 1:-1, 1:-1], 9 * v, rtol=0, atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 1, 6, 6))
        kernel = KernelStack(rng.standard_normal((2, 1, 3, 3)),
                             rng.standard_normal(2))
        got = conv2d(x, kernel)
        want = conv_oracle(x, kernel.weights, kernel.bias)
        assert rel_err(got, want) < 1e-12

    def test_strided_matches_oracle(self):
        rng = np.random.default_rng(2)
        for rows, cols, stride in [(6, 6, 2), (7, 5, 2), (8, 8, 4)]:
            x = rng.standard_normal((2, 3, rows, cols))
            kernel = KernelStack(rng.standard_normal((2, 3, 3, 3)))
            got = conv2d(x, kernel, stride=stride)
            want = conv_oracle(x, kernel.weights, stride=stride)
            assert got.shape == (2, 2, -(-rows // stride), -(-cols // stride))
            assert rel_err(got, want) < 1e-12

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d(np.zeros((1, 2, 4, 4)), delta_kernel())

    def test_bad_stride(self):
        with pytest.raises(ValueError):
            conv2d(np.zeros((1, 1, 4, 4)), delta_kernel(), stride=0)


class TestConv2dWeighted:
    def test_uniform_density_reduces_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.standard_normal((1, 2, 5, 5))
            kernel = KernelStack(rng.standard_normal((2, 2, 3, 3)),
                                 rng.standard_normal(2))
            plain = conv2d(x, kernel)
            weighted = conv2d_weighted(x, kernel, np.ones((3, 3)))
            np.testing.assert_array_equal(weighted, plain)

    def test_center_only_density_is_pointwise_conv(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 2, 5, 5))
        kernel = KernelStack(rng.standard_normal((2, 2, 3, 3)))
        phi = density_matrix(np.array([0.0, 1.0, 0.0]))
        got = conv2d_weighted(x, kernel, phi)
        center = KernelStack(kernel.weights[:, :, 1:2, 1:2])
        want = conv2d(x, center)
        assert rel_err(got, want) < 1e-14

    def test_premultiplication_equivalence(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.standard_normal((2, 2, 6, 6))
            kernel = KernelStack(rng.standard_normal((3, 2, 3, 3)),
                                 rng.standard_normal(3))
            phi = rng.uniform(0.0, 2.0, (3, 3))
            a = conv2d_weighted(x, kernel, phi)
            b = conv2d(x, scale_kernel(kernel, phi))
            assert rel_err(a, b) < 1e-12

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 1, 6, 6))
        kernel = KernelStack(rng.standard_normal((2, 1, 3, 3)),
                             rng.standard_normal(2))
        phi = rng.uniform(0.0, 2.0, (3, 3))
        got = conv2d_weighted(x, kernel, phi)
        want = conv_oracle(x, kernel.weights, kernel.bias, phi)
        assert rel_err(got, want) < 1e-12

    def test_density_size_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d_weighted(np.zeros((1, 1, 4, 4)), delta_kernel(),
                            np.ones((5, 5)))


class TestTransposed:
    def test_identity_at_unit_upsample(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 1, 5, 5))
        out = conv2d_transposed_weighted(x, delta_kernel(), np.ones((3, 3)), 1)
        np.testing.assert_allclose(out, x, rtol=0, atol=1e-15)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(8)
        for stride in (1, 2, 3):
            x = rng.standard_normal((2, 3, 6, 6))
            kernel = KernelStack(rng.standard_normal((4, 3, 3, 3)))
            phi = rng.uniform(0.0, 2.0, (3, 3))
            fwd = conv2d_weighted(x, kernel, phi, stride=stride)
            y = rng.standard_normal(fwd.shape)
            lhs = np.vdot(fwd, y)
            rhs = np.vdot(x, conv2d_transposed_weighted(y, kernel, phi, stride))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_upsample_shape(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal((2, 4, 32, 32))
        kernel = KernelStack(rng.standard_normal((4, 1, 3, 3)))
        out = conv2d_transposed_weighted(y, kernel, np.ones((3, 3)), 2)
        assert out.shape == (2, 1, 64, 64)

    def test_bad_upsample(self):
        with pytest.raises(ValueError):
            conv2d_transposed_weighted(np.zeros((1, 1, 4, 4)), delta_kernel(),
                                       None, 0)


class TestGradWeights:
    def test_zero_upstream(self):
        x = np.ones((1, 1, 4, 4))
        g = grad_weights(x, np.ones((3, 3)), np.zeros((1, 1, 4, 4)))
        assert not np.any(g.weights)
        assert not np.any(g.bias)

    def test_uniform_density_equals_plain_gradient(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 2, 5, 5))
        up = rng.standard_normal((2, 3, 5, 5))
        with_phi = grad_weights(x, np.ones((3, 3)), up)
        without = grad_weights(x, None, up, k=3)
        np.testing.assert_array_equal(with_phi.weights, without.weights)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 2, 5, 5))
        w = rng.standard_normal((2, 2, 3, 3))
        phi = rng.uniform(0.0, 2.0, (3, 3))
        up = rng.standard_normal((2, 2, 5, 5))
        analytic = grad_weights(x, phi, up).weights
        fd = fd_gradient(
            lambda wv: np.vdot(conv2d_weighted(x, KernelStack(wv), phi), up), w)
        assert rel_err(analytic, fd) < 1e-6


class TestGradInput:
    def test_delta_kernel_passes_upstream_through(self):
        rng = np.random.default_rng(12)
        up = rng.standard_normal((1, 1, 5, 5))
        got = grad_input(delta_kernel(), np.ones((3, 3)), up, input_hw=(5, 5))
        np.testing.assert_array_equal(got, up)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((1, 2, 5, 5))
        kernel = KernelStack(rng.standard_normal((3, 2, 3, 3)))
        phi = rng.uniform(0.0, 2.0, (3, 3))
        up = rng.standard_normal((1, 3, 5, 5))
        analytic = grad_input(kernel, phi, up, input_hw=(5, 5))
        fd = fd_gradient(
            lambda xv: np.vdot(conv2d_weighted(xv, kernel, phi), up), x)
        assert rel_err(analytic, fd) < 1e-6

    def test_linear_in_upstream(self):
        rng = np.random.default_rng(14)
        kernel = KernelStack(rng.standard_normal((2, 1, 3, 3)))
        phi = rng.uniform(0.0, 2.0, (3, 3))
        up = rng.standard_normal((1, 2, 4, 4))
        one = grad_input(kernel, phi, up, input_hw=(4, 4))
        two = grad_input(kernel, phi, 2.0 * up, input_hw=(4, 4))
        np.testing.assert_allclose(two, 2.0 * one, rtol=0, atol=1e-14)


class TestGradDensity:
    def test_zero_weights(self):
        kernel = KernelStack(np.zeros((1, 1, 3, 3)))
        g = grad_density(np.ones((1, 1, 4, 4)), kernel, np.ones((1, 1, 4, 4)))
        assert not np.any(g)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((2, 2, 5, 5))
        kernel = KernelStack(rng.standard_normal((2, 2, 3, 3)))
        phi = rng.uniform(0.0, 2.0, (3, 3))
        up = rng.standard_normal((2, 2, 5, 5))
        analytic = grad_density(x, kernel, up)
        fd = fd_gradient(
            lambda pv: np.vdot(conv2d_weighted(x, kernel, pv), up), phi)
        assert rel_err(analytic, fd) < 1e-6

    def test_centrally_symmetric_instance(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((1, 1, 5, 5))
        x = x + x[..., ::-1, ::-1]
        up = rng.standard_normal((1, 1, 5, 5))
        up = up + up[..., ::-1, ::-1]
        w = rng.standard_normal((1, 1, 3, 3))
        w = w + w[..., ::-1, ::-1]
        g = grad_density(x, KernelStack(w), up)
        np.testing.assert_allclose(g, g[::-1, ::-1], rtol=0, atol=1e-10)

    def test_upstream_filter_count_must_match_kernel(self):
        # One upstream filter would broadcast against two kernel filters.
        kernel = KernelStack(np.ones((2, 1, 3, 3)))
        with pytest.raises(ShapeError):
            grad_density(np.ones((1, 1, 4, 4)), kernel, np.ones((1, 1, 4, 4)))


# (in_channels, filters) pairs that put every kernel on each side of the
# per-tap mixing choice.  The forward pass contracts in_channels, the
# transposed pass and the input gradient contract filters, and the weight
# gradient contracts pixels with filters x in_channels decides:
#   (1, 3): forward broadcast, transposed einsum, weight gradient einsum
#   (3, 1): forward einsum, transposed broadcast
#   (2, 2): einsum everywhere
#   (4, 3), (3, 4): BLAS matmul everywhere
#   (1, 8): forward broadcast, transposed and weight gradient matmul
#   (8, 1): forward and weight gradient matmul, transposed broadcast
MIXING_CHANNELS = [(1, 3), (3, 1), (2, 2), (4, 3), (3, 4), (1, 8), (8, 1)]


class TestChannelMixing:
    def test_cases_straddle_the_blas_crossover(self):
        products = [cin * fout for cin, fout in MIXING_CHANNELS
                    if cin > 1 and fout > 1]
        assert min(products) < conv._BLAS_MIN_CHANNELS <= max(products)

    @staticmethod
    def make_case(cin, fout, k, stride, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, cin, 7, 6))
        kernel = KernelStack(rng.standard_normal((fout, cin, k, k)),
                             rng.standard_normal(fout))
        phi = rng.uniform(0.1, 2.0, (k, k))
        up = rng.standard_normal((2, fout, -(-7 // stride), -(-6 // stride)))
        return x, kernel, phi, up

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("cin,fout", MIXING_CHANNELS)
    def test_forward_matches_oracle(self, cin, fout, stride, k):
        x, kernel, phi, _ = self.make_case(cin, fout, k, stride, 20)
        plain = conv2d(x, kernel, stride=stride)
        assert rel_err(plain, conv_oracle(x, kernel.weights, kernel.bias,
                                          stride=stride)) < 1e-12
        weighted = conv2d_weighted(x, kernel, phi, stride=stride)
        assert rel_err(weighted, conv_oracle(x, kernel.weights, kernel.bias,
                                             phi, stride=stride)) < 1e-12

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("cin,fout", MIXING_CHANNELS)
    def test_transposed_is_adjoint_of_oracle(self, cin, fout, stride, k):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((2, cin, 4 * stride, 3 * stride))
        kernel = KernelStack(rng.standard_normal((fout, cin, k, k)))
        phi = rng.uniform(0.1, 2.0, (k, k))
        y = rng.standard_normal((2, fout, 4, 3))
        lhs = np.vdot(conv_oracle(x, kernel.weights, None, phi, stride), y)
        rhs = np.vdot(x, conv2d_transposed_weighted(y, kernel, phi, stride))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("cin,fout", MIXING_CHANNELS)
    def test_grad_weights_matches_finite_differences(self, cin, fout, stride, k):
        x, kernel, phi, up = self.make_case(cin, fout, k, stride, 22)
        analytic = grad_weights(x, phi, up, stride=stride).weights
        fd = fd_gradient(lambda wv: np.vdot(
            conv2d_weighted(x, KernelStack(wv), phi, stride), up), kernel.weights)
        assert rel_err(analytic, fd) < 1e-6

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("cin,fout", MIXING_CHANNELS)
    def test_grad_input_matches_finite_differences(self, cin, fout, stride, k):
        x, kernel, phi, up = self.make_case(cin, fout, k, stride, 23)
        analytic = grad_input(kernel, phi, up, input_hw=(7, 6), stride=stride)
        fd = fd_gradient(lambda xv: np.vdot(
            conv2d_weighted(xv, kernel, phi, stride), up), x)
        assert rel_err(analytic, fd) < 1e-6


    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("cin,fout", MIXING_CHANNELS)
    def test_density_folds_into_the_kernel_exactly(self, cin, fout, stride, k):
        # The density is a tap-wise factor on the weights: taking it inside
        # the operator or folding it into the kernel first gives the same bits.
        x, kernel, phi, up = self.make_case(cin, fout, k, stride, 24)
        np.testing.assert_array_equal(
            grad_weights(x, phi, up, stride=stride).weights,
            grad_weights(x, None, up, k, stride).weights * phi)
        np.testing.assert_array_equal(
            grad_input(kernel, phi, up, (7, 6), stride),
            grad_input(scale_kernel(kernel, phi), None, up, (7, 6), stride))
        unbiased = KernelStack(kernel.weights)
        np.testing.assert_array_equal(
            conv2d_transposed_weighted(up, unbiased, phi, stride),
            conv2d_transposed_weighted(up, scale_kernel(unbiased, phi), None, stride))


BAD_STRIDE_CALLS = {
    "conv2d": lambda x, kernel, phi, up, s: conv2d(x, kernel, s),
    "conv2d_weighted": lambda x, kernel, phi, up, s: conv2d_weighted(x, kernel, phi, s),
    "conv2d_transposed_weighted":
        lambda x, kernel, phi, up, s: conv2d_transposed_weighted(up, kernel, phi, s),
    "grad_weights": lambda x, kernel, phi, up, s: grad_weights(x, None, up, 3, s),
    "grad_input": lambda x, kernel, phi, up, s: grad_input(kernel, None, up, stride=s),
    "grad_density": lambda x, kernel, phi, up, s: grad_density(x, kernel, up, s),
}


@pytest.mark.parametrize("stride", [0, -1, 1.5])
@pytest.mark.parametrize("op", sorted(BAD_STRIDE_CALLS))
def test_every_op_rejects_a_stride_that_is_not_a_positive_integer(op, stride):
    x = np.ones((1, 2, 4, 4))
    kernel = KernelStack(np.ones((2, 2, 3, 3)))
    with pytest.raises(ValueError, match="must be a positive integer"):
        BAD_STRIDE_CALLS[op](x, kernel, np.ones((3, 3)), np.ones((1, 2, 4, 4)), stride)


class TestFlopCount:
    def test_reference_value(self):
        assert flop_count(512, 512, 3, 3, weighted=True) == 21_233_664

    def test_ratio_is_three_halves(self):
        for args in [(64, 48, 2, 3), (128, 128, 5, 7)]:
            assert flop_count(*args, True) / flop_count(*args, False) == 1.5

    def test_pointwise_standard(self):
        assert flop_count(10, 11, 4, 1, weighted=False) == 2 * 10 * 11 * 4

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            flop_count(0, 4, 1, 3, False)
