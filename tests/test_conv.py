import tracemalloc

import numpy as np
import pytest

from oracles import conv_oracle, fd_gradient, grad_density, rel_err
from wconv import conv
from wconv.conv import (KernelStack, conv2d, conv2d_transposed_weighted,
                        conv2d_weighted, flop_count, grad_input, grad_weights,
                        scale_kernel)
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

    @pytest.mark.parametrize("shape", [(0, 1, 3, 3), (1, 0, 3, 3)])
    def test_no_filter_or_no_channel_rejected(self, shape):
        with pytest.raises(ShapeError, match="at least one filter"):
            KernelStack(np.zeros(shape))


class TestEmptyOperand:
    # A zero extent used to reach the chunk size as a division by zero.
    @pytest.mark.parametrize("shape", [(1, 1, 0, 0), (1, 1, 4, 0), (0, 1, 4, 4)])
    def test_every_operator_rejects_a_zero_extent(self, shape):
        x = np.zeros(shape)
        kernel = delta_kernel()
        for call in (lambda: conv2d(x, kernel),
                     lambda: conv2d_weighted(x, kernel, np.ones((3, 3))),
                     lambda: conv2d_transposed_weighted(x, kernel, upsample=2),
                     lambda: grad_weights(x, np.ones((3, 3)), np.zeros((1, 1, 4, 4))),
                     lambda: grad_input(kernel, x)):
            with pytest.raises(ShapeError, match="empty extent"):
                call()


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
        out = conv2d_transposed_weighted(x, delta_kernel(), 1)
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
            rhs = np.vdot(x, conv2d_transposed_weighted(
                y, scale_kernel(kernel, phi), stride))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_upsample_shape(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal((2, 4, 32, 32))
        kernel = KernelStack(rng.standard_normal((4, 1, 3, 3)))
        out = conv2d_transposed_weighted(y, kernel, 2)
        assert out.shape == (2, 1, 64, 64)

    def test_bad_upsample(self):
        with pytest.raises(ValueError):
            conv2d_transposed_weighted(np.zeros((1, 1, 4, 4)), delta_kernel(), 0)


class TestGradWeights:
    def test_zero_upstream(self):
        x = np.ones((1, 1, 4, 4))
        g = grad_weights(x, np.ones((3, 3)), np.zeros((1, 1, 4, 4)))
        assert not np.any(g.weights)

    def test_non_finite_gradient_is_returned_not_rejected(self):
        # An overflowed gradient is a divergence for the trainer to report,
        # not invalid input.
        g = grad_weights(np.ones((1, 1, 4, 4)), np.full((3, 3), np.nan),
                         np.ones((1, 1, 4, 4)))
        assert np.all(np.isnan(g.weights))

    def test_uniform_density_equals_plain_gradient(self):
        # The plain conv is linear in its weights, so the gradient entry of
        # each weight is <conv(x, unit kernel at that weight), upstream>.
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 2, 5, 5))
        up = rng.standard_normal((2, 3, 5, 5))
        got = grad_weights(x, np.ones((3, 3)), up).weights
        want = np.zeros((3, 2, 3, 3))
        for idx in np.ndindex(want.shape):
            unit = np.zeros(want.shape)
            unit[idx] = 1.0
            want[idx] = np.vdot(conv_oracle(x, unit), up)
        assert rel_err(got, want) < 1e-12

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
        got = grad_input(delta_kernel(), up, input_hw=(5, 5))
        np.testing.assert_array_equal(got, up)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((1, 2, 5, 5))
        kernel = KernelStack(rng.standard_normal((3, 2, 3, 3)))
        phi = rng.uniform(0.0, 2.0, (3, 3))
        up = rng.standard_normal((1, 3, 5, 5))
        analytic = grad_input(scale_kernel(kernel, phi), up, input_hw=(5, 5))
        fd = fd_gradient(
            lambda xv: np.vdot(conv2d_weighted(xv, kernel, phi), up), x)
        assert rel_err(analytic, fd) < 1e-6

    def test_linear_in_upstream(self):
        rng = np.random.default_rng(14)
        kernel = KernelStack(rng.standard_normal((2, 1, 3, 3)))
        phi = rng.uniform(0.0, 2.0, (3, 3))
        up = rng.standard_normal((1, 2, 4, 4))
        folded = scale_kernel(kernel, phi)
        one = grad_input(folded, up, input_hw=(4, 4))
        two = grad_input(folded, 2.0 * up, input_hw=(4, 4))
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


# (in_channels, filters) pairs for the im2col path: a single input channel
# (one row of taps per filter), a single filter (a one-row kernel matrix),
# equal counts, and more channels than filters and the reverse.  Every case
# is a batch of 2 small images, which fits one chunk of the column budget;
# TestChunking covers batches that span several chunks.
MIXING_CHANNELS = [(1, 3), (3, 1), (2, 2), (4, 3), (3, 4), (1, 8), (8, 1)]

# 40 images of 8 x 7 x 6 at K=5: 15 images of columns per chunk at 1 MiB,
# so chunks of 15, 15 and 10.
CHUNK_BATCH, CHUNK_CIN, CHUNK_FOUT, CHUNK_K = 40, 8, 3, 5


def images_per_chunk(cin, k, ro, co):
    return max(1, conv._COLUMN_BYTES // (8 * cin * k * k * ro * co))


class TestChannelMixing:
    def test_cases_straddle_the_chunk_budget(self):
        for cin, fout in MIXING_CHANNELS:
            for k in (3, 5):
                assert images_per_chunk(max(cin, fout), k, 7, 6) >= 2
        chunk = images_per_chunk(CHUNK_CIN, CHUNK_K, 7, 6)
        assert CHUNK_BATCH > 2 * chunk and CHUNK_BATCH % chunk != 0

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
        rhs = np.vdot(x, conv2d_transposed_weighted(
            y, scale_kernel(kernel, phi), stride))
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
        analytic = grad_input(scale_kernel(kernel, phi), up, input_hw=(7, 6),
                              stride=stride)
        fd = fd_gradient(lambda xv: np.vdot(
            conv2d_weighted(xv, kernel, phi, stride), up), x)
        assert rel_err(analytic, fd) < 1e-6


    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("cin,fout", MIXING_CHANNELS)
    def test_density_folds_into_the_kernel_exactly(self, cin, fout, stride, k):
        # The density is a tap-wise factor on the weight gradient: the
        # gradient at a density is the plain one times it, to the bit.
        x, kernel, phi, up = self.make_case(cin, fout, k, stride, 24)
        np.testing.assert_array_equal(
            grad_weights(x, phi, up, stride=stride).weights,
            grad_weights(x, np.ones((k, k)), up, stride=stride).weights * phi)


class TestChunking:
    """Batches whose columns span three chunks, the last one short."""

    @staticmethod
    def make_case(seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((CHUNK_BATCH, CHUNK_CIN, 7, 6))
        kernel = KernelStack(
            rng.standard_normal((CHUNK_FOUT, CHUNK_CIN, CHUNK_K, CHUNK_K)),
            rng.standard_normal(CHUNK_FOUT))
        phi = rng.uniform(0.1, 2.0, (CHUNK_K, CHUNK_K))
        up = rng.standard_normal((CHUNK_BATCH, CHUNK_FOUT, 7, 6))
        return x, kernel, phi, up

    def test_forward_matches_oracle(self):
        x, kernel, phi, _ = self.make_case(30)
        assert rel_err(conv2d(x, kernel),
                       conv_oracle(x, kernel.weights, kernel.bias)) < 1e-12
        assert rel_err(conv2d_weighted(x, kernel, phi),
                       conv_oracle(x, kernel.weights, kernel.bias, phi)) < 1e-12

    def test_transposed_is_adjoint(self):
        x, kernel, phi, y = self.make_case(31)
        unbiased = KernelStack(kernel.weights)
        lhs = np.vdot(conv_oracle(x, kernel.weights, None, phi), y)
        rhs = np.vdot(x, conv2d_transposed_weighted(y, scale_kernel(unbiased, phi)))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_grad_weights_matches_finite_differences(self):
        x, kernel, phi, up = self.make_case(32)
        analytic = grad_weights(x, phi, up).weights
        fd = fd_gradient(lambda wv: np.vdot(
            conv2d_weighted(x, KernelStack(wv), phi), up), kernel.weights)
        assert rel_err(analytic, fd) < 1e-6

    def test_grad_input_matches_finite_differences(self):
        # The conv acts on each image alone, so each image's finite
        # differences need only that image; the analytic gradient runs on
        # the whole batch.  First and last image of every chunk.
        x, kernel, phi, up = self.make_case(33)
        analytic = grad_input(scale_kernel(kernel, phi), up, input_hw=(7, 6))
        chunk = images_per_chunk(CHUNK_CIN, CHUNK_K, 7, 6)
        starts = range(0, CHUNK_BATCH, chunk)
        for m in sorted({i for s in starts
                         for i in (s, min(s + chunk, CHUNK_BATCH) - 1)}):
            fd = fd_gradient(lambda xv: np.vdot(
                conv2d_weighted(xv, kernel, phi), up[m:m + 1]), x[m:m + 1])
            assert rel_err(analytic[m:m + 1], fd) < 1e-6


class TestLongContractions:
    """Contractions longer than one BLAS block: 12 channels x 25 taps = 300
    and 17 x 16 = 272 pixels, each a whole block plus a remainder."""

    def test_blocked_matmul_matches_numpy(self):
        rng = np.random.default_rng(35)
        depth = conv._GEMM_DEPTH + 44
        w = rng.standard_normal((3, depth))
        stack = rng.standard_normal((2, depth, 5))
        assert rel_err(conv._matmul(w, stack), np.matmul(w, stack)) < 1e-14
        up = rng.standard_normal((2, 3, depth))
        col = rng.standard_normal((2, 4, depth)).transpose(0, 2, 1)
        assert rel_err(conv._matmul(up, col), np.matmul(up, col)) < 1e-14

    def test_conv_and_weight_gradient(self):
        rng = np.random.default_rng(36)
        x = rng.standard_normal((2, 12, 17, 16))
        kernel = KernelStack(rng.standard_normal((2, 12, 5, 5)),
                             rng.standard_normal(2))
        phi = rng.uniform(0.1, 2.0, (5, 5))
        up = rng.standard_normal((2, 2, 17, 16))
        assert rel_err(conv2d_weighted(x, kernel, phi),
                       conv_oracle(x, kernel.weights, kernel.bias, phi)) < 1e-12
        analytic = grad_weights(x, phi, up).weights
        fd = fd_gradient(lambda wv: np.vdot(
            conv2d_weighted(x, KernelStack(wv), phi), up), kernel.weights)
        assert rel_err(analytic, fd) < 1e-6


# Stride and kernel extent of the phase-gather cases, and the input sizes
# of the input-gradient cases: sides that are multiples of the stride,
# 7 x 5, which at strides 2 and 3 makes the phases differ in size, and
# 1 x 2, which leaves some phases without a pixel.  At K = 1 and stride 2
# no tap reaches the odd phases.
PHASE_STRIDES_KS = [(s, k) for s in (1, 2, 3) for k in (3, 5, 7)] + [(2, 1)]
PHASE_CASES = [(s, k, hw) for s, k in PHASE_STRIDES_KS
               for hw in ((7, 5), (2 * s, 3 * s), (1, 2))]


class TestPhaseGather:
    """The transposed direction as one stride-1 conv per output phase."""

    @pytest.mark.parametrize("stride,k", PHASE_STRIDES_KS)
    def test_transposed_is_adjoint_of_oracle(self, stride, k):
        rng = np.random.default_rng(40)
        x = rng.standard_normal((2, 2, 4 * stride, 3 * stride))
        kernel = KernelStack(rng.standard_normal((3, 2, k, k)))
        phi = rng.uniform(0.1, 2.0, (k, k))
        y = rng.standard_normal((2, 3, 4, 3))
        lhs = np.vdot(conv_oracle(x, kernel.weights, None, phi, stride), y)
        rhs = np.vdot(x, conv2d_transposed_weighted(
            y, scale_kernel(kernel, phi), stride))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("stride,k,hw", PHASE_CASES)
    def test_grad_input_is_adjoint_of_oracle(self, stride, k, hw):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((2, 2) + hw)
        kernel = KernelStack(rng.standard_normal((3, 2, k, k)))
        phi = rng.uniform(0.1, 2.0, (k, k))
        fwd = conv_oracle(x, kernel.weights, None, phi, stride)
        up = rng.standard_normal(fwd.shape)
        lhs = np.vdot(fwd, up)
        rhs = np.vdot(x, grad_input(scale_kernel(kernel, phi), up, hw, stride))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("stride,k,hw", PHASE_CASES)
    def test_grad_input_matches_finite_differences(self, stride, k, hw):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 2) + hw)
        kernel = KernelStack(rng.standard_normal((3, 2, k, k)))
        phi = rng.uniform(0.1, 2.0, (k, k))
        up = rng.standard_normal(conv2d(x, kernel, stride).shape)
        analytic = grad_input(scale_kernel(kernel, phi), up, hw, stride)
        fd = fd_gradient(lambda xv: np.vdot(
            conv2d_weighted(xv, kernel, phi, stride), up), x)
        assert rel_err(analytic, fd) < 1e-6

    # 60 images of 15 x 13 at stride 2, 32 filters, K = 5: the four phases
    # have 3 x 3, 3 x 2, 2 x 3 and 2 x 2 taps over 8 x 7, 8 x 6, 7 x 7 and
    # 7 x 6 pixels, so every phase's columns span at least 3 chunks.
    BATCH, FOUT, K, STRIDE, HW = 60, 32, 5, 2, (15, 13)

    def phase_chunks(self):
        """Images per chunk of each phase's columns."""
        chunks = []
        for pi in range(self.STRIDE):
            for pj in range(self.STRIDE):
                row_taps, _ = conv._phase_taps(self.K, self.STRIDE, pi)
                col_taps, _ = conv._phase_taps(self.K, self.STRIDE, pj)
                pixels = (len(range(pi, self.HW[0], self.STRIDE))
                          * len(range(pj, self.HW[1], self.STRIDE)))
                chunks.append(conv._chunk(
                    self.FOUT * len(row_taps) * len(col_taps) * pixels))
        return chunks

    def test_batch_spans_three_chunks_in_every_phase(self):
        assert all(self.BATCH > 2 * chunk for chunk in self.phase_chunks())

    def test_chunked_phases(self):
        rng = np.random.default_rng(43)
        x = rng.standard_normal((self.BATCH, 1) + self.HW)
        kernel = KernelStack(rng.standard_normal((self.FOUT, 1, self.K, self.K)))
        phi = rng.uniform(0.1, 2.0, (self.K, self.K))
        up = rng.standard_normal(conv2d(x, kernel, self.STRIDE).shape)
        # The transposed conv is the adjoint of the oracle-tested forward.
        x_even = rng.standard_normal((self.BATCH, 1, 2 * up.shape[2], 2 * up.shape[3]))
        lhs = np.vdot(conv2d_weighted(x_even, kernel, phi, self.STRIDE), up)
        folded = scale_kernel(kernel, phi)
        rhs = np.vdot(x_even, conv2d_transposed_weighted(up, folded, self.STRIDE))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
        # The conv acts on each image alone, so each image's finite
        # differences need only that image.  First and last image of every
        # chunk of every phase.
        analytic = grad_input(folded, up, self.HW, self.STRIDE)
        edges = {i for chunk in self.phase_chunks()
                 for s0 in range(0, self.BATCH, chunk)
                 for i in (s0, min(s0 + chunk, self.BATCH) - 1)}
        for m in sorted(edges):
            fd = fd_gradient(lambda xv: np.vdot(
                conv2d_weighted(xv, kernel, phi, self.STRIDE), up[m:m + 1]),
                x[m:m + 1])
            assert rel_err(analytic[m:m + 1], fd) < 1e-6


# (filters, in_channels) of transposed convs with at least
# ``_FILTERS_FIRST_RATIO`` filters per channel, whose filters are
# contracted first; upstream sizes odd and non-square, and square.
FILTERS_FIRST_CHANNELS = [(8, 1), (16, 2)]
FILTERS_FIRST_HW = [(5, 3), (4, 4)]


class TestFiltersFirst:
    """The transposed conv that contracts its filters before it shifts
    matches the phase gather, which stays the reference."""

    @staticmethod
    def make_case(bsz, fout, cin, k, hw, seed):
        rng = np.random.default_rng(seed)
        kernel = KernelStack(rng.standard_normal((fout, cin, k, k)))
        return kernel, rng.standard_normal((bsz, fout) + hw)

    @staticmethod
    def gathered(kernel, y, stride):
        rows, cols = y.shape[2] * stride, y.shape[3] * stride
        return conv._transposed(kernel.weights, y, rows, cols, stride)[0]

    @pytest.mark.parametrize("hw", FILTERS_FIRST_HW)
    @pytest.mark.parametrize("fout,cin", FILTERS_FIRST_CHANNELS)
    @pytest.mark.parametrize("stride,k", PHASE_STRIDES_KS + [(1, 1), (3, 1)])
    def test_matches_the_phase_gather(self, stride, k, fout, cin, hw):
        kernel, y = self.make_case(2, fout, cin, k, hw, 60)
        got = conv2d_transposed_weighted(y, kernel, stride)
        assert rel_err(got, self.gathered(kernel, y, stride)) < 1e-12

    def test_more_filters_than_one_blas_block(self):
        kernel, y = self.make_case(3, conv._GEMM_DEPTH + 44, 2, 3, (5, 4), 65)
        got = conv2d_transposed_weighted(y, kernel, 2)
        assert rel_err(got, self.gathered(kernel, y, 2)) < 1e-12

    @pytest.mark.parametrize("stride,k", PHASE_STRIDES_KS)
    def test_is_adjoint_of_oracle(self, stride, k):
        kernel, y = self.make_case(2, 8, 1, k, (5, 3), 61)
        x = np.random.default_rng(62).standard_normal((2, 1, 5 * stride, 3 * stride))
        lhs = np.vdot(conv_oracle(x, kernel.weights, None, stride=stride), y)
        rhs = np.vdot(x, conv2d_transposed_weighted(y, kernel, stride))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    # 16 images of 15 x 13 upstream, 16 filters for 2 channels at K = 7:
    # 6 images of Z per chunk, so chunks of 6, 6 and 4.
    BATCH, FOUT, CIN, K, STRIDE, HW = 16, 16, 2, 7, 2, (15, 13)

    def test_batch_spans_three_chunks(self):
        chunk = conv._chunk(self.CIN * self.K * self.K * self.HW[0] * self.HW[1])
        assert self.BATCH > 2 * chunk and self.BATCH % chunk != 0

    def test_chunked_batch_and_given_arrays(self):
        kernel, y = self.make_case(self.BATCH, self.FOUT, self.CIN, self.K,
                                   self.HW, 63)
        kernel = KernelStack(kernel.weights, np.arange(1.0, self.CIN + 1))
        want = self.gathered(kernel, y, self.STRIDE) + kernel.bias[:, None, None]
        assert rel_err(conv2d_transposed_weighted(y, kernel, self.STRIDE),
                       want) < 1e-12
        shape = want.shape
        contiguous = np.full(shape, np.nan)
        # Every other column of a wider array, one channel short of it.
        wider = np.full(shape[:1] + (shape[1] + 1, shape[2], 2 * shape[3]), np.nan)
        strided = wider[:, :self.CIN, :, ::2]
        for out in (contiguous, strided):
            assert conv2d_transposed_weighted(y, kernel, self.STRIDE, out=out) is out
            assert rel_err(out, want) < 1e-12
        assert np.isnan(wider[:, self.CIN]).all() and np.isnan(wider[..., 1::2]).all()

    @pytest.mark.parametrize("fout,cin", [(1, 1), (7, 1), (8, 1), (16, 1),
                                          (15, 2), (16, 2), (16, 4), (32, 4)])
    def test_lowering_depends_only_on_the_channel_counts(self, fout, cin,
                                                         monkeypatch):
        lowered = []
        for name in ("_filters_first", "_transposed"):
            real = getattr(conv, name)

            def recorded(*args, _name=name, _real=real, **kwargs):
                lowered.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(conv, name, recorded)
        for stride, k, hw in [(1, 3, (4, 4)), (2, 5, (5, 3)), (3, 1, (2, 3))]:
            kernel, y = self.make_case(2, fout, cin, k, hw, 64)
            conv2d_transposed_weighted(y, kernel, stride)
        picked = "_filters_first" if fout >= 8 * cin else "_transposed"
        assert lowered == [picked] * 3


class TestFusedGathers:
    """A layer's backward pass gathers the upstream's windows once and
    takes both gradients from them."""

    # (batch, in_channels, filters, K, rows, cols): one small case, a batch
    # that spans several column chunks, and 17 x 16 = 272 pixels, a
    # contraction longer than one BLAS block.
    CASES = [(2, 2, 3, 3, 7, 6), (40, 3, 4, 5, 9, 8), (2, 3, 2, 5, 17, 16)]

    @staticmethod
    def make_case(bsz, cin, fout, k, rows, cols, stride=1, seed=50):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((bsz, cin, rows, cols))
        kernel = KernelStack(rng.standard_normal((fout, cin, k, k)),
                             rng.standard_normal(fout))
        phi = rng.uniform(0.1, 2.0, (k, k))
        up = rng.standard_normal((bsz, fout, -(-rows // stride), -(-cols // stride)))
        return x, scale_kernel(kernel, phi), phi, up

    @staticmethod
    def count_gathers(monkeypatch):
        calls = []
        columns = conv._columns

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return columns(*args, **kwargs)

        monkeypatch.setattr(conv, "_columns", counted)
        return calls

    @pytest.mark.parametrize("case", CASES)
    def test_input_gradient_and_weight_gradient_from_one_gather(self, case,
                                                                monkeypatch):
        x, folded, phi, up = self.make_case(*case)
        want_input = grad_input(folded, up, x.shape[2:])
        want = grad_weights(x, phi, up)
        calls = self.count_gathers(monkeypatch)
        got = grad_input(folded, up, x.shape[2:], x=x, density=phi)
        assert calls == [up.shape]
        np.testing.assert_array_equal(got.input, want_input)
        assert rel_err(got.weights, want.weights) < 1e-14

    def test_fused_input_gradient_needs_stride_one(self):
        x, folded, phi, up = self.make_case(3, 2, 3, 3, 7, 6, stride=2)
        with pytest.raises(ValueError, match="stride 2"):
            grad_input(folded, up, x.shape[2:], 2, x=x, density=phi)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("case", CASES)
    def test_weight_gradient_and_conv_from_one_gather(self, case, stride,
                                                      monkeypatch):
        x, folded, phi, up = self.make_case(*case, stride=stride)
        adjoint = KernelStack(folded.weights)  # a transposed layer's: no bias
        want = grad_weights(x, phi, up, stride)
        want_conv = conv2d(x, adjoint, stride)
        calls = self.count_gathers(monkeypatch)
        got = grad_weights(x, phi, up, stride, kernel=adjoint)
        assert calls == [x.shape]
        np.testing.assert_array_equal(got.weights, want.weights)
        np.testing.assert_array_equal(got.input, want_conv)
        assert want.input is None

    @pytest.mark.parametrize("stride", [1, 2])
    def test_fused_conv_ignores_the_kernel_bias(self, stride):
        # An input gradient has no bias: the folded kernel's bias, of
        # either direction's length, leaves the fused conv unbiased.
        x, folded, phi, up = self.make_case(2, 2, 3, 3, 7, 6, stride=stride)
        want = conv2d(x, KernelStack(folded.weights), stride)
        for bias in (folded.bias, np.ones(folded.in_channels)):
            kernel = KernelStack(folded.weights, bias)
            got = grad_weights(x, phi, up, stride, kernel=kernel)
            np.testing.assert_array_equal(got.input, want)

    def test_results_land_in_the_given_arrays(self):
        x, folded, phi, up = self.make_case(2, 2, 3, 3, 7, 6)
        unbiased = KernelStack(folded.weights)
        for call, shape in [
                (lambda out: conv2d(x, folded, out=out), up.shape),
                (lambda out: conv2d_transposed_weighted(up, unbiased, out=out), x.shape),
                (lambda out: grad_input(folded, up, x.shape[2:], out=out), x.shape),
                (lambda out: grad_input(folded, up, x.shape[2:], x=x, density=phi,
                                        out=out).input, x.shape),
                (lambda out: grad_weights(x, phi, up, kernel=unbiased,
                                          out=out).input, up.shape)]:
            out = np.full(shape, np.nan)
            assert call(out) is out and np.all(np.isfinite(out))
            with pytest.raises(ShapeError, match="out has shape"):
                call(np.empty(shape[:-1] + (shape[-1] + 1,)))


# (in_channels, filters) on each side of ``_MEC_CHANNELS``: a stride-1 conv
# and its fused input gradient lower by rows (``_mec``) when both counts
# reach it, and by taps (im2col) with one channel fewer.
ROW_LOWERED = [(4, 4), (4, 9), (9, 4)]
TAP_LOWERED = [(3, 4), (4, 3)]


def record_lowerings(monkeypatch):
    """The list of the lowerings the operators run from now on: "rows" for
    each ``_mec`` call, "taps" for each im2col gather."""
    seen = []
    for name, label in (("_mec", "rows"), ("_columns", "taps")):
        real = getattr(conv, name)

        def recorded(*args, _real=real, _label=label, **kwargs):
            seen.append(_label)
            return _real(*args, **kwargs)

        monkeypatch.setattr(conv, name, recorded)
    return seen


class TestRowLowering:
    """Stride-1 ``conv2d`` and the fused stride-1 ``grad_input`` lowered by
    rows (MEC), against the oracle and the im2col operators, on both sides
    of the crossover."""

    @staticmethod
    def make_case(bsz, cin, fout, k, hw=(6, 5), seed=70):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((bsz, cin) + hw)
        kernel = KernelStack(rng.standard_normal((fout, cin, k, k)),
                             rng.standard_normal(fout))
        phi = rng.uniform(0.1, 2.0, (k, k))
        up = rng.standard_normal((bsz, fout) + hw)
        return x, kernel, phi, up

    @staticmethod
    def lowering(cin, fout):
        return "rows" if (cin, fout) in ROW_LOWERED else "taps"

    def test_the_cases_straddle_the_crossover(self):
        assert all(min(pair) >= conv._MEC_CHANNELS for pair in ROW_LOWERED)
        assert all(min(pair) == conv._MEC_CHANNELS - 1 for pair in TAP_LOWERED)

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("cin,fout", ROW_LOWERED + TAP_LOWERED)
    def test_forward_matches_oracle(self, cin, fout, k, monkeypatch):
        x, kernel, _, _ = self.make_case(2, cin, fout, k)
        seen = record_lowerings(monkeypatch)
        got = conv2d(x, kernel)
        assert seen == [self.lowering(cin, fout)]
        assert rel_err(got, conv_oracle(x, kernel.weights, kernel.bias)) < 1e-12

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("cin,fout", ROW_LOWERED + TAP_LOWERED)
    def test_fused_input_gradient_is_adjoint_of_oracle(self, cin, fout, k,
                                                       monkeypatch):
        x, kernel, phi, up = self.make_case(2, cin, fout, k, seed=71)
        seen = record_lowerings(monkeypatch)
        got = grad_input(scale_kernel(kernel, phi), up, x.shape[2:], x=x,
                         density=phi)
        assert seen == [self.lowering(cin, fout)]
        lhs = np.vdot(conv_oracle(x, kernel.weights, None, phi), up)
        rhs = np.vdot(x, got.input)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("cin,fout", ROW_LOWERED + TAP_LOWERED)
    def test_fused_gradients_match_finite_differences(self, cin, fout, k):
        x, kernel, phi, up = self.make_case(2, cin, fout, k, hw=(5, 4), seed=72)
        got = grad_input(scale_kernel(kernel, phi), up, x.shape[2:], x=x,
                         density=phi)
        fd_w = fd_gradient(lambda wv: np.vdot(
            conv2d_weighted(x, KernelStack(wv), phi), up), kernel.weights)
        assert rel_err(got.weights, fd_w) < 1e-6
        fd_x = fd_gradient(lambda xv: np.vdot(
            conv2d_weighted(xv, kernel, phi), up), x)
        assert rel_err(got.input, fd_x) < 1e-6

    # 11 images of 20 x 16, 8 channels, 8 filters, K = 5.  Each image's row
    # buffer and product take (8 + 8) * 5 * 24 * 16 entries, 4 images per
    # chunk at 1 MiB (chunks of 4, 4 and 3); the fused gradient's chunk
    # also holds the input's row shifts, 2 images (five of 2 and one of 1).
    BATCH, CIN, FOUT, K, HW = 11, 8, 8, 5, (20, 16)

    def chunks(self):
        padded_image = self.K * (self.HW[0] + self.K - 1) * self.HW[1]
        return (conv._chunk((self.CIN + self.FOUT) * padded_image),
                conv._chunk((self.FOUT + self.CIN + self.CIN) * padded_image))

    def test_batch_splits_unevenly_into_chunks(self):
        for chunk in self.chunks():
            assert self.BATCH > 2 * chunk and self.BATCH % chunk != 0

    def test_chunked_batch_and_given_arrays(self):
        x, kernel, phi, up = self.make_case(self.BATCH, self.CIN, self.FOUT,
                                            self.K, self.HW, seed=73)
        # The im2col operators, oracle-tested above, are the reference: a
        # weighted conv at an all-ones density, and the unfused gradients.
        want = conv2d_weighted(x, kernel, np.ones((self.K, self.K)))
        folded = scale_kernel(kernel, phi)
        want_dx = grad_input(folded, up, self.HW)
        want_dw = grad_weights(x, phi, up).weights
        for call, shape, reference in [
                (lambda out: conv2d(x, kernel, out=out), want.shape, want),
                (lambda out: grad_input(folded, up, self.HW, x=x, density=phi,
                                        out=out).input, x.shape, want_dx)]:
            assert rel_err(call(None), reference) < 1e-12
            contiguous = np.full(shape, np.nan)
            # Every other column of a wider array, one channel short of it.
            wider = np.full(shape[:1] + (shape[1] + 1, shape[2], 2 * shape[3]),
                            np.nan)
            strided = wider[:, :shape[1], :, ::2]
            for out in (contiguous, strided):
                assert call(out) is out
                assert rel_err(out, reference) < 1e-12
            assert np.isnan(wider[:, shape[1]]).all()
            assert np.isnan(wider[..., 1::2]).all()
        got = grad_input(folded, up, self.HW, x=x, density=phi)
        assert rel_err(got.weights, want_dw) < 1e-12

    def test_products_deeper_than_one_blas_block(self, monkeypatch):
        # 64 channels and 64 filters at K = 5: each product of the conv and
        # of the input gradient is 320 terms deep, and the weight gradient's
        # 10 x 8 pixels, padded to 14 x 8, are 112.  Every product must
        # reach BLAS through _matmul, cut to _GEMM_DEPTH terms.
        x, kernel, phi, up = self.make_case(2, 64, 64, 5, hw=(10, 8), seed=74)
        folded = scale_kernel(kernel, phi)
        want = conv2d_weighted(x, kernel, np.ones((5, 5)))
        want_dx = grad_input(folded, up, x.shape[2:])
        want_dw = grad_weights(x, phi, up).weights
        seen = record_lowerings(monkeypatch)
        depths = []
        matmul = np.matmul

        def recording(a, b, **kwargs):
            depths.append(np.shape(a)[-1])
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        got = conv2d(x, kernel)
        fused = grad_input(folded, up, x.shape[2:], x=x, density=phi)
        monkeypatch.undo()
        assert seen == ["rows", "rows"]
        assert depths and max(depths) <= conv._GEMM_DEPTH
        assert rel_err(got, want) < 1e-12
        assert rel_err(fused.input, want_dx) < 1e-12
        assert rel_err(fused.weights, want_dw) < 1e-12

    # (filters, in_channels, K) of the kernels whose lowering is pinned: the
    # desk's layers, criterion 8's single channel, ``bench``'s defaults (1
    # and 3 filters on 3 channels) and wide-train's conv2.
    @pytest.mark.parametrize("fout,cin,k,lowering", [
        (2, 1, 3, "taps"), (2, 2, 3, "taps"), (1, 2, 3, "taps"),
        (1, 1, 3, "taps"), (1, 1, 5, "taps"), (1, 1, 7, "taps"),
        *[(f, 3, k, "taps") for f in (1, 3) for k in (3, 5, 7)],
        (16, 16, 5, "rows")])
    def test_lowering_depends_only_on_the_kernel_shape(self, fout, cin, k,
                                                       lowering, monkeypatch):
        x, kernel, phi, up = self.make_case(1, cin, fout, k, seed=75)
        seen = record_lowerings(monkeypatch)
        conv2d(x, kernel)
        grad_input(kernel, up, x.shape[2:], x=x, density=phi)
        # The weighted conv and grad_weights always gather taps.
        conv2d_weighted(x, kernel, phi)
        grad_weights(x, phi, up)
        assert seen == [lowering, lowering, "taps", "taps"]


class TestOutputOverInput:
    """``conv2d`` and the transposed conv may take their input as ``out``:
    each lowering copies a chunk of images into its own buffer before it
    writes the chunk's outputs, so the result is the same to the bit.
    ``grad_weights`` given the kernel may take its upstream as ``out``: each
    chunk reads its upstream rows before it writes its output rows."""

    # 11 images in chunks of 3, 3, 3 and 2.
    BATCH, CHUNK = 11, 3

    @classmethod
    def make_case(cls, channels, k, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((cls.BATCH, channels, 9, 7))
        kernel = KernelStack(rng.standard_normal((channels, channels, k, k)),
                             rng.standard_normal(channels))
        return x, kernel

    def chunked(self, monkeypatch):
        chunks = []

        def fixed(per_image_columns):
            chunks.append(self.CHUNK)
            return self.CHUNK

        monkeypatch.setattr(conv, "_chunk", fixed)
        return chunks

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("channels,lowering", [(2, "taps"), (3, "taps"),
                                                   (4, "rows"), (8, "rows")])
    def test_conv2d_out_may_be_x(self, channels, lowering, k, monkeypatch):
        x, kernel = self.make_case(channels, k, seed=90 + channels)
        want = conv2d(x, kernel)
        chunks = self.chunked(monkeypatch)
        seen = record_lowerings(monkeypatch)
        assert conv2d(x, kernel, 1, out=x) is x
        assert seen == [lowering] and chunks
        np.testing.assert_array_equal(x, want)

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("channels", [1, 2, 4])
    def test_transposed_out_may_be_y(self, channels, k, monkeypatch):
        # As many filters as input channels: never the filters-first
        # lowering, which needs 8 filters per channel.
        y, kernel = self.make_case(channels, k, seed=95 + channels)
        want = conv2d_transposed_weighted(y, kernel, 1)
        chunks = self.chunked(monkeypatch)
        seen = record_lowerings(monkeypatch)
        assert conv2d_transposed_weighted(y, kernel, 1, out=y) is y
        assert seen == ["taps"] and chunks
        np.testing.assert_array_equal(y, want)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_grad_weights_out_may_be_upstream(self, stride, monkeypatch):
        # A transposed conv layer's backward pass: the weight gradient
        # against its input ``up``, and its input gradient written over
        # ``up``, which nothing reads afterwards.
        rng = np.random.default_rng(97 + stride)
        x = rng.standard_normal((self.BATCH, 2, 10, 8))
        up = rng.standard_normal((self.BATCH, 3, 10 // stride, 8 // stride))
        kernel = KernelStack(rng.standard_normal((3, 2, 3, 3)))
        density = density_matrix(np.array([0.5, 1.0, 0.75]))
        chunks = self.chunked(monkeypatch)
        want = grad_weights(x, density, up, stride, kernel=kernel)
        got = grad_weights(x, density, up, stride, kernel=kernel, out=up)
        assert got.input is up and chunks
        np.testing.assert_array_equal(got.input, want.input)
        np.testing.assert_array_equal(got.weights, want.weights)


class TestGemmWidth:
    """Criterion 8 times one 192 x 192 image; its products must be cut to
    ``_GEMM_WIDTH`` columns, where OpenBLAS runs them fast at any thread
    count."""

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_no_product_is_wider_than_the_bound(self, k, monkeypatch):
        rng = np.random.default_rng(44)
        x = rng.standard_normal((1, 1, 192, 192))
        kernel = KernelStack(rng.standard_normal((1, 1, k, k)))
        phi = rng.uniform(0.1, 2.0, (k, k))
        widths = []
        matmul = np.matmul

        def recording(a, b, **kwargs):
            widths.append(np.shape(b)[-1])
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        conv2d(x, kernel)
        conv2d_weighted(x, kernel, phi)
        monkeypatch.undo()
        assert widths and max(widths) <= conv._GEMM_WIDTH
        assert sum(widths) == 2 * 192 * 192

    def test_wide_matmul_matches_numpy(self):
        rng = np.random.default_rng(45)
        width = 2 * conv._GEMM_WIDTH + 37
        a = rng.standard_normal((3, 20))
        b = rng.standard_normal((2, 20, width))
        assert rel_err(conv._matmul(a, b), np.matmul(a, b)) < 1e-14
        deep = rng.standard_normal((2, conv._GEMM_DEPTH + 44))
        wide = rng.standard_normal((conv._GEMM_DEPTH + 44, conv._GEMM_WIDTH + 5))
        assert rel_err(conv._matmul(deep, wide), np.matmul(deep, wide)) < 1e-14


class TestMemory:
    """Peak allocation of the chunked path: the column buffer is one
    chunk's worth, never the whole batch's K x K windows (157 MB here)."""

    SHAPE, K = (48, 16, 32, 32), 5

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("op", ["conv2d", "grad_weights", "grad_input"])
    def test_peak_stays_near_the_operand(self, op):
        rng = np.random.default_rng(34)
        bsz, c, rows, cols = self.SHAPE
        x = rng.standard_normal(self.SHAPE)
        kernel = KernelStack(rng.standard_normal((c, c, self.K, self.K)),
                             np.zeros(c))
        calls = {
            "conv2d": lambda: conv2d(x, kernel),
            "grad_weights": lambda: grad_weights(x, np.ones((self.K, self.K)), x),
            "grad_input": lambda: grad_input(kernel, x, (rows, cols)),
        }
        # One image's columns (3.3 MB) exceed the budget, so one chunk is
        # one image.
        one_chunk = 8 * c * self.K * self.K * rows * cols
        assert self.traced_peak(calls[op]) <= 3 * x.nbytes + one_chunk


BAD_STRIDE_CALLS = {
    "conv2d": lambda x, kernel, phi, up, s: conv2d(x, kernel, s),
    "conv2d_weighted": lambda x, kernel, phi, up, s: conv2d_weighted(x, kernel, phi, s),
    "conv2d_transposed_weighted":
        lambda x, kernel, phi, up, s: conv2d_transposed_weighted(up, kernel, s),
    "grad_weights": lambda x, kernel, phi, up, s: grad_weights(x, phi, up, s),
    "grad_input": lambda x, kernel, phi, up, s: grad_input(kernel, up, stride=s),
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
