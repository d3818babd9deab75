import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wconv.density import (MAX_DENSITY_VALUE, DensityVector,
                           density_from_free, density_from_record,
                           density_matrix, density_record, named_density)


class TestDensityVector:
    def test_center_pinned(self):
        with pytest.raises(ValueError):
            DensityVector(np.array([0.5, 0.9, 0.5]))

    def test_symmetry_required(self):
        with pytest.raises(ValueError):
            DensityVector(np.array([0.3, 1.0, 0.4]))

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            DensityVector(np.array([1.0, 1.0]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DensityVector(np.array([-0.1, 1.0, -0.1]))

    def test_value_whose_square_overflows_rejected(self):
        # The bound's square is finite; the next float's overflows.
        assert np.all(np.isfinite(density_matrix(
            density_from_free([MAX_DENSITY_VALUE], 3))))
        over = float(np.nextafter(MAX_DENSITY_VALUE, np.inf))
        with pytest.raises(ValueError, match=re.escape(f"density value {over!r} exceeds")):
            density_from_free([over], 3)


class TestFromFree:
    def test_three_tap(self):
        vec = density_from_free([0.42], 3)
        np.testing.assert_array_equal(vec.values, [0.42, 1.0, 0.42])

    def test_five_tap(self):
        vec = density_from_free([0.38, 2.21], 5)
        np.testing.assert_array_equal(vec.values, [0.38, 2.21, 1.0, 2.21, 0.38])

    def test_all_ones_is_uniform(self):
        vec = density_from_free([1.0, 1.0, 1.0], 7)
        np.testing.assert_array_equal(vec.values, np.ones(7))

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            density_from_free([0.1, 0.2], 3)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([3, 5, 7, 9]))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_exact(self, seed, k):
        theta = np.random.default_rng(seed).uniform(0.0, 4.0, (k - 1) // 2)
        vec = density_from_free(theta, k)
        assert np.array_equal(vec.values[:vec.free_count], theta)


class TestDensityMatrix:
    def test_uniform_gives_all_ones(self):
        np.testing.assert_array_equal(density_matrix(DensityVector(np.ones(3))),
                                      np.ones((3, 3)))

    def test_off_diagonal_product(self):
        phi = density_matrix(density_from_free([0.38, 2.21], 5))
        assert phi[0, 1] == pytest.approx(0.38 * 2.21, abs=1e-15)
        assert phi[0, 1] == pytest.approx(0.8398, abs=1e-12)

    def test_trace_is_squared_norm(self):
        vec = density_from_free([0.7, 1.3], 5)
        assert np.trace(density_matrix(vec)) == pytest.approx(
            np.sum(vec.values**2), abs=1e-12)

    def test_rank_one_symmetric_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            theta = rng.uniform(0.0, 4.0, 3)
            phi = density_matrix(density_from_free(theta, 7))
            sv = np.linalg.svd(phi, compute_uv=False)
            assert sv[1] < 1e-10 * max(sv[0], 1e-30)
            np.testing.assert_array_equal(phi, phi.T)
            assert np.all(np.linalg.eigvalsh(phi) > -1e-12)
            assert phi[3, 3] == 1.0


class TestNamedDensity:
    def test_uniform(self):
        np.testing.assert_array_equal(named_density("uniform", 5).values, np.ones(5))

    def test_gaussian_default_width(self):
        vec = named_density("gaussian", 3)
        expected = np.exp(-1.0 / 4.5)
        np.testing.assert_allclose(vec.values, [expected, 1.0, expected],
                                   rtol=0, atol=1e-15)
        assert vec.values[0] == pytest.approx(0.8007, abs=5e-5)

    def test_linear_default_slope(self):
        np.testing.assert_allclose(named_density("linear", 5).values,
                                   [0.4, 0.7, 1.0, 0.7, 0.4], rtol=0, atol=1e-15)

    def test_cubic_shape(self):
        vec = named_density("cubic", 5)
        m = 3.0
        np.testing.assert_allclose(
            vec.values, [1 - (2 / m) ** 3, 1 - (1 / m) ** 3, 1.0,
                         1 - (1 / m) ** 3, 1 - (2 / m) ** 3], rtol=0, atol=1e-15)

    def test_gaussian_strictly_decreasing_from_center(self):
        for k in (3, 5, 7, 9):
            vals = named_density("gaussian", k).values
            half = vals[k // 2:]
            assert np.all(np.diff(half) < 0)

    def test_linear_clamped_non_negative(self):
        # the default slope 0.3 reaches 1 - 0.3 * 4 < 0 at the outermost offset
        vals = named_density("linear", 9).values
        assert np.all(vals >= 0)
        assert vals[0] == 0.0

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            named_density("quartic", 3)


class TestSerialization:
    def test_record_round_trip(self):
        vec = density_from_free([0.42], 3)
        rec = density_record(vec)
        assert rec == {"K": 3, "M": 1.0, "values": [0.42, 1.0, 0.42]}
        back = density_from_record(rec)
        np.testing.assert_array_equal(back.values, vec.values)

    def test_record_k_mismatch(self):
        with pytest.raises(ValueError):
            density_from_record({"K": 5, "M": 1.0, "values": [0.4, 1.0, 0.4]})
