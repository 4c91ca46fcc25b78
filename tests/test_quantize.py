"""Quantizers: dithered rounding semantics, grid idempotence, STE contract."""

import numpy as np
import pytest
from helpers import detached_round

import flowcodec.tensor as T
from flowcodec.quantize import (
    draw_noise,
    grid_index,
    round_to_grid,
    universal_quantize,
)
from flowcodec.tensor import Tensor


class TestUniversalQuantize:
    def test_zero_noise_is_plain_rounding(self):
        out = universal_quantize(Tensor([0.3]), 1.0, 0.0)
        assert out.data[0] == 0.0

    def test_forced_by_formula(self):
        # round(0.3 + 0.4) - 0.4 = 1 - 0.4 = 0.6
        out = universal_quantize(Tensor([0.3]), 1.0, 0.4)
        assert out.data[0] == pytest.approx(0.6)

    def test_error_bounded_by_half_step(self):
        rng = np.random.default_rng(30)
        for step in (1.0, 0.25, 3.0):
            z = rng.normal(scale=10.0, size=1000)
            u = draw_noise(rng, step)
            out = universal_quantize(Tensor(z), step, u).data
            assert np.max(np.abs(out - z)) <= step / 2 + 1e-12

    def test_noise_draw_within_bounds(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            assert abs(draw_noise(rng, 0.5)) <= 0.25

    def test_oversized_noise_rejected(self):
        with pytest.raises(ValueError, match="half step"):
            universal_quantize(Tensor([0.0]), 1.0, 0.9)

    def test_error_distribution_uniform(self):
        """Quantization error over random (z, u) is U(-step/2, step/2).

        Kolmogorov-Smirnov statistic against the uniform CDF, 1e5 samples.
        """
        rng = np.random.default_rng(32)
        step = 1.0
        errors = []
        for _ in range(1000):
            z = rng.normal(scale=4.0, size=100)
            u = draw_noise(rng, step)
            out = universal_quantize(Tensor(z), step, u).data
            errors.append(out - z)
        err = np.sort(np.concatenate(errors))
        n = err.size
        assert n == 100000
        cdf = (err + step / 2) / step
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(cdf - ecdf_lo)))
        assert ks < 0.01


class TestRoundToGrid:
    def test_on_grid_unchanged_exact(self):
        for step in (1.0, 0.5, 0.37, 2.0 ** -6):
            z = np.round(np.linspace(-20, 20, 41) / step) * step
            out = round_to_grid(z, step)
            assert np.array_equal(out, z)

    def test_declared_tie_rule(self):
        assert round_to_grid(np.array([1.499]), 1.0)[0] == 1.0
        assert round_to_grid(np.array([1.5]), 1.0)[0] == 2.0
        assert round_to_grid(np.array([0.5]), 1.0)[0] == 0.0
        # -0.75/0.5 = -1.5 -> -2 (ties to even) -> -1.0
        assert round_to_grid(np.array([-0.75]), 0.5)[0] == -1.0

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(33)
        for step in (1.0, 0.25, 0.37, 1e-3, 7.5):
            z = rng.normal(scale=50.0, size=5000)
            once = round_to_grid(z, step)
            twice = round_to_grid(once, step)
            assert np.array_equal(once, twice)

    def test_tensor_path_matches_array_path(self):
        rng = np.random.default_rng(34)
        z = rng.normal(scale=5.0, size=100)
        out_t = round_to_grid(Tensor(z), 0.25).data
        assert np.array_equal(out_t, round_to_grid(z, 0.25))

    def test_grid_index(self):
        z = round_to_grid(np.array([-1.5, 0.0, 2.25]), 0.75)
        assert np.array_equal(grid_index(z, 0.75), [-2, 0, 3])


class TestStraightThrough:
    def test_gradient_identical_to_detached_round(self):
        """d(loss)/dz through the STE round equals the detached-round form."""
        rng = np.random.default_rng(35)
        zdata = rng.normal(scale=3.0, size=64)
        w = rng.normal(size=64)

        z1 = Tensor(zdata.copy(), requires_grad=True)
        out1 = universal_quantize(z1, 0.5, 0.1)
        T.reduce_sum(T.mul(T.mul(out1, out1), w)).backward()

        z2 = Tensor(zdata.copy(), requires_grad=True)
        shifted = T.div(T.add(z2, 0.1), 0.5)
        out2 = T.sub(T.mul(detached_round(shifted), 0.5), 0.1)
        T.reduce_sum(T.mul(T.mul(out2, out2), w)).backward()

        assert np.array_equal(out1.data, out2.data)
        assert np.array_equal(z1.grad, z2.grad)

    def test_gradient_flows_through_step(self):
        step = Tensor(np.array(0.5), requires_grad=True)
        z = Tensor(np.array([1.3, -0.7]))
        out = round_to_grid(z, step)
        T.reduce_sum(out).backward()
        # d(step*round(z/step))/dstep = round(z/step) - z/step under STE
        k = np.round(z.data / step.data)
        expected = np.sum(k - z.data / step.data)
        assert step.grad == pytest.approx(expected)
