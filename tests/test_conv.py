"""Convolution: identity/affine examples, the nested-loop oracle, gradients."""

import numpy as np
import pytest
from helpers import fd_gradient, gradcheck, naive_conv2d, rel_error

from flowcodec.conv import conv2d
from flowcodec.tensor import Tensor


class TestExamples:
    def test_identity_kernel(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = conv2d(x, Tensor(k), Tensor(np.zeros(1)))
        assert np.array_equal(out.data, x.data)

    def test_1x1_conv_is_affine(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        out = conv2d(x, Tensor(np.full((1, 1, 1, 1), 2.0)), Tensor(np.array([1.0])))
        assert np.array_equal(out.data, [[[[3.0, 5.0], [7.0, 9.0]]]])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 3, 4, 4))
        k = rng.normal(size=(5, 3, 3, 3))
        b = rng.normal(size=5)
        out = conv2d(Tensor(x), Tensor(k), Tensor(b)).data
        assert np.max(np.abs(out - naive_conv2d(x, k, b))) < 1e-12


class TestNaiveOracleSweep:
    def test_100_random_shapes(self):
        """conv2d agrees with the nested-loop reference on 100 random shapes."""
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 3))
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 4))
            h = int(rng.integers(1, 7))
            w = int(rng.integers(1, 7))
            kh = int(rng.choice([1, 3, 5]))
            kw = int(rng.choice([1, 3, 5]))
            x = rng.normal(size=(n, cin, h, w))
            k = rng.normal(size=(cout, cin, kh, kw))
            b = rng.normal(size=cout)
            out = conv2d(Tensor(x), Tensor(k), Tensor(b)).data
            assert np.max(np.abs(out - naive_conv2d(x, k, b))) < 1e-12

    def test_kernel_wider_than_image(self):
        """Kernels of 7 on extents of 1-3: some taps fall wholly outside."""
        rng = np.random.default_rng(15)
        for h in (1, 2, 3):
            for w in (1, 2, 3):
                for kh, kw in ((7, 7), (7, 1), (3, 7)):
                    x = rng.normal(size=(2, 2, h, w))
                    k = rng.normal(size=(3, 2, kh, kw))
                    b = rng.normal(size=3)
                    out = conv2d(Tensor(x), Tensor(k), Tensor(b)).data
                    assert np.max(np.abs(out - naive_conv2d(x, k, b))) < 1e-12

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(2, 3, 5, 4)).astype(np.float32)
        k = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        out = conv2d(Tensor(x), Tensor(k)).data
        assert out.dtype == np.float32
        assert out.flags.c_contiguous
        assert np.max(np.abs(out - naive_conv2d(x.astype(np.float64), k))) < 1e-4


class TestGradients:
    def test_finite_difference_all_arguments(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.3, requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)

        def build():
            out = conv2d(x, k, b)
            return (out * out).mean()

        assert gradcheck(build, [x, k, b], h=1e-5, floor=1e-6) < 1e-4

    def test_kernel_wider_than_image(self):
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(2, 2, 2, 3)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 2, 7, 7)) * 0.3, requires_grad=True)

        def build():
            out = conv2d(x, k)
            return (out * out).mean()

        assert gradcheck(build, [x, k], h=1e-5, floor=1e-6) < 1e-4

    def test_no_bias_path(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 2, 1, 1)), requires_grad=True)

        def build():
            return (conv2d(x, k) * 1.5).sum()

        assert gradcheck(build, [x, k], h=1e-5, floor=1e-6) < 1e-4

    def test_1x1_kernel_gradients(self):
        rng = np.random.default_rng(14)
        weight = Tensor(rng.normal(size=(3, 2, 1, 1)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)))

        def build():
            out = conv2d(x, weight)
            return (out * out).sum()

        assert gradcheck(build, [weight], h=1e-5, floor=1e-6) < 1e-4


class TestErrors:
    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channels"):
            conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 4, 3, 3))))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((2, 2, 2, 2))))

    def test_bad_bias_shape(self):
        with pytest.raises(ValueError, match="bias"):
            conv2d(
                Tensor(np.zeros((1, 2, 4, 4))),
                Tensor(np.zeros((2, 2, 3, 3))),
                Tensor(np.zeros(3)),
            )
