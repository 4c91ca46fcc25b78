"""Convolution: identity/affine examples, the nested-loop oracles, gradients."""

import resource

import numpy as np
import pytest
from helpers import gradcheck, naive_conv2d

import flowcodec.tensor as T
from flowcodec.conv import KEEPS_FREED_MEMORY, conv2d
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
        b = rng.normal(size=4).astype(np.float32)
        out = conv2d(Tensor(x), Tensor(k), Tensor(b)).data
        assert out.dtype == np.float32
        assert out.flags.c_contiguous
        assert np.max(np.abs(out - naive_conv2d(x.astype(np.float64), k, b))) < 1e-4


def naive_conv2d_grads(x, kernel, g):
    """Input, kernel and bias gradients of the same-padded correlation for
    the output gradient g, by direct loops over output positions and taps."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    gxp = np.zeros_like(xp)
    gk = np.zeros((cout, cin, kh, kw))
    for b in range(n):
        for y in range(h):
            for xx in range(w):
                go = g[b, :, y, xx].astype(np.float64)
                for a in range(kh):
                    for d in range(kw):
                        gk[:, :, a, d] += np.outer(go, xp[b, :, y + a, xx + d])
                        gxp[b, :, y + a, xx + d] += go @ kernel[:, :, a, d]
    gb = g.astype(np.float64).sum(axis=(0, 2, 3))
    return gxp[:, :, ph : ph + h, pw : pw + w], gk, gb


class TestGradientOracleSweep:
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-4)])
    def test_random_shapes(self, dtype, tol):
        """Input, kernel and bias gradients agree with the nested-loop
        reference over seeded shapes, kernels wider than the image among
        them; float32 gradients stay float32."""
        rng = np.random.default_rng(18)
        kernels = [(1, 1), (1, 3), (3, 1), (3, 3), (5, 5)]
        wider = 0
        for trial in range(40):
            n = int(rng.integers(1, 4))
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 4))
            h = int(rng.integers(1, 10))
            w = int(rng.integers(1, 10))
            kh, kw = kernels[trial % len(kernels)]
            wider += kh > h or kw > w
            x = Tensor(rng.normal(size=(n, cin, h, w)).astype(dtype), requires_grad=True)
            k = Tensor(rng.normal(size=(cout, cin, kh, kw)).astype(dtype), requires_grad=True)
            b = Tensor(rng.normal(size=cout).astype(dtype), requires_grad=True)
            g = rng.normal(size=(n, cout, h, w)).astype(dtype)
            got = {id(p): pg for p, pg in conv2d(x, k, b)._backward(g)}
            want = naive_conv2d_grads(x.data, k.data, g)
            for p, ref in zip((x, k, b), want):
                assert got[id(p)].dtype == dtype
                assert got[id(p)].shape == p.shape
                scale = max(1.0, float(np.max(np.abs(ref))))
                assert np.max(np.abs(got[id(p)] - ref)) < tol * scale, (trial, n, h, w, kh, kw)
        assert wider >= 3


class TestGradients:
    def test_finite_difference_all_arguments(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.3, requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)

        def build():
            out = conv2d(x, k, b)
            return T.div(T.reduce_sum(T.mul(out, out)), float(out.size))

        assert gradcheck(build, [x, k, b], h=1e-5, floor=1e-6) < 1e-4

    def test_kernel_wider_than_image(self):
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(2, 2, 2, 3)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 2, 7, 7)) * 0.3, requires_grad=True)

        def build():
            out = conv2d(x, k, Tensor(np.zeros(3)))
            return T.div(T.reduce_sum(T.mul(out, out)), float(out.size))

        assert gradcheck(build, [x, k], h=1e-5, floor=1e-6) < 1e-4

    def test_1x1_kernel_gradients(self):
        rng = np.random.default_rng(14)
        weight = Tensor(rng.normal(size=(3, 2, 1, 1)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)))

        def build():
            out = conv2d(x, weight, Tensor(np.zeros(3)))
            return T.reduce_sum(T.mul(out, out))

        assert gradcheck(build, [weight], h=1e-5, floor=1e-6) < 1e-4

    def test_off_tape_input_gets_no_gradient(self):
        """Input, kernel or bias, taken off the tape alone, gets no
        gradient pair; the parents left on the tape get the gradients of
        the all-on-tape call."""
        rng = np.random.default_rng(15)
        arrays = [rng.normal(size=(2, 3, 5, 5)), rng.normal(size=(4, 3, 3, 3)),
                  rng.normal(size=4)]
        g = rng.normal(size=(2, 4, 5, 5))

        def grads(off):
            parents = [Tensor(a, requires_grad=i != off) for i, a in enumerate(arrays)]
            by_id = {id(p): pg for p, pg in conv2d(*parents)._backward(g)}
            return [by_id.get(id(p)) for p in parents]

        on = grads(None)
        for off in range(3):
            got = grads(off)
            assert got[off] is None
            for i in range(3):
                if i != off:
                    assert np.array_equal(got[i], on[i]), (off, i)


class TestTape:
    def test_backward_holds_no_arrays(self):
        """The backward closes over tensors and extents only: it rebuilds
        the input's padded buffer rather than keeping it on the tape."""
        rng = np.random.default_rng(20)
        out = conv2d(Tensor(rng.normal(size=(2, 3, 6, 5)), requires_grad=True),
                     Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True),
                     Tensor(rng.normal(size=4), requires_grad=True))
        cells = out._backward.__closure__
        assert cells
        assert not [c.cell_contents for c in cells if isinstance(c.cell_contents, np.ndarray)]


class TestFreedMemory:
    @pytest.mark.skipif(not KEEPS_FREED_MEMORY, reason="needs glibc's mallopt")
    def test_repeated_calls_take_no_page_faults(self):
        """A conv at the training shape frees buffers of about 1 MB per
        call; they stay in the heap instead of being faulted in again on
        the next call (about 2,000 faults per forward and backward under
        glibc's default thresholds)."""
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(8, 16, 32, 32)), requires_grad=True)
        k = Tensor(rng.normal(size=(16, 16, 3, 3)), requires_grad=True)
        b = Tensor(np.zeros(16))

        def step():
            T.reduce_sum(conv2d(x, k, b)).backward()

        for _ in range(3):
            step()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(10):
            step()
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


class TestErrors:
    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channels"):
            conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 4, 3, 3))),
                   Tensor(np.zeros(2)))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((2, 2, 2, 2))),
                   Tensor(np.zeros(2)))

    def test_bad_bias_shape(self):
        with pytest.raises(ValueError, match="bias"):
            conv2d(
                Tensor(np.zeros((1, 2, 4, 4))),
                Tensor(np.zeros((2, 2, 3, 3))),
                Tensor(np.zeros(3)),
            )
