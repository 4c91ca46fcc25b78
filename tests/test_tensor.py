"""Tensor engine: op semantics, tape behavior, gradient fidelity."""

import threading
import zlib

import numpy as np
import pytest
from helpers import fd_floor, gradcheck

import flowcodec.tensor as T
from flowcodec.tensor import Tensor


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_extremes_safe(self):
        out = T.sigmoid(Tensor([-1e4, 1e4])).data
        assert out[0] == 0.0 and out[1] == 1.0
        assert np.all(np.isfinite(out))

    def test_softplus_overflow_safe_branch(self):
        # softplus(30) = 30 + log(1 + e^-30), evaluated without overflow
        expected = 30.0 + np.log1p(np.exp(-30.0))
        got = T.softplus(Tensor([30.0])).data[0]
        assert abs(got - expected) < 1e-12
        assert np.isfinite(T.softplus(Tensor([1e4])).data[0])

    def test_tanh_gradient_matches_central_difference(self):
        x = Tensor(np.array([0.3]), requires_grad=True)
        T.reduce_sum(T.tanh(x)).backward()
        h = 1e-5
        fd = (np.tanh(0.3 + h) - np.tanh(0.3 - h)) / (2 * h)
        assert abs(x.grad[0] - fd) / abs(fd) < 1e-6

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="non-positive"):
            T.log(Tensor([1.0, 0.0]))

    def test_binary_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"broadcast.*\(2,3\).*\(4,5\)"):
            T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))

    def test_scalar_broadcast(self):
        x = Tensor(np.arange(4.0))
        assert np.array_equal(T.mul(x, 2.0).data, np.arange(4.0) * 2)
        assert np.array_equal(T.sub(1.0, x).data, 1.0 - np.arange(4.0))

    def test_clip_gradient_masks_outside(self):
        x = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        T.reduce_sum(T.clip(x, -1.0, 1.0)).backward()
        assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


class TestReduce:
    def test_sum_of_ones(self):
        assert T.reduce_sum(Tensor(np.ones((2, 2)))).item() == 4.0

    def test_mean(self):
        """The package's mean, a sum divided by the count as the trainer's
        squared error takes it, is numpy's mean bit for bit."""
        rng = np.random.default_rng(1)
        for shape in [(4,), (3, 5), (2, 3, 7, 9), (8, 3, 32, 32)]:
            x = rng.normal(size=shape) * 100.0
            got = T.div(T.reduce_sum(Tensor(x)), float(x.size)).item()
            assert got == np.mean(x)

    def test_gradient_of_sum_of_squares(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        T.reduce_sum(T.mul(x, x)).backward()
        assert np.max(np.abs(x.grad - 2 * x.data)) < 1e-10


class TestBackward:
    def test_linear_loss_gradient_exact(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(5,)))
        w = Tensor(rng.normal(size=(5,)), requires_grad=True)
        T.reduce_sum(T.mul(w, x)).backward()
        assert np.array_equal(w.grad, x.data)

    def test_unused_parameter_gradient_is_exactly_zero(self):
        w = Tensor(np.ones(3), requires_grad=True)
        unused = Tensor(np.ones(3), requires_grad=True)
        T.reduce_sum(T.mul(w, 2.0)).backward()
        assert unused.grad is None
        assert np.array_equal(unused.grad_array(), np.zeros(3))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            T.mul(x, 2.0).backward()

    def test_repeated_backward_accumulates(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = T.reduce_sum(T.mul(x, 3.0))
        loss.backward()
        loss.backward()
        assert np.array_equal(x.grad, np.full(3, 6.0))

    def test_diamond_graph_counts_both_paths(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = T.add(x, x)  # dy/dx = 2
        T.reduce_sum(T.mul(y, y)).backward()  # d(4x^2)/dx = 8x = 16
        assert x.grad[0] == pytest.approx(16.0)

    def test_shared_gradient_arrays_not_aliased(self):
        # add hands one array to both operands and reshape returns a view;
        # accumulating into either must not change the other's gradient
        w = Tensor(np.array([1.0, 2.0, 3.0, 4.0]), requires_grad=True)
        r = w.reshape(2, 2)
        u = T.mul(r, 1.0)
        loss = T.add(T.reduce_sum(T.add(u, r)), T.reduce_sum(T.mul(u, u)))  # d/dw = 2 + 2w
        loss.backward()
        assert np.array_equal(w.grad, [4.0, 6.0, 8.0, 10.0])

    def test_no_grad_suppresses_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            y = T.reduce_sum(T.mul(x, 2.0))
        assert y._parents == () and not y.requires_grad

    def test_no_grad_is_thread_local(self):
        """A no_grad block in one thread leaves another thread recording."""
        entered, release = threading.Event(), threading.Event()
        seen = []

        def recording() -> bool:
            return T.mul(Tensor(np.ones(2), requires_grad=True), 2.0).requires_grad

        def inference():
            with T.no_grad():
                entered.set()
                release.wait(timeout=10)
                seen.append(recording())

        worker = threading.Thread(target=inference)
        worker.start()
        try:
            assert entered.wait(timeout=10)
            x = Tensor(np.ones(3), requires_grad=True)
            y = T.reduce_sum(T.mul(x, 2.0))
            assert y.requires_grad and y._parents
        finally:
            release.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert seen == [False]
        assert recording()


class TestDeterminism:
    def test_bit_identical_outputs(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 4, 4))
        a = T.sigmoid(T.mul(T.tanh(Tensor(x)), 3.0)).data
        b = T.sigmoid(T.mul(T.tanh(Tensor(x)), 3.0)).data
        assert np.array_equal(a, b)


class TestStructureOps:
    def test_squeeze_declared_order(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        out = T.squeeze2x2(x)
        assert out.shape == (1, 4, 1, 1)
        assert np.array_equal(out.data.reshape(4), [1.0, 2.0, 3.0, 4.0])

    def test_squeeze_roundtrip_exact(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 8, 8))
        back = T.unsqueeze2x2(T.squeeze2x2(Tensor(x))).data
        assert np.array_equal(back, x)

    def test_squeeze_shape_arithmetic(self):
        x = Tensor(np.zeros((1, 3, 64, 64)))
        assert T.squeeze2x2(x).shape == (1, 12, 32, 32)

    def test_squeeze_rejects_odd_extents(self):
        with pytest.raises(ValueError, match="even"):
            T.squeeze2x2(Tensor(np.zeros((1, 1, 3, 4))))

    def test_astype_casts_gradient_back(self):
        x = Tensor(np.array([1.5, -2.0], dtype=np.float32), requires_grad=True)
        y = T.astype(x, np.float64)
        assert y.dtype == np.float64
        T.reduce_sum(T.mul(y, y)).backward()
        assert x.grad.dtype == np.float32
        assert np.array_equal(x.grad, [3.0, -4.0])

    def test_take_concat_roundtrip(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 6, 3, 3))
        idx_a, idx_b = np.array([0, 2, 4]), np.array([1, 3, 5])
        a = T.take_channels(Tensor(x), idx_a)
        b = T.take_channels(Tensor(x), idx_b)
        merged = T.take_channels(
            T.concat_channels([a, b]), np.argsort(np.concatenate([idx_a, idx_b]))
        )
        assert np.array_equal(merged.data, x)

    @pytest.mark.parametrize("idx", [[4, 0, 5, 2, 1, 3], [5, 1, 2]],
                             ids=["permutation", "subset"])
    def test_take_gradient_matches_scatter_add(self, idx):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 6, 3, 3)), requires_grad=True)
        g = rng.normal(size=(2, len(idx), 3, 3))
        T.reduce_sum(T.mul(T.take_channels(x, np.array(idx)), g)).backward()
        oracle = np.zeros_like(x.data)
        np.add.at(oracle, (slice(None), np.array(idx)), g)
        assert np.array_equal(x.grad, oracle)

    def test_take_rejects_repeated_channels(self):
        with pytest.raises(ValueError, match="repeated"):
            T.take_channels(Tensor(np.zeros((1, 4, 2, 2))), np.array([0, 2, 0]))

    def test_ste_round_forward_and_backward(self):
        x = Tensor(np.array([0.4, 0.5, 1.5, -0.6]), requires_grad=True)
        out = T.ste_round(x)
        assert np.array_equal(out.data, [0.0, 0.0, 2.0, -1.0])  # ties to even
        T.reduce_sum(T.mul(out, np.array([1.0, 2.0, 3.0, 4.0]))).backward()
        assert np.array_equal(x.grad, [1.0, 2.0, 3.0, 4.0])


class TestGradcheckPrimitives:
    """Finite-difference consistency for every primitive at random shapes."""

    @pytest.mark.parametrize(
        "name",
        ["add", "sub", "mul", "div", "relu", "tanh", "sigmoid", "softplus",
         "exp", "log", "clip", "sum", "mean", "matmul", "take", "concat",
         "squeeze", "bias_broadcast", "reshape"],
    )
    def test_primitive(self, name):
        # crc32, unlike hash(), is not salted per process
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        a = Tensor(rng.normal(size=(2, 4, 4, 4)), requires_grad=True)
        # positive and away from 0, as `log` and the divisor of `div` need
        b = Tensor(rng.uniform(1.0, 5.0, size=(2, 4, 4, 4)), requires_grad=True)
        bias = Tensor(rng.normal(size=(1, 4, 1, 1)), requires_grad=True)

        def build():
            if name == "add":
                out = T.add(a, b)
            elif name == "sub":
                out = T.sub(a, b)
            elif name == "mul":
                out = T.mul(a, b)
            elif name == "div":
                out = T.div(a, b)
            elif name == "relu":
                out = T.relu(T.mul(a, 1.7))  # scaled to keep values off the kink
            elif name == "tanh":
                out = T.tanh(a)
            elif name == "sigmoid":
                out = T.sigmoid(a)
            elif name == "softplus":
                out = T.softplus(a)
            elif name == "exp":
                out = T.exp(a)
            elif name == "log":
                out = T.log(b)
            elif name == "clip":
                out = T.clip(a, -0.7, 0.7)
            elif name == "sum":
                out = T.mul(T.reduce_sum(a), b)
            elif name == "mean":
                out = T.mul(T.div(T.reduce_sum(a), float(a.size)), 2.0)
            elif name == "matmul":
                out = T.matmul(a.reshape(8, 2, 8), b.reshape(8, 8, 2))
            elif name == "take":
                out = T.take_channels(a, np.array([3, 1, 2]))
            elif name == "concat":
                out = T.concat_channels([a, T.mul(b, 0.5)])
            elif name == "squeeze":
                out = T.unsqueeze2x2(T.mul(T.squeeze2x2(a), 1.3))
            elif name == "bias_broadcast":
                out = T.add(a, bias)  # the gradient sums back to (1, 4, 1, 1)
            elif name == "reshape":
                out = T.mul(a.reshape(2, 64), 0.3)
            return T.div(T.reduce_sum(T.mul(out, out)), float(out.size))

        h = 1e-5
        err = gradcheck(build, [a, b, bias], h=h, floor=fd_floor(build().item(), h, tol=1e-4))
        assert err < 1e-4, f"{name}: rel error {err}"

    def test_relu_away_from_kink(self):
        # relu gradient check needs inputs away from 0; verified explicitly
        x = Tensor(np.array([-1.0, -0.3, 0.4, 2.0]), requires_grad=True)
        T.reduce_sum(T.relu(x)).backward()
        assert np.array_equal(x.grad, [0.0, 0.0, 1.0, 1.0])
