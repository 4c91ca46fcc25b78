"""Dense tensor engine with reverse-mode automatic differentiation.

Just enough machinery to train the toy-scale bijective models in this
package, and no more: elementwise math as functions (`add`, `mul`,
`sigmoid`, ...; `Tensor` has no arithmetic operators), a whole-array
sum, reshape and transpose, batched matmul, channel gather/scatter, 2x2
space-to-depth, and 2D convolution (in `conv.py`).  `sigmoid_np` is the
one overflow-safe sigmoid, shared with the coder's numpy route.  Arrays
are plain numpy; the tape is the DAG of `Tensor` nodes, walked once in
reverse topological order by `backward()`.

Layout convention for image-like tensors is (batch, channel, height,
width).  Binary ops broadcast as numpy does (scalars and size-1 axes,
used for per-channel biases), and numpy's ValueError refuses shapes
that do not broadcast; gradients are summed back to the parent shape.
Single-tape work is single-threaded; distinct tensors/models may be
used from distinct threads.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Callable, Iterable, Sequence

import numpy as np

Array = np.ndarray

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# When False, ops do not record tape edges (inference path).  Context-
# local, so a no_grad block in one thread leaves other threads recording.
_grad_enabled: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "grad_enabled", default=True
)

# An op's backward maps the output gradient to (parent, gradient) pairs.
BackwardFn = Callable[[Array], "list[tuple[Tensor, Array]]"]


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / coding path)
    for the current thread or context only."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class Tensor:
    """N-dimensional array node, optionally recorded on the gradient tape.

    A Tensor produced by an operation on tape inputs is itself on the
    tape: it keeps references to its parents and a closure that routes
    the output gradient to them.  ``backward()`` may be called repeatedly;
    gradients accumulate until ``zero_grad()``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data: Array = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: BackwardFn | None = None

    # -- introspection ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def grad_array(self) -> Array:
        """Accumulated gradient; exactly zero for untouched parameters."""
        if self.grad is None:
            return np.zeros_like(self.data)
        return self.grad

    # -- tape ----------------------------------------------------------------

    def _accumulate(self, g: Array) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar loss.

        Visits each recorded operation exactly once, in reverse execution
        order, accumulating d(loss)/d(leaf) into ``grad`` of every
        reachable leaf tensor with ``requires_grad``.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward() requires a scalar loss, got shape {self.shape}"
            )

        # iterative DFS topological sort over the recorded DAG
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        grads: dict[int, Array] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is not None:
                for parent, pg in node._backward(g):
                    key = id(parent)
                    cur = grads.get(key)
                    # never add in place: ops hand back shared arrays (the
                    # same `g` to both operands of `add`, a view from
                    # `reshape`), and numpy scalars cannot be updated
                    grads[key] = pg if cur is None else cur + pg
            elif node.requires_grad:
                node._accumulate(g)

    def reshape(self, *shape) -> "Tensor":
        return reshape(self, *shape)


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _make(data: Array, parents: Sequence[Tensor], backward: BackwardFn) -> Tensor:
    """Wrap an op result; records the tape edge only when grads are live."""
    out = Tensor(data)
    if _grad_enabled.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum gradient over axes that were broadcast; inverse of numpy broadcast."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise binary ops -----------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g: Array):
        return [(a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape))]

    return _make(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g: Array):
        return [(a, _unbroadcast(g, a.shape)), (b, _unbroadcast(-g, b.shape))]

    return _make(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g: Array):
        return [
            (a, _unbroadcast(g * b.data, a.shape)),
            (b, _unbroadcast(g * a.data, b.shape)),
        ]

    return _make(a.data * b.data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g: Array):
        return [
            (a, _unbroadcast(g / b.data, a.shape)),
            (b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape)),
        ]

    return _make(a.data / b.data, (a, b), backward)


# -- elementwise unary ops -------------------------------------------------------


def relu(x) -> Tensor:
    x = as_tensor(x)

    def backward(g: Array):
        return [(x, g * (x.data > 0))]

    return _make(np.maximum(x.data, 0), (x,), backward)


def tanh(x) -> Tensor:
    x = as_tensor(x)
    data = np.tanh(x.data)

    def backward(g: Array):
        return [(x, g * (1.0 - data * data))]

    return _make(data, (x,), backward)


def sigmoid_np(v: Array) -> Array:
    # branch-free overflow-safe form: exp(-|v|) never overflows and the
    # where() picks the numerically exact variant per sign
    t = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    data = sigmoid_np(x.data)

    def backward(g: Array):
        return [(x, g * data * (1.0 - data))]

    return _make(data, (x,), backward)


def _softplus_np(v: Array) -> Array:
    # log(1 + e^v) = max(v, 0) + log1p(e^{-|v|}); safe for large |v|
    return np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))


def softplus(x) -> Tensor:
    x = as_tensor(x)

    def backward(g: Array):
        return [(x, g * sigmoid_np(x.data))]

    return _make(_softplus_np(x.data), (x,), backward)


def exp(x) -> Tensor:
    x = as_tensor(x)
    data = np.exp(x.data)

    def backward(g: Array):
        return [(x, g * data)]

    return _make(data, (x,), backward)


def log(x) -> Tensor:
    x = as_tensor(x)
    if np.any(x.data <= 0):
        raise ValueError(f"log: non-positive input (min={float(np.min(x.data))!r})")

    def backward(g: Array):
        return [(x, g / x.data)]

    return _make(np.log(x.data), (x,), backward)


def clip(x, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes only where unclamped."""
    x = as_tensor(x)

    def backward(g: Array):
        return [(x, g * ((x.data >= lo) & (x.data <= hi)))]

    return _make(np.clip(x.data, lo, hi), (x,), backward)


def astype(x, dtype) -> Tensor:
    """Cast to `dtype` (no-op when it already matches); the gradient is
    cast back to the input's dtype."""
    x = as_tensor(x)
    dtype = np.dtype(dtype)
    if x.dtype == dtype:
        return x

    def backward(g: Array):
        return [(x, g.astype(x.dtype))]

    return _make(x.data.astype(dtype), (x,), backward)


def ste_round(x) -> Tensor:
    """Round to nearest integer (ties to even); backward is the identity.

    Straight-through estimator: forward applies the true step function,
    the tape records d(round)/dx = 1.
    """
    x = as_tensor(x)

    def backward(g: Array):
        return [(x, g)]

    return _make(np.round(x.data), (x,), backward)


# -- reductions -------------------------------------------------------------------


def reduce_sum(x) -> Tensor:
    """Sum of every element, as a 0-d tensor."""
    x = as_tensor(x)

    def backward(g: Array):
        return [(x, np.broadcast_to(g, x.shape).copy())]

    return _make(x.data.sum(), (x,), backward)


# -- structure ops ------------------------------------------------------------------


def reshape(x, *shape) -> Tensor:
    x = as_tensor(x)
    data = x.data.reshape(shape)

    def backward(g: Array):
        return [(x, g.reshape(x.shape))]

    return _make(data, (x,), backward)


def transpose(x, axes: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def backward(g: Array):
        return [(x, np.ascontiguousarray(g.transpose(inv)))]

    return _make(np.ascontiguousarray(x.data.transpose(axes)), (x,), backward)


def matmul(a, b) -> Tensor:
    """Batched matrix product over the last two axes (numpy semantics)."""
    a, b = as_tensor(a), as_tensor(b)

    def backward(g: Array):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return [(a, _unbroadcast(ga, a.shape)), (b, _unbroadcast(gb, b.shape))]

    return _make(a.data @ b.data, (a, b), backward)


def take_channels(x, idx) -> Tensor:
    """Gather channels (axis 1) by an array of distinct indices.

    The indices must be distinct (a permutation or a subset), so the
    backward is a plain scatter into zeros, with no accumulation; a
    repeated index raises `ValueError`.
    """
    x = as_tensor(x)
    idx = np.asarray(idx, dtype=np.int64)
    if len(set(idx.tolist())) != idx.size:
        raise ValueError(f"take_channels: repeated channel index in {idx.tolist()}")

    def backward(g: Array):
        gx = np.zeros_like(x.data)
        gx[:, idx] = g
        return [(x, gx)]

    return _make(x.data[:, idx], (x,), backward)


def concat_channels(parts: Iterable) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    sizes = [p.shape[1] for p in parts]
    data = np.concatenate([p.data for p in parts], axis=1)

    def backward(g: Array):
        grads = []
        offset = 0
        for p, n in zip(parts, sizes):
            grads.append((p, g[:, offset : offset + n].copy()))
            offset += n
        return grads

    return _make(data, tuple(parts), backward)


def squeeze2x2(x) -> Tensor:
    """Space-to-depth: (N,C,H,W) -> (N,4C,H/2,W/2).

    Output channel 4c+2r+s holds the (row parity r, col parity s) sample
    of input channel c, i.e. each 2x2 block of input channel c maps to 4
    consecutive output channels ordered top-left, top-right, bottom-left,
    bottom-right.
    """
    x = as_tensor(x)
    _, _, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"squeeze2x2: spatial extents must be even, got {h}x{w}")

    def backward(g: Array):
        return [(x, _unsqueeze_np(g))]

    return _make(_squeeze_np(x.data), (x,), backward)


def unsqueeze2x2(x) -> Tensor:
    """Depth-to-space inverse of :func:`squeeze2x2`."""
    x = as_tensor(x)
    c = x.shape[1]
    if c % 4:
        raise ValueError(f"unsqueeze2x2: channel count must be divisible by 4, got {c}")

    def backward(g: Array):
        return [(x, _squeeze_np(g))]

    return _make(_unsqueeze_np(x.data), (x,), backward)


def _squeeze_np(a: Array) -> Array:
    n, c, h, w = a.shape
    a = a.reshape(n, c, h // 2, 2, w // 2, 2)
    a = a.transpose(0, 1, 3, 5, 2, 4)
    return np.ascontiguousarray(a.reshape(n, c * 4, h // 2, w // 2))


def _unsqueeze_np(a: Array) -> Array:
    n, c, h, w = a.shape
    a = a.reshape(n, c // 4, 2, 2, h, w)
    a = a.transpose(0, 1, 4, 2, 5, 3)
    return np.ascontiguousarray(a.reshape(n, c // 4, h * 2, w * 2))
