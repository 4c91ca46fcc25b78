"""2D convolution (cross-correlation) for the tensor engine.

Stride-1, zero-padded 'same' convolution with odd kernel extents, which
is all the residual conditioning networks here need.  The forward pass
and both backward passes are one matmul each over tap-major columns
(Cin*kh*kw, N*H*W), built by one slice copy per kernel tap into a zeroed
array whose untouched border stands in for the padding.  No padded copy
and no strided im2col view is made, and the heavy lifting stays inside
BLAS.  The backward computes a gradient only for a parent on the tape
(`requires_grad`), whether input, kernel or bias: a conv fed from the
image alone skips the input matmul, and a conv of a frozen model (as
step tuning uses) skips the kernel matmul and its column rebuild.
"""

from __future__ import annotations

import numpy as np

from .tensor import Array, Tensor, _make, as_tensor


def _columns(x: Array, kh: int, kw: int) -> Array:
    """Tap-major same-padded columns (Cin*kh*kw, N*H*W) of (N,Cin,H,W).

    Row (c, i, j) holds channel c shifted by tap (i - kh//2, j - kw//2),
    zero where the tap reads outside the image.
    """
    n, cin, h, w = x.shape
    cols = np.zeros((cin, kh, kw, n, h, w), dtype=x.dtype)
    xt = x.transpose(1, 0, 2, 3)
    for i in range(kh):
        dy = i - kh // 2
        # output rows y0:y1 read input rows y0+dy:y1+dy, both clipped to [0, h)
        y0, y1 = max(0, -dy), min(h, h - dy)
        if y0 >= y1:
            continue
        for j in range(kw):
            dx = j - kw // 2
            x0, x1 = max(0, -dx), min(w, w - dx)
            if x0 >= x1:
                continue
            cols[:, i, j, :, y0:y1, x0:x1] = xt[:, :, y0 + dy : y1 + dy, x0 + dx : x1 + dx]
    return cols.reshape(cin * kh * kw, n * h * w)


def _corr2d(x: Array, kernel: Array) -> Array:
    """Same-padded cross-correlation of (N,Cin,H,W) with (Cout,Cin,kh,kw)."""
    n, _, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    out = kernel.reshape(cout, -1) @ _columns(x, kh, kw)
    return np.ascontiguousarray(out.reshape(cout, n, h, w).transpose(1, 0, 2, 3))


def conv2d(x, kernel, bias=None) -> Tensor:
    """Same-padded stride-1 convolution of (N,Cin,H,W) with (Cout,Cin,kh,kw).

    Differentiable w.r.t. input, kernel and the per-output-channel bias;
    the backward returns a gradient only for a parent that requires one.
    Kernel spatial extents must be odd so that output extents match
    input.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.ndim != 4 or kernel.ndim != 4:
        raise ValueError(
            f"conv2d: expected 4-d input and kernel, got {x.shape} and {kernel.shape}"
        )
    cin = x.shape[1]
    cout, kcin, kh, kw = kernel.shape
    if kcin != cin:
        raise ValueError(
            f"conv2d: input has {cin} channels but kernel expects {kcin}"
        )
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv2d: kernel extents must be odd, got {kh}x{kw}")
    if bias is not None:
        bias = as_tensor(bias)
        if bias.shape != (cout,):
            raise ValueError(
                f"conv2d: bias shape {bias.shape} does not match {cout} output channels"
            )

    data = _corr2d(x.data, kernel.data)
    if bias is not None:
        data = data + bias.data[None, :, None, None]

    def backward(g: Array):
        grads = []
        if kernel.requires_grad:
            # d/dkernel: g against the input's columns, rebuilt rather than
            # kept from the forward pass so that the tape holds no column arrays
            gmat = g.transpose(1, 0, 2, 3).reshape(cout, -1)
            gk = (gmat @ _columns(x.data, kh, kw).T).reshape(kernel.shape)
            grads.append((kernel, gk))
        if x.requires_grad:
            # d/dx: correlate g with the spatially flipped, channel-transposed kernel
            kflip = np.ascontiguousarray(kernel.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
            grads.append((x, _corr2d(g, kflip)))
        if bias is not None and bias.requires_grad:
            grads.append((bias, g.sum(axis=(0, 2, 3))))
        return grads

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return _make(data, parents, backward)
