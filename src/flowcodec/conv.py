"""2D convolution (cross-correlation) for the tensor engine.

Stride-1, zero-padded 'same' convolution with odd kernel extents, which
is all the residual conditioning networks here need.  The input is
copied once into a zeroed flat buffer (Cin, s + N*Hp*Wp + s) that holds
each image on its padded grid (Hp, Wp) = (H + kh - 1, W + kw - 1), with
s = (kh//2)*Wp + kw//2 zeros of slack at both ends.  Tap (i, j) is then
the contiguous slice at offset i*Wp + j, so the forward pass sums one
(Cout, Cin) @ slice matmul per tap on the padded grid and crops
("kn2row", Vasudevan et al., arXiv:1704.04428): no column array and no
per-tap copy.  The backward pads the output gradient the same way once:
the kernel gradient is its grid, zero in the border, @ each tap's slice
of the input's buffer, and the input gradient is the forward pass over
it with the flipped, channel-transposed kernel.  The input's buffer is
rebuilt, not kept, so the tape holds no arrays.  A gradient is computed
only for a parent on the tape (`requires_grad`): a conv fed from the
image alone skips the input gradient, and a conv of a frozen model (as
step tuning uses) skips the kernel gradient and the rebuild.

Every call allocates its buffers afresh, each up to a few MB.  Under
glibc's default policy such blocks go back to the kernel when freed (the
dynamic mmap threshold follows the largest block freed so far, and the
heap is trimmed at twice that), and each call faults their pages in
again: about 21,000 minor page faults in an 8-step `train` cycle, and
numpy code elsewhere in the process faults along with it.  So importing
this module fixes both thresholds for the process, which also stops them
drifting with the allocation history: blocks up to `MMAP_THRESHOLD` come
from the heap, and freed memory stays there until `TRIM_THRESHOLD` of it
is free at the top.  Without glibc this is a no-op.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .tensor import Array, Tensor, _make, as_tensor

# glibc's own ceiling for its dynamic mmap threshold on 64-bit, and the
# trim threshold it pairs with it
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # from glibc's malloc.h


def _keep_freed_memory() -> bool:
    """Fix glibc's malloc thresholds; False where there is no glibc."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return False
    # musl has a mallopt too, which does nothing
    if not hasattr(libc, "gnu_get_libc_version"):
        return False
    return bool(libc.mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and libc.mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD))


KEEPS_FREED_MEMORY = _keep_freed_memory()


def _padded(x: Array, kh: int, kw: int) -> Array:
    """(N,C,H,W) copied once into a zeroed flat buffer (C, s + N*Hp*Wp + s)."""
    n, c, h, w = x.shape
    ph, pw = kh // 2, kw // 2
    hp, wp = h + 2 * ph, w + 2 * pw
    s = ph * wp + pw
    buf = np.zeros((c, n * hp * wp + 2 * s), dtype=x.dtype)
    grid = buf[:, s : s + n * hp * wp].reshape(c, n, hp, wp)
    grid[:, :, ph : ph + h, pw : pw + w] = x.transpose(1, 0, 2, 3)
    return buf


def _correlate(buf: Array, kernel: Array, n: int, h: int, w: int) -> Array:
    """Same-padded cross-correlation of `_padded` (N,Cin,H,W) with (Cout,Cin,kh,kw)."""
    cout, _, kh, kw = kernel.shape
    hp, wp = h + kh - 1, w + kw - 1
    size = n * hp * wp
    taps = np.ascontiguousarray(kernel.transpose(2, 3, 0, 1))
    acc = np.matmul(taps[0, 0], buf[:, :size])
    tmp = np.empty_like(acc)
    for i in range(kh):
        for j in range(kw):
            if i or j:
                off = i * wp + j
                acc += np.matmul(taps[i, j], buf[:, off : off + size], out=tmp)
    grid = acc.reshape(cout, n, hp, wp)[:, :, kh // 2 : kh // 2 + h, kw // 2 : kw // 2 + w]
    return np.ascontiguousarray(grid.transpose(1, 0, 2, 3))


def conv2d(x, kernel, bias) -> Tensor:
    """Same-padded stride-1 convolution of (N,Cin,H,W) with (Cout,Cin,kh,kw),
    plus the (Cout,) bias of each output channel.

    Differentiable w.r.t. input, kernel and bias; the backward returns a
    gradient only for a parent that requires one.  Kernel spatial extents
    must be odd so that output extents match input.
    """
    x, kernel, bias = as_tensor(x), as_tensor(kernel), as_tensor(bias)
    if x.ndim != 4 or kernel.ndim != 4:
        raise ValueError(
            f"conv2d: expected 4-d input and kernel, got {x.shape} and {kernel.shape}"
        )
    n, cin, h, w = x.shape
    cout, kcin, kh, kw = kernel.shape
    if kcin != cin:
        raise ValueError(
            f"conv2d: input has {cin} channels but kernel expects {kcin}"
        )
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv2d: kernel extents must be odd, got {kh}x{kw}")
    if bias.shape != (cout,):
        raise ValueError(
            f"conv2d: bias shape {bias.shape} does not match {cout} output channels"
        )

    # x's buffer: the padded grid (hp, wp) of every image, and slack s
    hp, wp = h + kh - 1, w + kw - 1
    size, s = n * hp * wp, (kh // 2) * wp + kw // 2
    data = _correlate(_padded(x.data, kh, kw), kernel.data, n, h, w) + bias.data[:, None, None]

    def backward(g: Array):
        grads = []
        if kernel.requires_grad or x.requires_grad:
            gbuf = _padded(g, kh, kw)
        if kernel.requires_grad:
            # d/dkernel: g's padded grid, zero in the border, against each
            # tap's slice of x's buffer, rebuilt rather than kept from the
            # forward pass so that the tape holds no buffers
            xbuf = _padded(x.data, kh, kw)
            centre = gbuf[:, s : s + size]
            gk = np.empty((kh, kw, cout, cin), dtype=np.result_type(g, x.data))
            for i in range(kh):
                for j in range(kw):
                    np.matmul(centre, xbuf[:, i * wp + j : i * wp + j + size].T, out=gk[i, j])
            grads.append((kernel, np.ascontiguousarray(gk.transpose(2, 3, 0, 1))))
        if x.requires_grad:
            # d/dx: correlate g with the spatially flipped, channel-transposed kernel
            kflip = kernel.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            grads.append((x, _correlate(gbuf, kflip, n, h, w)))
        if bias.requires_grad:
            grads.append((bias, g.sum(axis=(0, 2, 3))))
        return grads

    return _make(data, (x, kernel, bias), backward)
