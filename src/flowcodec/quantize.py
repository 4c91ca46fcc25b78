"""Quantizers: dithered training-time rounding and deterministic grids.

Training uses universal quantization: every element of a latent tensor
is shifted by one shared uniform draw u ~ U(-step/2, step/2), rounded,
and shifted back, which makes the quantization error independent of the
signal.  Gradients pass through the rounding as identity.  The test-time
path is plain deterministic rounding to the step grid (ties to even),
which is what makes re-encoding reproduce identical latents.
`round_to_grid` is the one grid rounding: the dithered quantizer, the
codec's latents and mean symbols, and step tuning all go through it.

Pure functions given an explicit noise draw; the generator used to
produce draws is owned exclusively by the training loop.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


def draw_noise(rng: np.random.Generator, step: float) -> float:
    """One shared dither sample u ~ U(-step/2, step/2) for a latent tensor."""
    return float(rng.uniform(-step / 2.0, step / 2.0))


def universal_quantize(z: Tensor, step: float, u: float) -> Tensor:
    """Dithered rounding  round_to_grid(z + u, step) - u  with shared u.

    |output - z| <= step/2 elementwise; the round is straight-through so
    d(output)/dz is the identity.
    """
    if abs(u) > step / 2.0 + 1e-12:
        raise ValueError(f"noise draw {u} exceeds half step {step / 2}")
    return T.sub(round_to_grid(T.add(z, u), step), u)


def round_to_grid(z, step):
    """Deterministic grid rounding  step * round(z/step), ties to even.

    Idempotent bitwise: re-rounding an output reproduces it exactly.
    Accepts Tensors (straight-through gradient) or plain arrays.
    """
    if isinstance(z, Tensor) or isinstance(step, Tensor):
        return T.mul(T.ste_round(T.div(z, step)), step)
    step = np.asarray(step)
    return np.round(z / step) * step


def grid_index(z: np.ndarray, step) -> np.ndarray:
    """Integer symbol index round(z/step) of on-grid values."""
    return np.round(np.asarray(z) / np.asarray(step)).astype(np.int64)
