"""Probability models over quantized latents.

Two families feed both training (differentiable rates) and the coder
(bin masses for frequency tables):

* a learned per-channel cumulative model for the base latents, built as
  a short chain of softplus-positive affine stages with gated-tanh
  nonlinearities and a closing sigmoid, so it is strictly increasing
  with tails pinned to 0 and 1;
* discrete logistic conditionals for the factored-out latents, i.e. the
  logistic CDF integrated over a quantization bin around each value.

Everything here is a pure function of immutable parameters and safe for
concurrent use.  Coding and training share these formulas; the coder
evaluates them in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .params import ParamStore
from .quantize import round_to_grid
from .tensor import Tensor

PROB_FLOOR = 1e-12
LOG2E = float(np.log2(np.e))
# the base prior's shape: hidden width, stages, and initial scale (FactorizedPrior)
PRIOR_WIDTH, PRIOR_DEPTH, PRIOR_INIT_SCALE = 3, 4, 64.0


# 2 ** (i / 16) for i in 0..15, written out: a header's step index k
# decodes to ldexp(_OCTAVE[k % 16], k // 16), which is exact, so no libm
# call decides a decoded step and every machine reads the same one.
_OCTAVE = (1.0, 1.0442737824274138, 1.0905077326652577, 1.1387886347566916,
           1.189207115002721, 1.241857812073484, 1.2968395546510096, 1.3542555469368927,
           1.4142135623730951, 1.4768261459394993, 1.5422108254079407, 1.6104903319492543,
           1.681792830507429, 1.7562521603732995, 1.8340080864093424, 1.9152065613971474)
LEVEL_STEP_INDICES = (-640, 640)  # delta2, delta1: 2^-40 to 2^40, a 16-bit index each
BASE_STEP_INDICES = (-128, 127)  # delta0: 2^-8 to about 245, one signed byte each


def grid_step(k: int) -> float:
    """The step of grid index k, 2^(k/16), for k in LEVEL_STEP_INDICES."""
    if not LEVEL_STEP_INDICES[0] <= k <= LEVEL_STEP_INDICES[1]:
        raise ValueError(f"step index {k} lies outside {list(LEVEL_STEP_INDICES)}")
    return math.ldexp(_OCTAVE[k % 16], k // 16)


def step_index(step: float, indices: tuple[int, int]) -> int:
    """The index of the grid step nearest `step` on a log scale, which
    must lie within `indices`."""
    step = float(step)
    if not (math.isfinite(step) and step > 0):
        raise ValueError("quantization steps must be finite and strictly positive")
    k = round(16 * math.log2(step))
    if not indices[0] <= k <= indices[1]:
        raise ValueError(f"step {step!r} lies outside the grid's 2^({indices[0]}/16) "
                         f"to 2^({indices[1]}/16)")
    return k


@dataclass
class QuantSpec:
    """Quantization steps: scalars for the two conditional levels, one
    step per channel of the base latents.

    Every step is snapped to the nearest point 2^(k/16) of one grid, at
    most 2.2% away, so encoder and decoder quantize with the step that a
    bitstream header carries as its index k: delta0 within
    BASE_STEP_INDICES, delta2 and delta1 within LEVEL_STEP_INDICES.  A
    step outside its range is refused.  Snapping is idempotent, and every
    power of two from 2^-8 to 2^7 is on the grid."""

    delta2: float
    delta1: float
    delta0: np.ndarray

    def __post_init__(self):
        k2, k1, k0 = self.indices()
        self.delta2, self.delta1 = grid_step(k2), grid_step(k1)
        self.delta0 = np.array([grid_step(k) for k in k0], dtype=np.float64)

    def indices(self) -> tuple[int, int, list[int]]:
        """The grid indices (delta2, delta1, delta0) of the steps."""
        return (step_index(self.delta2, LEVEL_STEP_INDICES),
                step_index(self.delta1, LEVEL_STEP_INDICES),
                [step_index(d, BASE_STEP_INDICES)
                 for d in np.asarray(self.delta0, dtype=np.float64).ravel().tolist()])

    @classmethod
    def from_indices(cls, k2: int, k1: int, k0: list[int]) -> "QuantSpec":
        return cls(grid_step(k2), grid_step(k1), [grid_step(k) for k in k0])

    @classmethod
    def uniform(cls, step: float, base_channels: int) -> "QuantSpec":
        return cls(step, step, np.full(base_channels, float(step)))

    def to_lines(self) -> list[str]:
        vals = [self.delta2, self.delta1, *self.delta0.tolist()]
        return [str(len(vals))] + [repr(float(v)) for v in vals]

    @classmethod
    def from_lines(cls, lines: list[str]) -> "QuantSpec":
        body = [ln.strip() for ln in lines if ln.strip()]
        if not body:
            raise ValueError("empty step file")
        count = int(body[0])
        vals = [float(v) for v in body[1:]]
        if len(vals) != count or count < 3:
            raise ValueError(f"step file declares {count} values, found {len(vals)}")
        return cls(vals[0], vals[1], np.array(vals[2:]))


class FactorizedPrior:
    """Learned univariate CDF per channel; bin differences give symbol mass.

    The factorized density of Balle et al. (arXiv:1802.01436): a chain of
    PRIOR_DEPTH stages of width PRIOR_WIDTH, affine maps whose matrices
    pass through softplus (positivity keeps the CDF strictly increasing),
    gated nonlinearities y + tanh(a) * tanh(y) between stages, sigmoid
    after the final scalar stage.  The stages start with a joint slope of
    1 / PRIOR_INIT_SCALE, so the initial density spreads over about
    +-PRIOR_INIT_SCALE.  Initialization is symmetric
    (zero biases and gates), so F(0) = 0.5 exactly at init, with a small
    seeded jitter on the matrices to keep hidden units distinguishable.

    The prior adds its parameters to the model's `ParamStore` as it
    creates them, as `prior.stage{k}.matrix`, `.bias` and `.gate`.
    """

    def __init__(self, store: ParamStore, channels: int, rng: np.random.Generator, dtype):
        self.channels = channels
        widths = [1] + [PRIOR_WIDTH] * (PRIOR_DEPTH - 1) + [1]
        scale = PRIOR_INIT_SCALE ** (1.0 / PRIOR_DEPTH)
        self.matrices, self.biases, self.gates = [], [], []

        def add(k: int, part: str, value: np.ndarray) -> Tensor:
            return store.add(f"prior.stage{k}.{part}",
                             Tensor(value.astype(dtype), requires_grad=True))

        for k in range(PRIOR_DEPTH):
            w_in, w_out = widths[k], widths[k + 1]
            base = np.log(np.expm1(1.0 / scale / w_in))
            raw = base + 0.02 * rng.standard_normal((channels, w_out, w_in))
            self.matrices.append(add(k, "matrix", raw))
            self.biases.append(add(k, "bias", np.zeros((channels, w_out, 1))))
            if k < PRIOR_DEPTH - 1:
                self.gates.append(add(k, "gate", np.zeros((channels, w_out, 1))))

    def cdf(self, v) -> Tensor:
        """Evaluate F_c elementwise on (channels, m) arguments."""
        v = T.as_tensor(v)
        if v.ndim != 2 or v.shape[0] != self.channels:
            raise ValueError(
                f"prior cdf expects ({self.channels}, m) values, got {v.shape}"
            )
        x = v.reshape(self.channels, 1, v.shape[1])
        for k in range(PRIOR_DEPTH):
            x = T.add(T.matmul(T.softplus(self.matrices[k]), x), self.biases[k])
            if k < PRIOR_DEPTH - 1:
                x = T.add(x, T.mul(T.tanh(self.gates[k]), T.tanh(x)))
        return T.sigmoid(x).reshape(self.channels, v.shape[1])

    def bin_prob(self, v, delta) -> Tensor:
        """Mass of the width-delta bin centered at v: F(v+d/2) - F(v-d/2).

        `delta` is a scalar or one step per channel (array or Tensor when
        the steps are being optimized).  Floored at PROB_FLOOR so every
        bin stays codable.
        """
        v = T.as_tensor(v)
        half = T.mul(_per_channel(delta, self.channels), 0.5)
        upper = self.cdf(T.add(v, half))
        lower = self.cdf(T.sub(v, half))
        return T.clip(T.sub(upper, lower), PROB_FLOOR, 1.0)


def _per_channel(delta, channels: int) -> Tensor:
    t = delta if isinstance(delta, Tensor) else Tensor(np.asarray(delta, dtype=np.float64))
    if t.size == 1:
        return t
    if t.size != channels:
        raise ValueError(f"expected scalar or {channels} per-channel steps, got {t.shape}")
    return t.reshape(channels, 1)


def channels_first(z: Tensor) -> Tensor:
    """(N,C,H,W) -> (C, N*H*W), the layout the per-channel prior consumes."""
    n, c = z.shape[0], z.shape[1]
    return T.transpose(z.reshape(n, c, -1), (1, 0, 2)).reshape(c, -1)


def logistic_bin_prob(v, mu, sigma, delta):
    """Logistic CDF mass of the bin [v - delta/2, v + delta/2].

    sigmoid((v + d/2 - mu)/sigma) - sigmoid((v - d/2 - mu)/sigma), floored
    at PROB_FLOOR.  Tensor arguments keep the computation on the tape;
    plain arrays use a float64 numpy path (the coder's route).
    """
    if any(isinstance(arg, Tensor) for arg in (v, mu, sigma, delta)):
        v, mu, sigma = T.as_tensor(v), T.as_tensor(mu), T.as_tensor(sigma)
        half = T.mul(T.as_tensor(delta), 0.5)
        centered = T.sub(v, mu)
        upper = T.sigmoid(T.div(T.add(centered, half), sigma))
        lower = T.sigmoid(T.div(T.sub(centered, half), sigma))
        return T.clip(T.sub(upper, lower), PROB_FLOOR, 1.0)
    v = np.asarray(v, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    half = 0.5 * np.asarray(delta, dtype=np.float64)
    out = T.sigmoid_np((v - mu + half) / sigma) - T.sigmoid_np((v - mu - half) / sigma)
    return np.clip(out, PROB_FLOOR, 1.0)


def mean_symbol(mu, delta):
    """Nearest grid point to the conditional mean (ties to even).

    This is the most likely symbol of the discrete logistic and the value
    substituted for skipped or un-transmitted elements.
    """
    return round_to_grid(mu, delta)


def bits(prob) -> Tensor:
    """-log2 of probabilities (Tensor path)."""
    return T.mul(T.log(T.as_tensor(prob)), -LOG2E)


def latent_rate_bits(zs, prior: FactorizedPrior, conditionals, steps) -> Tensor:
    """Total code length in bits of one latent set under the models.

    `zs` is a `LatentSet` (z2, z1, z0), `conditionals` the pairs
    [(mu2, sigma2), (mu1, sigma1)] and `steps` (delta2, delta1, delta0), all
    in that level order.  The base latent z0 goes under the per-channel
    prior at its per-channel steps (or one scalar step), z1 and z2 under
    discrete logistics at their level steps; the sum runs r0 + r1 + r2.
    Differentiable in every argument, including steps given as Tensors.
    """
    (mu2, sigma2), (mu1, sigma1) = conditionals
    d2, d1, d0 = steps
    r0 = T.reduce_sum(bits(prior.bin_prob(channels_first(T.as_tensor(zs.z0)), d0)))
    r1 = T.reduce_sum(bits(logistic_bin_prob(T.as_tensor(zs.z1), mu1, sigma1, d1)))
    r2 = T.reduce_sum(bits(logistic_bin_prob(T.as_tensor(zs.z2), mu2, sigma2, d2)))
    return T.add(T.add(r0, r1), r2)
