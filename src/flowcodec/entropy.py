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

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

PROB_FLOOR = 1e-12
LOG2E = float(np.log2(np.e))


@dataclass
class QuantSpec:
    """Quantization steps: scalars for the two conditional levels, one
    step per channel of the base latents.  Serialized in every bitstream
    header."""

    delta2: float
    delta1: float
    delta0: np.ndarray

    def __post_init__(self):
        self.delta2 = float(self.delta2)
        self.delta1 = float(self.delta1)
        self.delta0 = np.asarray(self.delta0, dtype=np.float64)
        steps = np.concatenate(([self.delta2, self.delta1], self.delta0))
        if not np.all(np.isfinite(steps) & (steps > 0)):
            raise ValueError("quantization steps must be finite and strictly positive")

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


def sigmoid_np(x) -> np.ndarray:
    return T._sigmoid_np(np.asarray(x, dtype=np.float64))


class FactorizedPrior:
    """Learned univariate CDF per channel; bin differences give symbol mass.

    Chain of `depth` stages: affine maps whose matrices pass through
    softplus (positivity keeps the CDF strictly increasing), gated
    nonlinearities y + tanh(a) * tanh(y) between stages, sigmoid after the
    final scalar stage.  Initialization is symmetric (zero biases and
    gates), so F(0) = 0.5 exactly at init, with a small seeded jitter on
    the matrices to keep hidden units distinguishable.
    """

    def __init__(
        self,
        channels: int,
        width: int = 3,
        depth: int = 4,
        init_scale: float = 64.0,
        rng: np.random.Generator | None = None,
        dtype=np.float64,
    ):
        if depth < 2:
            raise ValueError("prior chain needs at least 2 stages")
        rng = rng or np.random.default_rng(0)
        self.channels = channels
        self.width = width
        self.depth = depth
        self.init_scale = float(init_scale)
        widths = [1] + [width] * (depth - 1) + [1]
        scale = self.init_scale ** (1.0 / depth)
        self.matrices: list[Tensor] = []
        self.biases: list[Tensor] = []
        self.gates: list[Tensor] = []
        for k in range(depth):
            w_in, w_out = widths[k], widths[k + 1]
            base = np.log(np.expm1(1.0 / scale / w_in))
            raw = base + 0.02 * rng.standard_normal((channels, w_out, w_in))
            self.matrices.append(Tensor(raw.astype(dtype), requires_grad=True))
            self.biases.append(
                Tensor(np.zeros((channels, w_out, 1), dtype=dtype), requires_grad=True)
            )
            if k < depth - 1:
                self.gates.append(
                    Tensor(np.zeros((channels, w_out, 1), dtype=dtype), requires_grad=True)
                )

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for k in range(self.depth):
            out.append((f"stage{k}.matrix", self.matrices[k]))
            out.append((f"stage{k}.bias", self.biases[k]))
            if k < self.depth - 1:
                out.append((f"stage{k}.gate", self.gates[k]))
        return out

    def cdf(self, v) -> Tensor:
        """Evaluate F_c elementwise on (channels, m) arguments."""
        v = T.as_tensor(v)
        if v.ndim != 2 or v.shape[0] != self.channels:
            raise ValueError(
                f"prior cdf expects ({self.channels}, m) values, got {v.shape}"
            )
        x = v.reshape(self.channels, 1, v.shape[1])
        for k in range(self.depth):
            x = T.add(T.matmul(T.softplus(self.matrices[k]), x), self.biases[k])
            if k < self.depth - 1:
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
    out = sigmoid_np((v - mu + half) / sigma) - sigmoid_np((v - mu - half) / sigma)
    return np.clip(out, PROB_FLOOR, 1.0)


def mean_symbol(mu, delta):
    """Nearest grid point to the conditional mean (ties to even).

    This is the most likely symbol of the discrete logistic and the value
    substituted for skipped or un-transmitted elements.
    """
    if isinstance(mu, Tensor) or isinstance(delta, Tensor):
        return T.mul(T.ste_round(T.div(mu, delta)), delta)
    delta = np.asarray(delta, dtype=np.float64)
    return np.round(np.asarray(mu, dtype=np.float64) / delta) * delta


def bits(prob) -> Tensor:
    """-log2 of probabilities (Tensor path)."""
    return T.mul(T.log(T.as_tensor(prob)), -LOG2E)


def latent_rate_bits(
    z0,
    z1,
    z2,
    prior: FactorizedPrior,
    mu1,
    sigma1,
    mu2,
    sigma2,
    spec,
) -> Tensor:
    """Total code length in bits of one latent set under the models.

    Base latents under the per-channel prior at their per-channel steps;
    conditional latents under discrete logistics at their level steps.
    Differentiable in every argument, including steps given as Tensors.
    `spec` is a QuantSpec or a (delta2, delta1, delta0) triple.
    """
    if isinstance(spec, QuantSpec):
        d2, d1, d0 = spec.delta2, spec.delta1, spec.delta0
    else:
        d2, d1, d0 = spec
    p0 = prior.bin_prob(channels_first(T.as_tensor(z0)), d0)
    r0 = T.reduce_sum(bits(p0))
    r1 = T.reduce_sum(bits(logistic_bin_prob(T.as_tensor(z1), mu1, sigma1, d1)))
    r2 = T.reduce_sum(bits(logistic_bin_prob(T.as_tensor(z2), mu2, sigma2, d2)))
    return T.add(T.add(r0, r1), r2)
