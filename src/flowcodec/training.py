"""Optimization: dequantized-likelihood warmup, the rate-distortion
objective with its dual reconstruction terms, AdaMax parameter updates,
and post-hoc tuning of the quantization steps.

The RD objective couples three terms per batch: total code length of the
dither-quantized latents (bits per image), the squared error of the full
reconstruction, and the squared error of the sampling-path
reconstruction that replaces all conditional latents by their mean
symbols.  The rate term's conditioning (mean, scale) comes from the
forward features, which keeps the graph cheap.  Every inverse walks the
decoder's own chain (`DecoderChain`): both reconstructions branch from
one base point of it, the sampling path as a one-level decode does, and
step tuning reaches it through `FlowModel.inverse`.

`train` logs one row per step.  Its `nll` column, the dequantized
likelihood under the same model, costs a third forward pass, so after
warm-up it is evaluated only every `NLL_EVERY` steps and reads nan
elsewhere; its dequantization noise is drawn on every step all the same,
so batches, dithers and trained parameters do not depend on `NLL_EVERY`.

Data loading may be concurrent; the optimization step owns the
parameters exclusively; evaluation helpers and step tuning are
read-only (tuning works on a frozen copy of the model).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .entropy import (
    BASE_STEP_INDICES, LEVEL_STEP_INDICES, QuantSpec, grid_step, latent_rate_bits, mean_symbol,
)
from .errors import NumericError
from .flow import LEVELS, DecoderChain, FlowModel, LatentSet, pad
from .quantize import draw_noise, round_to_grid, universal_quantize
from .tensor import Tensor, no_grad

PSNR_CAP_DB = 99.0
NLL_EVERY = 10  # after warm-up, train() evaluates nll on steps divisible by this
TUNING_LR = 0.1  # Adam's learning rate in finetune_deltas


@dataclass
class TrainConfig:
    """Hyperparameters; the defaults mirror the reference configuration
    with desk-scale sizes."""

    lambda_rd: float = 500.0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-7
    delta_train: float = 1.0
    batch_size: int = 8
    steps: int = 500
    warmup_steps: int = 0
    patch: int = 32
    pixel_scale: float = 255.0
    dequant_amplitude: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        """Refuse values that crash or corrupt training; NaN fails every
        comparison."""
        for name in ("lr", "eps", "delta_train", "pixel_scale"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        for name in ("lambda_rd", "dequant_amplitude"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)!r}")
        if self.batch_size < 1 or self.steps < 0 or self.warmup_steps < 0:
            raise ValueError("batch_size >= 1, steps >= 0, warmup_steps >= 0 required")
        if self.patch < 1 or self.patch % 2 ** LEVELS:  # the transform's extent multiple
            raise ValueError(f"patch must be a positive multiple of {2 ** LEVELS}, "
                             f"got {self.patch!r}")

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        """key=value text; '#' starts a comment; unknown and repeated keys
        rejected."""
        values = {}
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                if "=" not in body:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {body!r}")
                key, raw = (s.strip() for s in body.split("=", 1))
                if key in values:
                    raise ValueError(f"{path}:{lineno}: repeated config key {key!r}")
                values[key] = raw
        known = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for key, raw in values.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            target = known[key]
            kwargs[key] = int(raw) if target == "int" else float(raw)
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


# -- optimizers ------------------------------------------------------------------


class AdaMax:
    """Infinity-norm variant of Adam; state persists across steps."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-7):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p.data) for p in params]
        self.u = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def step(self) -> None:
        self.t += 1
        correction = 1.0 - self.beta1 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad_array()
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.u[i] = np.maximum(self.beta2 * self.u[i], np.abs(g))
            p.data = p.data - (self.lr / correction) * self.m[i] / (self.u[i] + self.eps)


class Adam:
    """Standard Adam at the usual beta1, beta2 and eps; used for
    quantization-step tuning."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Tensor], lr: float):
        self.params, self.lr = params, lr
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad_array()
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
            p.data = p.data - self.lr * (self.m[i] / c1) / (np.sqrt(self.v[i] / c2) + self.EPS)


# -- metrics ----------------------------------------------------------------------


def psnr(x: np.ndarray, y: np.ndarray) -> float:
    """10 log10(255^2 / mse), capped at 99 dB for identical inputs."""
    if np.asarray(x).shape != np.asarray(y).shape:
        raise ValueError(f"psnr: shape mismatch {np.shape(x)} vs {np.shape(y)}")
    return _psnr_from_mse(float(np.mean((np.asarray(x, dtype=np.float64) - y) ** 2)), 255.0)


def _psnr_from_mse(err: float, peak: float) -> float:
    if err <= 0.0:
        return PSNR_CAP_DB
    return float(min(10.0 * np.log10(peak * peak / err), PSNR_CAP_DB))


def bpp(n_bytes: int, height: int, width: int) -> float:
    """Bits per pixel of the original (uncropped) image."""
    return 8.0 * n_bytes / (height * width)


# -- losses ------------------------------------------------------------------------


def _forward_conditionals(model: FlowModel, hs: list[Tensor]):
    """[(mu2, sigma2), (mu1, sigma1)] from the forward features [h2, h1]."""
    return [model.conditioning_params(level, h) for level, h in enumerate(hs)]


def _dequant_noise(rng: np.random.Generator, cfg: TrainConfig,
                   batch: np.ndarray) -> np.ndarray:
    return rng.uniform(0.0, cfg.dequant_amplitude, size=batch.shape)


def _squared_error(x: Tensor, y: Tensor) -> Tensor:
    diff = T.sub(x, y)
    return T.div(T.reduce_sum(T.mul(diff, diff)), float(diff.size))


def nll_loss(model: FlowModel, batch: np.ndarray, cfg: TrainConfig,
             rng: np.random.Generator) -> Tensor:
    """Mean over the batch of total bits of the dequantized batch under
    the bin-integrated models at the training step size; no Jacobian term
    exists because every layer is volume preserving."""
    x = Tensor(batch + _dequant_noise(rng, cfg, batch))
    zs, hs = model.forward(x)
    rate = latent_rate_bits(zs, model.prior, _forward_conditionals(model, hs),
                            (cfg.delta_train,) * 3)
    return T.div(rate, float(batch.shape[0]))


def rd_terms(model: FlowModel, batch: np.ndarray, cfg: TrainConfig,
             quantize_fn, substitute_fn):
    """(rate_bits_per_image, mse_full, mse_sampled) for one batch.

    `quantize_fn(z, delta, k)` produces the coded latent of z_k;
    `substitute_fn(mu, delta)` produces the sampling-path stand-ins.
    Injecting these keeps one shared graph for training (dithered
    rounding, mean symbols) and for the smooth gradient-check variant.

    The rate term conditions on the forward features (cheap).  Both
    reconstructions walk the decoder chain from one base point, the
    level-2 inverse of the quantized base latent, which they share: the
    full one inverts the quantized z1 and z2, and the sampling path walks
    exactly like a one-level decode, each conditional mean coming from
    features rebuilt off the quantized base latent and the
    already-substituted deeper levels.
    """
    x = Tensor(batch)
    zs, hs = model.forward(x)
    d = cfg.delta_train
    z_hat = LatentSet(quantize_fn(zs.z2, d, 2), quantize_fn(zs.z1, d, 1),
                      quantize_fn(zs.z0, d, 0))
    rate = T.div(
        latent_rate_bits(z_hat, model.prior, _forward_conditionals(model, hs), (d,) * 3),
        float(batch.shape[0]),
    )
    base = DecoderChain.start(model, z_hat.z0)
    x_full = base.invert(z_hat.z1).invert(z_hat.z2).features
    chain = base
    for _ in range(LEVELS - 1):  # z1, then z2, stand in as substituted means
        chain = chain.invert(substitute_fn(chain.conditionals()[0], d))

    return rate, _squared_error(x, x_full), _squared_error(x, chain.features)


def rd_loss(model: FlowModel, batch: np.ndarray, cfg: TrainConfig,
            rng: np.random.Generator):
    """Training objective: rate + lambda * (full + sampling distortion).

    Universal quantization with one shared dither draw per latent tensor
    per step; mean-symbol substitution on the sampling path.
    """
    draws = {level: draw_noise(rng, cfg.delta_train) for level in (2, 1, 0)}

    def quantize_fn(z, delta, level):
        return universal_quantize(z, delta, draws[level])

    rate, err_full, err_sampled = rd_terms(model, batch, cfg, quantize_fn, mean_symbol)
    loss = T.add(rate, T.mul(T.add(err_full, err_sampled), cfg.lambda_rd))
    return loss, {
        "rate": rate.item(),
        "distortion": err_full.item() + err_sampled.item(),
        "mse_full": err_full.item(),
        "psnr": _psnr_from_mse(err_full.item(), cfg.pixel_scale),
    }


# -- corpus ------------------------------------------------------------------------


def _check_corpus(model: FlowModel, images, patch: int = 1) -> None:
    """Refuse an empty corpus, or one holding an image that is not a
    finite (C, H, W) array with the model's C and extents of at least
    `patch`.  Reads the images only: no copy, no conversion, no draws."""
    if len(images) == 0:
        raise ValueError("empty corpus")
    channels = model.config.in_channels
    for i, img in enumerate(images):
        shape = np.shape(img)
        if len(shape) != 3 or shape[0] != channels:
            raise ValueError(f"corpus image {i} has shape {shape}, expected "
                             f"({channels}, height, width) for the model")
        if min(shape[1:]) < patch:
            raise ValueError(f"corpus image {i} of shape {shape} is smaller than "
                             f"{patch}x{patch}")
        if not np.isfinite(img).all():
            raise ValueError(f"corpus image {i} contains non-finite values")


def sample_batch(corpus: list[np.ndarray], rng: np.random.Generator,
                 batch_size: int, patch: int) -> np.ndarray:
    """Random crops of random corpus images, stacked to (B,C,patch,patch).
    The corpus is one `train()` has checked: non-empty, every image at
    least patch x patch."""
    out = np.empty((batch_size, corpus[0].shape[0], patch, patch), dtype=np.float64)
    for b in range(batch_size):
        img = corpus[int(rng.integers(len(corpus)))]
        _, h, w = img.shape
        top = int(rng.integers(h - patch + 1))
        left = int(rng.integers(w - patch + 1))
        out[b] = img[:, top : top + patch, left : left + patch]
    return out


# -- training loop -----------------------------------------------------------------


def train(model: FlowModel, corpus: list[np.ndarray], cfg: TrainConfig,
          metrics_path=None) -> list[dict]:
    """Optimize the model in place; returns per-step metric rows.

    Deterministic under a fixed config seed: batch sampling, dequant
    noise and dither draws all come from one seeded generator.  After
    warm-up, a row's `nll` is nan unless `NLL_EVERY` divides its step;
    the metric's noise is drawn on every step, so the trained model does
    not depend on `NLL_EVERY`.  An empty corpus, or an image that is not
    a finite (C, H, W) array on the model's channels with both extents at
    least `cfg.patch`, raises ValueError before the first step.
    """
    cfg.validate()
    _check_corpus(model, corpus, cfg.patch)
    rng = np.random.default_rng(cfg.seed)
    opt = AdaMax(model.params.tensors(), lr=cfg.lr, beta1=cfg.beta1,
                 beta2=cfg.beta2, eps=cfg.eps)
    history: list[dict] = []
    writer = open(metrics_path, "w") if metrics_path else None
    try:
        if writer:
            writer.write("step,nll,rate,distortion,psnr\n")
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss raises below
            for step in range(cfg.steps):
                batch = sample_batch(corpus, rng, cfg.batch_size, cfg.patch)
                model.params.zero_grads()
                if step < cfg.warmup_steps:
                    loss = nll_loss(model, batch, cfg, rng)
                    row = {"step": step, "nll": loss.item(), "rate": loss.item(),
                           "distortion": float("nan"), "psnr": float("nan"),
                           "loss": loss.item()}
                else:
                    loss, parts = rd_loss(model, batch, cfg, rng)
                    if step % NLL_EVERY == 0:
                        with no_grad():
                            nll_now = nll_loss(model, batch, cfg, rng).item()
                    else:
                        _dequant_noise(rng, cfg, batch)  # nll_loss's draw, so later batches stay
                        nll_now = float("nan")
                    row = {"step": step, "nll": nll_now, "rate": parts["rate"],
                           "distortion": parts["distortion"], "psnr": parts["psnr"],
                           "loss": loss.item()}
                if not np.isfinite(loss.item()):
                    raise NumericError(f"training loss became non-finite at step {step}")
                loss.backward()
                opt.step()
                history.append(row)
                if writer:
                    writer.write(
                        f"{row['step']},{row['nll']!r},{row['rate']!r},"
                        f"{row['distortion']!r},{row['psnr']!r}\n"
                    )
    finally:
        if writer:
            writer.close()
    return history


# -- quantization-step tuning ---------------------------------------------------------


def finetune_deltas(model: FlowModel, images: list[np.ndarray], lam: float,
                    steps: int = 120) -> QuantSpec:
    """Tune the step set of a trained model for one rate weight.

    Tuning works on a frozen copy of the model, with every parameter off
    the tape, so the caller's model is only read: its parameters gain no
    gradient and other threads may go on coding with it.  Steps are
    optimized as log-values (positivity), with gradients flowing through
    the straight-through grid rounding and the bin-probability formulas.
    One Adam pass runs at TUNING_LR; a non-finite loss, or non-finite
    steps after the last update, raises NumericError.  The result is
    snapped to the steps a header can carry.
    """
    if not 0 < lam < np.inf:  # NaN fails too
        raise ValueError(f"lambda must be positive and finite, got {lam!r}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    _check_corpus(model, images)
    frozen = FlowModel.from_bytes(model.to_bytes())
    for p in frozen.params.tensors():
        p.requires_grad = False

    cached = []  # (x, latents, conditionals) per image, all off the tape
    for img in images:
        x = Tensor(pad(np.asarray(img, dtype=np.float64))[None])
        zs, hs = frozen.forward(x)
        cached.append((x, zs, _forward_conditionals(frozen, hs)))

    log_steps = [Tensor(np.array(0.0), requires_grad=True),
                 Tensor(np.array(0.0), requires_grad=True),
                 Tensor(np.zeros(frozen.base_channels), requires_grad=True)]
    opt = Adam(log_steps, lr=TUNING_LR)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss raises below
        for step in range(steps):
            for p in log_steps:
                p.zero_grad()
            total = None
            for x, zs, conditionals in cached:
                d2, d1, d0 = (T.exp(p) for p in log_steps)
                z = LatentSet(round_to_grid(zs.z2, d2), round_to_grid(zs.z1, d1),
                              round_to_grid(zs.z0, T.reshape(d0, 1, -1, 1, 1)))
                rate = latent_rate_bits(z, frozen.prior, conditionals, (d2, d1, d0))
                err = _squared_error(x, frozen.inverse(z))
                term = T.add(rate, T.mul(err, lam))
                total = term if total is None else T.add(total, term)
            loss = T.div(total, float(len(cached)))
            if not np.isfinite(loss.item()):
                raise NumericError(f"step tuning diverged: non-finite loss at step {step}")
            loss.backward()
            opt.step()
    if not all(np.all(np.isfinite(p.data)) for p in log_steps):
        raise NumericError("step tuning diverged: non-finite steps after the last update")
    # QuantSpec snaps each step to its grid; a step tuned past a grid's end takes the end
    ends = [LEVEL_STEP_INDICES, LEVEL_STEP_INDICES, BASE_STEP_INDICES]
    d2, d1, d0 = (np.clip(np.exp(p.data), grid_step(lo), grid_step(hi))
                  for p, (lo, hi) in zip(log_steps, ends))
    return QuantSpec(float(d2), float(d1), d0)
