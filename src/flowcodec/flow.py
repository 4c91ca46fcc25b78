"""Bijective multi-level image transform.

Three levels of one type, `FlowLevel`, each: 2x2 space-to-depth, K
additive coupling steps over seeded channel permutations, then a
factor-out that emits half the channels as that level's latent and
passes the rest on.  The deepest level emits everything that remains as
the base latent.  Every layer has unit Jacobian determinant, so the
composed map is exactly volume preserving and the inverse is closed
form.

Channel bookkeeping for input channels c: level 0 processes 4c and
emits z2 of 2c channels; level 1 processes 4*(2c) and emits z1 of 4c;
level 2 emits all 16c remaining channels at 1/8 spatial resolution as
the base latent z0.  Total latent elements always equal input elements.
Latents travel in this level order as a `LatentSet` (z2, z1, z0); the
coder sends them in reverse.

The inverse has one walk, the immutable `DecoderChain`: it starts at z0
and inverts one level per step, and the conditionals of the next latent
come from the features it has rebuilt.  `FlowModel.inverse`, the codec,
the trainer's sampling path and step tuning all walk it.

Each level draws its permutations and coupling partitions once from the
model seed, composes them into one channel order, and rebuilds them from
the seed when a model file is loaded; the conditioning networks are
small residual stacks whose output convolutions start at zero, so a
freshly built model is the identity map with unit-scale conditionals.

The transform computes in float64 for every model: `forward` promotes
the image and `DecoderChain` the latents, so a float32 model
stores its parameters at 32 bits but rounds like a float64 one.  Additive
couplings on raw [0, 255] pixels lose about one float32 ulp per
coupling, and the inverse's conditioners, fed inputs an ulp away from
the forward's, would compound that across the six couplings.

A model is immutable after load for inference; concurrent encodes and
decodes over a shared model are safe.  Training mutates parameters and
requires exclusive access; it rebinds each parameter to a new array,
and never writes one in place (see `FlowModel.model_id`).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from . import tensor as T
from .entropy import PRIOR_DEPTH, PRIOR_INIT_SCALE, PRIOR_WIDTH, FactorizedPrior
from .errors import FormatError
from .conv import conv2d
from .params import DTYPES, ParamStore
from .tensor import Tensor

MODEL_MAGIC = b"NFC1"
MODEL_VERSION = 1
# An NFC1 model file is this header, the parameter blob, then the SHA-256 of
# both.  Fields: magic, version, dtype code, levels, steps, blocks, hidden,
# in_channels, seed, prior width, prior depth, prior init scale, blob bytes.
# The prior fields always hold entropy's fixed (3, 4, 64.0).
MODEL_HEADER = struct.Struct("<4sBBBBBHHQBBdQ")
LEVELS = 3
LOG_SCALE_BOUND = 7.0


@dataclass
class FlowConfig:
    """Architecture knobs of the flow; the desk-scale defaults train in
    minutes.  The base prior's shape is fixed (`entropy.PRIOR_WIDTH` and
    its siblings)."""

    in_channels: int = 3
    steps: int = 2          # couplings per level
    blocks: int = 1         # residual blocks in each conditioning net
    hidden: int = 16        # hidden channels of the conditioning nets
    seed: int = 0
    dtype: str = "float64"  # parameter storage; the transform runs in float64

    def validate(self) -> None:
        if self.in_channels < 1 or self.steps < 1 or self.blocks < 1 or self.hidden < 1:
            raise ValueError("in_channels, steps, blocks and hidden must be >= 1")
        # the widths of the model file header's fields
        if max(self.steps, self.blocks) > 255:
            raise ValueError("steps and blocks must be <= 255")
        if max(self.in_channels, self.hidden) > 65535:
            raise ValueError("in_channels and hidden must be <= 65535")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"unsupported dtype {self.dtype}")

    def param_count(self) -> int:
        """Parameter elements of a model with this config, counted without
        building one (mirrors the constructors below)."""
        h = self.hidden

        def resnet(in_ch: int, out_ch: int) -> int:
            return 9 * h * (in_ch + out_ch) + h + out_ch + 2 * self.blocks * (9 * h * h + h)

        total, c = 0, self.in_channels
        for i in range(LEVELS):
            half = 2 * c  # the level squeezes c to 4c channels
            total += self.steps * resnet(half, half)
            if i < LEVELS - 1:
                total += resnet(half, 2 * half)
                c = half
        widths = [1] + [PRIOR_WIDTH] * (PRIOR_DEPTH - 1) + [1]
        for k in range(PRIOR_DEPTH):
            gated = k < PRIOR_DEPTH - 1
            total += 4 * c * widths[k + 1] * (widths[k] + 1 + gated)
        return total


class LatentSet(NamedTuple):
    """The latents in level order: z2, z1, then the base latent z0.  Holds
    Tensors from `forward`, shapes from `latent_shapes` or decoded arrays."""

    z2: Any
    z1: Any
    z0: Any


def latent_shapes(channels: int, h: int, w: int) -> LatentSet:
    """(channels, height, width) of each latent of a `channels`-channel
    h x w input (the module docstring's bookkeeping), with no model."""
    return LatentSet((2 * channels, h // 2, w // 2), (4 * channels, h // 4, w // 4),
                     (16 * channels, h // 8, w // 8))


def pad(image: np.ndarray) -> np.ndarray:
    """Mirror-pad (C,H,W) on the bottom/right to multiples of 2 ** LEVELS,
    the extents the transform takes."""
    _, h, w = image.shape
    ph, pw = (-h) % 2 ** LEVELS, (-w) % 2 ** LEVELS
    if ph == 0 and pw == 0:
        return image
    # a pad wider than the image repeats the reflection
    return np.pad(image, ((0, 0), (0, ph), (0, pw)), mode="symmetric")


class ResNet:
    """stem conv, `blocks` residual blocks, zero-initialized head conv."""

    def __init__(self, store: ParamStore, name: str, in_ch: int, out_ch: int,
                 blocks: int, hidden: int, rng: np.random.Generator, dtype):
        def he(shape, fan_in):
            return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)

        self.stem_k = store.add(f"{name}.stem.kernel",
                                Tensor(he((hidden, in_ch, 3, 3), in_ch * 9), requires_grad=True))
        self.stem_b = store.add(f"{name}.stem.bias",
                                Tensor(np.zeros(hidden, dtype=dtype), requires_grad=True))
        self.block_params = []
        for b in range(blocks):
            k1 = store.add(f"{name}.block{b}.conv1.kernel",
                           Tensor(he((hidden, hidden, 3, 3), hidden * 9), requires_grad=True))
            b1 = store.add(f"{name}.block{b}.conv1.bias",
                           Tensor(np.zeros(hidden, dtype=dtype), requires_grad=True))
            k2 = store.add(f"{name}.block{b}.conv2.kernel",
                           Tensor(he((hidden, hidden, 3, 3), hidden * 9), requires_grad=True))
            b2 = store.add(f"{name}.block{b}.conv2.bias",
                           Tensor(np.zeros(hidden, dtype=dtype), requires_grad=True))
            self.block_params.append((k1, b1, k2, b2))
        self.head_k = store.add(f"{name}.head.kernel",
                                Tensor(np.zeros((out_ch, hidden, 3, 3), dtype=dtype), requires_grad=True))
        self.head_b = store.add(f"{name}.head.bias",
                                Tensor(np.zeros(out_ch, dtype=dtype), requires_grad=True))

    def __call__(self, x: Tensor) -> Tensor:
        h = T.relu(conv2d(x, self.stem_k, self.stem_b))
        for k1, b1, k2, b2 in self.block_params:
            h = T.add(h, conv2d(T.relu(conv2d(h, k1, b1)), k2, b2))
        return conv2d(h, self.head_k, self.head_b)


class FlowLevel:
    """squeeze, K coupling steps, then, below the base level, a factor-out:
    the first `emit` channels leave as this level's latent and the rest
    continue to the next level, and `phi` maps the continued half to the
    (mean, log-scale) of the emitted one.  The base level emits all its
    channels and has no `phi`.

    Each step permutes the channels by a seeded permutation, then applies
    an additive coupling (NICE) over a seeded half/half split: half a
    passes through and half b becomes b + t(a), so the Jacobian
    determinant is 1 and the inverse subtracts.  The permutations are
    composed once, here: `order` lists the squeezed input's channels as
    the last permutation leaves them, and each step's (a, b, restore, t)
    indexes the squeezed input's channels directly; `restore` puts the
    concatenation (a, b + t(a)) back at those indices."""

    def __init__(self, store: ParamStore, name: str, in_ch: int, steps: int,
                 blocks: int, hidden: int, last: bool,
                 struct_rng: np.random.Generator, weight_rng: np.random.Generator, dtype):
        channels = in_ch * 4
        half = channels // 2
        self.channels = channels
        self.couplings: list[tuple[np.ndarray, np.ndarray, np.ndarray, ResNet]] = []
        order = np.arange(channels)
        for k in range(steps):
            order = order[struct_rng.permutation(channels)]
            partition = struct_rng.permutation(channels)
            a, b = order[np.sort(partition[:half])], order[np.sort(partition[half:])]
            t = ResNet(store, f"{name}.step{k}.coupling.t", half, half, blocks, hidden,
                       weight_rng, dtype)
            self.couplings.append((a, b, np.argsort(np.concatenate([a, b])), t))
        self.order, self.inv_order = order, np.argsort(order)
        self.emit = channels if last else half
        self.phi: ResNet | None = None
        if not last:
            self.phi = ResNet(store, f"{name}.factor.phi", self.emit, 2 * self.emit,
                              blocks, hidden, weight_rng, dtype)

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor | None]:
        """(latent, continued features); the base level continues None."""
        x = T.squeeze2x2(x)
        for a, b, restore, t in self.couplings:
            xa = T.take_channels(x, a)
            x = T.take_channels(T.concat_channels([xa, T.add(T.take_channels(x, b), t(xa))]),
                                restore)
        if self.phi is None:
            return T.take_channels(x, self.order), None
        return (T.take_channels(x, self.order[: self.emit]),
                T.take_channels(x, self.order[self.emit :]))

    def inverse(self, z: Tensor, h: Tensor | None) -> Tensor:
        x = z if self.phi is None else T.concat_channels([z, h])
        if x.shape[1] != self.channels:
            raise ValueError(f"flow level expects {self.channels} channels, got {x.shape[1]}")
        x = T.take_channels(x, self.inv_order)
        for a, b, restore, t in reversed(self.couplings):
            xa = T.take_channels(x, a)
            x = T.take_channels(T.concat_channels([xa, T.sub(T.take_channels(x, b), t(xa))]),
                                restore)
        return T.unsqueeze2x2(x)

    def conditioning(self, h: Tensor) -> tuple[Tensor, Tensor]:
        """(mu, sigma) per emitted element; sigma = exp(s), s in [-7, 7]."""
        out = self.phi(h)
        mu = T.take_channels(out, np.arange(self.emit))
        s = T.take_channels(out, np.arange(self.emit, 2 * self.emit))
        sigma = T.exp(T.clip(s, -LOG_SCALE_BOUND, LOG_SCALE_BOUND))
        return mu, sigma


class FlowModel:
    """The composed bijection plus the base-latent prior.

    `forward` maps an image tensor to its three latents (and the
    continued features used for conditioning); `inverse` is its exact
    functional inverse; both carry gradients.

    Each part adds its own parameters to `params` as it creates them: the
    levels' `ResNet`s in level order, then the `FactorizedPrior`.  That
    order is the parameter blob's.  `base_channels` counts z0's channels.

    `model_id` hashes the model once per set of parameter arrays: the
    id is cached with the arrays it hashed, and those arrays become
    read-only, so an in-place write raises instead of leaving a stale
    id.  The optimizers and `ParamStore.load_bytes` rebind parameters to
    new arrays, so after training or loading the next `model_id` hashes
    again.  `config` is fixed once the model is built.
    """

    def __init__(self, config: FlowConfig):
        config.validate()
        self.config = config
        dtype = np.dtype(config.dtype)
        self.params = ParamStore()
        ss = np.random.SeedSequence(config.seed)
        struct_seed, weight_seed = ss.spawn(2)
        struct_rng = np.random.default_rng(struct_seed)
        weight_rng = np.random.default_rng(weight_seed)

        self.levels: list[FlowLevel] = []
        c = config.in_channels
        for i in range(LEVELS):
            self.levels.append(FlowLevel(self.params, f"level{i}", c, config.steps,
                                         config.blocks, config.hidden, i == LEVELS - 1,
                                         struct_rng, weight_rng, dtype))
            c = self.levels[-1].emit  # a non-base level continues as many as it emits
        self.base_channels = c
        self.prior = FactorizedPrior(self.params, c, weight_rng, dtype)
        self._id: tuple[list[np.ndarray], bytes] | None = None  # see model_id

    # -- shapes ---------------------------------------------------------------

    @property
    def dtype(self):
        return np.dtype(self.config.dtype)

    def check_input(self, x: Tensor) -> None:
        if x.ndim != 4 or x.shape[1] != self.config.in_channels:
            raise ValueError(
                f"expected (n, {self.config.in_channels}, h, w) input, got {x.shape}"
            )
        div = 2 ** LEVELS
        if x.shape[2] % div or x.shape[3] % div:
            raise ValueError(
                f"spatial extents {x.shape[2]}x{x.shape[3]} not divisible by {div}; "
                "pad before the transform"
            )

    # -- bijection --------------------------------------------------------------

    def forward(self, x: Tensor) -> tuple[LatentSet, list[Tensor]]:
        """Image to latents: the `LatentSet` of Tensors and the continued
        features [h2, h1] that condition z2 and z1, all float64."""
        self.check_input(x)
        zs, hs = [], []
        h = T.astype(x, np.float64)
        for level in self.levels:
            z, h = level.forward(h)
            zs.append(z)
            hs.append(h)
        return LatentSet(*zs), hs[:-1]  # the base level continues no features

    def inverse(self, zs) -> Tensor:
        """Latents (z2, z1, z0), as from `forward`, back to the image in
        float64, by the `DecoderChain` walk."""
        z2, z1, z0 = zs
        return DecoderChain.start(self, z0).invert(z1).invert(z2).features

    def reconstruct_features(self, level: int, z, h: Tensor | None) -> Tensor:
        """One `DecoderChain` step: `level`'s inverse on its latent z and the
        features h rebuilt below it (None at the base); the image at level 0."""
        return self.levels[level].inverse(T.astype(z, np.float64), h)

    def conditioning_params(self, level: int, h: Tensor) -> tuple[Tensor, Tensor]:
        if self.levels[level].phi is None:
            raise ValueError(f"level {level} emits the base latent; no conditioning")
        return self.levels[level].conditioning(h)

    # -- serialization -------------------------------------------------------------

    def to_bytes(self) -> bytes:
        cfg = self.config
        blob = self.params.to_bytes()
        body = MODEL_HEADER.pack(
            MODEL_MAGIC, MODEL_VERSION, DTYPES.index(self.dtype), LEVELS,
            cfg.steps, cfg.blocks, cfg.hidden, cfg.in_channels, cfg.seed,
            PRIOR_WIDTH, PRIOR_DEPTH, PRIOR_INIT_SCALE, len(blob),
        ) + blob
        return body + hashlib.sha256(body).digest()

    @property
    def model_id(self) -> bytes:
        """16-byte content hash identifying parameters and architecture.

        Cached with the parameter arrays it hashed, which become read-only
        then; it is hashed again once a parameter holds another array."""
        arrays = [t.data for t in self.params.tensors()]
        cached = self._id
        if cached is not None and len(cached[0]) == len(arrays) and all(
                a is b for a, b in zip(cached[0], arrays)):
            return cached[1]
        for a in arrays:
            a.flags.writeable = False
        model_id = hashlib.sha256(self.to_bytes()).digest()[:16]
        self._id = (arrays, model_id)
        return model_id

    def save(self, path) -> None:
        raw = self.to_bytes()  # before the file opens, so a failed save writes nothing
        with open(path, "wb") as fh:
            fh.write(raw)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "FlowModel":
        if raw[:4] != MODEL_MAGIC:
            raise FormatError(f"bad model magic {raw[:4]!r}")
        body, digest = raw[:-32], raw[-32:]
        if hashlib.sha256(body).digest() != digest:
            raise FormatError("model file content hash mismatch")
        try:
            (_, version, dtype_code, levels, steps, blocks, hidden, in_channels, seed,
             *prior, blob_len) = MODEL_HEADER.unpack_from(body)
        except struct.error:
            raise FormatError("model file truncated inside the header") from None
        if version != MODEL_VERSION:
            raise FormatError(f"unsupported model version {version}")
        if levels != LEVELS:
            raise FormatError(f"model declares {levels} levels; this build uses {LEVELS}")
        if dtype_code >= len(DTYPES):
            raise FormatError(f"unknown model dtype code {dtype_code}")
        fixed = (PRIOR_WIDTH, PRIOR_DEPTH, PRIOR_INIT_SCALE)
        if tuple(prior) != fixed:  # NaN differs too
            raise FormatError(f"bad model header: prior (width, depth, scale) "
                              f"{tuple(prior)} is not {fixed}")
        blob = body[MODEL_HEADER.size:]
        if len(blob) != blob_len:
            raise FormatError("model file truncated")
        config = FlowConfig(in_channels=in_channels, steps=steps, blocks=blocks, hidden=hidden,
                            seed=seed, dtype=DTYPES[dtype_code].name)
        try:
            config.validate()
        except ValueError as exc:
            raise FormatError(f"bad model header: {exc}") from None
        # refuse before building: the header alone could ask for any size
        needed = config.param_count() * DTYPES[dtype_code].itemsize
        if blob_len < needed:
            raise FormatError(
                f"parameter blob of {blob_len} bytes cannot hold the {needed} bytes "
                "the header's architecture needs"
            )
        model = cls(config)
        model.params.load_bytes(blob)
        return model

    @classmethod
    def load(cls, path) -> "FlowModel":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


@dataclass(frozen=True)
class DecoderChain:
    """One point of the decoder's walk from the base latent up to the image:

        z0 -> h1 -> (mu1, sigma1) -> z1 -> h2 -> (mu2, sigma2) -> z2 -> x

    `start(model, z0)` inverts the base level; `conditionals()` gives
    (mean, scale) of the next latent from the features rebuilt so far, and
    `invert(z)` returns the chain one level up.  A chain is a value: it
    never changes, so a caller may stop after any level or branch two
    walks from one point.  Encoder, decoder, `FlowModel.inverse`, the
    trainer's sampling path and step tuning all walk this chain, so their
    features and conditionals agree bit for bit on equal latents.
    """

    model: FlowModel
    level: int         # the level whose latent `invert` takes next; -1 at the image
    features: Tensor   # continued features, or the float64 image at level -1

    @classmethod
    def start(cls, model: FlowModel, z0) -> "DecoderChain":
        return cls(model, LEVELS - 2, model.reconstruct_features(LEVELS - 1, z0, None))

    def conditionals(self) -> tuple[Tensor, Tensor]:
        """(mu, sigma) of the latent that `invert` takes next."""
        return self.model.conditioning_params(self.level, self.features)

    def invert(self, z) -> "DecoderChain":
        """The chain after inverting the next level on its latent z."""
        return DecoderChain(self.model, self.level - 1,
                            self.model.reconstruct_features(self.level, z, self.features))
