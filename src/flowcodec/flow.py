"""Bijective multi-level image transform.

Three levels, each: 2x2 space-to-depth, K steps of (seeded random
channel permutation, additive coupling), then a factor-out that emits
half the channels as that level's latent and passes the rest on.  The
deepest level emits everything that remains as the base latent.  Every
layer has unit Jacobian determinant, so the composed map is exactly
volume preserving and the inverse is closed form.

Channel bookkeeping for input channels c: level 1 processes 4c and
emits 2c; level 2 processes 4*(2c) and emits 4c; level 3 emits all 16c
remaining channels at 1/8 spatial resolution.  Total latent elements
always equal input elements.

The permutation and coupling partitions are drawn once from the model
seed and rebuilt from it when a model file is loaded; the conditioning
networks are small residual stacks whose output convolutions start at
zero, so a freshly built model is the identity map with unit-scale
conditionals.

The transform computes in float64 for every model: `forward` promotes
the image, `inverse` and `DecoderChain` the latents, so a float32 model
stores its parameters at 32 bits but rounds like a float64 one.  Additive
couplings on raw [0, 255] pixels lose about one float32 ulp per
coupling, and the inverse's conditioners, fed inputs an ulp away from
the forward's, would compound that across the six couplings.

A model is immutable after load for inference; concurrent encodes and
decodes over a shared model are safe.  Training mutates parameters and
requires exclusive access.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .entropy import FactorizedPrior
from .errors import FormatError
from .conv import conv2d
from .params import _CODE_DTYPES, _DTYPE_CODES, ParamStore
from .tensor import Tensor

MODEL_MAGIC = b"NFC1"
MODEL_VERSION = 1
LEVELS = 3
LOG_SCALE_BOUND = 7.0


@dataclass
class FlowConfig:
    """Architecture knobs; the desk-scale defaults train in minutes."""

    in_channels: int = 3
    steps: int = 2          # couplings per level
    blocks: int = 1         # residual blocks in each conditioning net
    hidden: int = 16        # hidden channels of the conditioning nets
    seed: int = 0
    prior_width: int = 3
    prior_depth: int = 4
    prior_init_scale: float = 64.0
    dtype: str = "float64"  # parameter storage; the transform runs in float64

    def validate(self) -> None:
        if self.in_channels < 1 or self.steps < 1 or self.blocks < 1 or self.hidden < 1:
            raise ValueError("in_channels, steps, blocks and hidden must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"unsupported dtype {self.dtype}")
        if self.prior_width < 1 or self.prior_depth < 2:
            raise ValueError("the prior needs width >= 1 and at least 2 stages")

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
        widths = [1] + [self.prior_width] * (self.prior_depth - 1) + [1]
        for k in range(self.prior_depth):
            gated = k < self.prior_depth - 1
            total += 4 * c * widths[k + 1] * (widths[k] + 1 + gated)
        return total


@dataclass
class LatentSet:
    """The (z0, z1, z2) triple; z0 is the deepest (base) latent."""

    z0: np.ndarray
    z1: np.ndarray
    z2: np.ndarray


class ResNet:
    """stem conv, `blocks` residual blocks, zero-initialized head conv."""

    def __init__(self, store: ParamStore, name: str, in_ch: int, out_ch: int,
                 blocks: int, hidden: int, rng: np.random.Generator, dtype):
        self.blocks = blocks

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


class AdditiveCoupling:
    """v = (u_a, u_b + t(u_a)) over a fixed random half/half channel split.

    Volume preserving (unit Jacobian determinant); the inverse subtracts
    the same conditioner output.
    """

    def __init__(self, store: ParamStore, name: str, channels: int,
                 partition: np.ndarray, blocks: int, hidden: int,
                 rng: np.random.Generator, dtype):
        half = channels // 2
        if channels % 2:
            raise ValueError(f"coupling needs an even channel count, got {channels}")
        self.idx_a = np.sort(partition[:half])
        self.idx_b = np.sort(partition[half:])
        self.unscramble = np.argsort(np.concatenate([self.idx_a, self.idx_b]))
        self.t = ResNet(store, f"{name}.t", half, half, blocks, hidden, rng, dtype)

    def _check(self, u: Tensor) -> None:
        if u.shape[1] != self.idx_a.size + self.idx_b.size:
            raise ValueError(
                f"coupling expects {self.idx_a.size + self.idx_b.size} channels, got {u.shape[1]}"
            )

    def forward(self, u: Tensor) -> Tensor:
        self._check(u)
        ua = T.take_channels(u, self.idx_a)
        ub = T.take_channels(u, self.idx_b)
        vb = T.add(ub, self.t(ua))
        return T.take_channels(T.concat_channels([ua, vb]), self.unscramble)

    def inverse(self, v: Tensor) -> Tensor:
        self._check(v)
        va = T.take_channels(v, self.idx_a)
        vb = T.take_channels(v, self.idx_b)
        ub = T.sub(vb, self.t(va))
        return T.take_channels(T.concat_channels([va, ub]), self.unscramble)


class FactorOut:
    """Split channels into an emitted half and a continued half, with a
    conditioning net mapping the continued half to (mean, log-scale) for
    the emitted one."""

    def __init__(self, store: ParamStore, name: str, channels: int,
                 blocks: int, hidden: int, rng: np.random.Generator, dtype):
        self.emit = channels // 2
        self.phi = ResNet(store, f"{name}.phi", self.emit, 2 * self.emit,
                          blocks, hidden, rng, dtype)

    def split(self, x: Tensor) -> tuple[Tensor, Tensor]:
        z = T.take_channels(x, np.arange(self.emit))
        h = T.take_channels(x, np.arange(self.emit, 2 * self.emit))
        return z, h

    def merge(self, z: Tensor, h: Tensor) -> Tensor:
        return T.concat_channels([z, h])

    def conditioning(self, h: Tensor) -> tuple[Tensor, Tensor]:
        """(mu, sigma) per emitted element; sigma = exp(s), s in [-7, 7]."""
        out = self.phi(h)
        mu = T.take_channels(out, np.arange(self.emit))
        s = T.take_channels(out, np.arange(self.emit, 2 * self.emit))
        sigma = T.exp(T.clip(s, -LOG_SCALE_BOUND, LOG_SCALE_BOUND))
        return mu, sigma


class FlowLevel:
    """squeeze, K x (permutation, coupling), optional factor-out."""

    def __init__(self, store: ParamStore, name: str, in_ch: int, steps: int,
                 blocks: int, hidden: int, last: bool,
                 struct_rng: np.random.Generator, weight_rng: np.random.Generator, dtype):
        channels = in_ch * 4
        self.channels = channels
        self.perms: list[np.ndarray] = []
        self.inv_perms: list[np.ndarray] = []
        self.couplings: list[AdditiveCoupling] = []
        for k in range(steps):
            perm = struct_rng.permutation(channels)
            self.perms.append(perm)
            self.inv_perms.append(np.argsort(perm))
            partition = struct_rng.permutation(channels)
            self.couplings.append(
                AdditiveCoupling(store, f"{name}.step{k}.coupling", channels,
                                 partition, blocks, hidden, weight_rng, dtype)
            )
        self.factor: FactorOut | None = None
        if not last:
            self.factor = FactorOut(store, f"{name}.factor", channels,
                                    blocks, hidden, weight_rng, dtype)

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor | None]:
        x = T.squeeze2x2(x)
        for perm, coupling in zip(self.perms, self.couplings):
            x = coupling.forward(T.take_channels(x, perm))
        if self.factor is None:
            return x, None
        return self.factor.split(x)

    def inverse(self, z: Tensor, h: Tensor | None) -> Tensor:
        x = z if self.factor is None else self.factor.merge(z, h)
        for inv_perm, coupling in zip(reversed(self.inv_perms), reversed(self.couplings)):
            x = T.take_channels(coupling.inverse(x), inv_perm)
        return T.unsqueeze2x2(x)


class FlowModel:
    """The composed bijection plus the base-latent prior.

    `forward` maps an image tensor to its three latents (and the
    continued features used for conditioning); `inverse` is its exact
    functional inverse; both carry gradients.
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
        self.latent_channels: list[int] = []
        c = config.in_channels
        for i in range(LEVELS):
            last = i == LEVELS - 1
            level = FlowLevel(self.params, f"level{i}", c, config.steps,
                              config.blocks, config.hidden, last,
                              struct_rng, weight_rng, dtype)
            self.levels.append(level)
            if last:
                self.latent_channels.append(level.channels)
            else:
                self.latent_channels.append(level.channels // 2)
                c = level.channels // 2

        self.prior = FactorizedPrior(
            channels=self.latent_channels[-1],
            width=config.prior_width,
            depth=config.prior_depth,
            init_scale=config.prior_init_scale,
            rng=weight_rng,
            dtype=dtype,
        )
        for name, tensor in self.prior.parameters():
            self.params.add(f"prior.{name}", tensor)

    # -- shapes ---------------------------------------------------------------

    @property
    def base_channels(self) -> int:
        return self.latent_channels[-1]

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

    def latent_shapes(self, h: int, w: int) -> list[tuple[int, int, int]]:
        """(channels, height, width) per level for an h x w input."""
        shapes = []
        for i, ch in enumerate(self.latent_channels):
            f = 2 ** (i + 1)
            shapes.append((ch, h // f, w // f))
        return shapes

    # -- bijection --------------------------------------------------------------

    def forward(self, x: Tensor) -> tuple[list[Tensor], list[Tensor]]:
        """Image to latents.  Returns ([z2, z1, z0] in level order, [h2, h1]),
        all float64."""
        self.check_input(x)
        zs: list[Tensor] = []
        hs: list[Tensor] = []
        feed = T.astype(x, np.float64)
        for level in self.levels:
            z, h = level.forward(feed)
            zs.append(z)
            if h is not None:
                hs.append(h)
                feed = h
        return zs, hs

    def inverse(self, zs: list[Tensor]) -> Tensor:
        """Latents (level order, as from `forward`) back to the image, in
        float64."""
        if len(zs) != LEVELS:
            raise ValueError(f"expected {LEVELS} latent tensors, got {len(zs)}")
        h: Tensor | None = None
        for i in range(LEVELS - 1, -1, -1):
            h = self.levels[i].inverse(T.astype(zs[i], np.float64), h)
        return h

    def reconstruct_features(self, level: int, z, h: Tensor | None) -> Tensor:
        """One `DecoderChain` step: `level`'s inverse on its latent z and the
        features h rebuilt below it (None at the base); the image at level 0."""
        return self.levels[level].inverse(T.astype(z, np.float64), h)

    def conditioning_params(self, level: int, h: Tensor) -> tuple[Tensor, Tensor]:
        factor = self.levels[level].factor
        if factor is None:
            raise ValueError(f"level {level} emits the base latent; no conditioning")
        return factor.conditioning(h)

    # -- serialization -------------------------------------------------------------

    def _header_bytes(self) -> bytes:
        cfg = self.config
        return MODEL_MAGIC + struct.pack(
            "<BBBBBHHQBBd",
            MODEL_VERSION,
            _DTYPE_CODES[self.dtype],
            LEVELS,
            cfg.steps,
            cfg.blocks,
            cfg.hidden,
            cfg.in_channels,
            cfg.seed,
            cfg.prior_width,
            cfg.prior_depth,
            cfg.prior_init_scale,
        )

    def to_bytes(self) -> bytes:
        blob = self.params.to_bytes()
        body = self._header_bytes() + struct.pack("<Q", len(blob)) + blob
        return body + hashlib.sha256(body).digest()

    @property
    def model_id(self) -> bytes:
        """16-byte content hash identifying parameters and architecture."""
        return hashlib.sha256(self.to_bytes()).digest()[:16]

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def from_bytes(cls, raw: bytes) -> "FlowModel":
        if raw[:4] != MODEL_MAGIC:
            raise FormatError(f"bad model magic {raw[:4]!r}")
        body, digest = raw[:-32], raw[-32:]
        if hashlib.sha256(body).digest() != digest:
            raise FormatError("model file content hash mismatch")
        header_len = 4 + struct.calcsize("<BBBBBHHQBBd")
        try:
            (version, dtype_code, levels, steps, blocks, hidden, in_channels, seed,
             pw, pd, pscale) = struct.unpack_from("<BBBBBHHQBBd", body, 4)
            (blob_len,) = struct.unpack_from("<Q", body, header_len)
        except struct.error:
            raise FormatError("model file truncated inside the header") from None
        if version != MODEL_VERSION:
            raise FormatError(f"unsupported model version {version}")
        if levels != LEVELS:
            raise FormatError(f"model declares {levels} levels; this build uses {LEVELS}")
        if dtype_code not in _CODE_DTYPES:
            raise FormatError(f"unknown model dtype code {dtype_code}")
        blob = raw[header_len + 8 : header_len + 8 + blob_len]
        if len(blob) != blob_len or header_len + 8 + blob_len != len(body):
            raise FormatError("model file truncated")
        config = FlowConfig(
            in_channels=in_channels, steps=steps, blocks=blocks, hidden=hidden,
            seed=seed, prior_width=pw, prior_depth=pd, prior_init_scale=pscale,
            dtype=_CODE_DTYPES[dtype_code].name,
        )
        try:
            config.validate()
        except ValueError as exc:
            raise FormatError(f"bad model header: {exc}") from None
        # refuse before building: the header alone could ask for any size
        needed = config.param_count() * _CODE_DTYPES[dtype_code].itemsize
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


class DecoderChain:
    """The decoder's walk from the base latent up to the image:

        z0 -> h1 -> (mu1, sigma1) -> z1 -> h2 -> (mu2, sigma2) -> z2 -> x

    `conditionals()` gives (mean, scale) of the next latent from the
    features rebuilt so far and `invert(z)` inverts its level, so a caller
    may stop after any level.  Encoder, decoder and the trainer's sampling
    path all walk this chain, so their conditionals agree bit for bit on
    equal latents.
    """

    def __init__(self, model: FlowModel, z0):
        self.model = model
        self.level = LEVELS - 2  # the level whose latent `invert` takes next
        self.features = model.reconstruct_features(LEVELS - 1, z0, None)

    def conditionals(self) -> tuple[Tensor, Tensor]:
        """(mu, sigma) of the latent that `invert` takes next."""
        return self.model.conditioning_params(self.level, self.features)

    def invert(self, z) -> Tensor:
        """Invert the next level; returns its continued features, or the
        float64 image once the finest level is inverted."""
        self.features = self.model.reconstruct_features(self.level, z, self.features)
        self.level -= 1
        return self.features
