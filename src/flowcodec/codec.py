"""Entropy coding of latents and the bitstream container.

Encoder and decoder walk one conditioning chain (`DecoderChain`): the
base latents go first under the per-channel prior, then each conditional
level is coded (or skipped) against (mean, scale) from features rebuilt
out of the already-quantized deeper latents.  An element is skipped
exactly when the bin mass at its conditional mean symbol exceeds the
threshold, in which case both sides substitute that mean symbol; encoder
and decoder therefore agree on every skip decision by construction, and
the coder path always evaluates the models in float64.

The base latents are coded under one frequency table per channel.  The
conditional levels build no tables: each coded symbol's span comes from
two edges of a quantized logistic CDF computed on demand
(`_QuantizedLogistic`), and the decoder bisects that CDF for the symbol.

Container layout (`NFB1`, version 2, little-endian): a CRC-protected
header (model id, original and padded extents, quantization steps,
threshold, level mask, per-channel base symbol ranges, section byte
lengths) followed by the payload sections z0, z1, z2a, z2b.  The finest
level is coded as two independent streams split at a fixed raster
position so that a partial-quality stream is a byte prefix; truncation
drops whole trailing sections and never needs the model.  The decoder
refuses a header whose fields disagree with each other or with the
model.

One coder state per stream; many streams may run concurrently over a
shared immutable model.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .entropy import QuantSpec, logistic_bin_prob, mean_symbol
from .errors import FormatError, ModelMismatchError, NumericError
from .flow import LEVELS, DecoderChain, FlowModel, LatentSet
from .quantize import grid_index, round_to_grid
from .rangecoder import (
    MAX_SYMBOLS, TOTAL, FrequencyTable, RangeDecoder, RangeEncoder, build_freq_table,
)
from .tensor import Tensor, no_grad

BITSTREAM_MAGIC = b"NFB1"
BITSTREAM_VERSION = 2
P_THRESH_DEFAULT = 0.9
PARTIAL_FRACTION_DEFAULT = 0.5

LEVEL_CODES = {1.0: 10, 2.0: 20, 2.5: 25, 3.0: 30}
CODE_LEVELS = {v: k for k, v in LEVEL_CODES.items()}

_SECTION_NAMES = ("z0", "z1", "z2a", "z2b")

_ESCAPE_CUM = TOTAL - 1  # conditional escape slot: [TOTAL - 1, TOTAL)


# -- container -----------------------------------------------------------------


@dataclass
class Header:
    model_id: bytes
    orig_h: int
    orig_w: int
    pad_h: int
    pad_w: int
    channels: int
    p_thresh: float
    level_mask: float
    partial_frac: float
    partial_count: int
    spec: QuantSpec
    base_ranges: list[tuple[int, int]]
    section_lengths: dict[str, int]

    def sections_present(self) -> list[str]:
        out = ["z0"]
        if self.level_mask >= 2.0:
            out.append("z1")
        if self.level_mask >= 2.5:
            out.append("z2a")
        if self.level_mask >= 3.0:
            out.append("z2b")
        return out


def _pack_header(h: Header) -> bytes:
    out = bytearray(BITSTREAM_MAGIC)
    out += struct.pack("<B", BITSTREAM_VERSION)
    out += h.model_id
    out += struct.pack("<IIIIH", h.orig_h, h.orig_w, h.pad_h, h.pad_w, h.channels)
    out += struct.pack("<dBdI", h.p_thresh, LEVEL_CODES[h.level_mask],
                       h.partial_frac, h.partial_count)
    out += struct.pack("<ddH", h.spec.delta2, h.spec.delta1, len(h.spec.delta0))
    out += struct.pack(f"<{len(h.spec.delta0)}d", *h.spec.delta0)
    for k_min, k_max in h.base_ranges:
        out += struct.pack("<hh", k_min, k_max)
    for name in _SECTION_NAMES:
        out += struct.pack("<Q", h.section_lengths.get(name, 0))
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    return bytes(out)


def _unpack(fmt: str, blob: bytes, pos: int) -> tuple[tuple, int]:
    try:
        fields = struct.unpack_from(fmt, blob, pos)
    except struct.error:
        raise FormatError("bitstream truncated inside the header") from None
    return fields, pos + struct.calcsize(fmt)


def _parse_header(blob: bytes) -> tuple[Header, int]:
    if blob[:4] != BITSTREAM_MAGIC:
        raise FormatError(f"bad bitstream magic {blob[:4]!r}")
    (version,), pos = _unpack("<B", blob, 4)
    if version != BITSTREAM_VERSION:
        raise FormatError(f"unsupported bitstream version {version}")
    (model_id,), pos = _unpack("<16s", blob, pos)
    (orig_h, orig_w, pad_h, pad_w, channels), pos = _unpack("<IIIIH", blob, pos)
    (p_thresh, level_code, partial_frac, partial_count), pos = _unpack("<dBdI", blob, pos)
    if level_code not in CODE_LEVELS:
        raise FormatError(f"unknown level mask code {level_code}")
    (delta2, delta1, n_ch), pos = _unpack("<ddH", blob, pos)
    delta0, pos = _unpack(f"<{n_ch}d", blob, pos)
    flat_ranges, pos = _unpack(f"<{2 * n_ch}h", blob, pos)
    base_ranges = list(zip(flat_ranges[::2], flat_ranges[1::2]))
    lengths, pos = _unpack(f"<{len(_SECTION_NAMES)}Q", blob, pos)
    (crc,), end = _unpack("<I", blob, pos)
    if zlib.crc32(blob[:pos]) != crc:
        raise FormatError("bitstream header CRC mismatch")
    if not 0.0 < p_thresh <= 1.0:
        raise FormatError(f"threshold {p_thresh!r} lies outside (0, 1]")
    try:
        spec = QuantSpec(delta2, delta1, np.array(delta0))
    except ValueError as exc:
        raise FormatError(f"bad header steps: {exc}") from None
    multiple = 2 ** LEVELS
    for axis, orig, pad in (("height", orig_h, pad_h), ("width", orig_w, pad_w)):
        if pad <= 0 or pad % multiple:
            raise FormatError(f"padded {axis} {pad} is not a positive multiple of {multiple}")
        if not 1 <= orig <= pad:
            raise FormatError(f"original {axis} {orig} lies outside [1, {pad}]")
    for i, (lo, hi) in enumerate(base_ranges):
        if not 1 <= hi - lo + 1 <= MAX_SYMBOLS:
            raise FormatError(
                f"base channel {i} symbol range [{lo}, {hi}] is empty or wider than "
                f"{MAX_SYMBOLS} symbols"
            )
    header = Header(
        model_id=model_id, orig_h=orig_h, orig_w=orig_w, pad_h=pad_h, pad_w=pad_w,
        channels=channels, p_thresh=p_thresh, level_mask=CODE_LEVELS[level_code],
        partial_frac=partial_frac, partial_count=partial_count, spec=spec,
        base_ranges=base_ranges, section_lengths=dict(zip(_SECTION_NAMES, lengths)),
    )
    return header, end


def _split_sections(blob: bytes, header: Header, start: int) -> dict[str, bytes]:
    sections = {}
    pos = start
    for name in _SECTION_NAMES:
        n = header.section_lengths.get(name, 0)
        part = blob[pos : pos + n]
        if len(part) != n:
            level = {"z0": "z0", "z1": "z1", "z2a": "z2 (partial)", "z2b": "z2"}[name]
            raise FormatError(f"bitstream truncated inside section {level}")
        sections[name] = part
        pos += n
    if pos != len(blob):
        raise FormatError(f"{len(blob) - pos} trailing bytes after the last section")
    return sections


def inspect_bitstream(blob: bytes) -> dict:
    """Header fields and per-section byte lengths, no model required."""
    header, start = _parse_header(blob)
    _split_sections(blob, header, start)
    return {
        "model_id": header.model_id.hex(),
        "original_size": (header.orig_h, header.orig_w),
        "padded_size": (header.pad_h, header.pad_w),
        "channels": header.channels,
        "p_thresh": header.p_thresh,
        "levels": header.level_mask,
        "partial_fraction": header.partial_frac,
        "partial_count": header.partial_count,
        "delta2": header.spec.delta2,
        "delta1": header.spec.delta1,
        "delta0": header.spec.delta0.tolist(),
        "section_bytes": dict(header.section_lengths),
        "total_bytes": len(blob),
    }


# -- padding ----------------------------------------------------------------------


def pad_to_multiple(image: np.ndarray, multiple: int) -> np.ndarray:
    """Mirror-pad (C,H,W) on the bottom/right to extent multiples."""
    _, h, w = image.shape
    ph = (-h) % multiple
    pw = (-w) % multiple
    if ph == 0 and pw == 0:
        return image
    out = image
    while ph or pw:
        # symmetric padding caps at the current extents; loop for tiny images
        step_h = min(ph, out.shape[1])
        step_w = min(pw, out.shape[2])
        out = np.pad(out, ((0, 0), (0, step_h), (0, step_w)), mode="symmetric")
        ph -= step_h
        pw -= step_w
    return out


# -- conditioning helpers ------------------------------------------------------------


def _skip_mask(mu: np.ndarray, sigma: np.ndarray, delta: float, p_thresh: float) -> np.ndarray:
    """True where the decoder will substitute the mean symbol.

    An element is coded iff the bin mass at its mean symbol is <= the
    threshold (code-when-uncertain); otherwise no information is sent.
    """
    p_mean = logistic_bin_prob(mean_symbol(mu, delta), mu, sigma, delta)
    return p_mean > p_thresh


class _QuantizedLogistic:
    """Integer CDF of one discrete logistic, evaluated on demand.

    The window [k_lo, k_lo + n) is centered on the mean symbol; its
    half-width tracks sigma/delta with a taper at very fine steps so the
    one-count floors stay a small fraction of the total, and genuine
    outliers go through the escape slot [TOTAL - 1, TOTAL).  Symbol
    k_lo + i spans [cum(i), cum(i + 1)), where

        cum(i) = i + floor((TOTAL - 1 - n) * (F(e_i) - F(e_0)) / (F(e_n) - F(e_0)))

    and F(e_i) is the logistic CDF at the lower bin edge of k_lo + i.
    Encoder and decoder both evaluate it through `cum`, in Python floats,
    so they agree bit for bit.  Every frequency is at least one while F
    is monotone in floating point; the encoder checks the span it writes.
    """

    __slots__ = ("mu", "sigma", "delta", "k_lo", "n", "f0", "span", "mass")

    def __init__(self, mu: float, sigma: float, delta: float):
        r = sigma / delta
        reach = 20.0 if r <= 100.0 else max(6.0, 2000.0 / r)
        w = min(math.ceil(reach * r) + 1, 8191)  # flat conditionals escape beyond this
        self.mu, self.sigma, self.delta = mu, sigma, delta
        self.k_lo = round(mu / delta) - w
        self.n = 2 * w + 1
        self.mass = _ESCAPE_CUM - self.n
        self.f0 = self._cdf(0)
        self.span = self._cdf(self.n) - self.f0
        if not self.span > 0.0:
            raise NumericError(
                f"logistic window of {self.n} symbols has no mass "
                f"(mu={mu!r}, sigma={sigma!r}, delta={delta!r})"
            )

    def _cdf(self, i: int) -> float:
        t = ((self.k_lo + i - 0.5) * self.delta - self.mu) / self.sigma
        if t >= 0.0:
            return 1.0 / (1.0 + math.exp(-t))
        e = math.exp(t)  # this branch never overflows
        return e / (1.0 + e)

    def cum(self, i: int) -> int:
        if i == 0:
            return 0
        if i == self.n:
            return _ESCAPE_CUM
        return i + math.floor(self.mass * ((self._cdf(i) - self.f0) / self.span))


# -- base level (z0) --------------------------------------------------------------


def _base_tables(model: FlowModel, spec: QuantSpec,
                 ranges: list[tuple[int, int]]) -> list[FrequencyTable]:
    """Per-channel prior tables over the header-declared symbol ranges.

    Evaluated in one padded prior call so coder and rate paths share the
    exact same CDF code.
    """
    widths = [hi - lo + 1 for lo, hi in ranges]
    n_max = max(widths)
    c = len(ranges)
    values = np.zeros((c, n_max), dtype=np.float64)
    for i, (lo, _) in enumerate(ranges):
        values[i] = (lo + np.arange(n_max, dtype=np.float64)) * spec.delta0[i]
    probs = model.prior.bin_prob(Tensor(values), spec.delta0).data
    return [build_freq_table(probs[i, : widths[i]], ranges[i][0]) for i in range(c)]


def _base_ranges(z0_hat: np.ndarray, spec: QuantSpec) -> list[tuple[int, int]]:
    ranges = []
    c = z0_hat.shape[1]
    for i in range(c):
        k = grid_index(z0_hat[0, i], spec.delta0[i])
        lo, hi = int(k.min()), int(k.max())
        if lo < -32768 or hi > 32767:
            raise NumericError(
                f"base channel {i} symbols [{lo}, {hi}] exceed the 16-bit header range; "
                "use a coarser step"
            )
        if hi - lo + 1 > MAX_SYMBOLS:
            raise NumericError(
                f"base channel {i} spans {hi - lo + 1} symbols (> {MAX_SYMBOLS}); "
                "use a coarser step"
            )
        ranges.append((lo, hi))
    return ranges


# -- level coding -------------------------------------------------------------------


def _encode_base(z0_hat: np.ndarray, spec: QuantSpec, tables: list[FrequencyTable]) -> bytes:
    enc = RangeEncoder()
    c = z0_hat.shape[1]
    for i in range(c):
        ks = grid_index(z0_hat[0, i], spec.delta0[i]).reshape(-1)
        table = tables[i]
        for k in ks:
            enc.encode_symbol(table, int(k))
    return enc.finish()


def _decode_base(payload: bytes, header: Header, tables: list[FrequencyTable],
                 shape: tuple[int, int, int]) -> np.ndarray:
    c, hh, ww = shape
    dec = RangeDecoder(payload, "section z0")
    out = np.zeros((1, c, hh, ww), dtype=np.float64)
    for i in range(c):
        table = tables[i]
        ks = np.array([dec.decode_symbol(table) for _ in range(hh * ww)], dtype=np.float64)
        out[0, i] = (ks * header.spec.delta0[i]).reshape(hh, ww)
    return out


def _encode_conditional(values_hat: np.ndarray, mu: np.ndarray, sigma: np.ndarray,
                        delta: float, p_thresh: float,
                        element_range: tuple[int, int]) -> tuple[bytes, np.ndarray, int]:
    """Code one slice of a conditional level; returns (payload, effective
    values after mean substitution, coded-symbol count)."""
    flat_mu = mu.reshape(-1)
    flat_sigma = sigma.reshape(-1)
    lo, hi = element_range
    skip = _skip_mask(flat_mu[lo:hi], flat_sigma[lo:hi], delta, p_thresh)
    effective = values_hat.reshape(-1).copy()
    effective[lo:hi][skip] = mean_symbol(flat_mu[lo:hi][skip], delta)
    coded = lo + np.flatnonzero(~skip)
    enc = RangeEncoder()
    for v, m, s in zip(effective[coded].tolist(), flat_mu[coded].tolist(),
                       flat_sigma[coded].tolist()):
        q = _QuantizedLogistic(m, s, delta)
        k = round(v / delta)
        i = k - q.k_lo
        if 0 <= i < q.n:
            c0, c1 = q.cum(i), q.cum(i + 1)
            if c1 <= c0:
                raise NumericError(
                    f"symbol {k} got frequency {c1 - c0} (mu={m!r}, sigma={s!r})"
                )
            enc.encode(c0, c1 - c0)
        else:
            enc.encode(_ESCAPE_CUM, 1)
            enc.encode_raw(k)
    return enc.finish(), effective.reshape(values_hat.shape), len(coded)


def _decode_conditional(payload: bytes | None, mu: np.ndarray, sigma: np.ndarray,
                        delta: float, p_thresh: float,
                        element_range: tuple[int, int], out_flat: np.ndarray,
                        context: str) -> int:
    """Mirror of `_encode_conditional` writing into out_flat; a None
    payload substitutes the mean symbol everywhere in the slice."""
    flat_mu = mu.reshape(-1)
    flat_sigma = sigma.reshape(-1)
    lo, hi = element_range
    out_flat[lo:hi] = mean_symbol(flat_mu[lo:hi], delta)
    if payload is None:
        return 0
    skip = _skip_mask(flat_mu[lo:hi], flat_sigma[lo:hi], delta, p_thresh)
    coded = lo + np.flatnonzero(~skip)
    dec = RangeDecoder(payload, context)
    ks = []
    for m, s in zip(flat_mu[coded].tolist(), flat_sigma[coded].tolist()):
        try:
            q = _QuantizedLogistic(m, s, delta)
        except (NumericError, OverflowError) as exc:
            # the encoder fails on the same element, so no stream codes it
            raise FormatError(f"{context}: step {delta!r} cannot be coded ({exc})") from None
        target = dec.decode_target()
        if target >= _ESCAPE_CUM:
            dec.advance(_ESCAPE_CUM, 1)
            ks.append(dec.decode_raw())
            continue
        # bisect for cum(i) <= target < cum(i + 1)
        i, c_lo, j, c_hi = 0, 0, q.n, _ESCAPE_CUM
        while j - i > 1:
            mid = (i + j) // 2
            c = q.cum(mid)
            if c <= target:
                i, c_lo = mid, c
            else:
                j, c_hi = mid, c
        dec.advance(c_lo, c_hi - c_lo)
        ks.append(q.k_lo + i)
    out_flat[coded] = np.array(ks, dtype=np.float64) * delta
    return len(coded)


# -- public encode/decode --------------------------------------------------------------


@no_grad()
def encode_image(model: FlowModel, image: np.ndarray, spec: QuantSpec,
                 levels: float = 3.0, p_thresh: float = P_THRESH_DEFAULT,
                 partial_frac: float = PARTIAL_FRACTION_DEFAULT) -> bytes:
    """Compress a (C,H,W) image in [0, 255] into a bitstream.

    Pads to the transform's extent multiple, rounds each latent level to
    its grid, entropy-codes the sections named by `levels`, and records
    everything a decoder needs in the container header.
    """
    if levels not in LEVEL_CODES:
        raise ValueError(f"levels must be one of {sorted(LEVEL_CODES)}, got {levels}")
    if not 0.0 < p_thresh <= 1.0:
        raise ValueError(f"p_thresh must lie in (0, 1], got {p_thresh!r}")
    if not 0.0 <= partial_frac <= 1.0:
        raise ValueError(f"partial_frac must lie in [0, 1], got {partial_frac!r}")
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[0] != model.config.in_channels:
        raise ModelMismatchError(
            f"image of shape {image.shape} does not match a "
            f"{model.config.in_channels}-channel model"
        )
    if len(spec.delta0) != model.base_channels:
        raise ModelMismatchError(
            f"step set declares {len(spec.delta0)} base channels, model has "
            f"{model.base_channels}"
        )
    orig_h, orig_w = image.shape[1], image.shape[2]
    padded = pad_to_multiple(image, 2 ** LEVELS)

    zs, _ = model.forward(Tensor(padded[None]))
    z2 = round_to_grid(zs[0].data, spec.delta2)
    z1 = round_to_grid(zs[1].data, spec.delta1)
    z0 = round_to_grid(zs[2].data, spec.delta0[None, :, None, None])

    ranges = _base_ranges(z0, spec)
    tables = _base_tables(model, spec, ranges)
    sections: dict[str, bytes] = {"z0": _encode_base(z0, spec, tables)}

    n_z2 = z2[0].size
    partial_count = int(np.ceil(partial_frac * n_z2))
    if levels >= 2.0:
        chain = DecoderChain(model, z0)
        mu1, sig1 = (t.data for t in chain.conditionals())
        sections["z1"], z1_eff, _ = _encode_conditional(z1, mu1, sig1, spec.delta1,
                                                        p_thresh, (0, z1[0].size))
    if levels >= 2.5:
        chain.invert(z1_eff)
        mu2, sig2 = (t.data for t in chain.conditionals())
        sections["z2a"], z2_eff, _ = _encode_conditional(z2, mu2, sig2, spec.delta2,
                                                         p_thresh, (0, partial_count))
        if levels >= 3.0:
            sections["z2b"], _, _ = _encode_conditional(z2_eff, mu2, sig2, spec.delta2,
                                                        p_thresh, (partial_count, n_z2))

    header = Header(
        model_id=model.model_id, orig_h=orig_h, orig_w=orig_w,
        pad_h=padded.shape[1], pad_w=padded.shape[2],
        channels=model.config.in_channels, p_thresh=p_thresh, level_mask=levels,
        partial_frac=partial_frac, partial_count=partial_count,
        spec=spec, base_ranges=ranges,
        section_lengths={name: len(sections.get(name, b"")) for name in _SECTION_NAMES},
    )
    return _pack_header(header) + b"".join(
        sections.get(name, b"") for name in _SECTION_NAMES
    )


def _check_against_model(header: Header, model: FlowModel) -> None:
    """Header fields whose valid values depend on the model."""
    if header.channels != model.config.in_channels:
        raise FormatError(
            f"header declares {header.channels} image channels, model has "
            f"{model.config.in_channels}"
        )
    # one header count sizes both the base steps and the base symbol ranges
    if len(header.spec.delta0) != model.base_channels:
        raise FormatError(
            f"header declares {len(header.spec.delta0)} base channels, model has "
            f"{model.base_channels}"
        )
    n_z2 = math.prod(model.latent_shapes(header.pad_h, header.pad_w)[0])
    if header.partial_count > n_z2:
        raise FormatError(
            f"partial count {header.partial_count} exceeds the {n_z2} z2 elements"
        )


@no_grad()
def _decode(model: FlowModel, blob: bytes,
            levels: float | None) -> tuple[LatentSet, Header, DecoderChain]:
    """Entropy-decode the latents up the decoder chain; the returned chain
    has inverted every level but the finest, which finishes the image."""
    header, start = _parse_header(blob)
    if header.model_id != model.model_id:
        raise ModelMismatchError(
            f"bitstream was produced by model {header.model_id.hex()}, "
            f"decoding with {model.model_id.hex()}"
        )
    _check_against_model(header, model)
    if levels is None:
        levels = header.level_mask
    if levels not in LEVEL_CODES:
        raise ValueError(f"levels must be one of {sorted(LEVEL_CODES)}, got {levels}")
    if levels > header.level_mask:
        raise FormatError(
            f"requested {levels} levels but the stream holds {header.level_mask}"
        )
    sections = _split_sections(blob, header, start)
    spec = header.spec
    shapes = model.latent_shapes(header.pad_h, header.pad_w)

    tables = _base_tables(model, spec, header.base_ranges)
    z0 = _decode_base(sections["z0"], header, tables, shapes[2])

    # level z1
    chain = DecoderChain(model, z0)
    mu1, sig1 = (t.data for t in chain.conditionals())
    z1 = np.zeros((1,) + shapes[1], dtype=np.float64)
    flat1 = z1.reshape(-1)
    payload1 = sections["z1"] if levels >= 2.0 else None
    _decode_conditional(payload1, mu1, sig1, spec.delta1, header.p_thresh,
                        (0, flat1.size), flat1, "section z1")

    # level z2, possibly split into a transmitted prefix and a mean tail
    chain.invert(z1)
    mu2, sig2 = (t.data for t in chain.conditionals())
    z2 = np.zeros((1,) + shapes[0], dtype=np.float64)
    flat2 = z2.reshape(-1)
    cut = header.partial_count
    payload_a = sections["z2a"] if levels >= 2.5 else None
    payload_b = sections["z2b"] if levels >= 3.0 else None
    _decode_conditional(payload_a, mu2, sig2, spec.delta2, header.p_thresh,
                        (0, cut), flat2, "section z2 (partial)")
    _decode_conditional(payload_b, mu2, sig2, spec.delta2, header.p_thresh,
                        (cut, flat2.size), flat2, "section z2")

    return LatentSet(z0=z0, z1=z1, z2=z2), header, chain


def decode_latents(model: FlowModel, blob: bytes,
                   levels: float | None = None) -> tuple[LatentSet, Header]:
    """Entropy-decode a bitstream into its quantized latent set.

    Latents of levels beyond `levels` (or beyond what the stream holds)
    are filled with their conditional mean symbols, exactly as the
    sampling path defines.
    """
    return _decode(model, blob, levels)[:2]


@no_grad()
def decode_image(model: FlowModel, blob: bytes, levels: float | None = None) -> np.ndarray:
    """Decompress to a (C,H,W) float image at the original extents."""
    latents, header, chain = _decode(model, blob, levels)
    x = chain.invert(latents.z2)
    return x.data[0, :, : header.orig_h, : header.orig_w]


def truncate_bitstream(blob: bytes, target: float) -> bytes:
    """Drop trailing sections to the target level mask; model-free."""
    if target not in LEVEL_CODES:
        raise ValueError(f"target must be one of {sorted(LEVEL_CODES)}, got {target}")
    header, start = _parse_header(blob)
    if target > header.level_mask:
        raise FormatError(
            f"cannot truncate to {target} levels: stream holds {header.level_mask}"
        )
    sections = _split_sections(blob, header, start)
    keep = replace(header, level_mask=target).sections_present()
    new_header = replace(header, level_mask=target, section_lengths={
        name: (header.section_lengths[name] if name in keep else 0)
        for name in _SECTION_NAMES
    })
    return _pack_header(new_header) + b"".join(sections[name] for name in keep)
