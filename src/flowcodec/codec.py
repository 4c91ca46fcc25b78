"""Entropy coding of latents and the bitstream container.

Encoder and decoder walk one conditioning chain (`DecoderChain`): the
base latents go first under the per-channel prior, then each conditional
level is coded (or skipped) against (mean, scale) from features rebuilt
out of the already-quantized deeper latents.  An element is skipped
exactly when the bin mass at its conditional mean symbol exceeds the
threshold, in which case both sides substitute that mean symbol; encoder
and decoder therefore agree on every skip decision by construction, and
the coder path always evaluates the models in float64.

One section coder codes z0, z1, z2a and z2b alike.  A section is its
coded element indices with a centre, a sign and a `build_freq_table`
table per element: element i holds (centre + sign * j) * step, and
`rangecoder.encode_symbols` / `decode_symbols` code every j of the
section in one loop.  Encoder and decoder walk one section list.  z0 is
centre 0 and sign +1 under its channel's prior table.  A conditional
symbol k is coded as j = k - round(mu/delta), negated when the offset
f = mu/delta - round(mu/delta) is negative, so that a negative offset
uses the mirrored table of |f|.  The table comes from the symbol's cell
on a fixed (offset, scale) grid: the scale s = sigma/delta is located by
`np.searchsorted` among geometric cell edges at most 1.15x apart
(clamped below 1/32 and above 1365, where the window reaches its
8191-symbol cap), and |f| is rounded to a step of about s/8, clamped to
[1/32, 1/2].  A cell's table depends on its index alone, so it is built
once, through `logistic_bin_prob` and `build_freq_table`, and cached for
the life of the process for every model.  With every one of the 477
cells built the cache holds 0.66 MB of uint16 starts, 0.79 MB with its
Python objects.  Two threads that miss on the same cell both build the
identical immutable table and `dict.setdefault` keeps one of them, so
the race costs a duplicate build and nothing else.  Skip decisions use
the exact `logistic_bin_prob`, not the grid.

z0's bin masses are a function of (model, delta0, symbol) alone.  The
prior is evaluated in canonical blocks: block b holds the masses of
symbols [128 b, 128 b + 128) for every base channel, always computed by
one `bin_prob` call at shape (channels, 128), and a channel's header
range [lo, hi] is a slice of its consecutive blocks.  Blocks are cached
for the life of the process under (model id, delta0 bytes, b), with the
model id that the header carries, so a model loaded twice shares them.
The cache holds at most `_BLOCK_CAP` (16 MiB) of masses, oldest block
evicted first: 341 blocks of a 48-channel model, more than the 257 that
one channel's widest legal range spans, and 16 times the 21 blocks the
benchmark ladder's three step sets use.  A hostile header can make a
decode evaluate many blocks, but not grow the cache past the cap.  A
lock guards the cache's dict and eviction; blocks are read-only, and two
threads that miss on the same block compute identical masses, so
whichever copy is kept serves both.  The blocks are canonical rather
than cut from the widest range seen so far because the prior's matrix
products round differently at different array shapes: on the benchmark
model at step 0.25, a slice of one evaluation over [-1500, 1500) differs
from a direct evaluation of the slice, by up to 4.4e-16, for 139 of 280
random (lo, width) draws, so a decoder's tables would depend on its
cache history.  One `build_freq_tables` call then quantizes every
channel's slice.

Container layout (`NFB1`, version 3, little-endian): a CRC-protected
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
import threading
import zlib
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .entropy import QuantSpec, logistic_bin_prob, mean_symbol
from .errors import FormatError, ModelMismatchError, NumericError
from .flow import LEVELS, DecoderChain, FlowModel, LatentSet
from .quantize import grid_index, round_to_grid
from .rangecoder import (  # noqa: F401  (RangeEncoder/RangeDecoder: benchmark trace hook names)
    MAX_SYMBOLS, RAW_MAX, FrequencyTable, RangeDecoder, RangeEncoder, build_freq_table,
    build_freq_tables, decode_symbols, encode_symbols,
)
from .tensor import Tensor, no_grad

BITSTREAM_MAGIC = b"NFB1"
BITSTREAM_VERSION = 3
P_THRESH_DEFAULT = 0.9
MAX_PIXELS = 1 << 24  # padded pixels per image, bounding a decode's allocations
PARTIAL_FRACTION_DEFAULT = 0.5

LEVEL_CODES = {1.0: 10, 2.0: 20, 2.5: 25, 3.0: 30}
CODE_LEVELS = {v: k for k, v in LEVEL_CODES.items()}

_SECTION_NAMES = ("z0", "z1", "z2a", "z2b")
_SECTION_LABELS = {"z0": "z0", "z1": "z1", "z2a": "z2 (partial)", "z2b": "z2"}
_SECTION_LEVELS = (1.0, 2.0, 2.5, 3.0)  # the level mask from which each section is present

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


def _sections_at(levels: float) -> list[str]:
    """The sections a stream of level mask `levels` holds."""
    return [name for name, need in zip(_SECTION_NAMES, _SECTION_LEVELS) if levels >= need]


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
    if pad_h * pad_w > MAX_PIXELS:
        raise FormatError(
            f"padded extents {pad_h}x{pad_w} exceed the {MAX_PIXELS}-pixel limit"
        )
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
            raise FormatError(f"bitstream truncated inside section {_SECTION_LABELS[name]}")
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


# The (offset, scale) grid of the conditional tables; see the module docstring.
_SCALE_LO, _SCALE_HI, _SCALE_RATIO = 1.0 / 32.0, 8190.0 / 6.0, 1.15
_SCALES = np.geomspace(_SCALE_LO, _SCALE_HI,
                       math.ceil(math.log(_SCALE_HI / _SCALE_LO) / math.log(_SCALE_RATIO)) + 1)
_SCALE_EDGES = np.sqrt(_SCALES[:-1] * _SCALES[1:])
_OFFSET_STEP_PER_SCALE = 0.125
_OFFSET_M_MAX = 16
_OFFSET_M = np.clip(np.round(0.5 / (_OFFSET_STEP_PER_SCALE * _SCALES)), 1,
                    _OFFSET_M_MAX).astype(np.int64)
_OFFSET_SLOTS = _OFFSET_M_MAX + 1

_CELLS: dict[int, FrequencyTable] = {}  # cell key -> table, for every model


def _window(s: float) -> int:
    """Half-width of a table at scale s: tracks s with a taper at very wide
    scales so the one-count floors stay a small fraction of the total;
    genuine outliers go through the escape slot."""
    reach = 20.0 if s <= 100.0 else max(6.0, 2000.0 / s)
    return min(math.ceil(reach * s) + 1, 8191)


def _cell_table(key: int) -> FrequencyTable:
    """Table over j in [-w, w] for one grid cell: the symbols of a
    logistic of scale s centred at offset f >= 0."""
    a, b = divmod(key, _OFFSET_SLOTS)
    s = float(_SCALES[a])
    w = _window(s)
    f = b / (2.0 * _OFFSET_M[a])
    return build_freq_table(logistic_bin_prob(np.arange(-w, w + 1.0), f, s, 1.0), -w)


# -- base level (z0) --------------------------------------------------------------

# Canonical blocks of the base prior; see the module docstring.
_BLOCK = 128  # symbols per block
_BLOCK_CAP = 16 << 20  # bytes of cached blocks, for every model and step set together
_BLOCKS: dict[tuple[bytes, bytes, int], np.ndarray] = {}  # (model id, delta0, b) -> masses
_BLOCKS_LOCK = threading.Lock()


def _prior_blocks(model: FlowModel, model_id: bytes, delta0: np.ndarray,
                  needed: set[int]) -> dict[int, np.ndarray]:
    """Block b of every base channel's bin masses, over the symbols
    [128 b, 128 b + 128), for each b in `needed`: from the cache, or
    evaluated at the one block shape and cached, oldest blocks evicted
    past the byte cap."""
    steps = delta0.tobytes()
    with _BLOCKS_LOCK:
        blocks = {b: _BLOCKS.get((model_id, steps, b)) for b in needed}
    for b, block in blocks.items():
        if block is not None:
            continue
        values = (b * _BLOCK + np.arange(_BLOCK, dtype=np.float64)) * delta0[:, None]
        block = model.prior.bin_prob(Tensor(values), delta0).data
        block.flags.writeable = False
        with _BLOCKS_LOCK:
            # a racing thread evaluated the identical block; either copy serves
            blocks[b] = _BLOCKS.setdefault((model_id, steps, b), block)
            cached = sum(v.nbytes for v in _BLOCKS.values())
            while cached > _BLOCK_CAP:
                cached -= _BLOCKS.pop(next(iter(_BLOCKS))).nbytes
    return blocks


def _base_ranges(z0_hat: np.ndarray, spec: QuantSpec) -> list[tuple[int, int]]:
    ranges = []
    for i in range(z0_hat.shape[1]):
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


# -- section coding -----------------------------------------------------------------


class _Section(NamedTuple):
    """The coded elements of one section: flat element coded[i] of its
    level is (center[i] + sign[i] * j) * step[i], and the symbol j is
    coded under tables[table_of[i]]."""

    coded: np.ndarray
    center: np.ndarray | int
    sign: np.ndarray | int
    table_of: np.ndarray
    tables: list[FrequencyTable]
    step: np.ndarray | float


def _base_section(model: FlowModel, model_id: bytes, spec: QuantSpec,
                  ranges: list[tuple[int, int]], n: int) -> _Section:
    """The n elements of z0 as a section: centre 0, sign +1 and the prior
    table of each element's channel over its header-declared symbol range,
    sliced out of the canonical blocks of the model `model_id` names."""
    blocks = _prior_blocks(model, model_id, spec.delta0,
                           {b for lo, hi in ranges for b in range(lo // _BLOCK, hi // _BLOCK + 1)})
    rows = []
    for c, (lo, hi) in enumerate(ranges):
        first = lo // _BLOCK
        masses = np.concatenate([blocks[b][c] for b in range(first, hi // _BLOCK + 1)])
        rows.append(masses[lo - first * _BLOCK : hi - first * _BLOCK + 1])
    tables = build_freq_tables(rows, [lo for lo, _ in ranges])
    channel = np.repeat(np.arange(len(tables)), n // len(tables))
    return _Section(np.arange(n), 0, 1, channel, tables, spec.delta0[channel])


def _conditional_section(mu: np.ndarray, sigma: np.ndarray, delta: float, p_thresh: float,
                         lo: int, hi: int, flat: np.ndarray) -> _Section:
    """Elements [lo, hi) of a conditional level as a section, given the
    level's flat conditionals: the skip rule, then the grid cell of every
    coded element.  Writes the mean symbol into flat at every skipped
    element.  The sign of an element is that of its offset
    mu/delta - round(mu/delta), which mirrors negative offsets onto the
    tables of positive ones."""
    mu, sigma = mu[lo:hi], sigma[lo:hi]
    skip = _skip_mask(mu, sigma, delta, p_thresh)
    flat[lo:hi][skip] = mean_symbol(mu[skip], delta)
    coded = np.flatnonzero(~skip)
    x = mu[coded] / delta
    if not np.all(np.abs(x) <= RAW_MAX):  # NaN fails too
        raise NumericError(f"conditional means reach {np.abs(x).max()!r} steps, "
                           "beyond the 32-bit symbol range")
    center = np.round(x)
    offset = x - center
    a = np.searchsorted(_SCALE_EDGES, sigma[coded] / delta)
    keys = a * _OFFSET_SLOTS + np.round(np.abs(offset) * (2 * _OFFSET_M[a])).astype(np.int64)
    unique, table_of = np.unique(keys, return_inverse=True)
    # a racing thread builds the identical table; either copy serves
    tables = [_CELLS.get(key) or _CELLS.setdefault(key, _cell_table(key))
              for key in unique.tolist()]
    return _Section(lo + coded, center.astype(np.int64), np.where(offset < 0, -1, 1),
                    table_of, tables, delta)


def _encode_section(s: _Section, flat: np.ndarray) -> bytes:
    return encode_symbols(s.sign * (grid_index(flat[s.coded], s.step) - s.center),
                          s.table_of, s.tables)


def _decode_section(payload: bytes, s: _Section, flat: np.ndarray, context: str) -> None:
    js = decode_symbols(payload, s.table_of, s.tables, context)
    flat[s.coded] = (s.center + s.sign * js) * s.step


def _walk(model: FlowModel, model_id: bytes, spec: QuantSpec, p_thresh: float,
          ranges: list[tuple[int, int]], z: list[np.ndarray], cut: int, present: list[str],
          code: Callable[[str, _Section, np.ndarray], bytes | None],
          decoding: bool) -> tuple[dict[str, bytes | None], DecoderChain | None]:
    """Walk the sections in stream order up the decoder chain, over the
    level arrays z = [z0, z1, z2], which it updates in place.

    Each section named in `present` goes to code(name, section, flat
    level) once its skipped elements hold their mean symbol; every element
    of a section not present holds its mean symbol.  An encoder's walk
    stops after its last section; a decoder's walks every level and
    returns the chain with every level but the finest inverted, and a
    step that the prior or the cells cannot take is a format error.
    """

    def uncodable(name: str, step: str, exc: NumericError) -> Exception:
        if not decoding:
            return exc
        # the encoder fails on the same elements, so no stream codes them
        return FormatError(f"section {_SECTION_LABELS[name]}: {step} cannot be coded ({exc})")

    flat = z[0].reshape(-1)
    try:
        section = _base_section(model, model_id, spec, ranges, flat.size)
    except NumericError as exc:
        raise uncodable("z0", "the base steps", exc) from None
    out = {"z0": code("z0", section, flat)}
    chain = None
    for level, delta, parts in ((1, spec.delta1, (("z1", 0, z[1].size),)),
                                (2, spec.delta2, (("z2a", 0, cut), ("z2b", cut, z[2].size)))):
        if parts[0][0] not in present and not decoding:
            break
        if chain is None:
            chain = DecoderChain(model, z[0])
        else:
            chain.invert(z[1])
        mu, sigma = (t.data.reshape(-1) for t in chain.conditionals())
        flat = z[level].reshape(-1)
        for name, lo, hi in parts:
            if name not in present:
                flat[lo:hi] = mean_symbol(mu[lo:hi], delta)
                continue
            try:
                section = _conditional_section(mu, sigma, delta, p_thresh, lo, hi, flat)
            except NumericError as exc:
                raise uncodable(name, f"step {delta!r}", exc) from None
            out[name] = code(name, section, flat)
    return out, chain


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
    if padded.shape[1] * padded.shape[2] > MAX_PIXELS:
        raise ValueError(f"padded image of {padded.shape[1]}x{padded.shape[2]} pixels "
                         f"exceeds the {MAX_PIXELS}-pixel limit")

    zs, _ = model.forward(Tensor(padded[None]))
    z2 = round_to_grid(zs[0].data, spec.delta2)
    z1 = round_to_grid(zs[1].data, spec.delta1)
    z0 = round_to_grid(zs[2].data, spec.delta0[None, :, None, None])

    ranges = _base_ranges(z0, spec)
    partial_count = int(np.ceil(partial_frac * z2[0].size))
    model_id = model.model_id
    sections, _ = _walk(model, model_id, spec, p_thresh, ranges, [z0, z1, z2], partial_count,
                        _sections_at(levels),
                        lambda _, section, flat: _encode_section(section, flat),
                        decoding=False)

    header = Header(
        model_id=model_id, orig_h=orig_h, orig_w=orig_w,
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
    z = [np.zeros((1,) + shape) for shape in reversed(model.latent_shapes(header.pad_h,
                                                                          header.pad_w))]

    def decode(name: str, section: _Section, flat: np.ndarray) -> None:
        _decode_section(sections[name], section, flat, f"section {_SECTION_LABELS[name]}")

    _, chain = _walk(model, header.model_id, header.spec, header.p_thresh, header.base_ranges, z,
                     header.partial_count, _sections_at(levels), decode, decoding=True)
    return LatentSet(*z), header, chain


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
    keep = _sections_at(target)
    new_header = replace(header, level_mask=target, section_lengths={
        name: (header.section_lengths[name] if name in keep else 0)
        for name in _SECTION_NAMES
    })
    return _pack_header(new_header) + b"".join(sections[name] for name in keep)
