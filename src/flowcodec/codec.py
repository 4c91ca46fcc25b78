"""Entropy coding of latents and the bitstream container.

Latents arrive as a `LatentSet` in level order (z2, z1, z0) and are
sent in reverse.  Encoder and decoder walk one conditioning chain
(`DecoderChain`): the base latent z0 goes first under the per-channel
prior, then z1 and z2 are each coded (or skipped) against (mean, scale)
from features rebuilt out of the already-quantized deeper latents.  An
element is skipped exactly when the bin mass at its conditional mean
symbol exceeds the threshold, in which case both sides substitute that
mean symbol; encoder and decoder therefore agree on every skip decision
by construction, and the coder path always evaluates the models in
float64.

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

Container layout (`NFB1`, version 6, little-endian): a CRC-protected
header of what a decoder cannot derive, declared once as the fixed
fields of `_HEADER` (model id, original extents, image channels,
threshold, section count, and delta2 and delta1 as signed 16-bit grid
indices), the `_header_tail` of its base-channel count (one signed byte
of grid index per base step delta0, u32 section byte lengths), then
each base channel's symbol range [lo, hi] as two zigzag LEB128 varints,
and the CRC.  A step is 2^(k/16) for its index k (see `QuantSpec`).  A
3-channel header is 112 bytes plus 2 to 6 bytes of range per base
channel, 208 to 400 bytes; the `codec-ladder` streams of benchmark
seeds 1 and 7 carry 208 to 296.  The payload sections z0, z1, z2a, z2b
follow.  The finest level is coded as two independent streams split at
a fixed raster position, the first `PARTIAL_FRACTION` of z2, so that a
partial-quality stream is a byte prefix; truncation drops whole
trailing sections and never needs the model, and a section beyond the
header's section count has length 0.  The decoder refuses a
header whose fields are out of range or disagree with the model.

One coder state per stream; many streams may run concurrently over a
shared immutable model.

Memory: one `encode_image` or `decode_image` call of the benchmark's
desk architecture (3 channels, 2 steps, hidden width 16) peaks, as
`tracemalloc` counts numpy's allocations, at no more than 320 bytes per
padded pixel: 311 and 280 at 256x256, 309 and 278 at 512x512.  The peak
grows with the conditioning nets' hidden width.  `MAX_PIXELS` follows
from a budget of 1.25 GiB per call at that bound: 2^22 padded pixels
(2048x2048), so a hostile header can ask for no more.
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
from .flow import LEVELS, DecoderChain, FlowModel, LatentSet, latent_shapes, pad
from .quantize import grid_index, round_to_grid
from .rangecoder import (  # noqa: F401  (RangeEncoder/RangeDecoder: benchmark trace hook names)
    MAX_SYMBOLS, RAW_MAX, FrequencyTable, RangeDecoder, RangeEncoder, build_freq_table,
    build_freq_tables, decode_symbols, encode_symbols,
)
from .tensor import Tensor, no_grad

BITSTREAM_MAGIC = b"NFB1"
BITSTREAM_VERSION = 6
P_THRESH_DEFAULT = 0.9
MAX_PIXELS = 1 << 22  # padded pixels per image: 320 B each is 1.25 GiB per call
PARTIAL_FRACTION = 0.5  # of z2's elements, rounded up, go to section z2a

LEVEL_MASKS = (1.0, 2.0, 2.5, 3.0)  # mask i holds the first i + 1 sections

_SECTION_NAMES = ("z0", "z1", "z2a", "z2b")
_SECTION_LABELS = {"z0": "z0", "z1": "z1", "z2a": "z2 (partial)", "z2b": "z2"}

# -- container -----------------------------------------------------------------


@dataclass
class Header:
    """The fields a decoder cannot derive; the padded extents, latent
    shapes (base channels among them) and partial count follow."""

    model_id: bytes
    orig_h: int
    orig_w: int
    channels: int
    p_thresh: float
    level_mask: float
    spec: QuantSpec
    base_ranges: list[tuple[int, int]]
    section_lengths: dict[str, int]

    @property
    def padded_size(self) -> tuple[int, int]:
        """The original extents rounded up to the transform's multiple."""
        return tuple(n + (-n) % 2 ** LEVELS for n in (self.orig_h, self.orig_w))

    @property
    def latent_shapes(self) -> LatentSet:
        return latent_shapes(self.channels, *self.padded_size)

    @property
    def partial_count(self) -> int:
        """The z2 elements in section z2a: PARTIAL_FRACTION of z2, rounded up."""
        return math.ceil(PARTIAL_FRACTION * math.prod(self.latent_shapes.z2))


def _sections_at(levels: float) -> tuple[str, ...]:
    """The sections a stream of level mask `levels` holds; the one check
    of a requested level mask."""
    if levels not in LEVEL_MASKS:
        raise ValueError(f"levels must be one of {list(LEVEL_MASKS)}, got {levels}")
    return _SECTION_NAMES[: LEVEL_MASKS.index(levels) + 1]


# The fixed fields: magic, version, model id, original extents, image
# channels, threshold, section count, and the grid indices of delta2 and
# delta1 (see `QuantSpec`).
_HEADER = struct.Struct("<4sB16sIIHdBhh")
_CRC = struct.Struct("<I")


def _header_tail(n_ch: int) -> struct.Struct:
    """The fixed-width fields after `_HEADER` in a header of `n_ch` base
    channels: the grid index of each channel's delta0, then the section
    lengths.  The base ranges (lo, hi) follow as `_varints`."""
    return struct.Struct(f"<{n_ch}b{len(_SECTION_NAMES)}I")


def _varints(values) -> bytes:
    """Each value as a zigzag LEB128 varint."""
    out = bytearray()
    for n in values:
        n = 2 * n if n >= 0 else -2 * n - 1
        while n >= 0x80:
            out.append(n & 0x7F | 0x80)
            n >>= 7
        out.append(n)
    return bytes(out)


def _read_varints(blob: bytes, pos: int, count: int) -> tuple[list[int], int]:
    """`count` canonical zigzag LEB128 varints from pos, each of at most 3
    bytes (a legal base range bound zigzags to 16 bits), and the position
    after them."""
    values = []
    for _ in range(count):
        n = 0
        for i, byte in enumerate(blob[pos : pos + 3]):
            n |= (byte & 0x7F) << 7 * i
            if byte < 0x80:
                break
        else:
            raise FormatError("bitstream truncated inside the header" if len(blob) < pos + 3
                              else "varint of more than 3 bytes in the header's base ranges")
        if byte == 0 and i > 0:
            raise FormatError("overlong varint in the header's base ranges")
        values.append((n >> 1) ^ -(n & 1))
        pos += i + 1
    return values, pos


def _pack_header(h: Header) -> bytes:
    k2, k1, k0 = h.spec.indices()
    out = _HEADER.pack(BITSTREAM_MAGIC, BITSTREAM_VERSION, h.model_id, h.orig_h, h.orig_w,
                       h.channels, h.p_thresh, len(_sections_at(h.level_mask)), k2, k1)
    out += _header_tail(len(k0)).pack(*k0, *(h.section_lengths.get(name, 0)
                                             for name in _SECTION_NAMES))
    out += _varints(k for lo_hi in h.base_ranges for k in lo_hi)
    return out + _CRC.pack(zlib.crc32(out))


def _parse_header(blob: bytes) -> tuple[Header, int]:
    if blob[:4] != BITSTREAM_MAGIC:
        raise FormatError(f"bad bitstream magic {blob[:4]!r}")
    if len(blob) > 4 and blob[4] != BITSTREAM_VERSION:
        raise FormatError(f"unsupported bitstream version {blob[4]}")
    try:
        (_, _, model_id, orig_h, orig_w, channels, p_thresh, n_sections,
         k2, k1) = _HEADER.unpack_from(blob)
        n_ch = latent_shapes(channels, 0, 0).z0[0]  # z0's channels, whatever the extents
        tail = _header_tail(n_ch)
        fields = tail.unpack_from(blob, _HEADER.size)
        flat_ranges, pos = _read_varints(blob, _HEADER.size + tail.size, 2 * n_ch)
        (crc,) = _CRC.unpack_from(blob, pos)
    except struct.error:
        raise FormatError("bitstream truncated inside the header") from None
    if zlib.crc32(blob[:pos]) != crc:
        raise FormatError("bitstream header CRC mismatch")
    if channels < 1:
        raise FormatError(f"header declares {channels} image channels, fewer than 1")
    if not 1 <= n_sections <= len(LEVEL_MASKS):
        raise FormatError(f"section count {n_sections} lies outside 1 to {len(LEVEL_MASKS)}")
    if not 0.0 < p_thresh <= 1.0:
        raise FormatError(f"threshold {p_thresh!r} lies outside (0, 1]")
    try:
        spec = QuantSpec.from_indices(k2, k1, fields[:n_ch])
    except ValueError as exc:
        raise FormatError(f"bad header steps: {exc}") from None
    header = Header(
        model_id=model_id, orig_h=orig_h, orig_w=orig_w, channels=channels,
        p_thresh=p_thresh, level_mask=LEVEL_MASKS[n_sections - 1], spec=spec,
        base_ranges=list(zip(flat_ranges[::2], flat_ranges[1::2])),
        section_lengths=dict(zip(_SECTION_NAMES, fields[n_ch:])),
    )
    for name in _SECTION_NAMES[n_sections:]:
        if header.section_lengths[name]:
            raise FormatError(f"section {_SECTION_LABELS[name]} holds "
                              f"{header.section_lengths[name]} bytes, beyond the "
                              f"{n_sections} sections the header declares")
    for axis, orig in (("height", orig_h), ("width", orig_w)):
        if orig < 1:
            raise FormatError(f"original {axis} {orig} is not positive")
    pad_h, pad_w = header.padded_size
    if pad_h * pad_w > MAX_PIXELS:
        raise FormatError(
            f"padded extents {pad_h}x{pad_w} exceed the {MAX_PIXELS}-pixel limit"
        )
    for i, (lo, hi) in enumerate(header.base_ranges):
        if not (-32768 <= lo <= hi <= 32767 and hi - lo + 1 <= MAX_SYMBOLS):
            raise FormatError(
                f"base channel {i} symbol range [{lo}, {hi}] is empty, wider than "
                f"{MAX_SYMBOLS} symbols or beyond 16 bits"
            )
    return header, pos + _CRC.size


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
        "padded_size": header.padded_size,
        "channels": header.channels,
        "p_thresh": header.p_thresh,
        "levels": header.level_mask,
        "partial_fraction": PARTIAL_FRACTION,
        "partial_count": header.partial_count,
        "delta2": header.spec.delta2,
        "delta1": header.spec.delta1,
        "delta0": header.spec.delta0.tolist(),
        "header_bytes": start,
        "section_bytes": dict(header.section_lengths),
        "total_bytes": len(blob),
    }


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
    k = grid_index(z0_hat[0], spec.delta0[:, None, None]).reshape(len(spec.delta0), -1)
    los, his = k.min(axis=1).tolist(), k.max(axis=1).tolist()
    for i, (lo, hi) in enumerate(zip(los, his)):
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
    return list(zip(los, his))


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
        raise NumericError(f"conditional means reach {float(np.abs(x).max())!r} steps, "
                           "beyond the 32-bit symbol range")
    center = np.round(x)
    offset = x - center
    a = np.searchsorted(_SCALE_EDGES, sigma[coded] / delta)
    keys = a * _OFFSET_SLOTS + np.round(np.abs(offset) * (2 * _OFFSET_M[a])).astype(np.int64)
    # the cells in use, ascending, and each element's index among them
    used = np.bincount(keys, minlength=len(_SCALES) * _OFFSET_SLOTS) > 0
    table_of = (np.cumsum(used) - 1)[keys]
    # a racing thread builds the identical table; either copy serves
    tables = [_CELLS.get(key) or _CELLS.setdefault(key, _cell_table(key))
              for key in np.flatnonzero(used).tolist()]
    return _Section(lo + coded, center.astype(np.int64), np.where(offset < 0, -1, 1),
                    table_of, tables, delta)


def _encode_section(s: _Section, flat: np.ndarray) -> bytes:
    return encode_symbols(s.sign * (grid_index(flat[s.coded], s.step) - s.center),
                          s.table_of, s.tables)


def _decode_section(payload: bytes, s: _Section, flat: np.ndarray, context: str) -> None:
    js = decode_symbols(payload, s.table_of, s.tables, context)
    flat[s.coded] = (s.center + s.sign * js) * s.step


def _walk(model: FlowModel, header: Header, z: LatentSet, present: tuple[str, ...],
          code: Callable[[str, _Section, np.ndarray], bytes | None],
          decoding: bool) -> tuple[dict[str, bytes | None], DecoderChain | None]:
    """Walk the sections in stream order, z0 first, up the decoder chain,
    over the latent arrays of z, which it updates in place, as `header` says.

    Each section named in `present` goes to code(name, section, flat
    level) once its skipped elements hold their mean symbol; every element
    of a section not present holds its mean symbol.  An encoder's walk
    stops after its last section; a decoder's walks every level and
    returns the chain with every level but the finest inverted.  A step
    that the prior or the cells cannot take names its section: a numeric
    error to an encoder, a format error to a decoder.
    """

    def uncodable(name: str, step: str, exc: NumericError) -> Exception:
        # the encoder fails on the same elements, so no stream codes them
        kind = FormatError if decoding else NumericError
        return kind(f"section {_SECTION_LABELS[name]}: {step} cannot be coded ({exc})")

    spec, cut = header.spec, header.partial_count
    flat = z.z0.reshape(-1)
    try:
        section = _base_section(model, header.model_id, spec, header.base_ranges, flat.size)
    except NumericError as exc:
        raise uncodable("z0", "the base steps", exc) from None
    out = {"z0": code("z0", section, flat)}
    chain = None
    for latent, delta, parts in ((z.z1, spec.delta1, (("z1", 0, z.z1.size),)),
                                 (z.z2, spec.delta2, (("z2a", 0, cut), ("z2b", cut, z.z2.size)))):
        if parts[0][0] not in present and not decoding:
            break
        chain = DecoderChain.start(model, z.z0) if chain is None else chain.invert(z.z1)
        mu, sigma = (t.data.reshape(-1) for t in chain.conditionals())
        flat = latent.reshape(-1)
        for name, lo, hi in parts:
            if name not in present:
                flat[lo:hi] = mean_symbol(mu[lo:hi], delta)
                continue
            try:
                section = _conditional_section(mu, sigma, delta, header.p_thresh, lo, hi, flat)
            except NumericError as exc:
                raise uncodable(name, f"step {delta!r}", exc) from None
            out[name] = code(name, section, flat)
    return out, chain


# -- public encode/decode --------------------------------------------------------------


@no_grad()
def encode_image(model: FlowModel, image: np.ndarray, spec: QuantSpec,
                 levels: float = 3.0, p_thresh: float = P_THRESH_DEFAULT) -> bytes:
    """Compress a finite (C,H,W) image, nominally in [0, 255], into a
    bitstream.

    Pads to the transform's extent multiple, rounds each latent level to
    its grid, entropy-codes the sections named by `levels`, and records
    everything a decoder needs in the container header.
    """
    present = _sections_at(levels)
    if not 0.0 < p_thresh <= 1.0:
        raise ValueError(f"p_thresh must lie in (0, 1], got {p_thresh!r}")
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[0] != model.config.in_channels:
        raise ModelMismatchError(
            f"image of shape {image.shape} does not match a "
            f"{model.config.in_channels}-channel model"
        )
    if image.size == 0:
        raise ValueError(f"image of shape {image.shape} has no pixels")
    if not np.isfinite(image).all():
        raise ValueError("image contains non-finite values")
    if len(spec.delta0) != model.base_channels:
        raise ModelMismatchError(
            f"step set declares {len(spec.delta0)} base channels, model has "
            f"{model.base_channels}"
        )
    orig_h, orig_w = image.shape[1], image.shape[2]
    padded = pad(image)
    if padded.shape[1] * padded.shape[2] > MAX_PIXELS:
        raise ValueError(f"padded image of {padded.shape[1]}x{padded.shape[2]} pixels "
                         f"exceeds the {MAX_PIXELS}-pixel limit")

    zs, _ = model.forward(Tensor(padded[None]))
    z = LatentSet(round_to_grid(zs.z2.data, spec.delta2), round_to_grid(zs.z1.data, spec.delta1),
                  round_to_grid(zs.z0.data, spec.delta0[None, :, None, None]))

    header = Header(
        model_id=model.model_id, orig_h=orig_h, orig_w=orig_w,
        channels=model.config.in_channels, p_thresh=p_thresh, level_mask=levels,
        spec=spec, base_ranges=_base_ranges(z.z0, spec), section_lengths={},
    )
    sections, _ = _walk(model, header, z, present,
                        lambda _, section, flat: _encode_section(section, flat),
                        decoding=False)
    header.section_lengths = {name: len(sections.get(name, b"")) for name in _SECTION_NAMES}
    return _pack_header(header) + b"".join(
        sections.get(name, b"") for name in _SECTION_NAMES
    )


def _check_against_model(header: Header, model: FlowModel) -> None:
    """The image channels, from which every other header count follows."""
    if header.channels != model.config.in_channels:
        raise FormatError(
            f"header declares {header.channels} image channels, model has "
            f"{model.config.in_channels}"
        )


@no_grad()
def _decode(model: FlowModel, blob: bytes,
            levels: float | None) -> tuple[LatentSet, Header, DecoderChain]:
    """Entropy-decode the latents up the decoder chain; the returned chain
    has inverted every level but the finest, which finishes the image."""
    if levels is not None:
        _sections_at(levels)  # a bad request is refused before the stream is read
    header, start = _parse_header(blob)
    if header.model_id != model.model_id:
        raise ModelMismatchError(
            f"bitstream was produced by model {header.model_id.hex()}, "
            f"decoding with {model.model_id.hex()}"
        )
    _check_against_model(header, model)
    if levels is None:
        levels = header.level_mask
    if levels > header.level_mask:
        raise FormatError(
            f"requested {levels} levels but the stream holds {header.level_mask}"
        )
    sections = _split_sections(blob, header, start)
    z = LatentSet(*(np.zeros((1,) + shape) for shape in header.latent_shapes))

    def decode(name: str, section: _Section, flat: np.ndarray) -> None:
        _decode_section(sections[name], section, flat, f"section {_SECTION_LABELS[name]}")

    _, chain = _walk(model, header, z, _sections_at(levels), decode, decoding=True)
    return z, header, chain


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
    x = chain.invert(latents.z2).features
    return x.data[0, :, : header.orig_h, : header.orig_w]


def truncate_bitstream(blob: bytes, target: float) -> bytes:
    """Drop trailing sections to the target level mask; model-free."""
    keep = _sections_at(target)
    header, start = _parse_header(blob)
    if target > header.level_mask:
        raise FormatError(
            f"cannot truncate to {target} levels: stream holds {header.level_mask}"
        )
    sections = _split_sections(blob, header, start)
    new_header = replace(header, level_mask=target, section_lengths={
        name: (header.section_lengths[name] if name in keep else 0)
        for name in _SECTION_NAMES
    })
    return _pack_header(new_header) + b"".join(sections[name] for name in keep)
