"""Fuzzing of both file formats: every mutated bitstream or model file
either decodes or raises FormatError / ModelMismatchError, never any
other exception.

The inputs are one 16x16 stream from the small test model and that
model's file.  Runs are derandomized, so a failure reproduces.
"""

import functools
import hashlib
import math
import struct
from dataclasses import replace

import numpy as np
from helpers import perturb_model
from hypothesis import given, settings
from hypothesis import strategies as st

import flowcodec.codec as C
from flowcodec.codec import decode_image, decode_latents, encode_image
from flowcodec.entropy import QuantSpec
from flowcodec.errors import FormatError, ModelMismatchError
from flowcodec.flow import FlowConfig, FlowModel, latent_shapes

FUZZ = settings(derandomize=True, max_examples=200, deadline=None, database=None)
REFUSED = (FormatError, ModelMismatchError)


@functools.cache
def model() -> FlowModel:
    m = FlowModel(FlowConfig(in_channels=3, steps=2, blocks=1, hidden=16, seed=11))
    perturb_model(m, np.random.default_rng(90), scale=0.01)
    return m


@functools.cache
def stream() -> bytes:
    rng = np.random.default_rng(98)
    yy, xx = np.mgrid[0:16, 0:16]
    base = 120 + 60 * np.sin(yy / 3.0) + 40 * np.cos(xx / 4.0)
    image = np.clip(np.stack([base, base.T, np.roll(base, 5, axis=0)])
                    + rng.normal(0, 6, (3, 16, 16)), 0, 255)
    return encode_image(model(), image, QuantSpec.uniform(1.0, model().base_channels))


def decodes_or_refuses(blob: bytes, levels: float | None = None) -> bool:
    """True when the blob decodes, False when it is refused; any other
    exception propagates and fails the test."""
    try:
        decode_image(model(), blob, levels)
    except REFUSED:
        return False
    return True


def with_header(header: C.Header, blob: bytes) -> bytes:
    """`blob`'s sections behind `header`, packed with a fresh CRC."""
    _, start = C._parse_header(blob)
    return C._pack_header(header) + blob[start:]


flips = st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(1, 255)), min_size=1, max_size=8)


class TestBitstream:
    @FUZZ
    @given(flips)
    def test_byte_flips(self, edits):
        blob = bytearray(stream())
        for at, bits in edits:
            blob[at % len(blob)] ^= bits
        decodes_or_refuses(bytes(blob))

    @FUZZ
    @given(st.data())
    def test_truncations(self, data):
        """Every proper prefix is refused, so is every prefix that a
        partial decode would read."""
        blob = stream()
        cut = data.draw(st.integers(0, len(blob) - 1))
        levels = data.draw(st.sampled_from([None, 1.0, 2.0, 2.5, 3.0]))
        assert not decodes_or_refuses(blob[:cut], levels)

    @FUZZ
    @given(st.sampled_from(C._SECTION_NAMES), st.integers(-300, 300), st.booleans())
    def test_section_length_edits(self, name, change, move_bytes):
        """A section length edited with the CRC recomputed is refused,
        whether the bytes stay put (the sections no longer tile the
        stream) or move with it (one section is cut short or carries
        bytes its code never reads)."""
        blob = stream()
        header, start = C._parse_header(blob)
        sections = C._split_sections(blob, header, start)
        length = max(0, len(sections[name]) + change)
        if length == len(sections[name]):
            length += 1
        if move_bytes:
            sections[name] = (sections[name] + bytes(range(256)) * 2)[:length]
        header.section_lengths[name] = length
        edited = C._pack_header(header) + b"".join(sections.values())
        assert not decodes_or_refuses(edited)

    def test_padded_extents_must_match_the_originals(self):
        """The padded extents follow from the original ones: a 256x256
        image's all-zero z0 section, every base range of width 1, behind a
        level-1 header that declares 16x16 originals is read as a 16x16
        stream, never decoded at 256x256.  Under width-1 ranges the section
        codes to the same 5 bytes as a 16x16 image's, so the stream is a
        valid 16x16 one."""
        m = model()
        header, _ = C._parse_header(stream())
        ranges = [(0, 0)] * m.base_channels

        def zero_section(size: int) -> bytes:
            n = math.prod(latent_shapes(m.config.in_channels, size, size).z0)
            return C._encode_section(C._base_section(m, m.model_id, header.spec, ranges, n),
                                     np.zeros(n))

        z0 = zero_section(256)
        header = replace(header, level_mask=1.0, base_ranges=ranges,
                         section_lengths=dict.fromkeys(C._SECTION_NAMES, 0) | {"z0": len(z0)})
        blob = C._pack_header(header) + z0
        assert (header.orig_h, header.orig_w) == (16, 16)
        assert C.inspect_bitstream(blob)["padded_size"] == (16, 16)
        assert z0 == zero_section(16)
        assert decode_image(m, blob).shape == (3, 16, 16)

    @FUZZ
    @given(st.lists(st.integers(-128, 127), min_size=1, max_size=4),
           st.lists(st.tuples(st.integers(0, 47),
                              st.one_of(st.integers(-32768, 32767),
                                        st.integers(-(1 << 22), 1 << 22)),
                              st.sampled_from([-1, 0, 1, 2, 129, 4096, 32768, 32769])),
                    max_size=2))
    def test_hostile_steps_and_base_ranges(self, steps, ranges):
        """Hostile delta0 grid indices, any signed byte, and base ranges
        (reversed, wider than the coder's tables, beyond 16 bits or with
        varints longer than 3 bytes), with the CRC recomputed, reach the
        prior-block cache and still only decode or refuse; the cache stays
        within its cap."""
        blob = stream()
        header, _ = C._parse_header(blob)
        k2, k1, k0 = header.spec.indices()
        for i, k in enumerate(steps):
            k0[(7 * i) % len(k0)] = k
        base_ranges = list(header.base_ranges)
        for channel, lo, width in ranges:
            base_ranges[channel] = (lo, lo + width - 1)
        header = replace(header, spec=QuantSpec.from_indices(k2, k1, k0),
                         base_ranges=base_ranges)
        decodes_or_refuses(with_header(header, blob))
        assert sum(block.nbytes for block in C._BLOCKS.values()) <= C._BLOCK_CAP

    @FUZZ
    @given(st.data())
    def test_header_fields(self, data):
        """Random values in every numeric header field, CRC recomputed."""
        blob = stream()
        header, _ = C._parse_header(blob)
        field = data.draw(st.sampled_from(["orig_h", "orig_w", "channels", "p_thresh",
                                           "level_mask"]))
        if field == "level_mask":
            value = data.draw(st.sampled_from(C.LEVEL_MASKS))
        elif field == "p_thresh":
            value = data.draw(st.floats(allow_nan=True, allow_infinity=True))
        else:
            limit = {"channels": 0xFFFF}.get(field, 0xFFFFFFFF)
            value = data.draw(st.one_of(st.integers(0, 64), st.integers(0, limit)))
        edited = with_header(replace(header, **{field: value}), blob)
        try:
            decode_latents(model(), edited)
        except REFUSED:
            pass


class TestModelFile:
    @staticmethod
    def load(raw: bytes) -> None:
        """Load `raw`; a model that loads must write `raw` back, carry its
        hash as its id, and then decode the stream or refuse it."""
        try:
            other = FlowModel.from_bytes(raw)
        except FormatError:
            return
        assert other.to_bytes() == raw
        assert other.model_id == hashlib.sha256(raw).digest()[:16]
        try:
            decode_image(other, stream())
        except REFUSED:
            pass

    @FUZZ
    @given(flips)
    def test_byte_flips(self, edits):
        raw = bytearray(model().to_bytes())
        for at, bits in edits:
            raw[at % len(raw)] ^= bits
        self.load(bytes(raw))

    @FUZZ
    @given(st.data())
    def test_truncations(self, data):
        raw = model().to_bytes()
        cut = data.draw(st.integers(0, len(raw) - 1))
        self.load(raw[:cut])

    @FUZZ
    @given(flips, st.booleans())
    def test_flips_with_the_hash_recomputed(self, edits, header_only):
        """Flips behind a valid content hash reach the header and
        parameter parsers; header_only keeps them in the fixed-size
        header and length fields."""
        body = bytearray(model().to_bytes()[:-32])
        span = 4 + struct.calcsize("<BBBBBHHQBBdQ") if header_only else len(body)
        for at, bits in edits:
            body[at % span] ^= bits
        self.load(bytes(body) + hashlib.sha256(bytes(body)).digest())


def test_fuzz_inputs_are_valid():
    """The unmutated inputs decode, so the mutations above are what is refused."""
    assert decodes_or_refuses(stream())
    assert FlowModel.from_bytes(model().to_bytes()).model_id == model().model_id
