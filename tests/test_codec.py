"""Codec: round trips, skip agreement, container rules, progressive modes."""

import math
import struct
import sys
import threading
import zlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    cum,
    decode_conditional,
    encode_conditional,
    freqs,
    perturb_model,
    reference_conditionals,
    skip_boundary_sigma,
)

import flowcodec.codec as C
from flowcodec.codec import (
    decode_image,
    decode_latents,
    encode_image,
    inspect_bitstream,
    pad_to_multiple,
    truncate_bitstream,
)
from flowcodec.entropy import FactorizedPrior, QuantSpec, logistic_bin_prob, mean_symbol
from flowcodec.errors import FormatError, ModelMismatchError, NumericError
from flowcodec.flow import FlowConfig, FlowLevel, FlowModel
from flowcodec.quantize import round_to_grid
from flowcodec.rangecoder import TOTAL, FrequencyTable
from flowcodec.tensor import Tensor, no_grad


@pytest.fixture(scope="module")
def model():
    m = FlowModel(FlowConfig(in_channels=3, steps=2, blocks=1, hidden=16, seed=11))
    perturb_model(m, np.random.default_rng(90), scale=0.01)
    return m


@pytest.fixture(scope="module")
def image():
    rng = np.random.default_rng(91)
    yy, xx = np.mgrid[0:32, 0:32]
    base = 96 + 64 * np.sin(yy / 5.0) + 48 * np.cos(xx / 7.0)
    img = np.stack([base, np.roll(base, 3, axis=1), base.T]) + rng.normal(0, 4, (3, 32, 32))
    return np.clip(img, 0, 255)


def spec_for(model, step=1.0):
    return QuantSpec.uniform(step, model.base_channels)


class TestPadding:
    def test_multiple_preserved(self):
        img = np.arange(3 * 8 * 8, dtype=np.float64).reshape(3, 8, 8)
        assert pad_to_multiple(img, 8) is img

    def test_pads_to_next_multiple(self):
        img = np.ones((3, 9, 14))
        out = pad_to_multiple(img, 8)
        assert out.shape == (3, 16, 16)

    def test_tiny_image(self):
        img = np.random.default_rng(92).normal(size=(1, 2, 3))
        out = pad_to_multiple(img, 8)
        assert out.shape == (1, 8, 8)
        assert np.array_equal(out[:, :2, :3], img)


class TestRoundTrip:
    def test_latents_bitwise_roundtrip(self, model, image):
        """Decoded latents equal the encoder's effective latents exactly."""
        spec = spec_for(model, 1.0)
        blob = encode_image(model, image, spec)
        latents, header = decode_latents(model, blob)

        padded = pad_to_multiple(image, 8)
        with no_grad():
            zs, _ = model.forward(Tensor(padded[None].astype(np.float64)))
        z0_expected = round_to_grid(zs[2].data, spec.delta0[None, :, None, None])
        assert np.array_equal(latents.z0, z0_expected)

        # z1: coded elements match the grid, skipped ones match the mean symbol
        mu1, sig1 = reference_conditionals(model, 1, [None, None, z0_expected])
        skip1 = C._skip_mask(mu1, sig1, spec.delta1, header.p_thresh)
        z1_expected = np.where(skip1, mean_symbol(mu1, spec.delta1),
                               round_to_grid(zs[1].data, spec.delta1))
        assert np.array_equal(latents.z1, z1_expected)

        mu2, sig2 = reference_conditionals(model, 0, [None, z1_expected, z0_expected])
        skip2 = C._skip_mask(mu2, sig2, spec.delta2, header.p_thresh)
        z2_expected = np.where(skip2, mean_symbol(mu2, spec.delta2),
                               round_to_grid(zs[0].data, spec.delta2))
        assert np.array_equal(latents.z2, z2_expected)

    def test_each_level_inverted_once(self, model, image, monkeypatch):
        """The encoder stops after coding z2, and the decoder finishes the
        image from the features it rebuilt, so no level is inverted twice."""
        calls = Counter()
        inverse = FlowLevel.inverse

        def counted(level, z, h):
            calls[model.levels.index(level)] += 1
            return inverse(level, z, h)

        monkeypatch.setattr(FlowLevel, "inverse", counted)
        blob = encode_image(model, image, spec_for(model, 1.0), levels=3.0)
        assert calls == {2: 1, 1: 1}
        calls.clear()
        decode_image(model, blob)
        assert calls == {2: 1, 1: 1, 0: 1}

    def test_one_coder_call_per_section(self, model, image, monkeypatch):
        """A level-3 encode and its decode code each of the four sections
        with one encode_symbols / decode_symbols call, looked up as module
        globals of flowcodec.codec, the names a tracer hooks.  With warm
        caches neither side evaluates the prior or builds a table per
        channel: z0's tables come from one batched build."""
        spec = spec_for(model, 1.0)
        encode_image(model, image, spec)  # warms the cell tables and prior blocks it needs
        calls = Counter()
        for name in ("encode_symbols", "decode_symbols", "build_freq_table", "build_freq_tables"):
            def counted(*args, _name=name, _original=getattr(C, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(C, name, counted)
        bin_prob = FactorizedPrior.bin_prob

        def counted_prior(*args):
            calls["bin_prob"] += 1
            return bin_prob(*args)

        monkeypatch.setattr(FactorizedPrior, "bin_prob", counted_prior)
        blob = encode_image(model, image, spec, levels=3.0)
        assert calls == {"encode_symbols": 4, "build_freq_tables": 1}
        calls.clear()
        decode_image(model, blob)
        assert calls == {"decode_symbols": 4, "build_freq_tables": 1}

    def test_decode_deterministic(self, model, image):
        blob = encode_image(model, image, spec_for(model, 0.5))
        a = decode_image(model, blob)
        b = decode_image(model, blob)
        assert np.array_equal(a, b)

    def test_extents_restored(self, model):
        rng = np.random.default_rng(93)
        img = np.clip(rng.normal(128, 40, size=(3, 21, 29)), 0, 255)
        blob = encode_image(model, img, spec_for(model, 1.0))
        out = decode_image(model, blob)
        assert out.shape == img.shape

    def test_reencode_idempotent_bytes(self, model, image):
        """Compressing the decode reproduces the identical bitstream."""
        spec = spec_for(model, 0.5)
        blob1 = encode_image(model, image, spec)
        x1 = decode_image(model, blob1)
        blob2 = encode_image(model, x1, spec)
        assert blob2 == blob1
        x2 = decode_image(model, blob2)
        assert np.array_equal(x1, x2)

    def test_finer_steps_improve_quality_and_size(self, model, image):
        # p_thresh 1 codes every element, isolating pure grid error; mean
        # substitution accuracy is a trained-model property
        coarse = encode_image(model, image, spec_for(model, 2.0), p_thresh=1.0)
        fine = encode_image(model, image, spec_for(model, 0.25), p_thresh=1.0)
        assert len(fine) > len(coarse)
        err_coarse = np.max(np.abs(decode_image(model, coarse) - image))
        err_fine = np.max(np.abs(decode_image(model, fine) - image))
        assert err_fine < err_coarse


class TestSkipDecisions:
    def test_all_skipped_when_sigma_below_boundary(self, model, image):
        """Huge steps put every conditional below the skip boundary (the
        scale clamp caps sigma at e^7 < delta/(2 ln 19)): the conditional
        payloads are nothing but the coder flush."""
        spec = QuantSpec(1e4, 1e4, np.full(model.base_channels, 1.0))
        blob = encode_image(model, image, spec)
        info = inspect_bitstream(blob)
        assert info["section_bytes"]["z1"] == 5  # flush-only stream
        assert info["section_bytes"]["z2a"] == 5
        assert info["section_bytes"]["z2b"] == 5
        decode_image(model, blob)  # still decodable

    def test_p_thresh_one_codes_everything(self, model, image):
        spec = spec_for(model, 1.0)
        blob_all = encode_image(model, image, spec, p_thresh=1.0)
        blob_default = encode_image(model, image, spec)
        assert len(blob_all) >= len(blob_default)
        out = decode_image(model, blob_all)
        assert out.shape == image.shape

    def test_adversarial_sigma_straddles_boundary(self):
        """Encoder and decoder skip decisions agree for scales straddling
        the threshold boundary, and symbols round-trip bitwise."""
        rng = np.random.default_rng(94)
        delta, p = 1.0, 0.9
        boundary = skip_boundary_sigma(delta, p)
        eps = np.array([-1e-9, -1e-12, 0.0, 1e-12, 1e-9, -1e-4, 1e-4])
        sigma = boundary * (1.0 + np.tile(eps, 30))
        n = sigma.size
        mu = np.where(rng.random(n) < 0.5, 0.0, rng.normal(0, 3, n))
        values = round_to_grid(rng.normal(0, 2, n), delta)

        skip_enc = C._skip_mask(mu, sigma, delta, p)
        payload, effective, coded = encode_conditional(values, mu, sigma, delta, p)
        out, decoded_count = decode_conditional(payload, mu, sigma, delta, p, "adversarial")
        assert decoded_count == coded == int((~skip_enc).sum())
        assert np.array_equal(out, effective.reshape(-1))
        assert np.array_equal(out[~skip_enc], values[~skip_enc])
        assert np.array_equal(out[skip_enc], mean_symbol(mu, delta)[skip_enc])

    def test_escape_path_roundtrip(self):
        # an outlier far outside the table span goes through the escape slot
        mu = np.zeros((1, 1, 1, 3))
        sigma = np.full((1, 1, 1, 3), 0.4)
        values = np.array([0.0, 500.0, -1.0]).reshape(1, 1, 1, 3)
        payload, effective, coded = encode_conditional(values, mu, sigma, 1.0, 0.9)
        out, _ = decode_conditional(payload, mu, sigma, 1.0, 0.9, "esc")
        assert coded == 3
        assert np.array_equal(out, values.reshape(-1))


class TestGridTables:
    """Conditional tables on the (offset, scale) grid over sigma/delta in
    [1e-3, 1e4] and |mu/delta| up to 1e6, including the 8191-symbol
    half-width cap."""

    @staticmethod
    def cases():
        """(mu/delta, sigma/delta, delta) triples: fixed extremes, then a sweep."""
        rng = np.random.default_rng(95)
        out = [(0.0, 1e-3, 1.0), (0.5, 1e4, 1.0), (-1e6, 1e4, 1.0), (1e6, 1e-3, 1.0),
               (2.5, 1365.0, 0.5), (-7.25, 1400.0, 0.25), (3e5, 250.0, 1e-3)]
        for _ in range(60):
            m = float(rng.uniform(-1, 1) * 10.0 ** rng.uniform(0, 6))
            out.append((m, float(10.0 ** rng.uniform(-3, 4)), float(10.0 ** rng.uniform(-3, 1))))
        return out

    @staticmethod
    def table_for(m, r, delta):
        # p_thresh 1 codes every element
        s = C._conditional_section(np.array([m * delta]), np.array([r * delta]), delta, 1.0,
                                   0, 1, np.zeros(1))
        assert s.center[0] == round(m) and s.sign[0] == (-1 if m < round(m) else 1)
        return s.tables[s.table_of[0]]

    def test_starts_total_and_floors(self):
        for m, r, delta in self.cases():
            table = self.table_for(m, r, delta)
            assert len(table.starts) <= 2 * 8191 + 2
            counts = cum(table)
            assert counts[0] == 0 and counts[-1] == TOTAL, (m, r, delta)
            assert freqs(table).min() >= 1, (m, r, delta)

    def test_random_symbols_roundtrip_with_escapes(self):
        rng = np.random.default_rng(96)
        cases = np.array(self.cases())
        n, delta = 400, 0.5
        m, r, _ = cases[rng.integers(0, len(cases), n)].T
        offset = np.round(rng.logistic(size=n) * r)
        outlier = rng.random(n) < 0.1  # beyond any window: escapes
        offset[outlier] = rng.choice([-1, 1], outlier.sum()) * rng.integers(9000, 10**6, outlier.sum())
        values = (np.round(m) + offset) * delta
        shape = (1, 1, 1, n)
        mu, sigma = (m * delta).reshape(shape), (r * delta).reshape(shape)
        payload, effective, coded = encode_conditional(values.reshape(shape), mu, sigma,
                                                       delta, 1.0)
        out, decoded_count = decode_conditional(payload, mu, sigma, delta, 1.0, "sweep")
        assert decoded_count == coded == n
        assert np.array_equal(out, values)

    def test_cell_tables_do_not_depend_on_the_cache(self, monkeypatch):
        """A cell built with the cache cleared, or in another order, equals
        the cached table."""
        cached = {id(t): t for m, r, delta in self.cases()
                  for t in [self.table_for(m, r, delta)]}
        keys = {key: table for key, table in C._CELLS.items() if id(table) in cached}
        assert len(keys) == len(cached)
        monkeypatch.setattr(C, "_CELLS", {})
        for key in sorted(keys, reverse=True):
            fresh = C._cell_table(key)
            assert fresh.k_min == keys[key].k_min
            assert fresh.starts == keys[key].starts

    def test_extreme_cells_keep_the_one_count_floor(self):
        """Where the logistic mass underflows to the probability floor,
        build_freq_table still gives every slot at least one count."""
        top = len(C._SCALES) - 1
        m_lo, m_hi = C._OFFSET_M[0], C._OFFSET_M[top]
        for a, b in ((0, 0), (0, m_lo), (top, 0), (top, m_hi)):
            table = C._cell_table(a * C._OFFSET_SLOTS + int(b))
            assert freqs(table).min() >= 1
            assert freqs(table)[-1] == 1
        with pytest.raises(NumericError, match="at least one"):
            FrequencyTable(0, np.array([TOTAL - 1, 0, 1]))

    def test_grid_bounds(self):
        """Neighbouring scales are at most 1.15x apart, and the cache with
        every cell built stays under 2 MB of table starts."""
        assert np.max(C._SCALES[1:] / C._SCALES[:-1]) <= 1.15
        assert C._window(C._SCALES[-1]) == 8191
        worst = sum((2 * C._window(s) + 2) * 2 * (int(m) + 1)
                    for s, m in zip(C._SCALES, C._OFFSET_M))
        assert worst <= 2_000_000

    def test_threads_share_the_cache(self, model, image, monkeypatch):
        """Encodes and decodes in 4 threads over one shared model, starting
        from empty cell and prior-block caches, give the bytes and decodes
        of sequential runs; a cap of four prior blocks makes the threads
        evict each other's blocks as they go."""
        jobs = [(img, step) for img in (image, image[:, :16, :24]) for step in (0.25, 1.0, 4.0)]

        def run(job):
            img, step = job
            blob = encode_image(model, img, spec_for(model, step))
            return blob, decode_image(model, blob)

        monkeypatch.setattr(C, "_CELLS", {})
        monkeypatch.setattr(C, "_BLOCKS", {})
        expected = [run(job) for job in jobs]
        monkeypatch.setattr(C, "_CELLS", {})
        monkeypatch.setattr(C, "_BLOCKS", {})
        monkeypatch.setattr(C, "_BLOCK_CAP", 4 * model.base_channels * C._BLOCK * 8)
        results, errors = {}, []

        def worker(offset):
            try:
                for i in range(len(jobs)):
                    j = (i + offset) % len(jobs)
                    results[offset, j] = run(jobs[j])
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(results) == 4 * len(jobs)
        for (_, j), (blob, out) in results.items():
            assert blob == expected[j][0]
            assert np.array_equal(out, expected[j][1])
        assert sum(block.nbytes for block in C._BLOCKS.values()) <= C._BLOCK_CAP


class TestPriorBlocks:
    """z0's bin masses come from canonical blocks of the prior, cached per
    (model id, delta0, block); tables and bytes never depend on what the
    cache held."""

    JOBS = [(crop, step) for crop in (None, (16, 24)) for step in (0.25, 1.0, 4.0)]

    @staticmethod
    def encode(model, image, job):
        crop, step = job
        img = image if crop is None else image[:, : crop[0], : crop[1]]
        return encode_image(model, img, spec_for(model, step))

    def test_cold_and_warm_caches_give_the_same_bytes(self, model, image, monkeypatch):
        """Encodes from an empty block cache, and in two orders of images
        and steps over a warming one, give identical bytes; a decode from
        an empty cache equals the warm decode."""
        cold = []
        for job in self.JOBS:
            monkeypatch.setattr(C, "_BLOCKS", {})
            cold.append(self.encode(model, image, job))
        for order in (self.JOBS, self.JOBS[::-1]):
            monkeypatch.setattr(C, "_BLOCKS", {})
            warm = {job: self.encode(model, image, job) for job in order}
            assert [warm[job] for job in self.JOBS] == cold
        for blob in cold:
            warm_out = decode_image(model, blob)
            monkeypatch.setattr(C, "_BLOCKS", {})
            assert np.array_equal(decode_image(model, blob), warm_out)

    def test_cache_stays_within_its_cap(self, model, image, monkeypatch):
        """Decoding streams with 100 distinct delta0 vectors keeps the
        cached blocks within the byte cap, evicting the oldest first."""
        rng = np.random.default_rng(97)
        steps = [rng.uniform(0.25, 0.5, model.base_channels) for _ in range(100)]
        blobs = [encode_image(model, image[:, :16, :16], QuantSpec(1.0, 1.0, delta0))
                 for delta0 in steps]
        monkeypatch.setattr(C, "_BLOCKS", {})
        for blob in blobs:
            decode_image(model, blob)
            assert sum(block.nbytes for block in C._BLOCKS.values()) <= C._BLOCK_CAP
        cached = {key[1] for key in C._BLOCKS}
        assert steps[-1].tobytes() in cached and steps[0].tobytes() not in cached


class TestProgressive:
    def test_level1_stream_has_only_base_section(self, model, image):
        blob = encode_image(model, image, spec_for(model, 1.0), levels=1.0)
        info = inspect_bitstream(blob)
        assert info["levels"] == 1.0
        assert info["section_bytes"]["z0"] > 0
        assert info["section_bytes"]["z1"] == 0
        assert info["section_bytes"]["z2a"] == 0
        assert info["section_bytes"]["z2b"] == 0

    def test_lower_levels_smaller_files(self, model, image):
        spec = spec_for(model, 0.5)
        sizes = [len(encode_image(model, image, spec, levels=lv))
                 for lv in (1.0, 2.0, 2.5, 3.0)]
        assert sizes == sorted(sizes)
        assert len(set(sizes)) == 4

    def test_truncation_matches_direct_encode(self, model, image):
        spec = spec_for(model, 0.5)
        full = encode_image(model, image, spec, levels=3.0)
        for lv in (1.0, 2.0, 2.5):
            direct = encode_image(model, image, spec, levels=lv)
            assert truncate_bitstream(full, lv) == direct

    def test_truncate_idempotent(self, model, image):
        full = encode_image(model, image, spec_for(model, 0.5))
        t = truncate_bitstream(full, 2.0)
        assert truncate_bitstream(t, 2.0) == t

    def test_truncate_to_1_then_decode_equals_1_level_decode(self, model, image):
        full = encode_image(model, image, spec_for(model, 0.5))
        a = decode_image(model, truncate_bitstream(full, 1.0), levels=1.0)
        b = decode_image(model, full, levels=1.0)
        assert np.array_equal(a, b)

    def test_cannot_raise_level(self, model, image):
        blob = encode_image(model, image, spec_for(model, 1.0), levels=2.0)
        with pytest.raises(FormatError, match="holds"):
            decode_image(model, blob, levels=3.0)
        with pytest.raises(FormatError, match="truncate"):
            truncate_bitstream(blob, 3.0)

    def test_partial_decode_between_whole_levels(self, model, image):
        spec = spec_for(model, 0.25)
        full = encode_image(model, image, spec, levels=3.0)
        outs = {lv: decode_image(model, full, levels=lv) for lv in (2.0, 2.5, 3.0)}
        e2 = np.mean((outs[2.0] - image) ** 2)
        e25 = np.mean((outs[2.5] - image) ** 2)
        e3 = np.mean((outs[3.0] - image) ** 2)
        assert e3 < e25 < e2


class TestContainer:
    def test_inspect_fields(self, model, image):
        spec = spec_for(model, 1.0)
        blob = encode_image(model, image, spec, levels=3.0)
        info = inspect_bitstream(blob)
        assert info["levels"] == 3.0
        assert info["original_size"] == (32, 32)
        assert info["padded_size"] == (32, 32)
        assert info["channels"] == 3
        assert info["p_thresh"] == 0.9
        assert len(info["delta0"]) == model.base_channels
        assert info["total_bytes"] == len(blob)

    def test_header_crc_detects_corruption(self, model, image):
        blob = bytearray(encode_image(model, image, spec_for(model, 1.0)))
        blob[30] ^= 0x01
        with pytest.raises((FormatError, ModelMismatchError)):
            inspect_bitstream(bytes(blob))
            decode_image(model, bytes(blob))

    def test_truncated_payload_names_section(self, model, image):
        blob = encode_image(model, image, spec_for(model, 1.0))
        with pytest.raises(FormatError, match="section"):
            decode_image(model, blob[:-10])

    def test_wrong_model_rejected(self, model, image):
        blob = encode_image(model, image, spec_for(model, 1.0))
        other = FlowModel(FlowConfig(in_channels=3, steps=2, blocks=1, hidden=16, seed=99))
        with pytest.raises(ModelMismatchError, match="produced by model"):
            decode_image(other, blob)

    def test_wrong_channel_image_rejected(self, model):
        with pytest.raises(ModelMismatchError, match="channel"):
            encode_image(model, np.zeros((1, 16, 16)), spec_for(model, 1.0))

    def test_header_cut_short_anywhere(self, model, image):
        blob = encode_image(model, image, spec_for(model, 1.0))
        _, start = C._parse_header(blob)
        for cut in range(start):
            with pytest.raises(FormatError):
                inspect_bitstream(blob[:cut])

    @pytest.mark.parametrize("field,value", [
        ("delta2", float("nan")), ("delta2", 0.0), ("delta1", -1.0), ("delta1", float("inf")),
        ("delta0", float("nan")), ("delta0", 0.0),
        ("p_thresh", float("nan")), ("p_thresh", 0.0), ("p_thresh", 1.5), ("p_thresh", -0.1),
    ])
    def test_bad_header_values_rejected(self, model, image, field, value):
        """Non-finite or non-positive steps and thresholds outside (0, 1]
        are format errors even when the header CRC is recomputed."""
        blob = bytearray(encode_image(model, image, spec_for(model, 1.0)))
        _, start = C._parse_header(bytes(blob))
        p_thresh_at = 5 + 16 + struct.calcsize("<IIIIH")
        delta2_at = p_thresh_at + struct.calcsize("<dBdI")
        offset = {"p_thresh": p_thresh_at, "delta2": delta2_at, "delta1": delta2_at + 8,
                  "delta0": delta2_at + struct.calcsize("<ddH")}[field]
        struct.pack_into("<d", blob, offset, value)
        struct.pack_into("<I", blob, start - 4, zlib.crc32(bytes(blob[: start - 4])))
        with pytest.raises(FormatError):
            inspect_bitstream(bytes(blob))
        with pytest.raises(FormatError):
            decode_image(model, bytes(blob))

    @pytest.mark.parametrize("step", [1e-300, 5e-324])
    def test_uncodable_step_is_a_format_error(self, model, image, step):
        """A valid header whose step no encoder can code with fails to
        decode with FormatError, not an arithmetic error."""
        blob = encode_image(model, image, spec_for(model, 1.0))
        header, start = C._parse_header(blob)
        header.spec = QuantSpec(header.spec.delta2, step, header.spec.delta0)
        with np.errstate(over="ignore"), pytest.raises(FormatError, match="section z1"):
            decode_image(model, C._pack_header(header) + blob[start:])

    def test_base_step_the_prior_cannot_take_is_a_format_error(self, model, image):
        """A header step under which a valid model's prior yields no finite
        masses (a weight whose softplus is 0 meets an infinite argument)
        fails to decode with FormatError naming z0."""
        other = FlowModel.from_bytes(model.to_bytes())
        other.prior.matrices[1].data[0, 0, 0] = -1e4
        blob = encode_image(other, image, spec_for(other, 1.0))
        header, start = C._parse_header(blob)
        delta0 = header.spec.delta0.copy()
        delta0[0] = 1e308
        header.spec = QuantSpec(header.spec.delta2, header.spec.delta1, delta0)
        with np.errstate(all="ignore"), pytest.raises(FormatError, match="section z0"):
            decode_image(other, C._pack_header(header) + blob[start:])

    def test_version_1_rejected(self, model, image):
        blob = bytearray(encode_image(model, image, spec_for(model, 1.0)))
        blob[4] = 1
        with pytest.raises(FormatError, match="version 1"):
            inspect_bitstream(bytes(blob))

    @pytest.mark.parametrize("p_thresh", [0.0, 1.5, float("nan")])
    def test_encoder_rejects_bad_threshold(self, model, image, p_thresh):
        with pytest.raises(ValueError, match="p_thresh"):
            encode_image(model, image, spec_for(model, 1.0), p_thresh=p_thresh)

    @pytest.mark.parametrize("partial_frac", [-0.5, 1.5, float("nan")])
    def test_encoder_rejects_bad_partial_fraction(self, model, image, partial_frac):
        """A fraction above 1 would declare more partial elements than z2
        holds, which the decoder refuses."""
        with pytest.raises(ValueError, match="partial_frac"):
            encode_image(model, image, spec_for(model, 1.0), partial_frac=partial_frac)

    @pytest.mark.parametrize("field,value,match", [
        ("channels", 1, "image channels"),
        ("base_channels", None, "base channels"),
        ("pad_h", 32 + 3, "padded height"),
        ("pad_w", 0, "padded width"),
        ("orig_h", 0, "original height"),
        ("orig_w", 33, "original width"),
        ("partial_count", None, "partial count"),
        ("base_ranges", "reversed", "symbol range"),
        ("base_ranges", "too wide", "symbol range"),
    ])
    def test_header_fields_checked(self, model, image, field, value, match):
        """Header fields that disagree with the model or with each other are
        format errors even when the header CRC is recomputed."""
        blob = encode_image(model, image, spec_for(model, 1.0))
        header, start = C._parse_header(blob)
        if field == "base_channels":  # drop the last channel's step and range
            spec = header.spec
            header = replace(header, spec=QuantSpec(spec.delta2, spec.delta1, spec.delta0[:-1]),
                             base_ranges=header.base_ranges[:-1])
        elif field == "partial_count":  # one past the z2 element count
            n_z2 = math.prod(model.latent_shapes(header.pad_h, header.pad_w)[0])
            header = replace(header, partial_count=n_z2 + 1)
        elif field == "base_ranges":  # first channel's range reversed or widest
            lo, hi = header.base_ranges[0]
            first = (hi + 1, lo) if value == "reversed" else (-32768, 32767)
            header = replace(header, base_ranges=[first] + header.base_ranges[1:])
        else:
            header = replace(header, **{field: value})
        with pytest.raises(FormatError, match=match):
            decode_image(model, C._pack_header(header) + blob[start:])

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            inspect_bitstream(b"JUNKJUNKJUNKJUNK" * 8)

    def test_pixel_limit(self, model, image, monkeypatch):
        """A header of 2^16 x 2^16 padded pixels (CRC recomputed) is refused
        before any latent is allocated, and the encoder refuses to write a
        stream past the limit."""
        blob = encode_image(model, image, spec_for(model, 1.0))
        header, start = C._parse_header(blob)
        big = C._pack_header(replace(header, orig_h=1 << 16, orig_w=1 << 16,
                                     pad_h=1 << 16, pad_w=1 << 16)) + blob[start:]
        with pytest.raises(FormatError, match="pixel limit"):
            inspect_bitstream(big)
        with pytest.raises(FormatError, match="pixel limit"):
            decode_image(model, big)
        monkeypatch.setattr(C, "MAX_PIXELS", 32 * 24)
        with pytest.raises(ValueError, match="pixel limit"):
            encode_image(model, image, spec_for(model, 1.0))
        with pytest.raises(FormatError, match="pixel limit"):
            inspect_bitstream(blob)

    def test_hostile_section_is_corrupt(self, model, image):
        """A z2b section of 100,000 0xFF bytes, with its length and the
        header CRC consistent, is refused as corrupt instead of decoding
        into garbage while the coder's code value grows each symbol."""
        blob = encode_image(model, image, spec_for(model, 1.0))
        header, start = C._parse_header(blob)
        sections = C._split_sections(blob, header, start)
        sections["z2b"] = b"\xff" * 100_000
        header.section_lengths["z2b"] = len(sections["z2b"])
        hostile = C._pack_header(header) + b"".join(sections.values())
        with pytest.raises(FormatError, match="corrupt section z2"):
            decode_image(model, hostile)

    @pytest.mark.parametrize("name", ["z0", "z1"])
    def test_unread_section_bytes_rejected(self, model, image, name):
        """800 junk bytes after the code of a section, with the section
        length and the header CRC consistent, are refused: the decoder
        reads every byte of a valid section."""
        blob = encode_image(model, image, spec_for(model, 1.0))
        header, start = C._parse_header(blob)
        sections = C._split_sections(blob, header, start)
        sections[name] += bytes(np.random.default_rng(96).integers(0, 256, 800, dtype=np.uint8))
        header.section_lengths[name] = len(sections[name])
        padded = C._pack_header(header) + b"".join(sections.values())
        with pytest.raises(FormatError, match=f"section {name}: 800 bytes after the end"):
            decode_image(model, padded)

    def test_trailing_bytes_rejected(self, model, image):
        blob = encode_image(model, image[:, :16, :16], spec_for(model, 1.0)) + b"xx"
        with pytest.raises(FormatError, match="2 trailing bytes"):
            decode_image(model, blob)
        with pytest.raises(FormatError, match="trailing"):
            inspect_bitstream(blob)
        with pytest.raises(FormatError, match="trailing"):
            truncate_bitstream(blob, 2.0)
